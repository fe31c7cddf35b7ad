// Package gen is the benchmark's seeded input generator: the update mix of
// internal/workload.Stream (Zipf(1.2) prefix popularity, 3–6-hop paths, 5%
// withdrawals, one NLRI per UPDATE) pre-encoded to BGP wire bytes, the
// Poisson and heavy-tailed arrival schedules, and the burst workload's
// filter set. The same seed always yields the same bytes and schedule; the
// program under test receives only these generated inputs.
package gen

import (
	"encoding/binary"
	"math"
	"math/rand"
	"net/netip"
	"strconv"
	"time"

	"repro/internal/bgp"
	"repro/internal/filter"
)

const (
	// Prefixes is the size of the /24 universe.
	Prefixes = 20000
	// Groups partitions the universe into equal CIDR-aligned blocks:
	// Prefix(i) lies within Within(i % Groups). The hub walk hangs one
	// subscriber filter on each block, so every event matches exactly one
	// group.
	Groups = 16
	// FirstAS is sender 0's AS; sender i peers as AS FirstAS+i and the
	// daemon names it "vp<AS>".
	FirstAS = 65001

	keepEvery = 10 // Filters keeps one popularity rank in ten per VP

	// pinnedRanks is how many of the most popular ranks map to the same
	// prefixes on every seed (≈88% of the Zipf mass). The daemon keys
	// per-prefix work on the prefix itself (shard hashing, the 1-in-64
	// shadow-lane sample), so letting the seed move the heavy hitters
	// would make two seeds two different workloads; the seed still
	// permutes the tail and draws every path, sender and arrival time.
	pinnedRanks = 1024
)

// Prefix returns the i-th /24 of the universe.
func Prefix(i int) netip.Prefix {
	g, j := i%Groups, i/Groups
	return netip.PrefixFrom(netip.AddrFrom4([4]byte{32, byte(g<<4 | j>>8), byte(j), 0}), 24)
}

// PrefixIndex inverts Prefix on the second and third address octets.
func PrefixIndex(b1, b2 byte) int {
	return (int(b1&0x0f)<<8|int(b2))*Groups + int(b1>>4)
}

// Within returns the block holding every prefix of group g.
func Within(g int) netip.Prefix {
	return netip.PrefixFrom(netip.AddrFrom4([4]byte{32, byte(g << 4), 0, 0}), 12)
}

// VPName is the daemon's name for sender vp.
func VPName(vp int) string { return "vp" + strconv.Itoa(FirstAS+vp) }

// Msg is one generated UPDATE carrying one prefix.
type Msg struct {
	VP       int
	Prefix   int // index into the universe
	Withdraw bool
	Path     []uint32 // nil on withdrawals
	// Wire is the encoded BGP message. An announcement's last COMMUNITIES
	// value is its 32-bit tag (its index in the stream), which /stream and
	// the archive echo; SetTag rewrites it when a closed loop reuses the
	// message.
	Wire []byte
}

// SetTag overwrites an announcement's tag in place: the tag is the last
// community, followed only by the 4-byte /24 NLRI.
func SetTag(wire []byte, tag uint32) {
	binary.BigEndian.PutUint32(wire[len(wire)-8:], tag)
}

// Stream is a generated input: the messages plus the seed's popularity
// order, which the filter set and the read phase's prefix choice share.
type Stream struct {
	VPs  int
	Msgs []Msg
	// ByRank[r] is the prefix index holding Zipf popularity rank r.
	ByRank []int
	rankOf []int
}

// New generates n messages spread uniformly over vps senders.
func New(seed int64, vps, n int) (*Stream, error) {
	r := rand.New(rand.NewSource(seed))
	s := &Stream{VPs: vps, Msgs: make([]Msg, n), ByRank: make([]int, Prefixes), rankOf: make([]int, Prefixes)}
	for rank := range s.ByRank[:pinnedRanks] {
		s.ByRank[rank] = rank
	}
	for i, p := range r.Perm(Prefixes - pinnedRanks) {
		s.ByRank[pinnedRanks+i] = pinnedRanks + p
	}
	for rank, p := range s.ByRank {
		s.rankOf[p] = rank
	}
	zipf := rand.NewZipf(r, 1.2, 1, Prefixes-1)
	arena := make([]byte, 0, n*88)
	for k := range s.Msgs {
		m := &s.Msgs[k]
		m.VP = r.Intn(vps)
		m.Prefix = s.ByRank[zipf.Uint64()]
		as := uint32(FirstAS + m.VP)
		var u bgp.Update
		if r.Intn(20) == 0 {
			m.Withdraw = true
			u.Withdrawn = []netip.Prefix{Prefix(m.Prefix)}
		} else {
			m.Path = make([]uint32, 1, 6)
			m.Path[0] = as
			for hops := 2 + r.Intn(4); hops > 0; hops-- {
				m.Path = append(m.Path, uint32(100+r.Intn(5000)))
			}
			u.Origin = bgp.OriginIGP
			u.ASPath = m.Path
			u.NextHop = netip.AddrFrom4([4]byte{192, 0, 2, byte(as)})
			u.NLRI = []netip.Prefix{Prefix(m.Prefix)}
			if r.Intn(3) == 0 {
				u.Communities = append(u.Communities, bgp.Community(as<<16|uint32(r.Intn(500))))
			}
			u.Communities = append(u.Communities, bgp.Community(k))
		}
		start := len(arena)
		var err error
		if arena, err = bgp.AppendMessage(arena, &u); err != nil {
			return nil, err
		}
		m.Wire = arena[start:len(arena):len(arena)]
	}
	return s, nil
}

// Kept reports whether the burst workload's filter set retains the
// (vp, prefix) slot. Retention goes by popularity rank, not by prefix, so
// every seed retains the same share of the Zipf mass (≈9% of updates)
// while the retained prefixes themselves differ.
func (s *Stream) Kept(vp, prefix int) bool {
	return (s.rankOf[prefix]+vp)%keepEvery == 3
}

// Filters builds the drop rules Kept describes: 90% of the slots.
func (s *Stream) Filters() *filter.Set {
	fs := filter.NewSet(filter.GranVPPrefix)
	for vp := 0; vp < s.VPs; vp++ {
		for p := 0; p < Prefixes; p++ {
			if !s.Kept(vp, p) {
				fs.AddDropVPPrefix(VPName(vp), Prefix(p))
			}
		}
	}
	return fs
}

// Poisson returns n send offsets with exponential gaps, rescaled so the
// last one falls exactly at n/rate: the realised mean rate is the target.
func Poisson(seed int64, n int, rate float64) []time.Duration {
	r := rand.New(rand.NewSource(seed))
	at := make([]float64, n)
	t := 0.0
	for i := range at {
		t += r.ExpFloat64()
		at[i] = t
	}
	return rescale(at, float64(n)/rate)
}

// Burst sizes are Pareto(α) between burstMin and burstCap messages.
const (
	burstAlpha = 1.5
	burstMin   = 64
	burstCap   = 512
)

// Bursty returns n send offsets of a policed on/off source at the given
// mean rate: bursts whose messages are all due at once, each followed by a
// hold-off proportional to its size (the time it would take at twice the
// mean rate) plus an exponential gap of the same mean. So arrivals are
// heavy-tailed and really queue, but no interval carries more than one
// burst plus twice the mean rate: without the hold-off, the worst pile-up
// of bursts differed by half from seed to seed, and with it the tail
// latency and whether a shard queue overflowed.
//
// Burst sizes are the Pareto quantiles at evenly spaced probabilities,
// shuffled by the seed, so every seed offers the same multiset of bursts
// (the heavy tail is always fully present) and only their order and
// spacing change.
func Bursty(seed int64, n int, rate float64) []time.Duration {
	r := rand.New(rand.NewSource(seed))
	sizes := paretoSizes(n)
	r.Shuffle(len(sizes), func(i, j int) { sizes[i], sizes[j] = sizes[j], sizes[i] })
	meanSize := float64(n) / float64(len(sizes))
	at := make([]float64, 0, n)
	t := 0.0
	for _, size := range sizes {
		t += r.ExpFloat64()
		for i := 0; i < size; i++ {
			at = append(at, t)
		}
		t += float64(size) / meanSize
	}
	return rescale(at, float64(n)/rate)
}

// paretoSizes returns burst sizes summing to exactly n.
func paretoSizes(n int) []int {
	quantiles := func(m int) (sizes []int, sum int) {
		for j := 0; j < m; j++ {
			q := (float64(j) + 0.5) / float64(m)
			size := int(math.Min(burstCap, burstMin*math.Pow(1-q, -1/burstAlpha)))
			sizes = append(sizes, size)
			sum += size
		}
		return sizes, sum
	}
	// The uncapped Pareto mean, 3×burstMin, exceeds the capped one, so
	// this many bursts undershoot n and the search only has to grow.
	m := max(1, n/(3*burstMin))
	sizes, sum := quantiles(m)
	for sum < n {
		m++
		sizes, sum = quantiles(m)
	}
	// Trim the overshoot from the largest bursts (the last quantiles).
	for i, over := m-1, sum-n; over > 0; i-- {
		cut := min(over, sizes[i]-1)
		sizes[i] -= cut
		over -= cut
	}
	return sizes
}

func rescale(at []float64, span float64) []time.Duration {
	out := make([]time.Duration, len(at))
	k := span / at[len(at)-1] * float64(time.Second)
	for i, t := range at {
		out[i] = time.Duration(t * k)
	}
	return out
}
