package pipeline

// Built-in stages: the GILL collection path decomposed. A daemon composes
// FilterStage → LiveStage → ArchiveStage → CounterStage; offline tools
// can insert custom stages anywhere in the chain.

import (
	"net/netip"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/bgp"
	"repro/internal/filter"
	"repro/internal/metrics"
	"repro/internal/mrt"
	"repro/internal/update"
)

// FilterStage applies a GILL filter set (§7); updates the set discards do
// not reach later stages. A nil set keeps everything (the pipeline still
// accounts the stage, so loss attribution is uniform). The installed set
// can be replaced at runtime via Swap — the orchestrator's refresh path
// and the daemon's degraded retain-everything fallback both go through it
// without stopping the pipeline.
type FilterStage struct {
	// Set is the initial filter set, read until the first Swap.
	Set *filter.Set

	// ShadowSelect picks the (VP,prefix) slots mirrored into the shadow
	// lane (e.g. quality.Selector.Selected); ShadowSink receives every
	// update of a selected slot together with the filter's verdict —
	// including the updates the filter discarded, which is the point: the
	// data-quality plane needs the would-have-been stream to audit the
	// drops. Both must be set before Start and must not block (the sink is
	// called from shard workers; selection is per-(VP,prefix) so a slot's
	// updates all land on one shard and the sink sees them in order).
	ShadowSelect func(*update.Update) bool
	ShadowSink   func(u *update.Update, kept bool)

	swapped atomic.Bool
	dyn     atomic.Pointer[filter.Set]
}

// Name implements Stage.
func (s *FilterStage) Name() string { return "filter" }

// Swap atomically replaces the filter set for subsequent batches; nil
// means retain everything. Safe concurrently with Process.
func (s *FilterStage) Swap(set *filter.Set) {
	s.dyn.Store(set)
	s.swapped.Store(true)
}

// Current returns the filter set in effect.
func (s *FilterStage) Current() *filter.Set {
	if s.swapped.Load() {
		return s.dyn.Load()
	}
	return s.Set
}

// Process implements Stage.
func (s *FilterStage) Process(batch []*update.Update) []*update.Update {
	set := s.Current()
	shadow := s.ShadowSink != nil && s.ShadowSelect != nil
	if set == nil && !shadow {
		return batch
	}
	kept := batch[:0]
	for _, u := range batch {
		k := set == nil || set.Keep(u)
		if shadow && s.ShadowSelect(u) {
			s.ShadowSink(u, k)
		}
		if k {
			kept = append(kept, u)
		}
	}
	return kept
}

// LiveStage fans retained updates out to a live feed (§9), e.g. a
// stream.Hub's Publish. The publish function must not block: slow
// subscribers are the feed's problem (it evicts them), not the ingest
// path's.
type LiveStage struct {
	Publish func(*update.Update)
}

// Name implements Stage.
func (s *LiveStage) Name() string { return "live" }

// Process implements Stage.
func (s *LiveStage) Process(batch []*update.Update) []*update.Update {
	if s.Publish != nil {
		for _, u := range batch {
			s.Publish(u)
		}
	}
	return batch
}

// ArchiveStage writes each update as one BGP4MP MRT record. A batch is
// encoded once, in the shard worker (parallel), into one pooled arena, and
// handed to Sink in one call that completes before Process returns. With
// no Sink the stage encodes nothing and still counts written updates,
// mirroring the daemon's historical accounting.
type ArchiveStage struct {
	// LocalAS and LocalIP identify the collector in BGP4MP headers.
	LocalAS uint32
	LocalIP netip.Addr
	// Sink receives the batch's encoded records, in order, once per batch
	// (e.g. an archive.Journal's AppendBatch) and returns how many of them
	// it stored; the rest are charged to Failed. The slices alias the
	// stage's arena and are valid only until Sink returns. Every shard
	// worker calls Sink, with no lock of the stage's held, so it must be
	// safe for concurrent use.
	Sink func(recs [][]byte) (int, error)
	// Peer resolves a VP name to its (AS, IP) identity; nil derives the
	// AS from the canonical "vp<AS>" name with a placeholder IP.
	Peer func(vp string) (uint32, netip.Addr)

	written atomic.Uint64
	failed  atomic.Uint64
}

// Name implements Stage.
func (s *ArchiveStage) Name() string { return "archive" }

// Written returns the number of records archived.
func (s *ArchiveStage) Written() uint64 { return s.written.Load() }

// Failed returns the number of records that could not be archived —
// encode errors or sink errors. Every update entering Process lands in
// exactly one of Written or Failed, which is what lets the data-quality
// plane's completeness ledger balance even under injected archive faults.
func (s *ArchiveStage) Failed() uint64 { return s.failed.Load() }

// archScratch is the pooled per-batch encode arena: the whole batch's
// wire bytes in one buffer, per-record end offsets slicing it back apart
// into recs, and one record — MRT envelope, BGP message, prefix and
// communities — refilled for every update, so a warm batch encodes
// without allocating.
type archScratch struct {
	wire []byte
	ends []int
	recs [][]byte

	rec    mrt.Record
	bgp4mp mrt.BGP4MPMessage
	msg    bgp.Update
	prefix [1]netip.Prefix
	comms  []bgp.Community
}

var archPool = sync.Pool{New: func() any { return new(archScratch) }}

// Process implements Stage.
func (s *ArchiveStage) Process(batch []*update.Update) []*update.Update {
	ok := len(batch) // updates still on their way to Written
	if s.Sink != nil {
		sc := archPool.Get().(*archScratch)
		wire, ends, recs := sc.wire[:0], sc.ends[:0], sc.recs[:0]
		for _, u := range batch {
			var err error
			if wire, err = mrt.AppendRecord(wire, sc.fill(s, u)); err == nil {
				ends = append(ends, len(wire))
			}
		}
		sc.msg.ASPath = nil // don't let the pool pin the last update's path
		prev := 0
		for _, end := range ends {
			recs = append(recs, wire[prev:end])
			prev = end
		}
		ok = 0
		if len(recs) > 0 {
			n, _ := s.Sink(recs)
			ok = max(0, min(n, len(recs)))
		}
		sc.wire, sc.ends, sc.recs = wire, ends, recs
		archPool.Put(sc)
	}
	s.written.Add(uint64(ok))
	s.failed.Add(uint64(len(batch) - ok))
	return batch
}

// fill rebuilds u's per-prefix BGP message in the scratch record and wraps
// it in a BGP4MP header stamped with the update's own timestamp.
func (sc *archScratch) fill(s *ArchiveStage, u *update.Update) *mrt.Record {
	peerAS, peerIP := s.resolvePeer(u.VP)
	sc.prefix[0] = u.Prefix
	msg := &sc.msg
	*msg = bgp.Update{}
	v6 := u.Prefix.Addr().Is6()
	switch {
	case u.Withdraw && v6:
		msg.V6Withdrawn = sc.prefix[:]
	case u.Withdraw:
		msg.Withdrawn = sc.prefix[:]
	default:
		msg.Origin = bgp.OriginIGP
		msg.ASPath = u.Path
		sc.comms = sc.comms[:0]
		for _, c := range u.Comms {
			sc.comms = append(sc.comms, bgp.Community(c))
		}
		msg.Communities = sc.comms
		if v6 {
			msg.V6NLRI = sc.prefix[:]
			msg.V6NextHop = v6AddrOr(peerIP)
		} else {
			msg.NLRI = sc.prefix[:]
			msg.NextHop = v4AddrOr(peerIP)
		}
	}
	sc.bgp4mp = mrt.BGP4MPMessage{
		PeerAS:  peerAS,
		LocalAS: s.LocalAS,
		PeerIP:  peerIP,
		LocalIP: v4AddrOr(s.LocalIP),
		Message: msg,
	}
	sc.rec = mrt.Record{
		Header: mrt.Header{
			Timestamp: u.Time,
			Type:      mrt.TypeBGP4MP,
			Subtype:   mrt.SubtypeBGP4MPMessageAS4,
		},
		BGP4MP: &sc.bgp4mp,
	}
	return &sc.rec
}

func (s *ArchiveStage) resolvePeer(vp string) (uint32, netip.Addr) {
	if s.Peer != nil {
		return s.Peer(vp)
	}
	var as uint64
	if len(vp) > 2 {
		as, _ = strconv.ParseUint(vp[2:], 10, 32)
	}
	return uint32(as), netip.AddrFrom4([4]byte{10, 0, byte(as >> 8), byte(as)})
}

func v4AddrOr(a netip.Addr) netip.Addr {
	if a.IsValid() && a.Is4() {
		return a
	}
	return netip.AddrFrom4([4]byte{192, 0, 2, 1})
}

var v6Placeholder = netip.MustParseAddr("2001:db8::1")

func v6AddrOr(a netip.Addr) netip.Addr {
	if a.IsValid() && a.Is6() && !a.Is4In6() {
		return a
	}
	return v6Placeholder
}

// CounterStage feeds a metrics registry with the retained update mix; it
// passes every update through unchanged. Place it last to count what
// survived the chain, or first to count the offered mix.
type CounterStage struct {
	updates     *metrics.Counter
	withdrawals *metrics.Counter
}

// NewCounterStage registers <prefix>.updates and <prefix>.withdrawals in
// reg.
func NewCounterStage(reg *metrics.Registry, prefix string) *CounterStage {
	return &CounterStage{
		updates:     reg.Counter(prefix + ".updates"),
		withdrawals: reg.Counter(prefix + ".withdrawals"),
	}
}

// Name implements Stage.
func (s *CounterStage) Name() string { return "counter" }

// Process implements Stage.
func (s *CounterStage) Process(batch []*update.Update) []*update.Update {
	var w uint64
	for _, u := range batch {
		if u.Withdraw {
			w++
		}
	}
	s.updates.Add(uint64(len(batch)))
	s.withdrawals.Add(w)
	return batch
}
