// Package update defines the canonical BGP update record used throughout
// the system — u(v, t, p, L, Lw, C, Cw) in the paper's notation (§4.2) —
// and implements the three gradually stricter redundancy definitions that
// motivate GILL's overshoot-and-discard collection scheme.
package update

import (
	"fmt"
	"net/netip"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Slack is the timestamp slack used when comparing updates (§4.2,
// condition 1): two updates within Slack of one another can be redundant,
// accommodating typical BGP convergence time.
const Slack = 100 * time.Second

// ComparePrefix is the one prefix order: by address, then by length, so
// 10.0.0.0/8 sorts before 10.0.0.0/16 and every IPv4 prefix before any
// IPv6 one. Whatever lists prefixes out of a map sorts them with it, so
// that two prefixes at one address never fall to map iteration order.
func ComparePrefix(a, b netip.Prefix) int {
	if c := a.Addr().Compare(b.Addr()); c != 0 {
		return c
	}
	return a.Bits() - b.Bits()
}

// Link is one directed AS-level adjacency extracted from an AS path.
type Link struct {
	From, To uint32
}

// String implements fmt.Stringer.
func (l Link) String() string { return fmt.Sprintf("%d-%d", l.From, l.To) }

// Update is the canonical stored BGP update. L (Links) is the set of AS
// links in the AS path; Lw (WdLinks) is the set of links implicitly
// withdrawn, i.e. present in the previous update for the same (VP, prefix)
// and absent from this one. C (Comms) and Cw (WdComms) are the analogous
// community sets.
type Update struct {
	VP     string
	Time   time.Time
	Prefix netip.Prefix
	Path   []uint32
	Comms  []uint32

	WdLinks []Link
	WdComms []uint32

	// Withdraw marks an explicit route withdrawal (no path).
	Withdraw bool

	// TraceID carries the distributed trace ID stamped by the pipeline on
	// the ~1/1024 sampled updates (zero otherwise). It rides the stream
	// and serving envelopes so a sampled update's journey is stitchable
	// across processes; it is not part of the update's identity.
	TraceID uint64
}

// Links returns the directed AS links of the update's AS path.
func (u *Update) Links() []Link {
	return PathLinks(u.Path)
}

// PathLinks extracts the directed links from an AS path, skipping
// prepending (consecutive duplicate ASNs).
func PathLinks(path []uint32) []Link {
	var out []Link
	for i := 0; i+1 < len(path); i++ {
		if path[i] == path[i+1] {
			continue
		}
		out = append(out, Link{From: path[i], To: path[i+1]})
	}
	return out
}

// Origin returns the origin AS of the path (the last element) or 0 for an
// empty path.
func (u *Update) Origin() uint32 {
	if len(u.Path) == 0 {
		return 0
	}
	return u.Path[len(u.Path)-1]
}

// keyPool holds reusable key-builder scratch (byte buffer plus a
// community sort area) so the per-update AttrKey/PathKey cost is the one
// unavoidable string allocation.
var keyPool = sync.Pool{New: func() any { return new(keyScratch) }}

type keyScratch struct {
	b  []byte
	cs []uint32
}

// AttrKey returns a stable key identifying the update within a correlation
// group: VP, AS path, and community values — everything but prefix and
// time (§17.1).
func (u *Update) AttrKey() string {
	s := keyPool.Get().(*keyScratch)
	b := append(s.b[:0], u.VP...)
	b = append(b, '|')
	if u.Withdraw {
		b = append(b, 'W')
	}
	for _, as := range u.Path {
		b = append(b, ' ')
		b = strconv.AppendUint(b, uint64(as), 10)
	}
	b = append(b, '|')
	cs := append(s.cs[:0], u.Comms...)
	insertionSortU32(cs)
	for _, c := range cs {
		b = append(b, ' ')
		b = strconv.AppendUint(b, uint64(c), 10)
	}
	out := string(b)
	s.b, s.cs = b, cs
	keyPool.Put(s)
	return out
}

// PathKey returns a stable key for the AS path alone.
func PathKey(path []uint32) string {
	if len(path) == 0 {
		return ""
	}
	s := keyPool.Get().(*keyScratch)
	b := s.b[:0]
	for _, as := range path {
		b = strconv.AppendUint(b, uint64(as), 10)
		b = append(b, ' ')
	}
	out := string(b)
	s.b = b
	keyPool.Put(s)
	return out
}

// insertionSortU32 sorts s ascending in place; community sets are small
// enough that this beats sort.Slice without its closure allocation.
func insertionSortU32(s []uint32) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// Annotate fills WdLinks and WdComms across a stream of updates by
// replaying per-(VP, prefix) history in timestamp order. The input slice is
// sorted in place by time; the updates are mutated. Each update's link set
// is extracted exactly once and carried forward, so the pass costs one
// Links() per update rather than two.
func Annotate(us []*Update) {
	sort.SliceStable(us, func(i, j int) bool { return us[i].Time.Before(us[j].Time) })
	type key struct {
		vp string
		p  netip.Prefix
	}
	type prevEntry struct {
		links []Link
		comms []uint32
	}
	prev := make(map[key]prevEntry)
	for _, u := range us {
		k := key{u.VP, u.Prefix}
		links := u.Links()
		if p, ok := prev[k]; ok {
			u.WdLinks = linkDiff(p.links, links)
			u.WdComms = setDiff(p.comms, u.Comms)
		} else {
			u.WdLinks, u.WdComms = nil, nil
		}
		prev[k] = prevEntry{links: links, comms: u.Comms}
	}
}

// linksHas reports whether l appears in ls.
func linksHas(ls []Link, l Link) bool {
	for _, x := range ls {
		if x == l {
			return true
		}
	}
	return false
}

// u32Has reports whether v appears in s.
func u32Has(s []uint32, v uint32) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// linkDiff returns the links in old that are absent from new. Link sets
// are AS-path sized, so a direct scan beats building a membership map.
func linkDiff(old, new []Link) []Link {
	var out []Link
	for _, l := range old {
		if !linksHas(new, l) {
			out = append(out, l)
		}
	}
	return out
}

// setDiff returns values in old absent from new.
func setDiff(old, new []uint32) []uint32 {
	var out []uint32
	for _, v := range old {
		if !u32Has(new, v) {
			out = append(out, v)
		}
	}
	return out
}
