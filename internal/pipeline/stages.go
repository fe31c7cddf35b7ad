package pipeline

// Built-in stages: the GILL collection path decomposed. A daemon composes
// FilterStage → LiveStage → ArchiveStage → CounterStage; offline tools
// can insert RedundancyStage or custom stages anywhere in the chain.

import (
	"io"
	"net/netip"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

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

// RedundancyStage tags each update that is redundant with another update
// of the same batch under one of the paper's Definitions 1–3 (§4.2).
// Tagging is batch-local: with the pipeline's (VP, prefix) shard key, the
// updates a definition can relate are co-located on one shard, so larger
// batches see more of the slack window. With Drop set, tagged updates are
// discarded instead of passed on (an overshoot-and-discard experiment
// knob; production GILL discards via compiled filters, not live tagging).
type RedundancyStage struct {
	Def  update.Definition
	Drop bool
}

// Name implements Stage.
func (s *RedundancyStage) Name() string { return "redundancy" }

// Process implements Stage.
func (s *RedundancyStage) Process(batch []*update.Update) []*update.Update {
	def := s.Def
	if def == 0 {
		def = update.Def1
	}
	marks := update.MarkRedundant(def, batch)
	for i, u := range batch {
		u.Redundant = marks[i]
	}
	if !s.Drop {
		return batch
	}
	kept := batch[:0]
	for i, u := range batch {
		if !marks[i] {
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

// ArchiveStage writes each update as one BGP4MP MRT record. Records are
// encoded in the shard workers (parallel) and written to the shared
// destination under one lock per batch, so batching turns N record
// writes into one synchronous I/O. Out and Sink are both optional; with
// neither set the stage still counts written updates, mirroring the
// daemon's historical accounting.
type ArchiveStage struct {
	// LocalAS and LocalIP identify the collector in BGP4MP headers.
	LocalAS uint32
	LocalIP netip.Addr
	// Out receives the raw MRT byte stream (e.g. a gzip writer).
	Out io.Writer
	// Sink receives each record (e.g. an archive.Store's Append).
	Sink func(*mrt.Record) error
	// Peer resolves a VP name to its (AS, IP) identity; nil derives the
	// AS from the canonical "vp<AS>" name with a placeholder IP.
	Peer func(vp string) (uint32, netip.Addr)
	// WriteDelay emulates the synchronous latency of one batched write
	// (charged once per Process call), letting load tests reproduce the
	// disk-bound regime of Table 1. It is taken outside the write lock:
	// shards overlap their outstanding writes like a storage queue, so
	// batching amortizes the latency and sharding hides it.
	WriteDelay time.Duration

	mu      sync.Mutex
	written atomic.Uint64
	failed  atomic.Uint64
}

// Name implements Stage.
func (s *ArchiveStage) Name() string { return "archive" }

// Written returns the number of records archived.
func (s *ArchiveStage) Written() uint64 { return s.written.Load() }

// Failed returns the number of records that could not be archived —
// encode errors, destination write errors, or sink errors. Every update
// entering Process lands in exactly one of Written or Failed, which is
// what lets the data-quality plane's completeness ledger balance even
// under injected archive faults.
func (s *ArchiveStage) Failed() uint64 { return s.failed.Load() }

// Flush implements Flusher: buffered destinations (gzip, bufio) are
// flushed so a drained pipeline leaves a readable archive.
func (s *ArchiveStage) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if f, ok := s.Out.(interface{ Flush() error }); ok {
		return f.Flush()
	}
	return nil
}

// archScratch is the pooled per-batch encode arena: the whole batch's
// wire bytes in one buffer, per-record end offsets slicing it back apart,
// and the record list. Records themselves are still allocated fresh —
// Sink may retain them — but the encode path reuses everything else.
type archScratch struct {
	wire []byte
	ends []int
	recs []*mrt.Record
}

var archPool = sync.Pool{New: func() any { return new(archScratch) }}

// Process implements Stage.
func (s *ArchiveStage) Process(batch []*update.Update) []*update.Update {
	encode := s.Out != nil
	sc := archPool.Get().(*archScratch)
	wire, ends, recs := sc.wire[:0], sc.ends[:0], sc.recs[:0]
	for _, u := range batch {
		rec := s.record(u)
		if encode {
			var err error
			wire, err = mrt.AppendRecord(wire, rec)
			if err != nil {
				s.failed.Add(1)
				continue
			}
		}
		ends = append(ends, len(wire))
		recs = append(recs, rec)
	}
	if s.WriteDelay > 0 && len(recs) > 0 {
		time.Sleep(s.WriteDelay)
	}
	s.mu.Lock()
	prev := 0
	for i, rec := range recs {
		if s.Out != nil {
			end := ends[i]
			_, err := s.Out.Write(wire[prev:end])
			prev = end
			if err != nil {
				s.failed.Add(1)
				continue
			}
		}
		if s.Sink != nil {
			if err := s.Sink(rec); err != nil {
				s.failed.Add(1)
				continue
			}
		}
		s.written.Add(1)
	}
	s.mu.Unlock()
	clear(recs) // don't let the pool pin records the sink may retain
	sc.wire, sc.ends, sc.recs = wire, ends, recs
	archPool.Put(sc)
	return batch
}

// record rebuilds the per-prefix BGP message and wraps it in a BGP4MP
// header stamped with the update's own timestamp.
func (s *ArchiveStage) record(u *update.Update) *mrt.Record {
	peerAS, peerIP := s.resolvePeer(u.VP)
	msg := &bgp.Update{}
	v6 := u.Prefix.Addr().Is6()
	if u.Withdraw {
		if v6 {
			msg.V6Withdrawn = []netip.Prefix{u.Prefix}
		} else {
			msg.Withdrawn = []netip.Prefix{u.Prefix}
		}
	} else {
		msg.Origin = bgp.OriginIGP
		msg.ASPath = u.Path
		for _, c := range u.Comms {
			msg.Communities = append(msg.Communities, bgp.Community(c))
		}
		if v6 {
			msg.V6NLRI = []netip.Prefix{u.Prefix}
			msg.V6NextHop = v6AddrOr(peerIP)
		} else {
			msg.NLRI = []netip.Prefix{u.Prefix}
			msg.NextHop = v4AddrOr(peerIP)
		}
	}
	return &mrt.Record{
		Header: mrt.Header{
			Timestamp: u.Time,
			Type:      mrt.TypeBGP4MP,
			Subtype:   mrt.SubtypeBGP4MPMessageAS4,
		},
		BGP4MP: &mrt.BGP4MPMessage{
			PeerAS:  peerAS,
			LocalAS: s.LocalAS,
			PeerIP:  peerIP,
			LocalIP: v4AddrOr(s.LocalIP),
			Message: msg,
		},
	}
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

func v6AddrOr(a netip.Addr) netip.Addr {
	if a.IsValid() && a.Is6() && !a.Is4In6() {
		return a
	}
	return netip.MustParseAddr("2001:db8::1")
}

// CounterStage feeds a metrics registry with the retained update mix; it
// passes every update through unchanged. Place it last to count what
// survived the chain, or first to count the offered mix.
type CounterStage struct {
	updates     *metrics.Counter
	withdrawals *metrics.Counter
	redundant   *metrics.Counter
}

// NewCounterStage registers <prefix>.updates, <prefix>.withdrawals and
// <prefix>.redundant in reg.
func NewCounterStage(reg *metrics.Registry, prefix string) *CounterStage {
	return &CounterStage{
		updates:     reg.Counter(prefix + ".updates"),
		withdrawals: reg.Counter(prefix + ".withdrawals"),
		redundant:   reg.Counter(prefix + ".redundant"),
	}
}

// Name implements Stage.
func (s *CounterStage) Name() string { return "counter" }

// Process implements Stage.
func (s *CounterStage) Process(batch []*update.Update) []*update.Update {
	var w, r uint64
	for _, u := range batch {
		if u.Withdraw {
			w++
		}
		if u.Redundant {
			r++
		}
	}
	s.updates.Add(uint64(len(batch)))
	s.withdrawals.Add(w)
	s.redundant.Add(r)
	return batch
}
