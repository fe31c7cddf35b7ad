package index

// The query service: range queries, MRT export and RIB reconstruction
// over the journal, using the skip-index to bound how many segments are
// scanned.
// Reconstruction replays updates in write order (segment order, then
// frame order) — the same order a full raw replay sees — so the state it
// produces is byte-equivalent to replaying every segment; the index only
// removes segments that provably contribute nothing to the answer.

import (
	"io"
	"net/netip"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/archive"
	"repro/internal/metrics"
	"repro/internal/mrt"
	"repro/internal/update"
)

// Service answers queries over one journal directory through its Index.
type Service struct {
	Index *Index
	// Registry optionally receives query counters and latency histograms.
	Registry *metrics.Registry
}

// NewService opens the index for dir, syncs it with the segments on
// disk, and returns a ready query service.
func NewService(dir string, reg *metrics.Registry) (*Service, error) {
	ix, err := Open(dir)
	if err != nil {
		return nil, err
	}
	ix.Registry = reg
	if err := ix.Sync(); err != nil {
		return nil, err
	}
	return &Service{Index: ix, Registry: reg}, nil
}

// Stats reconciles the index with the segments on disk and returns the
// aggregate inventory. The resync matters on a live daemon: seal-time
// indexing has never seen the journal's open tail segment, so without it
// the inventory would undercount records that queries (which never skip
// unsealed segments) can already see.
func (s *Service) Stats() (Stats, error) {
	if err := s.Index.Sync(); err != nil {
		return Stats{}, err
	}
	return s.Index.Stats(), nil
}

// scanPlan lists the segments a query must scan, in write order, plus how
// many the index proved skippable.
func (s *Service) scanPlan(q Query) (scan []string, skipped int, err error) {
	segs, err := archive.ListSegments(s.Index.dir)
	if err != nil {
		return nil, 0, err
	}
	s.Index.mu.Lock()
	defer s.Index.mu.Unlock()
	for _, path := range segs {
		m := s.Index.segs[filepath.Base(path)]
		if q.skippable(m) {
			skipped++
			continue
		}
		scan = append(scan, path)
	}
	return scan, skipped, nil
}

// Query scans the matching segments and returns the canonical updates
// selected by q, sorted by timestamp (stable, preserving write order
// within a second). The scan decodes in place and allocates only for the
// updates it returns.
func (s *Service) Query(q Query) ([]*update.Update, error) {
	start := time.Now()
	scan, skipped, err := s.scanPlan(q)
	if err != nil {
		return nil, err
	}
	var out []*update.Update
	var view mrt.UpdateView
	for _, path := range scan {
		_, _, err := archive.ScanUpdates(path, &view, func(v *mrt.UpdateView) error {
			vp := v.VP()
			v.Each(func(p netip.Prefix, withdraw bool) {
				if q.matches(v.Time, p, vp) {
					out = append(out, v.Canonical(p, withdraw))
				}
			})
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Time.Before(out[j].Time) })
	s.account("query", len(scan), skipped, start)
	return out, nil
}

// Export writes the journal records selected by q to w as an MRT stream:
// each matching record's payload unchanged, in write order. A record
// matches when any of its prefixes does (the daemon writes one prefix per
// record, so decoding the export yields what Query returns, stably sorted
// by time). It returns how many records it wrote.
func (s *Service) Export(q Query, w io.Writer) (records int, err error) {
	scan, _, err := s.scanPlan(q)
	if err != nil {
		return 0, err
	}
	var view mrt.UpdateView
	for _, path := range scan {
		_, _, err := archive.ScanSegment(path, func(payload []byte) error {
			if view.Decode(payload) != nil {
				return nil
			}
			vp, hit := view.VP(), false
			view.Each(func(p netip.Prefix, _ bool) {
				hit = hit || q.matches(view.Time, p, vp)
			})
			if !hit {
				return nil
			}
			if _, err := w.Write(payload); err != nil {
				return err
			}
			records++
			return nil
		})
		if err != nil {
			return records, err
		}
	}
	return records, nil
}

// RIBAt reconstructs the routing state at time at: for every (VP, prefix)
// pair selected by prefix/vp (zero values select all), the last update
// with timestamp ≤ at, with withdrawn routes removed. The replay runs in
// write order over the segments that can contribute, and the result is
// sorted by (VP, prefix) so equal states render to equal bytes.
//
// Per-(VP, prefix) state depends only on that pair's own updates, so
// filtering before the replay cannot change the surviving route — which
// is why the prefix/VP skip applies to reconstruction, not just range
// queries.
func (s *Service) RIBAt(at time.Time, prefix netip.Prefix, vp string) ([]*update.Update, error) {
	start := time.Now()
	q := Query{To: at.Add(time.Second), Prefix: prefix, VP: vp}
	scan, skipped, err := s.scanPlan(q)
	if err != nil {
		return nil, err
	}
	routes, err := replayRIB(scan, at, prefix, vp)
	if err != nil {
		return nil, err
	}
	s.account("rib", len(scan), skipped, start)
	return routes, nil
}

// ReplayRIB is the index-free reference reconstruction: it replays every
// segment of dir in write order. The equivalence tests (and sceptical
// operators) compare its output byte-for-byte against RIBAt.
func ReplayRIB(dir string, at time.Time, prefix netip.Prefix, vp string) ([]*update.Update, error) {
	segs, err := archive.ListSegments(dir)
	if err != nil {
		return nil, err
	}
	return replayRIB(segs, at, prefix, vp)
}

// replayRIB folds updates in write order into last-writer-wins state per
// (VP, prefix), then drops withdrawn routes.
func replayRIB(segs []string, at time.Time, prefix netip.Prefix, vp string) ([]*update.Update, error) {
	type key struct {
		vp  string
		pfx netip.Prefix
	}
	routes := make(map[key]*update.Update)
	var view mrt.UpdateView
	for _, path := range segs {
		_, _, err := archive.ScanUpdates(path, &view, func(v *mrt.UpdateView) error {
			from := v.VP()
			if v.Time.After(at) || (vp != "" && from != vp) {
				return nil
			}
			v.Each(func(p netip.Prefix, withdraw bool) {
				if !prefix.IsValid() || p == prefix {
					routes[key{from, p}] = v.Canonical(p, withdraw)
				}
			})
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	out := make([]*update.Update, 0, len(routes))
	for _, u := range routes {
		if u.Withdraw {
			continue
		}
		out = append(out, u)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].VP != out[j].VP {
			return out[i].VP < out[j].VP
		}
		return out[i].Prefix.String() < out[j].Prefix.String()
	})
	return out, nil
}

// account publishes per-query metrics.
func (s *Service) account(kind string, scanned, skipped int, start time.Time) {
	if s.Registry == nil {
		return
	}
	s.Registry.Counter("index.queries." + kind).Inc()
	s.Registry.Counter("index.segments_scanned").Add(uint64(scanned))
	s.Registry.Counter("index.segments_skipped").Add(uint64(skipped))
	s.Registry.Histogram("index.query_ns", metrics.ExpBuckets(1000, 4, 16)).
		Observe(uint64(time.Since(start).Nanoseconds()))
}
