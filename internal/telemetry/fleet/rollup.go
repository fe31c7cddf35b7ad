package fleet

import (
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/metrics"
	"repro/internal/telemetry"
)

// Rollup is the fleet-wide aggregate view: counters and gauges summed
// across collectors, histograms merged over the exact union of their
// bucket boundaries (metrics.HistogramSnapshot.Merge — exact for the
// identical layouts every collector runs), plus the per-collector scrape
// health rows and per-collector counter values for labeled export.
type Rollup struct {
	At         time.Time                            `json:"at"`
	Collectors []CollectorHealth                    `json:"collectors"`
	Counters   map[string]uint64                    `json:"counters"`
	Gauges     map[string]int64                     `json:"gauges"`
	Histograms map[string]metrics.HistogramSnapshot `json:"-"`
	// PerCollector maps collector ID → counter name → value, the source
	// of the {collector="..."} labeled series on /fleet/metrics.
	PerCollector map[string]map[string]uint64 `json:"per_collector,omitempty"`
}

// Rollup aggregates the last-known snapshot of every collector. Stale
// collectors' snapshots are included (their health rows carry the flag);
// only collectors never scraped contribute nothing.
func (f *Federator) Rollup() Rollup {
	snaps, health := f.snapshots()
	r := Rollup{
		At:           f.cfg.Clock(),
		Collectors:   health,
		Counters:     make(map[string]uint64),
		Gauges:       make(map[string]int64),
		Histograms:   make(map[string]metrics.HistogramSnapshot),
		PerCollector: make(map[string]map[string]uint64, len(snaps)),
	}
	ids := make([]string, 0, len(snaps))
	for id := range snaps {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		snap := snaps[id]
		per := make(map[string]uint64, len(snap.Counters))
		for name, v := range snap.Counters {
			r.Counters[name] += v
			per[name] = v
		}
		r.PerCollector[id] = per
		for name, v := range snap.Gauges {
			r.Gauges[name] += v
		}
		for name, h := range snap.Histograms {
			r.Histograms[name] = r.Histograms[name].Merge(h)
		}
	}
	return r
}

// WriteProm renders the rollup in Prometheus text exposition format: the
// aggregate series under their original (sanitized) names, per-collector
// counter series labeled {collector="id"}, and the fleet_collector_up /
// fleet_collector_scrape_age_seconds health markers. A stale collector
// keeps all its series (up=0, age growing) — vanishing series are how
// fleets lose collectors silently.
func (r Rollup) WriteProm(w io.Writer) error {
	ids := make([]string, 0, len(r.Collectors))
	upByID := make(map[string]int, len(r.Collectors))
	ageByID := make(map[string]float64, len(r.Collectors))
	for _, h := range r.Collectors {
		ids = append(ids, h.ID)
		if h.State == StateFresh {
			upByID[h.ID] = 1
		}
		ageByID[h.ID] = float64(h.ScrapeAgeMS) / 1000
	}
	sort.Strings(ids)

	if _, err := fmt.Fprintf(w, "# TYPE fleet_collector_up gauge\n"); err != nil {
		return err
	}
	for _, id := range ids {
		if _, err := fmt.Fprintf(w, "fleet_collector_up{collector=%q} %d\n", id, upByID[id]); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "# TYPE fleet_collector_scrape_age_seconds gauge\n"); err != nil {
		return err
	}
	for _, id := range ids {
		if _, err := fmt.Fprintf(w, "fleet_collector_scrape_age_seconds{collector=%q} %g\n", id, ageByID[id]); err != nil {
			return err
		}
	}

	for _, name := range sortedKeys(r.Counters) {
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", name, name, r.Counters[name]); err != nil {
			return err
		}
		for _, id := range ids {
			per := r.PerCollector[id]
			if v, ok := per[name]; ok {
				if _, err := fmt.Fprintf(w, "%s{collector=%q} %d\n", name, id, v); err != nil {
					return err
				}
			}
		}
	}
	for _, name := range sortedKeys(r.Gauges) {
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", name, name, r.Gauges[name]); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(r.Histograms) {
		if err := telemetry.WritePromHistogram(w, name, r.Histograms[name]); err != nil {
			return err
		}
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
