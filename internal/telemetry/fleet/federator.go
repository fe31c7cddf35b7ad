// Package fleet is the coordinator-side observability plane over a
// federated collector fleet (the paper's ~2500-VP deployment cannot be
// operated through per-process /metrics pages): it scrapes each
// registered collector's admin /metrics?format=json — the registry
// snapshot under the names its Prometheus text uses — serves fleet-wide
// rollups (summed counters, bucket-union-merged histograms, per-collector
// staleness markers) on /fleet/metrics, stitches cross-process traces on
// /fleet/tracez, and evaluates declarative SLOs with multi-window
// burn-rate alerts on /alertz.
package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/telemetry"
	"repro/internal/vitals"
)

// Scrape-model defaults. The interval is deliberately coarse relative to
// the control plane's heartbeats: federation is an operator surface, and
// its cost must stay invisible next to ingest (the overhead guard in the
// fleet tests holds it under 5% of throughput).
const (
	DefaultScrapeInterval = 5 * time.Second
	DefaultScrapeTimeout  = 2 * time.Second
)

// Target is one scrapeable collector, as reported by the fabric
// coordinator's fleet status: every collector holding a lease is a
// target, connected or not — a partitioned collector keeps its lease for
// a while and must keep appearing in rollups (as stale) rather than
// silently vanish.
type Target struct {
	ID        string
	AdminAddr string
	Connected bool
}

// Config parameterizes a Federator.
type Config struct {
	// Targets lists the current scrape targets (typically derived from
	// fabric.Coordinator.Status). Required.
	Targets func() []Target
	// Interval is the scrape cadence for Run (default
	// DefaultScrapeInterval).
	Interval time.Duration
	// StaleAfter is how long after the last successful scrape a collector
	// renders as stale (default 3×Interval).
	StaleAfter time.Duration
	// Timeout bounds one scrape HTTP request (default
	// DefaultScrapeTimeout).
	Timeout time.Duration
	// Client overrides the scrape HTTP client (tests inject
	// fault-gated transports). Nil builds one from Timeout.
	Client *http.Client
	// Registry receives the federator's own fleet.* metrics; nil uses a
	// private one.
	Registry *metrics.Registry
	// Log receives scrape lifecycle events; nil discards them.
	Log *telemetry.Logger
	// Clock overrides time.Now (tests).
	Clock func() time.Time
	// Vitals additionally scrapes each collector's /vitalz (the per-VP
	// data-health plane) alongside /metrics; the merged view is served by
	// FleetVitals and /fleet/vitalz. Collectors without a vitals plane
	// answer 404 and simply contribute no rows.
	Vitals bool
	// Assignments maps VP → owning collector ID (e.g. derived from the
	// coordinator's fleet status via AssignmentsFromStatus). When set, the
	// fleet vitals merge attributes each assigned VP to its owner's row —
	// a VP that moved between collectors keeps one continuous health
	// record instead of appearing twice. Nil falls back to
	// freshest-snapshot-wins.
	Assignments func() map[string]string
}

// Collector scrape states rendered on /fleetz and /fleet/metrics.
const (
	// StateFresh: the last scrape succeeded within StaleAfter.
	StateFresh = "fresh"
	// StateStale: a scrape has succeeded before, but not recently — the
	// collector's last-known snapshot still participates in rollups,
	// flagged by its staleness marker.
	StateStale = "stale"
	// StateNever: no scrape has ever succeeded (no admin address, or the
	// collector joined and was never reachable).
	StateNever = "never"
)

// CollectorHealth is one collector's scrape row.
type CollectorHealth struct {
	ID        string `json:"id"`
	AdminAddr string `json:"admin_addr,omitempty"`
	Connected bool   `json:"connected"`
	State     string `json:"state"`
	// LastScrape is the RFC3339 time of the last successful scrape
	// (absent for StateNever) — the "last seen" timestamp operators read
	// off a stale row.
	LastScrape string `json:"last_scrape,omitempty"`
	// ScrapeAgeMS is the age of the last successful scrape (-1 for
	// StateNever).
	ScrapeAgeMS int64 `json:"scrape_age_ms"`
	// LastError is the most recent scrape failure ("" after a success).
	LastError string `json:"last_error,omitempty"`
}

// scrapeState is the federator's book on one collector.
type scrapeState struct {
	target   Target
	snap     metrics.Snapshot
	haveSnap bool
	lastOK   time.Time
	lastErr  string
	// missingSince is when the collector first vanished from the target
	// list (zero while listed). States are only forgotten after the
	// absence outlasts StaleAfter: a lease flap that re-adds the collector
	// within the grace window keeps its cumulative history, so rollup
	// series don't drop-and-jump (which would double-count the history in
	// every windowed SLO delta).
	missingSince time.Time

	vitals     vitals.Snapshot
	haveVitals bool
	vitalsOK   time.Time
}

// Federator periodically scrapes every target's admin /metrics, keeps the
// last good snapshot per collector, and rolls the fleet up. Safe for
// concurrent use.
type Federator struct {
	cfg    Config
	log    *telemetry.Logger
	client *http.Client

	mu     sync.Mutex
	states map[string]*scrapeState

	scrapes      *metrics.Counter
	scrapeErrors *metrics.Counter
	scrapeNS     *metrics.Histogram
}

// NewFederator builds a federator over cfg.Targets.
func NewFederator(cfg Config) (*Federator, error) {
	if cfg.Targets == nil {
		return nil, fmt.Errorf("fleet: federator needs a Targets source")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultScrapeInterval
	}
	if cfg.StaleAfter <= 0 {
		cfg.StaleAfter = 3 * cfg.Interval
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = DefaultScrapeTimeout
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: cfg.Timeout}
	}
	reg := cfg.Registry
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	f := &Federator{
		cfg:          cfg,
		log:          cfg.Log.With("fleet"),
		client:       client,
		states:       make(map[string]*scrapeState),
		scrapes:      reg.Counter("fleet.scrapes"),
		scrapeErrors: reg.Counter("fleet.scrape_errors"),
		scrapeNS:     reg.Histogram("fleet.scrape_ns", metrics.ExpBuckets(100_000, 2, 16)),
	}
	return f, nil
}

// Run scrapes every Interval until ctx ends.
func (f *Federator) Run(ctx context.Context) {
	t := time.NewTicker(f.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			f.ScrapeOnce(ctx)
		}
	}
}

// ScrapeOnce scrapes all current targets concurrently and updates the
// per-collector state: a success replaces the snapshot, a failure keeps
// the last good one (the collector will render stale once StaleAfter
// passes). Collectors no longer in the target list — their lease expired,
// the fabric's source of truth for membership — are kept (rendering
// stale) for one StaleAfter grace period before being forgotten: a
// collector flapping across a lease boundary must rejoin with its
// cumulative history intact, not as a brand-new series whose restart
// discontinuity double-counts in every windowed rollup delta.
func (f *Federator) ScrapeOnce(ctx context.Context) {
	targets := f.cfg.Targets()
	type result struct {
		t     Target
		snap  metrics.Snapshot
		err   error
		vsnap vitals.Snapshot
		vsOK  bool
	}
	results := make([]result, len(targets))
	var wg sync.WaitGroup
	for i, t := range targets {
		wg.Add(1)
		go func(i int, t Target) {
			defer wg.Done()
			snap, err := f.scrape(ctx, t)
			r := result{t: t, snap: snap, err: err}
			if f.cfg.Vitals && err == nil {
				if vs, verr := f.scrapeVitals(ctx, t); verr == nil {
					r.vsnap, r.vsOK = vs, true
				}
			}
			results[i] = r
		}(i, t)
	}
	wg.Wait()

	now := f.cfg.Clock()
	f.mu.Lock()
	live := make(map[string]bool, len(targets))
	for _, r := range results {
		live[r.t.ID] = true
		st := f.states[r.t.ID]
		if st == nil {
			st = &scrapeState{}
			f.states[r.t.ID] = st
		}
		st.target = r.t
		st.missingSince = time.Time{}
		if r.err != nil {
			st.lastErr = r.err.Error()
			continue
		}
		st.snap = r.snap
		st.haveSnap = true
		st.lastOK = now
		st.lastErr = ""
		if r.vsOK {
			st.vitals = r.vsnap
			st.haveVitals = true
			st.vitalsOK = now
		}
	}
	for id, st := range f.states {
		if live[id] {
			continue
		}
		if st.missingSince.IsZero() {
			st.missingSince = now
			continue
		}
		if now.Sub(st.missingSince) >= f.cfg.StaleAfter {
			delete(f.states, id)
		}
	}
	f.mu.Unlock()
	for _, r := range results {
		if r.err != nil {
			f.log.Warn("scrape failed", "collector", r.t.ID, "err", r.err)
		}
	}
}

// scrape fetches and decodes one collector's /metrics?format=json.
func (f *Federator) scrape(ctx context.Context, t Target) (metrics.Snapshot, error) {
	f.scrapes.Inc()
	if t.AdminAddr == "" {
		f.scrapeErrors.Inc()
		return metrics.Snapshot{}, fmt.Errorf("fleet: collector %s advertises no admin address", t.ID)
	}
	start := f.cfg.Clock()
	ctx, cancel := context.WithTimeout(ctx, f.cfg.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		"http://"+t.AdminAddr+"/metrics?format=json", nil)
	if err != nil {
		f.scrapeErrors.Inc()
		return metrics.Snapshot{}, err
	}
	resp, err := f.client.Do(req)
	if err != nil {
		f.scrapeErrors.Inc()
		return metrics.Snapshot{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		f.scrapeErrors.Inc()
		io.Copy(io.Discard, resp.Body)
		return metrics.Snapshot{}, fmt.Errorf("fleet: scrape %s: HTTP %d", t.ID, resp.StatusCode)
	}
	var snap metrics.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		f.scrapeErrors.Inc()
		return metrics.Snapshot{}, fmt.Errorf("fleet: scrape %s: decoding: %w", t.ID, err)
	}
	if err := checkHistograms(snap); err != nil {
		f.scrapeErrors.Inc()
		return metrics.Snapshot{}, fmt.Errorf("fleet: scrape %s: %w", t.ID, err)
	}
	f.scrapeNS.Observe(uint64(f.cfg.Clock().Sub(start).Nanoseconds()))
	return snap, nil
}

// checkHistograms rejects a scraped histogram whose shape the rollup's
// bucket-union merge, /fleet/metrics and the latency objectives index
// by: strictly ascending bounds and one count per bound plus the
// overflow bucket. Count is not checked against the bucket total — a
// collector snapshotting under concurrent Observe calls may see a bucket
// before the count that goes with it.
func checkHistograms(s metrics.Snapshot) error {
	for name, h := range s.Histograms {
		if len(h.Counts) != len(h.Bounds)+1 {
			return fmt.Errorf("histogram %s: %d counts for %d bounds", name, len(h.Counts), len(h.Bounds))
		}
		for i := 1; i < len(h.Bounds); i++ {
			if h.Bounds[i] <= h.Bounds[i-1] {
				return fmt.Errorf("histogram %s: bounds not strictly ascending at %d", name, h.Bounds[i])
			}
		}
	}
	return nil
}

// scrapeVitals fetches and decodes one collector's /vitalz.
func (f *Federator) scrapeVitals(ctx context.Context, t Target) (vitals.Snapshot, error) {
	ctx, cancel := context.WithTimeout(ctx, f.cfg.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		"http://"+t.AdminAddr+"/vitalz", nil)
	if err != nil {
		return vitals.Snapshot{}, err
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return vitals.Snapshot{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return vitals.Snapshot{}, fmt.Errorf("fleet: vitals scrape %s: HTTP %d", t.ID, resp.StatusCode)
	}
	var vs vitals.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&vs); err != nil {
		return vitals.Snapshot{}, err
	}
	return vs, nil
}

// Health reports every known collector's scrape state, sorted by ID.
func (f *Federator) Health() []CollectorHealth {
	now := f.cfg.Clock()
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]CollectorHealth, 0, len(f.states))
	for id, st := range f.states {
		h := CollectorHealth{
			ID:          id,
			AdminAddr:   st.target.AdminAddr,
			Connected:   st.target.Connected,
			LastError:   st.lastErr,
			ScrapeAgeMS: -1,
		}
		switch {
		case !st.haveSnap:
			h.State = StateNever
		case now.Sub(st.lastOK) <= f.cfg.StaleAfter:
			h.State = StateFresh
		default:
			h.State = StateStale
		}
		if st.haveSnap {
			h.LastScrape = st.lastOK.UTC().Format(time.RFC3339Nano)
			h.ScrapeAgeMS = now.Sub(st.lastOK).Milliseconds()
		}
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// snapshots returns each collector's last-known snapshot (stale included:
// a partitioned collector's numbers stay in the rollup, flagged stale,
// rather than making fleet totals jump around) plus the health rows.
func (f *Federator) snapshots() (map[string]metrics.Snapshot, []CollectorHealth) {
	health := f.Health()
	f.mu.Lock()
	snaps := make(map[string]metrics.Snapshot, len(f.states))
	for id, st := range f.states {
		if st.haveSnap {
			snaps[id] = st.snap
		}
	}
	f.mu.Unlock()
	return snaps, health
}
