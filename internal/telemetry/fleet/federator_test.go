package fleet

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/metrics"
	"repro/internal/telemetry"
)

// fakeCollector is one scrapeable admin endpoint whose reachability the
// test flips.
type fakeCollector struct {
	srv  *httptest.Server
	down atomic.Bool
	reg  *metrics.Registry
}

func newFakeCollector(t *testing.T) *fakeCollector {
	t.Helper()
	fc := &fakeCollector{reg: metrics.NewRegistry()}
	// Serve through the production admin plane.
	admin := (&telemetry.Admin{Registry: fc.reg}).Handler()
	fc.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if fc.down.Load() {
			http.Error(w, "partitioned", http.StatusBadGateway)
			return
		}
		admin.ServeHTTP(w, r)
	}))
	t.Cleanup(fc.srv.Close)
	return fc
}

func (fc *fakeCollector) addr() string { return strings.TrimPrefix(fc.srv.URL, "http://") }

// TestScrapeIsExact: what the federator keeps from one scrape of a live
// admin plane is the collector's registry snapshot, exactly, under the
// names its Prometheus text renders — counters, gauges (GaugeFuncs
// included) and every histogram bucket, with a sanitized-name collision
// resolved the way the text resolves it.
func TestScrapeIsExact(t *testing.T) {
	fc := newFakeCollector(t)
	fc.reg.Counter("daemon.pipeline.in").Add(12345)
	fc.reg.Counter("daemon.pipeline.dropped").Add(7)
	fc.reg.Gauge("daemon.queue_depth").Set(-3)
	fc.reg.GaugeFunc("daemon.sessions", func() int64 { return 42 })
	fc.reg.Counter("x.y").Add(1) // sorts first, so it keeps the name x_y
	fc.reg.Counter("x_y").Add(2)
	h := fc.reg.Histogram("daemon.pipeline.e2e_latency_ns", metrics.ExpBuckets(1000, 4, 8))
	for _, v := range []uint64{500, 3000, 70_000, 1 << 30} {
		h.Observe(v)
	}
	f, err := NewFederator(Config{Targets: func() []Target {
		return []Target{{ID: "c1", AdminAddr: fc.addr(), Connected: true}}
	}})
	if err != nil {
		t.Fatal(err)
	}
	f.ScrapeOnce(context.Background())
	snaps, _ := f.snapshots()
	got, ok := snaps["c1"]
	if !ok {
		t.Fatalf("no snapshot kept; health %+v", f.Health())
	}
	want := metrics.Snapshot{
		Counters: map[string]uint64{"daemon_pipeline_in": 12345, "daemon_pipeline_dropped": 7, "x_y": 1},
		Gauges:   map[string]int64{"daemon_queue_depth": -3, "daemon_sessions": 42},
		Histograms: map[string]metrics.HistogramSnapshot{
			"daemon_pipeline_e2e_latency_ns": h.Snapshot(),
		},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("scraped %+v\nwant    %+v", got, want)
	}
	var text strings.Builder
	if err := telemetry.WriteProm(&text, fc.reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	for kind, names := range map[string][]string{
		"counter":   {"daemon_pipeline_in", "daemon_pipeline_dropped", "x_y"},
		"gauge":     {"daemon_queue_depth", "daemon_sessions"},
		"histogram": {"daemon_pipeline_e2e_latency_ns"},
	} {
		for _, name := range names {
			if !strings.Contains(text.String(), "# TYPE "+name+" "+kind+"\n") {
				t.Errorf("the text exposition has no %s %s:\n%s", kind, name, text.String())
			}
		}
	}
	if !strings.Contains(text.String(), "\nx_y 1\n") {
		t.Errorf("the text exposition resolves the x_y collision differently:\n%s", text.String())
	}
}

// TestScrapeSkipsLabeledInfo: the labeled build_info gauge the text
// /metrics carries is not a registry series; a scrape keeps none of it
// and keeps the registry's own series beside it.
func TestScrapeSkipsLabeledInfo(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Counter("x").Inc()
	admin := &telemetry.Admin{Registry: reg,
		Build: map[string]string{"version": "v1, with \"quotes\"", "go": "gc"}}
	srv := httptest.NewServer(admin.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var text strings.Builder
	_, err = io.Copy(&text, resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), "build_info{") {
		t.Fatalf("the text exposition has no labeled build_info:\n%s", text.String())
	}

	f, err := NewFederator(Config{Targets: func() []Target {
		return []Target{{ID: "c1", AdminAddr: strings.TrimPrefix(srv.URL, "http://"), Connected: true}}
	}})
	if err != nil {
		t.Fatal(err)
	}
	f.ScrapeOnce(context.Background())
	snaps, _ := f.snapshots()
	got, ok := snaps["c1"]
	if !ok {
		t.Fatalf("no snapshot kept; health %+v", f.Health())
	}
	if _, leaked := got.Gauges["build_info"]; leaked {
		t.Error("labeled build_info leaked into gauges")
	}
	if got.Counters["x"] != 1 {
		t.Errorf("counter beside build_info = %d, want 1", got.Counters["x"])
	}
}

// TestScrapeRejectsGarbage: a collector that answers /metrics?format=json
// with something else — Prometheus text, a truncated document, a
// histogram the rollup could not index — is a failed scrape, counted and
// surfaced on its health row, and contributes nothing to the rollup.
func TestScrapeRejectsGarbage(t *testing.T) {
	for _, body := range []string{
		"# TYPE x counter\nx 1\n",
		`{"Counters":{"x":1}`,
		`{"Counters":{"x":-1}}`,
		`{"Histograms":{"h":{"Bounds":[1,2],"Counts":[]}}}`,
		`{"Histograms":{"h":{"Bounds":[1,2],"Counts":[1,2,3,4]}}}`,
		`{"Histograms":{"h":{"Bounds":[2,1],"Counts":[1,1,1]}}}`,
		`{"Histograms":{"h":{"Bounds":[1,1],"Counts":[1,1,1]}}}`,
		`{"Histograms":{"h":{"Counts":[]}}}`,
	} {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			_, _ = w.Write([]byte(body))
		}))
		reg := metrics.NewRegistry()
		f, err := NewFederator(Config{
			Targets: func() []Target {
				return []Target{{ID: "c1", AdminAddr: strings.TrimPrefix(srv.URL, "http://"), Connected: true}}
			},
			Registry: reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		f.ScrapeOnce(context.Background())
		srv.Close()
		if h := f.Health(); len(h) != 1 || h[0].State != StateNever || h[0].LastError == "" {
			t.Errorf("body %q: health %+v, want one never row with an error", body, h)
		}
		if n := len(f.Rollup().PerCollector); n != 0 {
			t.Errorf("body %q: %d snapshots in the rollup, want none", body, n)
		}
		if c := reg.Snapshot().Counters["fleet.scrape_errors"]; c != 1 {
			t.Errorf("body %q: fleet.scrape_errors = %d, want 1", body, c)
		}
	}
}

// TestFleetStaleness is the satellite-3 table test: a collector with a
// live lease whose scrape fails must render stale (never dropped from
// rollups, last-seen preserved), across the dead-connection, partitioned,
// and rejoined scenarios.
func TestFleetStaleness(t *testing.T) {
	fcGood, fcFlaky := newFakeCollector(t), newFakeCollector(t)
	fcGood.reg.Counter("pipeline_in").Add(100)
	fcFlaky.reg.Counter("pipeline_in").Add(50)

	now := time.Unix(1_700_000_000, 0)
	clock := func() time.Time { return now }

	flakyConnected := true
	targets := func() []Target {
		return []Target{
			{ID: "good", AdminAddr: fcGood.addr(), Connected: true},
			// The flaky collector's lease stays alive throughout: the fabric
			// keeps leases across dead connections by design.
			{ID: "flaky", AdminAddr: fcFlaky.addr(), Connected: flakyConnected},
		}
	}
	f, err := NewFederator(Config{
		Targets:    targets,
		Interval:   time.Second,
		StaleAfter: 3 * time.Second,
		Clock:      clock,
	})
	if err != nil {
		t.Fatal(err)
	}

	healthOf := func(id string) CollectorHealth {
		t.Helper()
		for _, h := range f.Health() {
			if h.ID == id {
				return h
			}
		}
		t.Fatalf("collector %s dropped from health rows", id)
		return CollectorHealth{}
	}
	rollupIn := func() uint64 { return f.Rollup().Counters["pipeline_in"] }

	steps := []struct {
		name       string
		setup      func()
		advance    time.Duration
		wantState  string
		wantIn     uint64 // fleet-wide pipeline_in after this step
		wantSeen   bool   // last_scrape present
		wantInRoll bool   // flaky's per-collector series still in rollup
	}{
		{
			name:      "baseline both fresh",
			setup:     func() {},
			wantState: StateFresh, wantIn: 150, wantSeen: true, wantInRoll: true,
		},
		{
			name: "dead connection, live lease",
			setup: func() {
				flakyConnected = false
				fcFlaky.down.Store(true)
			},
			advance:   4 * time.Second, // past StaleAfter
			wantState: StateStale, wantIn: 150, wantSeen: true, wantInRoll: true,
		},
		{
			name: "partitioned long-term",
			setup: func() {
				fcGood.reg.Counter("pipeline_in").Add(25) // good keeps moving
			},
			advance:   10 * time.Second,
			wantState: StateStale, wantIn: 175, wantSeen: true, wantInRoll: true,
		},
		{
			name: "rejoined",
			setup: func() {
				flakyConnected = true
				fcFlaky.down.Store(false)
				fcFlaky.reg.Counter("pipeline_in").Add(10)
			},
			wantState: StateFresh, wantIn: 185, wantSeen: true, wantInRoll: true,
		},
	}
	for _, step := range steps {
		step.setup()
		now = now.Add(step.advance)
		f.ScrapeOnce(context.Background())
		h := healthOf("flaky")
		if h.State != step.wantState {
			t.Fatalf("%s: flaky state = %s, want %s (err=%q)", step.name, h.State, step.wantState, h.LastError)
		}
		if (h.LastScrape != "") != step.wantSeen {
			t.Fatalf("%s: last_scrape = %q, wantSeen=%v", step.name, h.LastScrape, step.wantSeen)
		}
		if got := rollupIn(); got != step.wantIn {
			t.Fatalf("%s: fleet pipeline_in = %d, want %d", step.name, got, step.wantIn)
		}
		if _, ok := f.Rollup().PerCollector["flaky"]; ok != step.wantInRoll {
			t.Fatalf("%s: flaky per-collector presence = %v, want %v", step.name, ok, step.wantInRoll)
		}
		if step.wantState == StateStale && h.LastError == "" {
			t.Fatalf("%s: stale row should surface the scrape error", step.name)
		}
	}

	// Stale collectors keep their series on /fleet/metrics with up=0.
	flakyConnected = false
	fcFlaky.down.Store(true)
	now = now.Add(5 * time.Second)
	f.ScrapeOnce(context.Background())
	var buf strings.Builder
	if err := f.Rollup().WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		`fleet_collector_up{collector="flaky"} 0`,
		`fleet_collector_up{collector="good"} 1`,
		`pipeline_in{collector="flaky"} 60`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("fleet exposition missing %q:\n%s", want, text)
		}
	}
}

// TestFleetNeverScraped: a leased collector with no admin plane renders
// never, contributes nothing to rollups, but still appears.
func TestFleetNeverScraped(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	f, err := NewFederator(Config{
		Targets: func() []Target {
			return []Target{{ID: "dark", AdminAddr: "", Connected: true}}
		},
		Clock: func() time.Time { return now },
	})
	if err != nil {
		t.Fatal(err)
	}
	f.ScrapeOnce(context.Background())
	h := f.Health()
	if len(h) != 1 || h[0].State != StateNever || h[0].ScrapeAgeMS != -1 {
		t.Fatalf("health = %+v, want one never row", h)
	}
	if n := len(f.Rollup().PerCollector); n != 0 {
		t.Fatalf("never-scraped collector leaked %d snapshots into the rollup", n)
	}
}

// TestFleetExpiredLeaseForgotten: lease expiry (the target vanishing from
// the coordinator's status) removes a collector — but only after one
// StaleAfter grace period, so a lease flap does not drop-and-recreate the
// collector's cumulative series (see TestFleetLeaseFlapKeepsHistory).
func TestFleetExpiredLeaseForgotten(t *testing.T) {
	fc := newFakeCollector(t)
	leased := true
	now := time.Unix(1_700_000_000, 0)
	f, err := NewFederator(Config{
		Targets: func() []Target {
			if !leased {
				return nil
			}
			return []Target{{ID: "c1", AdminAddr: fc.addr(), Connected: true}}
		},
		Interval:   time.Second,
		StaleAfter: 3 * time.Second,
		Clock:      func() time.Time { return now },
	})
	if err != nil {
		t.Fatal(err)
	}
	f.ScrapeOnce(context.Background())
	if len(f.Health()) != 1 {
		t.Fatal("expected one collector")
	}
	leased = false
	// Within the grace window the collector stays in the book (ages to
	// stale rather than vanishing).
	f.ScrapeOnce(context.Background())
	if len(f.Health()) != 1 {
		t.Fatal("collector must survive lease loss within the grace period")
	}
	now = now.Add(4 * time.Second) // past StaleAfter
	f.ScrapeOnce(context.Background())
	if len(f.Health()) != 0 {
		t.Fatal("expired-lease collector must leave the federation book after the grace period")
	}
}

// TestEnrichSynthesizesRows: leased collectors the federator has not
// scraped yet still get a scrape row on the enriched /fleetz.
func TestEnrichSynthesizesRows(t *testing.T) {
	fs := fabric.FleetStatus{Collectors: []fabric.CollectorStatus{
		{ID: "seen", Connected: true},
		{ID: "unseen", Connected: false, AdminAddr: "10.0.0.9:8471"},
	}}
	health := []CollectorHealth{{ID: "seen", State: StateFresh}}
	e := Enrich(fs, health)
	if len(e.Scrapes) != 2 {
		t.Fatalf("scrapes = %+v, want 2 rows", e.Scrapes)
	}
	var unseen *CollectorHealth
	for i := range e.Scrapes {
		if e.Scrapes[i].ID == "unseen" {
			unseen = &e.Scrapes[i]
		}
	}
	if unseen == nil || unseen.State != StateNever || unseen.AdminAddr != "10.0.0.9:8471" {
		t.Fatalf("unseen row = %+v, want synthesized never row", unseen)
	}
}
