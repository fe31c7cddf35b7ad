package fleet_test

// The fleet-observability acceptance harness: an orchestrator, a fabric
// coordinator, and three collector daemons run in-process over real
// loopback TCP, with simulator traffic through every collector's BGP
// listener and a real admin HTTP plane per collector. One traced filter
// distribution must yield a single stitched
// orchestrator→coordinator→collector trace; the federation rollup must
// sum per-collector counters exactly and merge the end-to-end latency
// histograms; and partitioning one collector's admin plane behind a
// faults.Gate must fire the availability SLO, which must resolve after
// the heal.

import (
	"bytes"
	"context"
	"net"
	"net/http"
	"net/netip"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bgp"
	"repro/internal/daemon"
	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/filter"
	"repro/internal/metrics"
	"repro/internal/orchestrator"
	"repro/internal/resilience"
	"repro/internal/telemetry"
	"repro/internal/telemetry/fleet"
	"repro/internal/workload"
)

// obsCollector is one in-process fleet member with a real admin plane:
// the collection daemon, its BGP listener, its fabric agent, and the
// HTTP server the coordinator's federation scrapes.
type obsCollector struct {
	id        string
	d         *daemon.Daemon
	reg       *metrics.Registry
	rec       *telemetry.Recorder
	agent     *fabric.Agent
	bgpAddr   string
	adminAddr string
	gate      *faults.Gate
	cancel    context.CancelFunc
}

// startObsCollector boots one fleet member. The admin listener passes
// through a faults.Gate so the test can partition the observability
// plane without touching the control or collection planes.
func startObsCollector(t *testing.T, id, coordAddr string) *obsCollector {
	t.Helper()
	c := &obsCollector{
		id:   id,
		reg:  metrics.NewRegistry(),
		rec:  telemetry.NewRecorder(0, 1), // sample everything: short test runs
		gate: faults.NewGate(),
	}
	c.rec.Process = "collector:" + id
	c.d = daemon.New(daemon.Config{
		LocalAS:  65000,
		Out:      &bytes.Buffer{},
		Registry: c.reg,
		Tracer:   c.rec,
	})

	bgpLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c.bgpAddr = bgpLn.Addr().String()

	adminLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c.adminAddr = adminLn.Addr().String()
	admin := &telemetry.Admin{Registry: c.reg, Recorder: c.rec}
	srv := &http.Server{Handler: admin.Handler()}
	go srv.Serve(c.gate.Listener(adminLn))
	t.Cleanup(func() { srv.Close() })

	c.agent, err = fabric.NewAgent(fabric.AgentConfig{
		ID:          id,
		Coordinator: coordAddr,
		Addr:        c.bgpAddr,
		AdminAddr:   c.adminAddr,
		Backoff:     resilience.Backoff{Base: 10 * time.Millisecond, Max: 100 * time.Millisecond},
		Registry:    c.reg,
		Recorder:    c.rec,
		OnFilters:   func(_ uint64, fs *filter.Set, _ []byte) { c.d.SetFilters(fs) },
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	c.cancel = cancel
	go c.d.Serve(ctx, bgpLn)
	go c.agent.Run(ctx)
	t.Cleanup(func() { cancel(); c.d.Close() })
	return c
}

// manualClock is a test clock shared by the federator and the SLO engine.
type manualClock struct{ ns atomic.Int64 }

func newManualClock() *manualClock {
	c := &manualClock{}
	c.ns.Store(time.Unix(1_700_000_000, 0).UnixNano())
	return c
}
func (c *manualClock) Now() time.Time          { return time.Unix(0, c.ns.Load()) }
func (c *manualClock) Advance(d time.Duration) { c.ns.Add(int64(d)) }

func waitObs(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestFleetObservability(t *testing.T) {
	// Coordinator with its own recorder: its fan-out spans must carry the
	// "coordinator" process label into the stitched view.
	coordRec := telemetry.NewRecorder(0, 0)
	coordRec.Process = "coordinator"
	coordReg := metrics.NewRegistry()
	coord := fabric.NewCoordinator(fabric.CoordinatorConfig{
		LeaseTTL: time.Second,
		Registry: coordReg,
		Recorder: coordRec,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go coord.Serve(ctx, ln)
	go coord.Run(ctx)

	// Orchestrator wired exactly as the binary wires it: traced
	// subscription hands each install's root span context to the
	// coordinator's fan-out.
	orchRec := telemetry.NewRecorder(0, 0)
	orchRec.Process = "orchestrator"
	orch := orchestrator.New(nil, nil)
	orch.SetRecorder(orchRec)
	orch.SubscribeTraced(coord.DistributeFiltersTraced)

	vps := []string{"vp65001", "vp65002", "vp65003"}
	coord.SetVPs(vps)

	cols := []*obsCollector{}
	for _, id := range []string{"c1", "c2", "c3"} {
		cols = append(cols, startObsCollector(t, id, ln.Addr().String()))
	}
	waitObs(t, "fleet assignment", func() bool {
		total := 0
		for _, c := range cols {
			total += len(c.agent.Status().VPs)
		}
		return total == len(vps)
	})

	// One traced filter distribution through the whole control plane.
	fs := filter.NewSet(filter.GranVPPrefix)
	fs.AddAnchor("vp65001")
	orch.LoadFilters(fs, 1)
	wantGen, wantSum := coord.FilterGen()
	waitObs(t, "fleet-wide filter install", func() bool {
		for _, c := range cols {
			if g, s := c.agent.FilterGen(); g != wantGen || s != wantSum {
				return false
			}
		}
		return true
	})

	// Simulator traffic into every collector: enough updates that each
	// daemon's pipeline counters and e2e histogram are populated.
	const perCol = 200
	for i, c := range cols {
		asn := uint32(65001 + i)
		stream := workload.Stream(workload.StreamConfig{
			PeerAS: asn, Seed: int64(asn), Prefixes: 20,
		}, perCol)
		dctx, dcancel := context.WithTimeout(ctx, 5*time.Second)
		sess, err := bgp.Dial(dctx, c.bgpAddr, bgp.SpeakerConfig{
			LocalAS:  asn,
			RouterID: netip.AddrFrom4([4]byte{192, 0, 2, byte(asn)}),
			HoldTime: 60,
		})
		dcancel()
		if err != nil {
			t.Fatalf("dial %s: %v", c.id, err)
		}
		for _, item := range stream {
			if err := sess.Send(item.Update); err != nil {
				t.Fatalf("send to %s: %v", c.id, err)
			}
		}
		sess.Close()
	}
	waitObs(t, "traffic through every pipeline", func() bool {
		for _, c := range cols {
			if c.reg.Snapshot().Counters["daemon.pipeline.in"] < perCol {
				return false
			}
		}
		return true
	})

	// The coordinator-side federation, on a manual clock so staleness and
	// burn-rate windows are deterministic.
	clock := newManualClock()
	fed, err := fleet.NewFederator(fleet.Config{
		Targets:    fleet.TargetsFromStatus(coord.Status),
		Interval:   time.Second,
		StaleAfter: 3 * time.Second,
		Timeout:    2 * time.Second,
		Clock:      clock.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	fed.ScrapeOnce(ctx)

	// Rollup: the fleet-wide pipeline.in counter must equal the
	// per-collector sum exactly, and the merged e2e histogram must hold
	// every collector's observations.
	r := fed.Rollup()
	var wantIn, perColSum uint64
	var wantE2E uint64
	for _, c := range cols {
		snap := c.reg.Snapshot()
		wantIn += snap.Counters["daemon.pipeline.in"]
		wantE2E += snap.Histograms["daemon.pipeline.e2e_latency_ns"].Count
	}
	for id, series := range r.PerCollector {
		v := series["daemon_pipeline_in"]
		if v == 0 {
			t.Errorf("collector %s contributes no pipeline.in", id)
		}
		perColSum += v
	}
	got := r.Counters["daemon_pipeline_in"]
	if got != perColSum {
		t.Errorf("rolled-up pipeline.in = %d, per-collector sum = %d — must be exactly equal", got, perColSum)
	}
	if got != wantIn {
		t.Errorf("rolled-up pipeline.in = %d, fleet registries hold %d", got, wantIn)
	}
	e2e, ok := r.Histograms["daemon_pipeline_e2e_latency_ns"]
	if !ok {
		t.Fatal("merged e2e histogram missing from the rollup")
	}
	if e2e.Count != wantE2E {
		t.Errorf("merged e2e histogram count = %d, want %d", e2e.Count, wantE2E)
	}
	if e2e.Quantile(0.99) <= 0 {
		t.Error("merged e2e histogram has no p99")
	}

	// Stitched trace: the filter distribution must appear as ONE trace
	// spanning orchestrator, coordinator, and at least one collector, with
	// the hop spans in causal order.
	var stitched *fleet.FleetTrace
	waitObs(t, "stitched distribution trace", func() bool {
		// n must clear the ~600 newer pipeline traces the 1-in-1 sampler
		// recorded after the distribution: the stitched view is newest-first.
		for _, ft := range fed.FleetTraces(ctx, 1000, orchRec, coordRec) {
			names := map[string]bool{}
			for _, sp := range ft.Spans {
				names[sp.Name] = true
			}
			if names["orchestrator.distribute"] && names["fabric.distribute_filters"] && names["fabric.install_filters"] {
				cp := ft
				stitched = &cp
				return true
			}
		}
		return false
	})
	if len(stitched.Processes) < 3 {
		t.Fatalf("stitched trace crosses %v, want >= 3 processes", stitched.Processes)
	}
	procSeen := map[string]bool{}
	for _, p := range stitched.Processes {
		procSeen[p] = true
	}
	if !procSeen["orchestrator"] || !procSeen["coordinator"] {
		t.Errorf("stitched trace processes = %v, want orchestrator and coordinator hops", stitched.Processes)
	}
	collectorHop := false
	for p := range procSeen {
		if len(p) > 10 && p[:10] == "collector:" {
			collectorHop = true
		}
	}
	if !collectorHop {
		t.Errorf("stitched trace processes = %v, want a collector hop", stitched.Processes)
	}
	for _, sp := range stitched.Spans {
		if sp.Name == "fabric.install_filters" && sp.ParentID == 0 {
			t.Error("collector install span lost its parent link")
		}
	}

	// SLO plane: partition c1's admin plane behind the gate. Scrapes fail,
	// c1 renders stale past StaleAfter, and the availability objective
	// must fire on both burn windows — then resolve after the heal.
	engine := fleet.NewEngine([]fleet.Objective{{
		Name: "collector-availability", Kind: fleet.KindAvailability,
		Target: 0.99, ShortWindow: 4 * time.Second, LongWindow: 12 * time.Second,
		BurnThreshold: 2,
	}}, clock.Now)
	engine.Observe(fed.Rollup()) // healthy baseline sample

	cols[0].gate.Cut()
	fired := false
	for i := 0; i < 20 && !fired; i++ {
		clock.Advance(2 * time.Second)
		fed.ScrapeOnce(ctx)
		engine.Observe(fed.Rollup())
		fired = len(engine.Firing()) == 1
	}
	if !fired {
		t.Fatalf("availability SLO did not fire under partition: %+v", engine.Status().Objectives)
	}
	// The partitioned collector must still be present — stale, never
	// dropped — and its last-known counters must still be in the rollup.
	for _, h := range fed.Health() {
		if h.ID == "c1" && h.State != fleet.StateStale {
			t.Errorf("partitioned c1 state = %s, want stale", h.State)
		}
	}
	if _, ok := fed.Rollup().PerCollector["c1"]; !ok {
		t.Error("partitioned c1 dropped from the rollup")
	}

	cols[0].gate.Heal()
	resolved := false
	for i := 0; i < 20 && !resolved; i++ {
		clock.Advance(2 * time.Second)
		fed.ScrapeOnce(ctx)
		engine.Observe(fed.Rollup())
		resolved = len(engine.Firing()) == 0
	}
	if !resolved {
		t.Fatalf("availability SLO did not resolve after heal: %+v", engine.Status().Objectives)
	}
}

// TestFederationOverheadGuard (GILL_BENCH_GUARD=1) holds the federation
// duty cycle under the acceptance bound: the wall-clock cost of scraping
// and rolling up a 3-collector fleet, amortized over the default scrape
// interval, must stay at or under 5% — i.e. federation may never consume
// more than 5% of the time budget the ingest path runs in.
func TestFederationOverheadGuard(t *testing.T) {
	if os.Getenv("GILL_BENCH_GUARD") != "1" {
		t.Skip("set GILL_BENCH_GUARD=1 to run the federation overhead guard")
	}
	var cols []*obsCollector
	coordLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	coord := fabric.NewCoordinator(fabric.CoordinatorConfig{LeaseTTL: time.Second})
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go coord.Serve(ctx, coordLn)
	go coord.Run(ctx)
	for _, id := range []string{"c1", "c2", "c3"} {
		c := startObsCollector(t, id, coordLn.Addr().String())
		// Populate a realistic exposition: counters and latency histograms.
		for i := uint64(0); i < 50_000; i++ {
			c.reg.Counter("daemon.pipeline.in").Inc()
		}
		h := c.reg.Histogram("daemon.pipeline.e2e_latency_ns", metrics.ExpBuckets(1000, 2, 24))
		for i := uint64(0); i < 10_000; i++ {
			h.Observe(1000 << (i % 20))
		}
		cols = append(cols, c)
	}
	waitObs(t, "fleet join", func() bool {
		return len(coord.Status().Collectors) == len(cols)
	})
	fed, err := fleet.NewFederator(fleet.Config{
		Targets: fleet.TargetsFromStatus(coord.Status),
	})
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 25
	start := time.Now()
	for i := 0; i < rounds; i++ {
		fed.ScrapeOnce(ctx)
		_ = fed.Rollup()
	}
	perRound := time.Since(start) / rounds
	duty := float64(perRound) / float64(fleet.DefaultScrapeInterval)
	t.Logf("federation round: %v (duty cycle %.4f%% of the %v interval)",
		perRound, duty*100, fleet.DefaultScrapeInterval)
	if duty > 0.05 {
		t.Errorf("federation duty cycle %.2f%% exceeds the 5%% overhead bound", duty*100)
	}
}
