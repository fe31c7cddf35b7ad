package fleet_test

// The VP-vitals acceptance harness: a fabric coordinator and three
// collectors run in-process over real loopback TCP, each collector with
// a vitals tracker behind a real admin plane. One VP goes silent and one
// drops to 10% of its learned rate; the federated /fleet/vitalz must
// report them silent and degraded (attributed to their assigned
// collectors) within one scrape of the local evaluation, the per-VP
// freshness SLO must fire on the coordinator's burn-rate engine, and
// both the merged view and the alert must recover when the feeds resume.

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/filter"
	"repro/internal/metrics"
	"repro/internal/resilience"
	"repro/internal/telemetry"
	"repro/internal/telemetry/fleet"
	"repro/internal/update"
	"repro/internal/vitals"
)

// vitalsMember is one in-process collector: a tracker on the shared
// manual clock, its registry, and an admin plane the federator scrapes.
type vitalsMember struct {
	id        string
	reg       *metrics.Registry
	tracker   *vitals.Tracker
	adminAddr string
	agent     *fabric.Agent
}

func startVitalsMember(t *testing.T, id, coordAddr string, clock *manualClock) *vitalsMember {
	t.Helper()
	m := &vitalsMember{id: id, reg: metrics.NewRegistry()}
	m.tracker = vitals.New(vitals.Config{
		Registry:      m.reg,
		Clock:         clock.Now,
		EvalInterval:  time.Second,
		ShortHalfLife: 2 * time.Second,
		LongHalfLife:  40 * time.Second,
		SilentAfter:   30 * time.Second,
	})
	m.tracker.Collector = id

	adminLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	m.adminAddr = adminLn.Addr().String()
	admin := &telemetry.Admin{
		Registry: m.reg,
		Vitals:   func() any { return m.tracker.Snapshot() },
	}
	srv := &http.Server{Handler: admin.Handler()}
	go srv.Serve(adminLn)
	t.Cleanup(func() { srv.Close() })

	m.agent, err = fabric.NewAgent(fabric.AgentConfig{
		ID:          id,
		Coordinator: coordAddr,
		Addr:        "127.0.0.1:0", // no BGP listener: vitals are fed directly
		AdminAddr:   m.adminAddr,
		Backoff:     resilience.Backoff{Base: 10 * time.Millisecond, Max: 100 * time.Millisecond},
		Registry:    m.reg,
		OnFilters:   func(_ uint64, _ *filter.Set, _ []byte) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go m.agent.Run(ctx)
	t.Cleanup(cancel)
	return m
}

// vitalOfVP pulls one VP's row out of a tracker snapshot.
func vitalOfVP(tr *vitals.Tracker, vp string) vitals.VPVital {
	for _, v := range tr.Snapshot().VPs {
		if v.VP == vp {
			return v
		}
	}
	return vitals.VPVital{}
}

// feed pushes n updates for one VP through the member's vitals tap.
func (m *vitalsMember) feed(vp string, n int) {
	if n == 0 {
		return
	}
	batch := make([]*update.Update, n)
	for i := range batch {
		batch[i] = &update.Update{VP: vp}
	}
	m.tracker.Process(batch)
}

func TestFleetVitalsIncidentEndToEnd(t *testing.T) {
	coordReg := metrics.NewRegistry()
	coord := fabric.NewCoordinator(fabric.CoordinatorConfig{
		LeaseTTL: time.Second,
		Registry: coordReg,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go coord.Serve(ctx, ln)
	go coord.Run(ctx)

	vps := []string{"vpSilent", "vpSlow", "vpOK"}
	coord.SetVPs(vps)

	clock := newManualClock()
	members := []*vitalsMember{}
	for _, id := range []string{"c1", "c2", "c3"} {
		members = append(members, startVitalsMember(t, id, ln.Addr().String(), clock))
	}
	// Wait for the settled assignment — every member joined, and each
	// agent holding what the coordinator says it owns — not just for three
	// VPs to be held: an early joiner holds them all until the rest arrive.
	assigned := fleet.AssignmentsFromStatus(coord.Status)
	waitObs(t, "fleet assignment", func() bool {
		want := assigned()
		if len(coord.Status().Collectors) != len(members) || len(want) != len(vps) {
			return false
		}
		total := 0
		for _, m := range members {
			for _, vp := range m.agent.Status().VPs {
				if want[vp] != m.id {
					return false
				}
				total++
			}
		}
		return total == len(vps)
	})
	// owner maps each VP to the member the coordinator assigned it to —
	// traffic is always fed at the owning collector, like real peerings.
	owner := map[string]*vitalsMember{}
	for _, m := range members {
		for _, vp := range m.agent.Status().VPs {
			owner[vp] = m
		}
	}
	for _, vp := range vps {
		if owner[vp] == nil {
			t.Fatalf("VP %s has no assigned collector", vp)
		}
		owner[vp].tracker.SessionUp(vp)
	}

	fed, err := fleet.NewFederator(fleet.Config{
		Targets:     fleet.TargetsFromStatus(coord.Status),
		Interval:    time.Second,
		StaleAfter:  5 * time.Second,
		Clock:       clock.Now,
		Vitals:      true,
		Assignments: fleet.AssignmentsFromStatus(coord.Status),
	})
	if err != nil {
		t.Fatal(err)
	}
	// The two vitals objectives on tight windows, as the smoke scripts run
	// them, so the synthetic incident fires and resolves within the test.
	var objs []fleet.Objective
	for _, o := range fleet.DefaultObjectives() {
		if o.Name == "vp-freshness-p99" || o.Name == "fleet-coverage" {
			o.ShortWindow = 3 * time.Second
			o.LongWindow = 10 * time.Second
			objs = append(objs, o)
		}
	}
	engine := fleet.NewEngine(objs, clock.Now)

	// The coordinator-side admin surface under test: /fleet/vitalz.
	mux := http.NewServeMux()
	for pat, h := range fed.Routes() {
		mux.Handle(pat, h)
	}
	fleetSrv := httptest.NewServer(mux)
	t.Cleanup(fleetSrv.Close)
	fetchFleet := func() fleet.FleetVitals {
		t.Helper()
		resp, err := http.Get(fleetSrv.URL + "/fleet/vitalz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var fv fleet.FleetVitals
		if err := json.NewDecoder(resp.Body).Decode(&fv); err != nil {
			t.Fatal(err)
		}
		return fv
	}
	rowOf := func(fv fleet.FleetVitals, vp string) fleet.FleetVPRow {
		t.Helper()
		for _, r := range fv.VPs {
			if r.VP == vp {
				return r
			}
		}
		t.Fatalf("VP %s missing from /fleet/vitalz (%d rows)", vp, len(fv.VPs))
		return fleet.FleetVPRow{}
	}

	// step advances one second of fleet time: traffic at the given per-VP
	// rates, a vitals evaluation on every collector, one federation scrape,
	// one SLO evaluation — the production cadence, compressed.
	step := func(rates map[string]int) {
		clock.Advance(time.Second)
		for vp, n := range rates {
			owner[vp].feed(vp, n)
		}
		for _, m := range members {
			m.tracker.Eval()
		}
		fed.ScrapeOnce(ctx)
		engine.Observe(fed.Rollup())
	}

	// Learning: every VP at its steady rate long enough that the long
	// EWMA holds a usable "usual rate" (3 half-lives ≈ 87.5% of true) —
	// the degraded verdict then survives the long EWMA's decay for the
	// whole window the silent verdict needs (age > 30s at step 31).
	learning := map[string]int{"vpSilent": 100, "vpSlow": 100, "vpOK": 100}
	for i := 0; i < 120; i++ {
		step(learning)
	}
	fv := fetchFleet()
	for _, vp := range vps {
		if r := rowOf(fv, vp); r.State != vitals.StateLive || !r.Assigned {
			t.Fatalf("after learning, %s = %s (assigned=%v), want live/assigned", vp, r.State, r.Assigned)
		}
	}

	// Incident: vpSilent stops entirely, vpSlow drops to 10% of its
	// learned rate, vpOK is untouched. Run until both local trackers have
	// classified the damage (the silent verdict needs age > SilentAfter).
	incident := map[string]int{"vpSilent": 0, "vpSlow": 10, "vpOK": 100}
	detected := false
	for i := 0; i < 40 && !detected; i++ {
		step(incident)
		silent := vitalOfVP(owner["vpSilent"].tracker, "vpSilent").State == vitals.StateSilent
		degraded := vitalOfVP(owner["vpSlow"].tracker, "vpSlow").State == vitals.StateDegraded
		detected = silent && degraded
	}
	if !detected {
		t.Fatal("local vitals never classified the incident (silent + degraded)")
	}
	// The merged fleet view must carry the verdicts after the single
	// scrape that step() already ran — no extra scrape needed.
	fv = fetchFleet()
	if r := rowOf(fv, "vpSilent"); r.State != vitals.StateSilent || !r.Assigned || r.Collector != owner["vpSilent"].id {
		t.Fatalf("vpSilent = %s at %s (assigned=%v), want silent at %s", r.State, r.Collector, r.Assigned, owner["vpSilent"].id)
	}
	if r := rowOf(fv, "vpSlow"); r.State != vitals.StateDegraded || r.Collector != owner["vpSlow"].id {
		t.Fatalf("vpSlow = %s at %s, want degraded at %s", r.State, r.Collector, owner["vpSlow"].id)
	}
	if r := rowOf(fv, "vpOK"); r.State != vitals.StateLive {
		t.Fatalf("vpOK = %s, want live (collateral damage in the fleet view)", r.State)
	}

	// The freshness SLO needs bad age observations (> 30s) in both burn
	// windows; give the engine a few more evaluations of the ongoing
	// incident, then require the alert.
	firing := func(name string) bool {
		for _, n := range engine.Firing() {
			if n == name {
				return true
			}
		}
		return false
	}
	for i := 0; i < 15 && !(firing("vp-freshness-p99") && firing("fleet-coverage")); i++ {
		step(incident)
	}
	if !firing("vp-freshness-p99") {
		t.Fatalf("vp-freshness-p99 never fired; status %+v", engine.Status().Objectives)
	}
	if !firing("fleet-coverage") {
		t.Fatalf("fleet-coverage never fired; status %+v", engine.Status().Objectives)
	}

	// Recovery: the feeds resume. The fleet view must return to all-live
	// and the alerts must resolve once the short window is clean.
	resolved := false
	for i := 0; i < 30 && !resolved; i++ {
		step(learning)
		resolved = !firing("vp-freshness-p99") && !firing("fleet-coverage")
	}
	if !resolved {
		t.Fatalf("vitals alerts never resolved after recovery; status %+v", engine.Status().Objectives)
	}
	fv = fetchFleet()
	for _, vp := range vps {
		if r := rowOf(fv, vp); r.State != vitals.StateLive {
			t.Fatalf("after recovery, %s = %s, want live", vp, r.State)
		}
	}
	if fv.States[vitals.StateLive] != 3 {
		t.Fatalf("fleet state counts after recovery = %v, want live:3", fv.States)
	}
}
