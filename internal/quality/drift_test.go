package quality

import (
	"testing"
	"time"

	"repro/internal/correlation"
	"repro/internal/update"
)

func obsOf(us []*update.Update, kept bool, at time.Time) []shadowObs {
	out := make([]shadowObs, len(us))
	for i, u := range us {
		out[i] = shadowObs{u: u, kept: kept, at: at}
	}
	return out
}

// TestDriftScoreAgainstTrainingBaseline: live traffic half inside, half
// outside the training fingerprints scores 0.5 and crosses a 0.35
// threshold once the sample floor is met.
func TestDriftScoreAgainstTrainingBaseline(t *testing.T) {
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	p := mkPrefix(1)
	var training []*update.Update
	for i := 0; i < 8; i++ {
		training = append(training, mkUpdate("vp1", p, []uint32{1, 2, 3}, base))
	}
	b := correlation.NewBaseline(training)

	var live []*update.Update
	for i := 0; i < 20; i++ {
		live = append(live, mkUpdate("vp1", p, []uint32{1, 2, 3}, base))         // known attrs
		live = append(live, mkUpdate("vp1", p, []uint32{9, 9, uint32(9)}, base)) // novel path
	}
	r := scoreDrift(obsOf(live, true, base), b, "training", 0.35, 16, 32)
	if r.Score < 0.49 || r.Score > 0.51 {
		t.Fatalf("score = %v, want 0.5", r.Score)
	}
	if !r.Crossed {
		t.Fatalf("score %v over threshold with %d updates must cross", r.Score, r.TotalUpdates)
	}
	if r.ChangedPrefixes != 1 || r.ComparedPrefixes != 1 || r.NewPrefixes != 0 {
		t.Fatalf("prefix accounting: %+v", r)
	}
	if r.Baseline != "training" {
		t.Fatalf("baseline kind = %q", r.Baseline)
	}
}

// TestDriftSampleFloor: the same novelty rate with too few updates must
// not raise the signal.
func TestDriftSampleFloor(t *testing.T) {
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	p := mkPrefix(1)
	b := correlation.NewBaseline([]*update.Update{mkUpdate("vp1", p, []uint32{1, 2}, base)})
	live := []*update.Update{
		mkUpdate("vp1", p, []uint32{7, 7}, base),
		mkUpdate("vp1", p, []uint32{8, 8}, base),
	}
	r := scoreDrift(obsOf(live, true, base), b, "training", 0.35, 16, 32)
	if r.Score != 1 {
		t.Fatalf("score = %v, want 1", r.Score)
	}
	if r.Crossed {
		t.Fatal("2-update sample must not cross the threshold (floor 32)")
	}
}

// TestDriftNewPrefixesNotScored: prefixes the baseline never saw are
// reported but excluded from the novelty rate — announcing a new prefix
// is not filter drift.
func TestDriftNewPrefixesNotScored(t *testing.T) {
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	known, fresh := mkPrefix(1), mkPrefix(2)
	b := correlation.NewBaseline([]*update.Update{mkUpdate("vp1", known, []uint32{1, 2}, base)})
	var live []*update.Update
	for i := 0; i < 40; i++ {
		live = append(live, mkUpdate("vp1", known, []uint32{1, 2}, base))
		live = append(live, mkUpdate("vp1", fresh, []uint32{5, 6}, base))
	}
	r := scoreDrift(obsOf(live, true, base), b, "training", 0.35, 16, 32)
	if r.Score != 0 {
		t.Fatalf("score = %v, want 0 (new prefixes excluded)", r.Score)
	}
	if r.NewPrefixes != 1 {
		t.Fatalf("NewPrefixes = %d, want 1", r.NewPrefixes)
	}
	if r.TotalUpdates != 40 {
		t.Fatalf("TotalUpdates = %d, want 40 (known-prefix updates only)", r.TotalUpdates)
	}
	if r.Crossed {
		t.Fatal("zero score must not cross")
	}
}

// TestPlaneSelfBaseline: with no training digests the first populated
// audit adopts its own observations, so an unchanged stream scores 0 and
// a later shifted stream scores against first-audit state.
func TestPlaneSelfBaseline(t *testing.T) {
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	clock := base
	p := NewPlane(Config{
		Selector:        Selector{Denom: 1},
		DriftMinUpdates: 4,
		Clock:           func() time.Time { return clock },
	})
	for i := 0; i < 16; i++ {
		p.ObserveShadow(mkUpdate("vp1", mkPrefix(i%4), []uint32{1, 2}, base), true)
	}
	r1 := p.Audit()
	if r1.Drift.Baseline != "self" {
		t.Fatalf("first audit baseline = %q, want self", r1.Drift.Baseline)
	}
	if r1.Drift.Score != 0 {
		t.Fatalf("self-baseline first score = %v, want 0", r1.Drift.Score)
	}
	// Shift the traffic: all-new paths on the same prefixes.
	for i := 0; i < 16; i++ {
		p.ObserveShadow(mkUpdate("vp1", mkPrefix(i%4), []uint32{7, 8, 9}, base), true)
	}
	r2 := p.Audit()
	if r2.Drift.Score <= 0.4 {
		t.Fatalf("shifted stream score = %v, want > 0.4", r2.Drift.Score)
	}
	if !r2.Drift.Crossed {
		t.Fatal("shifted stream must cross the default threshold")
	}
}

// TestPlaneDriftSignalEdgeTriggered: the OnDrift hook and the signal
// counter fire on the below→above transition only, not on every audit
// that stays above.
func TestPlaneDriftSignalEdgeTriggered(t *testing.T) {
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	p0 := mkPrefix(1)
	b := correlation.NewBaseline([]*update.Update{mkUpdate("vp1", p0, []uint32{1, 2}, base)})
	fired := 0
	pl := NewPlane(Config{
		Selector:        Selector{Denom: 1},
		DriftMinUpdates: 4,
		OnDrift:         func(DriftReport) { fired++ },
	})
	pl.SetBaseline(b)
	for i := 0; i < 32; i++ {
		pl.ObserveShadow(mkUpdate("vp1", p0, []uint32{6, 6, 6}, base), true)
	}
	pl.Audit()
	pl.Audit()
	pl.Audit()
	if fired != 1 {
		t.Fatalf("OnDrift fired %d times over a sustained crossing, want 1 (edge)", fired)
	}
}

// TestPlaneAuditRPAndCoverage exercises the live reconstitution-power and
// use-case-coverage paths end to end on a hand-built shadow sample.
func TestPlaneAuditRPAndCoverage(t *testing.T) {
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	pl := NewPlane(Config{Selector: Selector{Seed: 1, Denom: 1}})
	p := mkPrefix(1)
	// Two VPs announcing the same attribute bundle within the slack
	// window: keeping vp1 and discarding vp2 is fully reconstitutable.
	for i := 0; i < 10; i++ {
		at := base.Add(time.Duration(i) * 10 * time.Minute)
		pl.ObserveShadow(mkUpdate("vp1", p, []uint32{1, 2, 3}, at), true)
		pl.ObserveShadow(mkUpdate("vp2", p, []uint32{1, 2, 3}, at.Add(time.Second)), false)
	}
	r := pl.Audit()
	if r.ShadowFraction != "all" {
		t.Errorf("ShadowFraction = %q, want all", r.ShadowFraction)
	}
	if r.ShadowObserved != 20 || r.ShadowKept != 10 || r.ShadowDiscarded != 10 {
		t.Errorf("shadow counters: %+v", r)
	}
	if r.RPPrefixes != 1 {
		t.Errorf("RPPrefixes = %d, want 1", r.RPPrefixes)
	}
	if r.LiveRP < 0.99 {
		t.Errorf("LiveRP = %v for a perfectly correlated discard, want ~1", r.LiveRP)
	}
	if len(r.Coverage) != 5 {
		t.Errorf("coverage has %d evaluators, want 5: %v", len(r.Coverage), r.Coverage)
	}
	for name, v := range r.Coverage {
		if v < 0 || v > 1 {
			t.Errorf("coverage[%s] = %v out of [0,1]", name, v)
		}
	}
	if r.TrainingRP != 0.94 {
		t.Errorf("TrainingRP = %v, want default 0.94", r.TrainingRP)
	}
}

// TestPlaneLedgerSampling: a wired ledger source is sampled per audit and
// the residual lands in the report and the quality.unaccounted gauge.
func TestPlaneLedgerSampling(t *testing.T) {
	pl := NewPlane(Config{Selector: Selector{Denom: 1}})
	counts := LedgerCounts{In: 50, Archived: 30, Filtered: 10, Queued: 10}
	pl.SetLedger(func() LedgerCounts { return counts })
	r := pl.Audit()
	if r.Ledger == nil {
		t.Fatal("report missing ledger")
	}
	if r.Ledger.Unaccounted != 0 {
		t.Fatalf("residual = %d, want 0", r.Ledger.Unaccounted)
	}
	counts.Archived = 25 // 5 updates vanish
	r = pl.Audit()
	if r.Ledger.Unaccounted != 5 {
		t.Fatalf("residual = %d, want 5", r.Ledger.Unaccounted)
	}
}

// TestPlaneWindowEviction: observations older than the audit window are
// evicted and counted.
func TestPlaneWindowEviction(t *testing.T) {
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	clock := base
	pl := NewPlane(Config{
		Selector: Selector{Denom: 1},
		Window:   time.Minute,
		Clock:    func() time.Time { return clock },
	})
	pl.ObserveShadow(mkUpdate("vp1", mkPrefix(1), []uint32{1}, base), true)
	clock = base.Add(2 * time.Minute)
	pl.ObserveShadow(mkUpdate("vp1", mkPrefix(2), []uint32{1}, clock), true)
	r := pl.Audit()
	if r.Buffered != 1 {
		t.Fatalf("buffered = %d after window eviction, want 1", r.Buffered)
	}
	if r.ShadowEvicted != 1 {
		t.Fatalf("evicted = %d, want 1", r.ShadowEvicted)
	}
}

// TestPlaneMaxBufferEviction: overflow evicts oldest-first, a block at a
// time, and the counters account for every observation.
func TestPlaneMaxBufferEviction(t *testing.T) {
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	for _, maxBuf := range []int{8, 64} {
		pl := NewPlane(Config{Selector: Selector{Denom: 1}, MaxBuffer: maxBuf})
		var newest *update.Update
		for i := 0; i < 3*maxBuf; i++ {
			newest = mkUpdate("vp1", mkPrefix(i), []uint32{1}, base)
			pl.ObserveShadow(newest, true)
		}
		if n := len(pl.buf); n > maxBuf || n <= maxBuf-max(1, maxBuf/8) {
			t.Errorf("MaxBuffer %d: %d buffered, want within one block under the cap", maxBuf, n)
		}
		if pl.buf[len(pl.buf)-1].u != newest {
			t.Errorf("MaxBuffer %d: the newest observation was evicted", maxBuf)
		}
		r := pl.Audit()
		if r.ShadowObserved != uint64(r.Buffered)+r.ShadowEvicted {
			t.Errorf("MaxBuffer %d: observed %d != buffered %d + evicted %d", maxBuf, r.ShadowObserved, r.Buffered, r.ShadowEvicted)
		}
	}
}

// BenchmarkObserveShadowFull measures one observation into a buffer that
// is already at its (default) cap, the steady state of a busy daemon.
func BenchmarkObserveShadowFull(b *testing.B) {
	pl := NewPlane(Config{Selector: Selector{Denom: 1}})
	u := mkUpdate("vp1", mkPrefix(1), []uint32{1}, time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	for i := 0; i < pl.cfg.MaxBuffer; i++ {
		pl.ObserveShadow(u, true)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pl.ObserveShadow(u, true)
	}
}
