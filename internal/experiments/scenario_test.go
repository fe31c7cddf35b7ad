package experiments

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/topology"
	"repro/internal/usecases"
)

func buildSmall(t *testing.T, seed int64) *Scenario {
	t.Helper()
	cfg := DefaultScenario(seed)
	cfg.ASes = 150
	cfg.VPs = 12
	return BuildScenario(cfg)
}

func TestBuildScenarioBasics(t *testing.T) {
	sc := buildSmall(t, 1)
	if len(sc.Updates) == 0 {
		t.Fatal("no updates generated")
	}
	if len(sc.Failures) != 24 || len(sc.Hijacks) != 12 {
		t.Fatalf("ground truth counts: %d failures, %d hijacks", len(sc.Failures), len(sc.Hijacks))
	}
	// Updates reference only scenario VPs.
	vpSet := map[string]bool{}
	for _, vp := range sc.VPs {
		vpSet["vp"+uitoa(vp)] = true
	}
	for _, u := range sc.Updates {
		if !vpSet[u.VP] {
			t.Fatalf("update from unknown VP %s", u.VP)
		}
	}
	// Chronological order is preserved in the stream after Annotate.
	for i := 1; i < len(sc.Updates); i++ {
		if sc.Updates[i].Time.Before(sc.Updates[i-1].Time) {
			t.Fatal("updates not time-sorted")
		}
	}
	// Baseline RIBs exist for every VP.
	if len(sc.Baseline) != len(sc.VPs) {
		t.Errorf("baseline for %d VPs, want %d", len(sc.Baseline), len(sc.VPs))
	}
}

func uitoa(v uint32) string {
	if v == 0 {
		return "0"
	}
	var b [10]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

func TestBuildScenarioDeterministic(t *testing.T) {
	a := buildSmall(t, 5)
	b := buildSmall(t, 5)
	if len(a.Updates) != len(b.Updates) {
		t.Fatalf("update counts differ: %d vs %d", len(a.Updates), len(b.Updates))
	}
	for i := range a.Updates {
		if a.Updates[i].AttrKey() != b.Updates[i].AttrKey() || !a.Updates[i].Time.Equal(b.Updates[i].Time) {
			t.Fatalf("streams diverge at %d", i)
		}
	}
}

func TestScenarioSplit(t *testing.T) {
	sc := buildSmall(t, 2)
	train, eval, cut := sc.Split(0.5)
	if len(train) == 0 || len(eval) == 0 {
		t.Fatalf("split empty: %d / %d", len(train), len(eval))
	}
	for _, u := range train {
		if !u.Time.Before(cut) {
			t.Fatal("train update after cut")
		}
	}
	for _, u := range eval {
		if u.Time.Before(cut) {
			t.Fatal("eval update before cut")
		}
	}
	if len(sc.EvalFailures(cut))+len(sc.EvalHijacks(cut)) == 0 {
		t.Error("no ground-truth cases in the eval half")
	}
}

func TestGroundTruthRecoverableFromFullStream(t *testing.T) {
	sc := buildSmall(t, 3)
	// Every visible hijack must be detectable from the full stream.
	visible := 0
	for _, h := range sc.Hijacks {
		if len(h.Updates) == 0 {
			continue // invisible hijack: reached no VP (the §3 gap)
		}
		visible++
		if !usecases.HijackVisible(sc.Updates, h.Prefix, h.Attacker, h.Tail) {
			t.Errorf("visible hijack %v not detectable from full stream", h.Prefix)
		}
	}
	if visible == 0 {
		t.Error("no hijack was visible at all; scenario too sparse")
	}
	// Some failures must be localizable from the full stream.
	localized := 0
	for _, f := range sc.Failures {
		if usecases.FailureLocalized(f.Pre, f.Updates, f.A, f.B) {
			localized++
		}
	}
	if localized == 0 {
		t.Error("no failure localizable from full data")
	}
}

func TestCoreTrainPipeline(t *testing.T) {
	sc := buildSmall(t, 4)
	train, eval, _ := sc.Split(0.5)
	cfg := core.DefaultConfig()
	cfg.EventsPerCell = 5
	m := core.Train(core.TrainingData{
		Updates:    train,
		Baseline:   sc.Baseline,
		Categories: topology.Categorize(sc.Topo),
		TotalVPs:   len(sc.VPs),
	}, cfg, rand.New(rand.NewSource(9)))

	if m.Correlation == nil || m.Filters == nil {
		t.Fatal("model incomplete")
	}
	if m.EventsUsed == 0 {
		t.Error("no events used for anchor scoring")
	}
	if len(m.Anchors) == 0 {
		t.Error("no anchors selected")
	}
	if len(m.Anchors) >= len(sc.VPs) {
		t.Errorf("all %d VPs became anchors; selection vacuous", len(m.Anchors))
	}
	// The model must discard a meaningful share of the training window but
	// never the anchors' updates.
	kept := m.RetainedFraction(train)
	if kept <= 0 || kept >= 1 {
		t.Errorf("retained fraction %v not in (0,1)", kept)
	}
	for _, u := range train {
		if slices.Contains(m.Filters.Anchors(), u.VP) && !m.Keep(u) {
			t.Fatal("anchor update dropped")
		}
	}
	// Samplers behave like their definitions.
	gill := m.Sampler().Sample(eval, 0)
	vpOnly := m.VPSampler().Sample(eval, 0)
	updOnly := m.UpdSampler().Sample(eval, 0)
	if len(gill) < len(vpOnly) || len(gill) < len(updOnly) {
		t.Errorf("gill sample (%d) should contain both simplifications (%d vp, %d upd)",
			len(gill), len(vpOnly), len(updOnly))
	}
}
