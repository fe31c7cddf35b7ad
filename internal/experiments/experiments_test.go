package experiments

import (
	"strings"
	"testing"
)

// The experiment tests assert the paper's *shapes* — who wins, what is
// monotone, where crossovers fall — on unit-scale scenarios.

func TestSec4DefinitionsMonotone(t *testing.T) {
	r := RunSec4(scenarioFor(Quick, 4))
	if r.Fractions[0] < r.Fractions[1] || r.Fractions[1] < r.Fractions[2] {
		t.Errorf("redundancy not monotone across definitions: %v", r.Fractions)
	}
	if r.Fractions[0] < 0.3 {
		t.Errorf("Def.1 redundancy %.2f implausibly low", r.Fractions[0])
	}
	if !strings.Contains(r.String(), "Def. 1") {
		t.Error("String() missing content")
	}
}

func TestFig6Monotone(t *testing.T) {
	r := RunFig6(scenarioFor(Quick, 6), 0, 3)
	if r.Fractions[0] < r.Fractions[1] || r.Fractions[1] < r.Fractions[2] {
		t.Errorf("VP redundancy not monotone: %v", r.Fractions)
	}
}

func TestSec6CrossPrefixReduces(t *testing.T) {
	r := RunSec6(scenarioFor(Quick, 6))
	if r.KeptAfterCross > r.KeptBeforeCross {
		t.Errorf("cross-prefix step increased kept fraction: %v → %v",
			r.KeptBeforeCross, r.KeptAfterCross)
	}
	if r.KeptBeforeCross <= 0 || r.KeptBeforeCross >= 1 {
		t.Errorf("kept fraction %v out of range", r.KeptBeforeCross)
	}
	// The whole point: most updates are redundant.
	if r.KeptAfterCross > 0.6 {
		t.Errorf("GILL retains %.2f; expected a clear minority", r.KeptAfterCross)
	}
}

func TestFig11CurveShape(t *testing.T) {
	r := RunFig11(scenarioFor(Quick, 11), 10)
	if len(r.Curve) < 2 {
		t.Fatalf("curve too short: %v", r.Curve)
	}
	// RP grows with the kept fraction and saturates near 1.
	last := r.Curve[len(r.Curve)-1]
	if last.RP < 0.9 {
		t.Errorf("curve does not saturate: %+v", last)
	}
	if r.Curve[0].RP > last.RP {
		t.Errorf("curve not increasing: %v", r.Curve)
	}
}

func TestSec7GranularityOrder(t *testing.T) {
	r := RunSec7(scenarioFor(Quick, 7))
	// The paper's 87% ≫ 43% ≫ 0% ordering.
	if !(r.Coarse > r.ASP && r.ASP >= r.ASPComm) {
		t.Errorf("granularity ordering violated: coarse=%.2f asp=%.2f aspcomm=%.2f",
			r.Coarse, r.ASP, r.ASPComm)
	}
	// The paper reports 87% at RIS/RV scale; unit-scale scenarios have
	// proportionally more never-seen (VP, prefix) pairs per window, so the
	// band is wider — the ordering is the reproduced claim.
	if r.Coarse < 0.4 {
		t.Errorf("coarse filters match only %.2f of future redundant updates", r.Coarse)
	}
	if r.ASPComm > 0.2 {
		t.Errorf("asp-comm filters match %.2f; should be near zero", r.ASPComm)
	}
}

func TestFig7Decay(t *testing.T) {
	r := RunFig7(scenarioFor(Quick, 77), []int{1, 16, 128})
	if len(r.Points) != 3 {
		t.Fatalf("points: %v", r.Points)
	}
	if !(r.Points[0].Matched > r.Points[1].Matched && r.Points[1].Matched > r.Points[2].Matched) {
		t.Errorf("match fraction not decaying: %v", r.Points)
	}
	if r.Points[0].Matched < 0.4 {
		t.Errorf("day-1 match %.2f too low", r.Points[0].Matched)
	}
	if r.Points[2].Matched > 0.4 {
		t.Errorf("day-128 match %.2f too high (filters should be stale)", r.Points[2].Matched)
	}
}

func TestFig8DriftGrows(t *testing.T) {
	cfg := scenarioFor(Quick, 8)
	cfg.ASes = 150
	cfg.VPs = 10
	r := RunFig8(cfg, []int{6, 66}, 3)
	if len(r.Points) != 2 {
		t.Fatalf("points: %v", r.Points)
	}
	if r.Points[0].MedianDrift > r.Points[1].MedianDrift {
		t.Errorf("drift should grow with age: %v", r.Points)
	}
	// Recent scores are stable (the paper's <0.1 at ≤12 months).
	if r.Points[0].MedianDrift > 0.35 {
		t.Errorf("6-month drift %.3f too large", r.Points[0].MedianDrift)
	}
}

func TestFig12BalancedFlatter(t *testing.T) {
	r := RunFig12(scenarioFor(Quick, 12), 3)
	if r.Events == 0 {
		t.Fatal("no events selected")
	}
	if Spread(r.Balanced) > Spread(r.Random) {
		t.Errorf("balanced spread %.3f > random %.3f", Spread(r.Balanced), Spread(r.Random))
	}
}

func TestTable1Shapes(t *testing.T) {
	cfg := DefaultTable1()
	cfg.LivePeers = 2
	cfg.LiveBudget = 100
	cfg.CalibrationN = 3000
	r := RunTable1(cfg)
	// Filters never increase loss at any grid point.
	for _, rate := range cfg.Rates {
		for _, peers := range cfg.PeerCounts {
			f, _ := r.Cell(peers, rate, true)
			nf, _ := r.Cell(peers, rate, false)
			if f.Loss > nf.Loss {
				t.Errorf("filters increased loss at %d peers × %d/h: %.2f > %.2f",
					peers, rate, f.Loss, nf.Loss)
			}
		}
	}
	// Loss grows with peer count.
	a, _ := r.Cell(100, cfg.Rates[1], false)
	b, _ := r.Cell(10000, cfg.Rates[1], false)
	if a.Loss > b.Loss {
		t.Errorf("loss not monotone in peers: %v vs %v", a.Loss, b.Loss)
	}
	// 100 peers at average rate: no loss either way (the green cells).
	g, _ := r.Cell(100, cfg.Rates[0], false)
	if g.Loss != 0 {
		t.Errorf("100 peers @ avg rate lost %.3f", g.Loss)
	}
	// The live measurement at trivial scale must be lossless.
	live, ok := r.Cell(cfg.LivePeers, cfg.Rates[0], false)
	if !ok {
		t.Fatal("live cell missing")
	}
	if live.Estimated || live.Loss != 0 {
		t.Errorf("live run: %+v", live)
	}
}

func TestTable2GILLBeatsNaiveBaselines(t *testing.T) {
	r := RunTable2(scenarioFor(Quick, 2), 4)
	if r.Budget == 0 {
		t.Fatal("empty GILL budget")
	}
	naive := []string{"rnd-upd", "rnd-vp", "as-dist", "unbiased"}
	type loss struct {
		uc, s          string
		gill, baseline float64
	}
	var losses []loss
	for _, uc := range Table2UseCases {
		for _, s := range naive {
			g, b := r.Score(uc, "gill"), r.Score(uc, s)
			if g+0.05 < b { // yellow band of the paper: ±5%
				losses = append(losses, loss{uc, s, g, b})
			}
		}
	}
	// GILL must win or tie on the overwhelming majority of (use case,
	// naive baseline) cells.
	if len(losses) > 3 {
		t.Errorf("GILL lost to naive baselines in %d/20 cells: %+v", len(losses), losses)
	}
	// Takeaway #4: each use-case specific wins (or ties) its own diagonal.
	for _, uc := range Table2UseCases {
		spec := "specific-" + uc
		if r.Score(uc, spec)+0.05 < r.Score(uc, "gill") {
			t.Errorf("specific %s loses its own use case: %.2f vs gill %.2f",
				spec, r.Score(uc, spec), r.Score(uc, "gill"))
		}
	}
	// All 15 samplers reported.
	if len(r.Samplers) != 15 {
		t.Errorf("sampler count %d, want 15", len(r.Samplers))
	}
}

func TestTable3Shapes(t *testing.T) {
	cfg := DefaultTable3()
	r := RunTable3(cfg)
	if len(r.Points) != len(cfg.Coverages) {
		t.Fatalf("points: %d", len(r.Points))
	}
	first, last := r.Points[0], r.Points[len(r.Points)-1]
	// Takeaway #1: higher coverage → GILL discards proportionally more.
	if last.RetainedPct > first.RetainedPct {
		t.Errorf("retained fraction should shrink with coverage: %.3f → %.3f",
			first.RetainedPct, last.RetainedPct)
	}
	if last.AnchorPct > first.AnchorPct {
		t.Errorf("anchor fraction should shrink with coverage: %.3f → %.3f",
			first.AnchorPct, last.AnchorPct)
	}
	for _, p := range r.Points {
		// Best case upper-bounds GILL (it sees strictly more data).
		if p.TopoGILL > p.TopoBest+1e-9 || p.FailLocGILL > p.FailLocBest+1e-9 ||
			p.HijackGILL > p.HijackBest+1e-9 {
			t.Errorf("GILL beats best-case at %.0f%%: %+v", p.CoveragePct, p)
		}
	}
	// Takeaway #3: GILL beats random VPs on topology mapping overall.
	var gSum, rSum float64
	for _, p := range r.Points {
		gSum += p.TopoGILL + p.FailLocGILL + p.HijackGILL
		rSum += p.TopoRnd + p.FailLocRnd + p.HijackRnd
	}
	if gSum <= rSum {
		t.Errorf("GILL (%.2f) does not beat random VPs (%.2f) in aggregate", gSum, rSum)
	}
	// Coverage helps best-case monotonically for topology mapping.
	if last.TopoBest < first.TopoBest {
		t.Errorf("best-case mapping should improve with coverage: %v → %v",
			first.TopoBest, last.TopoBest)
	}
}

func TestFig4CoverageImproves(t *testing.T) {
	cfg := DefaultFig4()
	cfg.ASes = 150
	cfg.Failures = 20
	cfg.Hijacks = 20
	cfg.Coverages = []float64{1, 25, 100}
	r := RunFig4(cfg)
	lo, hi := r.Points[0], r.Points[len(r.Points)-1]
	if hi.P2PLinks <= lo.P2PLinks {
		t.Errorf("p2p mapping did not improve: %.2f → %.2f", lo.P2PLinks, hi.P2PLinks)
	}
	if hi.Type1Hijack < lo.Type1Hijack {
		t.Errorf("hijack visibility decreased: %.2f → %.2f", lo.Type1Hijack, hi.Type1Hijack)
	}
	// Full coverage sees every link and every hijack.
	if hi.P2PLinks < 0.99 || hi.C2PLinks < 0.99 {
		t.Errorf("100%% coverage missed links: p2p=%.2f c2p=%.2f", hi.P2PLinks, hi.C2PLinks)
	}
	if hi.Type1Hijack < 0.99 {
		t.Errorf("100%% coverage missed type-1 hijacks: %.2f", hi.Type1Hijack)
	}
	// At 1% coverage, p2p links are much harder to see than c2p links
	// (Fig. 4 key observation #1).
	if lo.P2PLinks >= lo.C2PLinks {
		t.Errorf("p2p links should be less visible at low coverage: p2p=%.2f c2p=%.2f",
			lo.P2PLinks, lo.C2PLinks)
	}
	// Type-2 hijacks are never more visible than Type-1 at low coverage.
	if lo.Type2Hijack > lo.Type1Hijack+0.15 {
		t.Errorf("type-2 more visible than type-1: %.2f vs %.2f", lo.Type2Hijack, lo.Type1Hijack)
	}
}

func TestSec12aGILLInfersMore(t *testing.T) {
	r := RunSec12a(scenarioFor(Quick, 121), 4)
	if r.GILLCount <= r.BaselineCount {
		t.Errorf("GILL inferred %d relationships, baseline %d; paper reports +16%%",
			r.GILLCount, r.BaselineCount)
	}
	// Accuracy must not collapse (paper: TPR stays ≈97%).
	if r.GILLTPR < r.BaselineTPR-0.10 {
		t.Errorf("GILL accuracy collapsed: %.2f vs %.2f", r.GILLTPR, r.BaselineTPR)
	}
}

func TestSec12bCCSChanges(t *testing.T) {
	// The paper's claim shape: sampling with GILL at equal budget changes
	// customer-cone sizes for a set of ASes, and specific substantial
	// changes are corrections toward the truth (its AS132337 / AS24745
	// examples). A consistent majority-direction is NOT claimed — and at
	// unit scale the direction is noise (see EXPERIMENTS.md).
	r := RunSec12b(scenarioFor(Quick, 122), 4)
	if r.Changed == 0 {
		t.Fatal("equal-budget GILL sampling changed no CCS")
	}
	if r.Substantial == 0 {
		t.Fatal("no substantial CCS changes to audit")
	}
	if r.SubstantialGILLCloser == 0 {
		t.Error("no substantial change was a correction toward the truth")
	}
	if len(r.Corrected) == 0 {
		t.Error("no corrected example ASes reported")
	}
}

func TestSec12cGILLBeatsRandom(t *testing.T) {
	r := RunSec12c(scenarioFor(Quick, 123), 4)
	if r.Cases == 0 {
		t.Fatal("no hijack cases in the eval half")
	}
	if r.GILL.TPR() < r.Random.TPR() {
		t.Errorf("DFOH-GILL TPR %.2f below DFOH-Rnd %.2f", r.GILL.TPR(), r.Random.TPR())
	}
}

func TestSec3PrivateDisjointViews(t *testing.T) {
	r := RunSec3Private(250, 15, 10, 3)
	if r.PublicOnly == 0 || r.PrivateOnly == 0 {
		t.Errorf("each platform must see exclusive links: %+v", r)
	}
	if r.Shared == 0 {
		t.Errorf("platforms must also share links: %+v", r)
	}
	// The larger deployment sees more exclusive links (paper: RIS/RV's
	// 401k vs bgp.tools' 192k).
	if r.PublicOnly <= r.PrivateOnly {
		t.Errorf("public (%d VPs) should out-see private: %+v", 15, r)
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig2", "fig3", "fig4", "fig6", "fig7", "fig8", "fig11", "fig12",
		"sec3", "sec4", "sec6", "sec7", "sec12a", "sec12b", "sec12c",
		"table1", "table2", "table3", "table5",
	}
	have := map[string]bool{}
	for _, r := range Registry() {
		have[r.ID] = true
	}
	for _, w := range want {
		if !have[w] {
			t.Errorf("registry missing %s", w)
		}
	}
	if _, ok := Lookup("table2"); !ok {
		t.Error("Lookup failed")
	}
	if _, ok := Lookup("bogus"); ok {
		t.Error("Lookup found a ghost")
	}
}

func TestGrowthRunners(t *testing.T) {
	f2, f3 := RunFig2(), RunFig3()
	if len(f2.Points) == 0 || len(f3.Points) == 0 {
		t.Fatal("empty growth series")
	}
	if !strings.Contains(f2.String(), "2023") || !strings.Contains(f3.String(), "2023") {
		t.Error("rendered output missing final year")
	}
}

func TestTable5Census(t *testing.T) {
	r := RunTable5(600, 5)
	if r.Census[1] == 0 {
		t.Error("no stubs in census")
	}
	sum := 0
	for _, n := range r.Census {
		sum += n
	}
	if sum != 600 {
		t.Errorf("census sums to %d, want 600", sum)
	}
}
