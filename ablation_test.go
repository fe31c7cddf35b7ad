package gill_test

// Ablation benches for the design choices DESIGN.md calls out: the
// reconstitution-power stop threshold (§17.2 fixes 0.94), the cross-prefix
// step (§17.3), the anchor candidate fraction γ (§18.4 fixes 10%), and the
// feature set driving VP scoring.

import (
	"testing"

	"repro/internal/anchors"
	"repro/internal/core"
	"repro/internal/correlation"
	"repro/internal/experiments"
	"repro/internal/update"
)

// BenchmarkAblation_StopRP sweeps the RP stop threshold: lower thresholds
// retain less data but reconstitute less of the stream.
func BenchmarkAblation_StopRP(b *testing.B) {
	sc := experiments.BuildScenario(experiments.DefaultScenario(31))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, stop := range []float64{0.80, 0.94, 0.99} {
			cfg := correlation.DefaultConfig()
			cfg.StopRP = stop
			res := correlation.Run(sc.Updates, cfg)
			b.ReportMetric(res.KeptAfterCross, "kept@"+pct(stop))
		}
	}
}

func pct(x float64) string {
	return string([]byte{'0' + byte(int(x*100)/10%10), '0' + byte(int(x*100)%10)})
}

// BenchmarkAblation_CrossPrefix isolates §17.3: the retained fraction
// before vs after collapsing prefixes with identical update schedules.
func BenchmarkAblation_CrossPrefix(b *testing.B) {
	sc := experiments.BuildScenario(experiments.DefaultScenario(32))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := correlation.Run(sc.Updates, correlation.DefaultConfig())
		b.ReportMetric(res.KeptBeforeCross, "kept_before")
		b.ReportMetric(res.KeptAfterCross, "kept_after")
		b.ReportMetric(res.KeptBeforeCross-res.KeptAfterCross, "saved_by_step3")
	}
}

// BenchmarkAblation_Gamma sweeps the anchor candidate fraction γ: low γ
// prioritizes unique views, high γ prioritizes low volume (§18.4).
func BenchmarkAblation_Gamma(b *testing.B) {
	sc := experiments.BuildScenario(experiments.DefaultScenario(33))
	train, _, _ := sc.Split(0.5)
	evs := anchors.DetectEvents(sc.Baseline, train, len(sc.VPs), anchors.DefaultBand())
	rep := anchors.NewReplayer(sc.Baseline, train)
	scores := anchors.Scores(rep.VPs(), rep.EventVectors(evs))
	volume := core.VolumeByVP(train)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, gamma := range []float64{0.01, 0.10, 0.50} {
			cfg := anchors.DefaultSelectConfig()
			cfg.Gamma = gamma
			sel := anchors.SelectAnchors(scores, volume, cfg)
			vol := 0
			for _, vp := range sel {
				vol += volume[vp]
			}
			b.ReportMetric(float64(len(sel)), "anchors@"+pct(gamma))
			b.ReportMetric(float64(vol), "volume@"+pct(gamma))
		}
	}
}

// BenchmarkAblation_RedundancyDefs compares the three §4.2 definitions'
// computational cost and yield on one stream.
func BenchmarkAblation_RedundancyDefs(b *testing.B) {
	sc := experiments.BuildScenario(experiments.DefaultScenario(34))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for d, def := range []update.Definition{update.Def1, update.Def2, update.Def3} {
			f := update.RedundantFraction(def, sc.Updates)
			b.ReportMetric(100*f, "def"+string(rune('1'+d))+"_%")
		}
	}
}
