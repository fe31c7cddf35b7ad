package gill_test

// The bench harness regenerates every table and figure of the paper's
// evaluation (see DESIGN.md's per-experiment index). Each benchmark runs
// the corresponding experiment at unit scale, reports the headline numbers
// as custom benchmark metrics, and prints the full table once under
// -benchtime=1x -v via b.Log. Absolute values depend on the simulated
// mini-Internet; the *shapes* track the paper (see EXPERIMENTS.md).

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/experiments"
	"repro/internal/pipeline"
	"repro/internal/update"
	"repro/internal/workload"
)

// BenchmarkFig2_VPGrowth regenerates Fig. 2 (VP growth vs flat coverage).
func BenchmarkFig2_VPGrowth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunFig2()
		last := r.Points[len(r.Points)-1]
		b.ReportMetric(last.Coverage*100, "coverage2023_%")
	}
}

// BenchmarkFig3_UpdateGrowth regenerates Fig. 3 (update volume growth).
func BenchmarkFig3_UpdateGrowth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunFig3()
		last := r.Points[len(r.Points)-1]
		b.ReportMetric(float64(last.UpdatesPerVPHour), "upd/h/vp_2023")
	}
}

// BenchmarkFig4_CoverageSweep regenerates Fig. 4 (coverage vs mapping,
// localization, hijack detection).
func BenchmarkFig4_CoverageSweep(b *testing.B) {
	cfg := experiments.DefaultFig4()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := experiments.RunFig4(cfg)
		lo, hi := r.Points[0], r.Points[len(r.Points)-1]
		b.ReportMetric(100*lo.P2PLinks, "p2pLinks@1%_%")
		b.ReportMetric(100*hi.P2PLinks, "p2pLinks@100%_%")
		b.ReportMetric(100*lo.Type1Hijack, "hijacks@1%_%")
	}
}

// BenchmarkSec3_PrivateFeeds regenerates the §3.1 public-vs-private
// collector comparison (each platform sees links the other misses).
func BenchmarkSec3_PrivateFeeds(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunSec3Private(250, 15, 10, 3)
		b.ReportMetric(float64(r.PublicOnly), "public_only_links")
		b.ReportMetric(float64(r.PrivateOnly), "private_only_links")
	}
}

// BenchmarkSec4_UpdateRedundancy regenerates the §4.2 redundancy
// measurements (paper: 97%/77%/70%).
func BenchmarkSec4_UpdateRedundancy(b *testing.B) {
	cfg := experiments.DefaultScenario(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := experiments.RunSec4(cfg)
		b.ReportMetric(100*r.Fractions[0], "def1_%")
		b.ReportMetric(100*r.Fractions[1], "def2_%")
		b.ReportMetric(100*r.Fractions[2], "def3_%")
	}
}

// BenchmarkFig6_VPRedundancy regenerates Fig. 6 (redundant VPs per
// definition).
func BenchmarkFig6_VPRedundancy(b *testing.B) {
	cfg := experiments.DefaultScenario(6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := experiments.RunFig6(cfg, 0, 5)
		b.ReportMetric(100*r.Fractions[0], "def1_%")
		b.ReportMetric(100*r.Fractions[2], "def3_%")
	}
}

// BenchmarkSec6_Reconstitution regenerates the §6 |α|/|β| fractions
// (paper: ≈0.16 before the cross-prefix step, ≈0.07 after).
func BenchmarkSec6_Reconstitution(b *testing.B) {
	cfg := experiments.DefaultScenario(6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := experiments.RunSec6(cfg)
		b.ReportMetric(r.KeptBeforeCross, "kept_before")
		b.ReportMetric(r.KeptAfterCross, "kept_after")
	}
}

// BenchmarkFig11_RPCurve regenerates Fig. 11 (reconstitution power vs
// retained fraction).
func BenchmarkFig11_RPCurve(b *testing.B) {
	cfg := experiments.DefaultScenario(11)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := experiments.RunFig11(cfg, 10)
		if len(r.Curve) > 0 {
			b.ReportMetric(r.Curve[len(r.Curve)-1].RP, "rp_final")
		}
	}
}

// BenchmarkSec7_FilterGranularity regenerates the §7 filter-granularity
// comparison (paper: 87% / 43% / 0%).
func BenchmarkSec7_FilterGranularity(b *testing.B) {
	cfg := experiments.DefaultScenario(7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := experiments.RunSec7(cfg)
		b.ReportMetric(100*r.Coarse, "coarse_%")
		b.ReportMetric(100*r.ASP, "asp_%")
		b.ReportMetric(100*r.ASPComm, "aspcomm_%")
	}
}

// BenchmarkFig7_FilterDecay regenerates Fig. 7 (filter hit-rate decay over
// days; the knee motivates the 16-day refresh).
func BenchmarkFig7_FilterDecay(b *testing.B) {
	cfg := experiments.DefaultScenario(77)
	days := []int{1, 2, 4, 8, 16, 32, 64, 128}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := experiments.RunFig7(cfg, days)
		b.ReportMetric(100*r.Points[0].Matched, "day1_%")
		b.ReportMetric(100*r.Points[4].Matched, "day16_%")
		b.ReportMetric(100*r.Points[7].Matched, "day128_%")
	}
}

// BenchmarkFig8_ScoreDrift regenerates Fig. 8 (redundancy score drift over
// months; the stability motivates the yearly refresh).
func BenchmarkFig8_ScoreDrift(b *testing.B) {
	cfg := experiments.DefaultScenario(8)
	cfg.ASes = 150
	cfg.VPs = 10
	months := []int{6, 12, 66}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := experiments.RunFig8(cfg, months, 3)
		b.ReportMetric(r.Points[0].MedianDrift, "drift_6m")
		b.ReportMetric(r.Points[2].MedianDrift, "drift_66m")
	}
}

// BenchmarkFig12_EventBalance regenerates Fig. 12 (balanced vs random
// event selection).
func BenchmarkFig12_EventBalance(b *testing.B) {
	cfg := experiments.DefaultScenario(12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := experiments.RunFig12(cfg, 4)
		b.ReportMetric(experiments.Spread(r.Balanced), "spread_balanced")
		b.ReportMetric(experiments.Spread(r.Random), "spread_random")
	}
}

// BenchmarkTable1_DaemonLoad regenerates Table 1 (daemon update loss vs
// peers × rate × filtering).
func BenchmarkTable1_DaemonLoad(b *testing.B) {
	cfg := experiments.DefaultTable1()
	cfg.LivePeers = 2
	cfg.LiveBudget = 200
	cfg.CalibrationN = 5000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := experiments.RunTable1(cfg)
		if c, ok := r.Cell(10000, cfg.Rates[0], false); ok {
			b.ReportMetric(100*c.Loss, "loss10k_nofilter_%")
		}
		if c, ok := r.Cell(10000, cfg.Rates[0], true); ok {
			b.ReportMetric(100*c.Loss, "loss10k_filter_%")
		}
	}
}

// BenchmarkTable2_Benchmark regenerates Table 2 (GILL vs 12 baselines on
// the five use cases).
func BenchmarkTable2_Benchmark(b *testing.B) {
	cfg := experiments.DefaultScenario(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := experiments.RunTable2(cfg, 4)
		b.ReportMetric(100*r.Score("moas", "gill"), "gill_moas_%")
		b.ReportMetric(100*r.Score("moas", "rnd-vp"), "rndvp_moas_%")
		b.ReportMetric(100*r.Score("topology-mapping", "gill"), "gill_topo_%")
	}
}

// BenchmarkTable3_LongTerm regenerates Table 3 (long-term impact across
// coverages).
func BenchmarkTable3_LongTerm(b *testing.B) {
	cfg := experiments.DefaultTable3()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := experiments.RunTable3(cfg)
		first, last := r.Points[0], r.Points[len(r.Points)-1]
		b.ReportMetric(100*first.RetainedPct, "retained@10%_%")
		b.ReportMetric(100*last.RetainedPct, "retained@100%_%")
		b.ReportMetric(100*last.AnchorPct, "anchors@100%_%")
	}
}

// BenchmarkTable5_Census regenerates Table 5 (AS category census).
func BenchmarkTable5_Census(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunTable5(800, 5)
		b.ReportMetric(float64(r.Census[1]), "stubs")
	}
}

// BenchmarkSec12_Relationships regenerates the §12 AS-relationship study
// (paper: +16% relationships at equal budget).
func BenchmarkSec12_Relationships(b *testing.B) {
	cfg := experiments.DefaultScenario(121)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := experiments.RunSec12a(cfg, 4)
		b.ReportMetric(r.GainPct, "gain_%")
		b.ReportMetric(100*r.GILLTPR, "gill_tpr_%")
	}
}

// BenchmarkSec12_CustomerCone regenerates the §12 ASRank CCS study.
func BenchmarkSec12_CustomerCone(b *testing.B) {
	cfg := experiments.DefaultScenario(122)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := experiments.RunSec12b(cfg, 4)
		b.ReportMetric(float64(r.GILLCloser), "gill_closer")
		b.ReportMetric(float64(r.BaselineCloser), "baseline_closer")
	}
}

// BenchmarkSec12_DFOH regenerates the §12 DFOH study (paper: TPR 94% vs
// 71.5%, FPR 14.4% vs 60.1%).
func BenchmarkSec12_DFOH(b *testing.B) {
	cfg := experiments.DefaultScenario(123)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := experiments.RunSec12c(cfg, 4)
		b.ReportMetric(100*r.GILL.TPR(), "gill_tpr_%")
		b.ReportMetric(100*r.Random.TPR(), "rnd_tpr_%")
	}
}

// BenchmarkPipelineThroughput measures the sharded ingest pipeline of the
// collection path (§8) across shard counts and batch sizes: each variant
// drives the filter → archive chain (MRT encoding in the shard workers,
// batched writes with a 50µs synchronous-I/O latency each) with a
// calibrated per-VP stream, and derives the loss fraction a deployment
// would see at the paper's mean (28K upd/h) and p99 (241K upd/h) per-VP
// rates from the measured capacity. Batching amortizes the write latency;
// sharding overlaps outstanding writes like a storage queue.
func BenchmarkPipelineThroughput(b *testing.B) {
	// A calibrated multi-VP stream; each BGP message carries one prefix.
	var us []*update.Update
	for vp := 0; vp < 8; vp++ {
		as := uint32(65001 + vp)
		name := fmt.Sprintf("vp%d", as)
		for _, tu := range workload.Stream(workload.StreamConfig{
			UpdatesPerHour: workload.AvgUpdatesPerHour,
			PeerAS:         as,
			Seed:           int64(vp + 1),
			Prefixes:       200,
		}, 2500) {
			u := &update.Update{VP: name, Time: tu.At}
			switch {
			case len(tu.Update.NLRI) > 0:
				u.Prefix = tu.Update.NLRI[0]
				u.Path = tu.Update.ASPath
				for _, c := range tu.Update.Communities {
					u.Comms = append(u.Comms, uint32(c))
				}
			case len(tu.Update.Withdrawn) > 0:
				u.Prefix = tu.Update.Withdrawn[0]
				u.Withdraw = true
			default:
				continue
			}
			us = append(us, u)
		}
	}

	for _, shards := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		for _, batch := range []int{1, 64, 512} {
			b.Run(fmt.Sprintf("shards=%d/batch=%d", shards, batch), func(b *testing.B) {
				p := pipeline.New(pipeline.Config{
					Shards:    shards,
					QueueSize: 4096,
					BatchSize: batch,
					Overflow:  pipeline.Block, // measure capacity, not drops
				},
					&pipeline.FilterStage{},
					&pipeline.ArchiveStage{LocalAS: 65000, Sink: slowDiscardSink},
				)
				if err := p.Start(context.Background()); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					p.Ingest(us[i%len(us)])
				}
				p.Close()
				elapsed := b.Elapsed().Seconds()
				if elapsed <= 0 {
					return
				}
				thr := float64(b.N) / elapsed // measured capacity, upd/s
				b.ReportMetric(thr, "upd/s")
				// Loss a 10k-VP deployment would see at the paper's rates:
				// offered load beyond measured capacity is dropped.
				const peers = 10_000
				lossAt := func(perVPHour float64) float64 {
					offered := peers * perVPHour / 3600
					if thr >= offered {
						return 0
					}
					return 1 - thr/offered
				}
				b.ReportMetric(lossAt(workload.AvgUpdatesPerHour), "loss@mean")
				b.ReportMetric(lossAt(workload.P99UpdatesPerHour), "loss@p99")
			})
		}
	}
}
