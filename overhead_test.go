package gill_test

// Observer overhead: the daemon attaches three per-update observers to its
// ingest chain — the flight recorder, the data-quality shadow lane and the
// vitals liveness tap — and each must be cheap enough to leave on in
// production. BenchmarkPipelineOverhead reports ingest capacity with none
// and with each; TestOverheadGuard (env-gated, one row per observer, run
// by `make obs-smoke`, `quality-smoke` and `vitals-smoke`) asserts each
// keeps at least 95% of the observer-free throughput.

import (
	"context"
	"fmt"
	"os"
	"sort"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/pipeline"
	"repro/internal/quality"
	"repro/internal/telemetry"
	"repro/internal/update"
	"repro/internal/vitals"
	"repro/internal/workload"
)

// overheadWorkload builds the same calibrated multi-VP stream the
// throughput benchmark uses.
func overheadWorkload() []*update.Update {
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
			case len(tu.Update.Withdrawn) > 0:
				u.Prefix = tu.Update.Withdrawn[0]
				u.Withdraw = true
			default:
				continue
			}
			us = append(us, u)
		}
	}
	return us
}

// observer attaches one per-update hook to a pipeline about to be built:
// it may set cfg or the filter stage's fields, and returns stages to run
// ahead of the filter. ctx lives as long as the pipeline.
type observer func(ctx context.Context, cfg *pipeline.Config, fs *pipeline.FilterStage) []pipeline.Stage

// observers are the guarded rows, each wired as the daemon wires it.
var observers = []struct {
	name   string
	attach observer
}{
	{"tracing", func(_ context.Context, cfg *pipeline.Config, _ *pipeline.FilterStage) []pipeline.Stage {
		cfg.Tracer = telemetry.NewRecorder(0, 0) // default 1/1024 sampling
		return nil
	}},
	{"shadow", func(_ context.Context, _ *pipeline.Config, fs *pipeline.FilterStage) []pipeline.Stage {
		qp := quality.NewPlane(quality.Config{Selector: quality.Selector{Seed: 1, Denom: 64}})
		fs.ShadowSelect = qp.Selected
		fs.ShadowSink = qp.ObserveShadow
		return nil
	}},
	{"vitals", func(ctx context.Context, _ *pipeline.Config, _ *pipeline.FilterStage) []pipeline.Stage {
		tr := vitals.New(vitals.Config{Registry: metrics.NewRegistry()})
		go tr.Run(ctx) // the evaluation ticker runs, as in the daemon
		return []pipeline.Stage{tr}
	}},
}

// runOverheadPipeline pushes n updates through a filter → archive chain
// with obs attached (nil: no observer) and returns the updates-per-second
// the pipeline sustained.
func runOverheadPipeline(tb testing.TB, us []*update.Update, obs observer, n int) float64 {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := pipeline.Config{
		Shards:    4,
		QueueSize: 4096,
		BatchSize: 64,
		Overflow:  pipeline.Block, // measure capacity, not drops
	}
	fs := &pipeline.FilterStage{}
	var stages []pipeline.Stage
	if obs != nil {
		stages = obs(ctx, &cfg, fs)
	}
	stages = append(stages, fs, &pipeline.ArchiveStage{LocalAS: 65000, Sink: slowDiscardSink})
	p := pipeline.New(cfg, stages...)
	if err := p.Start(ctx); err != nil {
		tb.Fatal(err)
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		p.Ingest(us[i%len(us)])
	}
	p.Close()
	return float64(n) / time.Since(start).Seconds()
}

// slowDiscardSink stands in for a storage write that takes 50 µs per
// batch: it sleeps, then drops the records. Shards overlap their sleeps
// like a storage queue, so batching amortizes the latency and sharding
// hides it.
func slowDiscardSink(recs [][]byte) (int, error) {
	time.Sleep(50 * time.Microsecond)
	return len(recs), nil
}

// BenchmarkPipelineOverhead reports ingest capacity with no observer and
// with each guarded one.
func BenchmarkPipelineOverhead(b *testing.B) {
	us := overheadWorkload()
	b.Run("none", func(b *testing.B) {
		b.ReportMetric(runOverheadPipeline(b, us, nil, b.N), "upd/s")
	})
	for _, o := range observers {
		b.Run(o.name, func(b *testing.B) {
			b.ReportMetric(runOverheadPipeline(b, us, o.attach, b.N), "upd/s")
		})
	}
}

// TestOverheadGuard asserts each observer keeps at least 95% of the
// observer-free throughput. Each row runs an even number of alternated
// pairs (which side goes first flips every pair, so host drift and
// run-order effects hit both sides equally) and is judged by the median
// of the per-pair ratios: one stalled run moves one ratio, not the
// verdict. It needs a quiet machine and several seconds
// per row, so it only runs when GILL_BENCH_GUARD=1; under plain
// `go test` it is skipped.
func TestOverheadGuard(t *testing.T) {
	if os.Getenv("GILL_BENCH_GUARD") != "1" {
		t.Skip("set GILL_BENCH_GUARD=1 to run the observer overhead guard")
	}
	us := overheadWorkload()
	const n, pairs = 250_000, 8
	for _, o := range observers {
		t.Run(o.name, func(t *testing.T) {
			runOverheadPipeline(t, us, nil, n) // warm caches and the scheduler
			ratios := make([]float64, pairs)
			for i := range ratios {
				var off, on float64
				if i%2 == 0 {
					off = runOverheadPipeline(t, us, nil, n)
					on = runOverheadPipeline(t, us, o.attach, n)
				} else {
					on = runOverheadPipeline(t, us, o.attach, n)
					off = runOverheadPipeline(t, us, nil, n)
				}
				ratios[i] = on / off
			}
			order := fmt.Sprintf("%.3f", ratios)
			sort.Float64s(ratios)
			median := (ratios[pairs/2-1] + ratios[pairs/2]) / 2
			t.Logf("%s on/off throughput: median %.2f%% over %d pairs (pair ratios in run order: %s)",
				o.name, 100*median, pairs, order)
			if median < 0.95 {
				t.Errorf("%s overhead exceeds 5%%: median on/off ratio %.3f", o.name, median)
			}
		})
	}
}
