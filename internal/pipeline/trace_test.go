package pipeline

import (
	"context"
	"strings"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/update"
)

// dropOddStage discards updates whose prefix low byte is odd, so tests
// can predict which sampled updates a stage filters out.
type dropOddStage struct{}

func (dropOddStage) Name() string { return "oddfilter" }

func (dropOddStage) Process(batch []*update.Update) []*update.Update {
	out := batch[:0]
	for _, u := range batch {
		if u.Prefix.Addr().As4()[3]%2 == 0 {
			out = append(out, u)
		}
	}
	return out
}

func TestPipelineTracesEveryUpdate(t *testing.T) {
	rec := telemetry.NewRecorder(64, 1) // sample everything
	p := New(Config{Tracer: rec}, dropOddStage{}, &collectStage{})
	if err := p.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	const n = 10
	for i := 1; i <= n; i++ {
		p.Ingest(mkUpdate(i))
	}
	p.Close()

	traces := rec.Last(n)
	if len(traces) != n {
		t.Fatalf("recorded %d traces, want %d", len(traces), n)
	}
	var ok, filtered int
	for _, tr := range traces {
		switch tr.Verdict {
		case telemetry.VerdictOK:
			ok++
			if len(tr.Stages) != 2 {
				t.Errorf("trace %d survived with %d stage timings, want 2: %+v", tr.ID, len(tr.Stages), tr.Stages)
			}
		case telemetry.VerdictFiltered("oddfilter"):
			filtered++
			if len(tr.Stages) != 1 {
				t.Errorf("filtered trace %d has %d stage timings, want 1", tr.ID, len(tr.Stages))
			}
		default:
			t.Errorf("unexpected verdict %q", tr.Verdict)
		}
		if tr.VP != "vp65001" || tr.Prefix == "" {
			t.Errorf("trace identity missing: %+v", tr)
		}
		if tr.TotalNS <= 0 {
			t.Errorf("trace %d has non-positive total %d", tr.ID, tr.TotalNS)
		}
	}
	if ok != 5 || filtered != 5 {
		t.Errorf("verdicts ok=%d filtered=%d, want 5/5", ok, filtered)
	}
}

func TestPipelineLatencyHistogramsPopulated(t *testing.T) {
	p := New(Config{}, dropOddStage{})
	if err := p.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	const n = 20
	for i := 1; i <= n; i++ {
		p.Ingest(mkUpdate(i))
	}
	p.Close()
	s := p.Snapshot()
	if s.QueueWaitNS.Count != n {
		t.Errorf("queue-wait observations = %d, want %d", s.QueueWaitNS.Count, n)
	}
	if s.E2ENS.Count != n {
		t.Errorf("e2e observations = %d, want %d", s.E2ENS.Count, n)
	}
	if s.E2ENS.Quantile(0.5) <= 0 {
		t.Errorf("e2e p50 = %v, want > 0", s.E2ENS.Quantile(0.5))
	}
	st := s.Stage("oddfilter")
	if st.LatencyNS.Count == 0 {
		t.Errorf("stage latency histogram empty: %+v", st)
	}
	// The registry carries the same series under the pipeline's name.
	reg := p.Registry().Snapshot()
	for _, name := range []string{
		"pipeline.queue_wait_ns",
		"pipeline.e2e_latency_ns",
		"pipeline.stage.oddfilter.latency_ns",
	} {
		if h, okk := reg.Histograms[name]; !okk || h.Count == 0 {
			t.Errorf("registry histogram %s missing or empty", name)
		}
	}
}

func TestPipelineTraceVerdictOverflow(t *testing.T) {
	rec := telemetry.NewRecorder(64, 1)
	g := newGateStage()
	p := New(Config{Shards: 1, QueueSize: 1, BatchSize: 1, Overflow: DropNewest, Tracer: rec}, g)
	if err := p.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	p.Ingest(mkUpdate(1)) // taken by the worker, holds at the gate
	<-g.entered
	p.Ingest(mkUpdate(2)) // fills the 1-slot queue
	if p.Ingest(mkUpdate(3)) {
		t.Fatal("overflow ingest admitted")
	}
	// The overflow verdict is stamped synchronously by Ingest.
	found := false
	for _, tr := range rec.Last(8) {
		if tr.Verdict == telemetry.VerdictOverflow {
			found = true
		}
	}
	if !found {
		t.Errorf("no overflow verdict recorded: %+v", rec.Last(8))
	}
	g.release <- struct{}{}
	g.release <- struct{}{}
	p.Close()
}

func TestPipelineTraceVerdictClosed(t *testing.T) {
	rec := telemetry.NewRecorder(64, 1)
	p := New(Config{Tracer: rec})
	if err := p.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	p.Close()
	if p.Ingest(mkUpdate(1)) {
		t.Fatal("ingest after close admitted")
	}
	traces := rec.Last(1)
	if len(traces) != 1 || traces[0].Verdict != telemetry.VerdictClosed {
		t.Errorf("closed verdict missing: %+v", traces)
	}
}

func TestPipelineSamplingInterval(t *testing.T) {
	rec := telemetry.NewRecorder(64, 8)
	p := New(Config{Tracer: rec}, &collectStage{})
	if err := p.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 64; i++ {
		p.Ingest(mkUpdate(i))
	}
	p.Close()
	offered, sampled := rec.Stats()
	if offered != 64 || sampled != 8 {
		t.Errorf("offered=%d sampled=%d, want 64/8", offered, sampled)
	}
	for _, tr := range rec.Last(64) {
		if !strings.HasPrefix(tr.Verdict, "ok") {
			t.Errorf("sampled trace verdict %q, want ok", tr.Verdict)
		}
	}
}
