package gill_test

// Codec hot-path benchmarks and the machine-readable BENCH_codec.json
// report. BenchmarkCodec measures the wire codec alone — decode into a
// reused Update (the session read loop), the legacy eager decode, and
// append-encode into a reused buffer (the archive arena). Benchmark-
// IngestAllocs drives the filter → archive → counter stages daemon.New
// composes and reports per-update allocation cost. TestCodecBenchReport
// (env-gated, run by `make bench-codec` and regenerated by the bench
// guard) records all three as msgs/s, ns/op and allocs/op, and pins the
// tentpole contract: decode into a reused Update is allocation-free and
// encode stays at or under two allocations per message.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/netip"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/bgp"
	"repro/internal/metrics"
	"repro/internal/pipeline"
	"repro/internal/update"
	"repro/internal/workload"
)

// codecUpdate is the representative UPDATE the codec benchmarks run on:
// withdrawals, a 4-octet AS path, MED, LOCAL_PREF, two communities and
// two NLRI — the golden "full-v4" shape.
func codecUpdate() *bgp.Update {
	return &bgp.Update{
		Withdrawn: []netip.Prefix{
			netip.MustParsePrefix("198.51.100.0/24"),
			netip.MustParsePrefix("10.2.0.0/16"),
		},
		Origin:      bgp.OriginIGP,
		ASPath:      []uint32{65001, 65002, 400001},
		NextHop:     netip.MustParseAddr("192.0.2.254"),
		MED:         10,
		HasMED:      true,
		LocalPref:   100,
		HasLocal:    true,
		Communities: []bgp.Community{bgp.Community(65001<<16 | 100), bgp.Community(65001<<16 | 200)},
		NLRI: []netip.Prefix{
			netip.MustParsePrefix("203.0.113.0/24"),
			netip.MustParsePrefix("10.0.0.0/8"),
		},
	}
}

func codecWire(tb testing.TB) []byte {
	tb.Helper()
	wire, err := bgp.Marshal(codecUpdate())
	if err != nil {
		tb.Fatal(err)
	}
	return wire
}

// BenchmarkCodec measures the three codec paths in isolation.
func BenchmarkCodec(b *testing.B) {
	wire := codecWire(b)
	src := codecUpdate()

	b.Run("decode-reuse", func(b *testing.B) {
		var u bgp.Update
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := bgp.UnmarshalUpdate(wire, &u); err != nil {
				b.Fatal(err)
			}
			u.Path()
			u.Comms()
		}
	})
	b.Run("decode-eager", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := bgp.Unmarshal(wire); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encode-reuse", func(b *testing.B) {
		dst := make([]byte, 0, bgp.MaxMessageLen)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var err error
			dst, err = bgp.AppendMessage(dst[:0], src)
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

// codecIngestCorpus builds a calibrated multi-VP canonical-update stream
// for the full-chain ingest measurement (same construction as the
// pipeline throughput benchmark).
func codecIngestCorpus() []*update.Update {
	var us []*update.Update
	for vp := 0; vp < 4; vp++ {
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
	return us
}

// codecIngestPipeline is the daemon's ingest chain without its taps:
// FilterStage → ArchiveStage → CounterStage, the stage types daemon.New
// composes.
func codecIngestPipeline() *pipeline.Pipeline {
	reg := metrics.NewRegistry()
	return pipeline.New(pipeline.Config{
		Shards:    4,
		QueueSize: 4096,
		BatchSize: 64,
		Overflow:  pipeline.Block, // measure cost, not drops
		Registry:  reg,
	},
		&pipeline.FilterStage{},
		&pipeline.ArchiveStage{LocalAS: 65000, Out: io.Discard},
		pipeline.NewCounterStage(reg, "ingest"),
	)
}

// BenchmarkIngestAllocs measures the full collection chain per update.
func BenchmarkIngestAllocs(b *testing.B) {
	us := codecIngestCorpus()
	p := codecIngestPipeline()
	if err := p.Start(context.Background()); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Ingest(us[i%len(us)])
	}
	if err := p.Close(); err != nil {
		b.Fatal(err)
	}
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(b.N)/s, "upd/s")
	}
}

type codecBenchReport struct {
	GeneratedAt string `json:"generated_at"`

	DecodeMsgsPerSec  float64 `json:"decode_msgs_per_sec"`
	DecodeNsPerOp     float64 `json:"decode_ns_per_op"`
	DecodeAllocsPerOp float64 `json:"decode_allocs_per_op"`

	EncodeMsgsPerSec  float64 `json:"encode_msgs_per_sec"`
	EncodeNsPerOp     float64 `json:"encode_ns_per_op"`
	EncodeAllocsPerOp float64 `json:"encode_allocs_per_op"`

	IngestMsgsPerSec  float64 `json:"ingest_msgs_per_sec"`
	IngestNsPerOp     float64 `json:"ingest_ns_per_op"`
	IngestAllocsPerOp float64 `json:"ingest_allocs_per_op"`

	// End-to-end ingest latency (Ingest call to chain exit) from the
	// pipeline's own histogram — queueing included, so these move when
	// batching or shard scheduling regresses even if raw ns/op does not.
	IngestE2EP50Ns float64 `json:"ingest_e2e_p50_ns"`
	IngestE2EP99Ns float64 `json:"ingest_e2e_p99_ns"`
}

// TestCodecBenchReport measures the codec and ingest hot paths and writes
// BENCH_codec.json. Run by `make bench-codec` (GILL_BENCH_GUARD=1); the
// bench guard regenerates it and holds throughputs to the committed
// trajectory and allocs/op to zero tolerance.
func TestCodecBenchReport(t *testing.T) {
	if os.Getenv("GILL_BENCH_GUARD") != "1" {
		t.Skip("set GILL_BENCH_GUARD=1 to write BENCH_codec.json")
	}
	wire := codecWire(t)
	src := codecUpdate()

	// Steady-state allocation counts are exact (warmed up, AllocsPerRun);
	// the timed loops reuse the same state.
	var u bgp.Update
	if err := bgp.UnmarshalUpdate(wire, &u); err != nil {
		t.Fatal(err)
	}
	u.Path()
	u.Comms()
	decAllocs := testing.AllocsPerRun(200, func() {
		if err := bgp.UnmarshalUpdate(wire, &u); err != nil {
			t.Fatal(err)
		}
		u.Path()
		u.Comms()
	})
	dst := make([]byte, 0, bgp.MaxMessageLen)
	encAllocs := testing.AllocsPerRun(200, func() {
		var err error
		dst, err = bgp.AppendMessage(dst[:0], src)
		if err != nil {
			t.Fatal(err)
		}
	})

	dec := testing.Benchmark(func(b *testing.B) {
		var u bgp.Update
		for i := 0; i < b.N; i++ {
			if err := bgp.UnmarshalUpdate(wire, &u); err != nil {
				b.Fatal(err)
			}
			u.Path()
			u.Comms()
		}
	})
	enc := testing.Benchmark(func(b *testing.B) {
		dst := make([]byte, 0, bgp.MaxMessageLen)
		for i := 0; i < b.N; i++ {
			var err error
			dst, err = bgp.AppendMessage(dst[:0], src)
			if err != nil {
				b.Fatal(err)
			}
		}
	})

	// Full-chain ingest: a fixed update count through a warm pipeline,
	// allocations read from global memstats (the workers allocate, not the
	// ingest caller). The per-op figure is rounded to a whole allocation —
	// sub-allocation drift across runs is pool/map-growth amortization
	// noise, a whole extra allocation per update is a regression.
	us := codecIngestCorpus()
	const ingestN = 50_000
	p := codecIngestPipeline()
	if err := p.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i := 0; i < ingestN; i++ {
		p.Ingest(us[i%len(us)])
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	snap := p.Snapshot()
	ingestAllocs := math.Round(float64(m1.Mallocs-m0.Mallocs) / ingestN)
	ingestNs := float64(elapsed.Nanoseconds()) / ingestN

	rep := codecBenchReport{
		GeneratedAt:       time.Now().UTC().Format(time.RFC3339),
		DecodeMsgsPerSec:  1e9 / float64(dec.NsPerOp()),
		DecodeNsPerOp:     float64(dec.NsPerOp()),
		DecodeAllocsPerOp: decAllocs,
		EncodeMsgsPerSec:  1e9 / float64(enc.NsPerOp()),
		EncodeNsPerOp:     float64(enc.NsPerOp()),
		EncodeAllocsPerOp: encAllocs,
		IngestMsgsPerSec:  1e9 / ingestNs,
		IngestNsPerOp:     ingestNs,
		IngestAllocsPerOp: ingestAllocs,
		IngestE2EP50Ns:    snap.E2ENS.Quantile(0.5),
		IngestE2EP99Ns:    snap.E2ENS.Quantile(0.99),
	}

	// The tentpole contract, asserted here so a regression fails even
	// before the guard compares trajectories.
	if rep.DecodeAllocsPerOp != 0 {
		t.Errorf("decode into reused Update: %.1f allocs/op, want 0", rep.DecodeAllocsPerOp)
	}
	if rep.EncodeAllocsPerOp > 2 {
		t.Errorf("append-encode: %.1f allocs/op, want <= 2", rep.EncodeAllocsPerOp)
	}

	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_codec.json", append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("BENCH_codec.json: %s", out)
}
