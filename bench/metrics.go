package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// perLayer are the metrics of a traced run, layer = module name. A row a
// workload's path does not touch reads 0 (only a filtered daemon drops). BENCHMARK.json lists the same names; README.md
// says, for each, which end-to-end metric on which workload it should move.
var perLayer = []metric{
	// harness: validity of the run, not a property of the daemon
	{"gen.sched_lateness_p99_ms", "ms"},
	{"gen.write_block_ms_total", "ms"},
	{"gen.cpu_share", "ratio"},
	// walk: harness span around the layer's public call
	{"bgp.decode_ns_per_upd", "ns"},
	{"bgp.decode_allocs_per_upd", "count"},
	{"bgp.wire_bytes_per_upd", "B"},
	{"daemon.ingest_ns_per_upd", "ns"},
	{"filter.keep_ns_per_upd", "ns"},
	{"mrt.encode_ns_per_rec", "ns"},
	{"archive.append_ns_per_rec", "ns"},
	{"archive.seal_ms_mean", "ms"},
	{"archive.bytes_per_rec", "B"},
	{"index.add_segment_ms_at_10", "ms"},
	{"index.add_segment_ms_at_200", "ms"},
	{"index.file_bytes_per_segment", "B"},
	{"index.query_ns_per_scanned_rec", "ns"},
	{"index.rib_at_ms", "ms"},
	{"stream.publish_ns_per_event_1sub", "ns"},
	{"stream.publish_ns_per_event_2000sub", "ns"},
	{"stream.publish_allocs_per_event", "count"},
	// scrape: delta of the daemon's /metrics, /statusz and /proc entry
	{"daemon.cpu_user_s", "s"},
	{"daemon.cpu_sys_s", "s"},
	{"daemon.rss_peak_mb", "MB"},
	{"daemon.ctx_switches", "count"},
	{"daemon.lost", "count"},
	{"pipeline.queue_wait_us_mean", "us"},
	{"pipeline.queue_depth_max", "count"},
	{"pipeline.batch_size_mean", "count"},
	{"pipeline.dropped", "count"},
	{"pipeline.e2e_latency_us_mean", "us"},
	{"pipeline.stage.vitals_ns_per_upd", "ns"},
	{"pipeline.stage.filter_ns_per_upd", "ns"},
	{"pipeline.stage.live_ns_per_upd", "ns"},
	{"pipeline.stage.archive_ns_per_upd", "ns"},
	{"pipeline.stage.counter_ns_per_upd", "ns"},
	{"filter.drop_ratio", "ratio"},
	{"archive.segments_sealed", "count"},
	{"index.query_scanned_ratio", "ratio"},
	{"index.query_latency_p50_ms", "ms"},
	{"index.rib_latency_p50_ms", "ms"},
	{"stream.delivery_us_mean", "us"},
	{"stream.evicted_slow", "count"},
	{"stream.dropped_rate_limited", "count"},
	{"stream.publish_overflow", "count"},
	// harness, from the traced run's own samples and its read phase
	{"stream.latency_mean_ms", "ms"},
	{"stream.latency_p95_ms", "ms"},
	{"stream.latency_p99_ms", "ms"},
	{"stream.slo_miss_fraction", "ratio"},
	{"goodput.first_third_upd_per_s", "upd/s"},
	{"goodput.last_third_upd_per_s", "upd/s"},
	{"goodput.decay_ratio", "ratio"},
	{"trace.overhead_pct", "%"},
	{"trace.unattributed_share", "ratio"},
}

// benchmarkFile is the part of BENCHMARK.json the harness reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string
		Better string
		Bound  float64
	} `json:"end_to_end"`
}

// quartiles are the first and third quartile of an ascending sample, by
// the rule of Python's statistics.quantiles(xs, n=4): the one the
// benchmark's driver applies to its own ten runs.
func quartiles(sorted []float64) (q1, q3 float64) {
	at := func(i int) float64 {
		n := len(sorted)
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
	}
	return at(1), at(3)
}

// repeatRuns runs the timed set n times with seeds seed, seed+1, … and
// prints, per workload and end-to-end metric, the interquartile spread
// over the median against the metric's bound in BENCHMARK.json, and the
// full range beside it. It returns the process exit code: 1 if a spread
// exceeded its bound (setup_s excepted, as the driver excepts it) or a run
// was incorrect.
func repeatRuns(bin string, set []workload, seed int64, seconds, n int) int {
	var bf benchmarkFile
	data, err := os.ReadFile("BENCHMARK.json")
	if err == nil {
		err = json.Unmarshal(data, &bf)
	}
	if err != nil {
		fatal(fmt.Errorf("BENCHMARK.json: %w", err))
	}
	if n < 2 {
		fatal(fmt.Errorf("-repeat %d: a spread needs at least 2 runs", n))
	}
	code := 0
	for _, w := range set {
		values := map[string][]float64{}
		for i := 0; i < n; i++ {
			res, _, err := measure(bin, w, seed+int64(i), seconds, false)
			if err != nil {
				fatal(err)
			}
			res.report(fmt.Sprintf("%s seed=%d seconds=%d timed, repeat %d of %d", w.name, seed+int64(i), seconds, i+1, n), endToEnd)
			if len(res.problems) > 0 {
				code = 1
			}
			for _, m := range endToEnd {
				values[m.name] = append(values[m.name], res.values[m.name])
			}
		}
		fmt.Printf("== %s: %d runs, (q3-q1)/median against the bound, (max-min)/median beside it\n", w.name, n)
		for _, m := range bf.EndToEnd {
			xs := append([]float64(nil), values[m.Name]...)
			sort.Float64s(xs)
			q1, q3 := quartiles(xs)
			med := median(xs)
			verdict := "ok"
			if spread := ratio(q3-q1, med); spread > m.Bound && m.Name != "setup_s" {
				verdict, code = "EXCEEDED", 1
			}
			fmt.Printf("   %-24s median %12.4f  spread %.3f  bound %.2f  %-8s  range %.3f (%.4f … %.4f)\n",
				m.Name, med, ratio(q3-q1, med), m.Bound, verdict, ratio(xs[len(xs)-1]-xs[0], med), xs[0], xs[len(xs)-1])
		}
	}
	return code
}
