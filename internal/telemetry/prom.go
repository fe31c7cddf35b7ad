package telemetry

// Prometheus text exposition (format version 0.0.4) rendered straight
// from a metrics.Snapshot. The registry's dotted metric names
// (daemon.pipeline.stage.filter.in) are sanitized into the Prometheus
// grammar (daemon_pipeline_stage_filter_in); histograms expand into the
// conventional cumulative _bucket series with an +Inf terminal bucket,
// plus _sum and _count. Output is sorted, so it doubles as a golden
// surface for tests.

import (
	"fmt"
	"io"
	"sort"
	"strconv"

	"repro/internal/metrics"
)

// sanitizeMetricName maps a registry name into [a-zA-Z_:][a-zA-Z0-9_:]*.
func sanitizeMetricName(name string) string {
	out := make([]byte, 0, len(name))
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			out = append(out, c)
		case c >= '0' && c <= '9':
			if i == 0 {
				out = append(out, '_')
			}
			out = append(out, c)
		default:
			out = append(out, '_')
		}
	}
	if len(out) == 0 {
		return "_"
	}
	return string(out)
}

// Series kinds, in the order a counter, gauge and histogram sharing one
// registry name are rendered.
const (
	promCounter = iota
	promGauge
	promHistogram
)

// promSeries is one series of a snapshot under its exposition name.
type promSeries struct {
	name, key string // exposition name, registry name
	kind      int
}

// exposition lists every series of s in registry-name order under the
// name it is exposed as. Two registry names collapsing onto one sanitized
// name would make an invalid exposition, so the first keeps it and the
// later ones are left out. WriteProm and promSnapshot both render this
// list, so the text and JSON forms of /metrics carry the same names.
func exposition(s metrics.Snapshot) []promSeries {
	all := make([]promSeries, 0, len(s.Counters)+len(s.Gauges)+len(s.Histograms))
	for k := range s.Counters {
		all = append(all, promSeries{key: k, kind: promCounter})
	}
	for k := range s.Gauges {
		all = append(all, promSeries{key: k, kind: promGauge})
	}
	for k := range s.Histograms {
		all = append(all, promSeries{key: k, kind: promHistogram})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].key != all[j].key {
			return all[i].key < all[j].key
		}
		return all[i].kind < all[j].kind
	})
	seen := make(map[string]bool, len(all))
	out := all[:0]
	for _, sr := range all {
		sr.name = sanitizeMetricName(sr.key)
		if !seen[sr.name] {
			seen[sr.name] = true
			out = append(out, sr)
		}
	}
	return out
}

// WriteProm renders the snapshot in Prometheus text exposition format.
func WriteProm(w io.Writer, s metrics.Snapshot) error {
	for _, sr := range exposition(s) {
		var err error
		switch sr.kind {
		case promCounter:
			_, err = fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", sr.name, sr.name, s.Counters[sr.key])
		case promGauge:
			_, err = fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", sr.name, sr.name, s.Gauges[sr.key])
		default:
			err = WritePromHistogram(w, sr.name, s.Histograms[sr.key])
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// promSnapshot is s keyed by the names WriteProm renders it under
// (daemon.pipeline.in becomes daemon_pipeline_in): the JSON form of
// /metrics, which the fleet federator decodes without loss.
func promSnapshot(s metrics.Snapshot) metrics.Snapshot {
	out := metrics.Snapshot{
		Counters:   make(map[string]uint64),
		Gauges:     make(map[string]int64),
		Histograms: make(map[string]metrics.HistogramSnapshot),
	}
	for _, sr := range exposition(s) {
		switch sr.kind {
		case promCounter:
			out.Counters[sr.name] = s.Counters[sr.key]
		case promGauge:
			out.Gauges[sr.name] = s.Gauges[sr.key]
		default:
			out.Histograms[sr.name] = s.Histograms[sr.key]
		}
	}
	return out
}

// WritePromInfo renders a Prometheus "info-style" gauge — a constant 1
// whose labels carry the payload, the conventional shape for build
// identity (build_info{version="v1.2.0",git_sha="abc123",...} 1). The
// registry itself is label-free by design, so this is rendered alongside
// WriteProm rather than through it. Labels are emitted sorted by key with
// backslash/quote/newline escaping per the text exposition format.
func WritePromInfo(w io.Writer, name string, labels map[string]string) error {
	n := sanitizeMetricName(name)
	if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n", n); err != nil {
		return err
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if _, err := io.WriteString(w, n+"{"); err != nil {
		return err
	}
	for i, k := range keys {
		sep := ""
		if i > 0 {
			sep = ","
		}
		if _, err := fmt.Fprintf(w, "%s%s=\"%s\"", sep, sanitizeMetricName(k),
			escapeLabelValue(labels[k])); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "} 1\n")
	return err
}

// escapeLabelValue escapes a label value per the exposition format.
func escapeLabelValue(v string) string {
	out := make([]byte, 0, len(v))
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			out = append(out, '\\', '\\')
		case '"':
			out = append(out, '\\', '"')
		case '\n':
			out = append(out, '\\', 'n')
		default:
			out = append(out, v[i])
		}
	}
	return string(out)
}

// WritePromHistogram renders one histogram in the Prometheus text format:
// a TYPE line, cumulative buckets ending in +Inf, then _sum and _count.
// The fleet rollup renders its merged histograms with it too.
func WritePromHistogram(w io.Writer, name string, h metrics.HistogramSnapshot) error {
	if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", name); err != nil {
		return err
	}
	var cum uint64
	for i, bound := range h.Bounds {
		cum += h.Counts[i]
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%s\"} %d\n",
			name, strconv.FormatUint(bound, 10), cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, h.Count); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum %d\n", name, h.Sum); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count %d\n", name, h.Count)
	return err
}
