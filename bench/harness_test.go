package main

// Tests of the harness's own logic. They link the layers in-process and
// spawn no child: the daemon workloads themselves are exercised by running
// the benchmark.

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"testing"
	"time"

	"repro/bench/gen"
	"repro/internal/stream"
	"repro/internal/update"
)

// hubLines publishes us into a real hub and returns the NDJSON lines a
// /stream subscriber would be sent.
func hubLines(t *testing.T, us ...*update.Update) [][]byte {
	t.Helper()
	hub := stream.NewHub(stream.Config{})
	defer hub.Close()
	sub := hub.Subscribe(stream.SubOptions{})
	var lines [][]byte
	for _, u := range us {
		hub.Publish(u)
		select {
		case ev := <-sub.C():
			lines = append(lines, ev.JSON)
		case <-time.After(5 * time.Second):
			t.Fatal("hub did not deliver")
		}
	}
	return lines
}

func TestScanLineReadsHubOutput(t *testing.T) {
	st, err := gen.New(1, 2, 400)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1_790_000_000, 0)
	var us []*update.Update
	for k := range st.Msgs {
		u := asUpdate(&st.Msgs[k], uint32(k), now)
		if !u.Withdraw && k%3 == 0 {
			u.Comms = []uint32{65001<<16 | 7, uint32(k)} // the tag is the last community
		}
		if k%50 == 0 {
			u.TraceID = 0xabcdef // sampled updates carry a trailing trace_id
		}
		us = append(us, u)
	}
	for k, b := range hubLines(t, us...) {
		m := &st.Msgs[k]
		l, ok := scanLine(b)
		if !ok {
			t.Fatalf("line %d not recognised: %s", k, b)
		}
		want := line{vp: m.VP, prefix: m.Prefix, ts: now.Unix(), withdraw: m.Withdraw}
		if !m.Withdraw {
			want.tag = uint32(k)
		}
		if l != want {
			t.Fatalf("line %d: got %+v, want %+v: %s", k, l, want, b)
		}
	}
	for _, b := range []string{`{"type":"hello","filter":""}`, `{"type":"keepalive"}`, `{"type":"evicted","seq":9}`, ``, `{"type":"UPDATE","vp":"vp65001"`} {
		if _, ok := scanLine([]byte(b)); ok {
			t.Errorf("scanLine accepted %q", b)
		}
	}
}

func TestReadStreamLedger(t *testing.T) {
	st, _ := gen.New(2, 1, 200)
	now := time.Unix(1_790_000_000, 0)
	var us []*update.Update
	announcements, withdrawals := 0, 0
	for k := range st.Msgs {
		us = append(us, asUpdate(&st.Msgs[k], uint32(k), now))
		if st.Msgs[k].Withdraw {
			withdrawals++
		} else {
			announcements++
		}
	}
	first := 0
	for st.Msgs[first].Withdraw {
		first++
	}
	// One duplicate and one tag the run never sent.
	us = append(us, us[first], asUpdate(&st.Msgs[first], 999_999, now))
	var body bytes.Buffer
	body.WriteString(`{"type":"hello","filter":""}` + "\n")
	for _, b := range hubLines(t, us...) {
		body.Write(b)
	}
	tr := newTraffic(st, len(st.Msgs))
	tr.t0 = time.Now()
	tr.readStream(&body)
	if tr.dups != 1 || tr.unknown != 1 || tr.evicted {
		t.Fatalf("dups %d, unknown %d, evicted %v; want 1, 1, false", tr.dups, tr.unknown, tr.evicted)
	}
	if got := tr.acked.Load(); got != int64(len(us)) {
		t.Fatalf("acked %d lines, want %d", got, len(us))
	}
	seen, wd := 0, 0
	for k := range st.Msgs {
		if tr.seen[k] != 0 {
			seen++
			if int(tr.seenPrefix[k]) != st.Msgs[k].Prefix {
				t.Fatalf("tag %d seen on prefix %d, sent on %d", k, tr.seenPrefix[k], st.Msgs[k].Prefix)
			}
		}
	}
	for _, n := range tr.wdSeen {
		wd += int(n)
	}
	if seen != announcements || wd != withdrawals {
		t.Fatalf("saw %d announcements and %d withdrawals, want %d and %d", seen, wd, announcements, withdrawals)
	}
}

// The read phase's reference answers must agree with the real index
// service on an archive whose contents are known exactly.
func TestReadPhaseAgreesWithIndex(t *testing.T) {
	st, _ := gen.New(3, 2, 10000)
	a, err := buildArchive(t.TempDir(), st, 3*archiveRate, nil, 0, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.sealed) != 3 || len(a.addSegMS) != 3 || len(a.sealMS) != 2 {
		t.Fatalf("%d sealed, %d indexed, %d rotating appends; want 3, 3, 2", len(a.sealed), len(a.addSegMS), len(a.sealMS))
	}
	tc := &tracer{}
	read := readPhase(directReader{a.svc}, st, a.watched, a.tsMin, a.tsMax, 3, time.Now(), tc)
	if read.wrong != 0 {
		t.Fatalf("%d answers differ from the ledger; first: %s", read.wrong, read.firstWrong)
	}
	if len(read.queryMS) < readMin || len(read.ribMS) < readMin || len(tc.spans) != 3*(len(read.queryMS)+len(read.ribMS)) {
		t.Fatalf("%d queries, %d ribs, %d spans", len(read.queryMS), len(read.ribMS), len(tc.spans))
	}
	// A ledger that misses one record must be noticed.
	hot := st.ByRank[queryRanks[0]]
	for i, l := range a.watched {
		if l.prefix == hot && !l.withdraw {
			short := append(append([]line(nil), a.watched[:i]...), a.watched[i+1:]...)
			if readPhase(directReader{a.svc}, st, short, a.tsMin, a.tsMax, 3, time.Now(), nil).wrong == 0 {
				t.Fatal("a record missing from the ledger went unnoticed")
			}
			break
		}
	}
}

func TestTracerChildrenShareTheRootsTrace(t *testing.T) {
	tc := &tracer{}
	a := tc.root("update", 10, 50)
	tc.child(a, "gen.write", 10, 20)
	b := tc.root("update", 30, 90)
	d := tc.child(b, "daemon", 40, 90)
	if s := tc.spans[d-1]; s.Trace != tc.spans[b-1].Trace || s.Parent != b || s.Trace == tc.spans[a-1].Trace {
		t.Fatalf("child span %+v under root %+v", s, tc.spans[b-1])
	}
	var none *tracer
	if none.root("x", 0, 1) != 0 || none.child(0, "y", 0, 1) != 0 {
		t.Fatal("a nil tracer must record nothing")
	}
}

func TestStats(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if quantile(xs, 0.5) != 6 || quantile(xs, 0.99) != 10 || quantile(nil, 0.5) != 0 || median([]float64{3, 1, 2}) != 2 || median(xs) != 5.5 {
		t.Fatal("quantile/median")
	}
	// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v", q1, q3)
	}
	if q1, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Fatalf("quartiles of two = %v, %v", q1, q3)
	}
}

// BENCHMARK.json and the harness must name the same workloads and
// metrics, within the limits the benchmark contract sets.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name || len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %d: %q (why: %d chars), harness has %q", i, w.Name, len(w.Why), workloads[i].name)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) || len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, the harness %d+%d", len(bf.EndToEnd), len(bf.PerLayer), len(endToEnd), len(perLayer))
	}
	seen := map[string]bool{}
	check := func(gotName, gotUnit, better string, want metric) {
		if gotName != want.name || gotUnit != want.unit || !name.MatchString(gotName) || !unit.MatchString(gotUnit) || seen[gotName] {
			t.Errorf("metric %q [%s]: harness has %q [%s]", gotName, gotUnit, want.name, want.unit)
		}
		if better != "lower" && better != "higher" {
			t.Errorf("metric %q: better = %q", gotName, better)
		}
		seen[gotName] = true
	}
	for i, m := range bf.EndToEnd {
		check(m.Name, m.Unit, m.Better, endToEnd[i])
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %q: bound %v", m.Name, m.Bound)
		}
	}
	for i, m := range bf.PerLayer {
		check(m.Name, m.Unit, m.Better, perLayer[i])
	}
}
