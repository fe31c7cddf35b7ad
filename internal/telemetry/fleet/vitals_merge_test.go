package fleet

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/vitals"
)

// vitalsCollector is a scrapeable admin endpoint serving a canned
// /vitalz snapshot alongside a minimal /metrics.
type vitalsCollector struct {
	srv  *httptest.Server
	snap vitals.Snapshot
}

func newVitalsCollector(t *testing.T, snap vitals.Snapshot) *vitalsCollector {
	t.Helper()
	vc := &vitalsCollector{snap: snap}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"Counters":{"pipeline_in":1}}`))
	})
	mux.HandleFunc("/vitalz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(vc.snap)
	})
	vc.srv = httptest.NewServer(mux)
	t.Cleanup(vc.srv.Close)
	return vc
}

func (vc *vitalsCollector) addr() string { return strings.TrimPrefix(vc.srv.URL, "http://") }

func TestFleetVitalsMerge(t *testing.T) {
	base := time.Unix(1_700_000_000, 0)
	// vpShared moved from c1 to c2: both snapshots still mention it (c1's
	// record is older and renders silent there), the assignment map owns
	// it at c2 — the merged view must carry exactly one row, c2's.
	c1 := newVitalsCollector(t, vitals.Snapshot{
		AtMS: base.UnixMilli() - 500,
		VPs: []vitals.VPVital{
			{VP: "vpShared", State: vitals.StateSilent, AgeMS: 45_000},
			{VP: "vpOnly1", State: vitals.StateLive, AgeMS: 100, GapSeconds: 31},
		},
	})
	c2 := newVitalsCollector(t, vitals.Snapshot{
		AtMS: base.UnixMilli(),
		VPs: []vitals.VPVital{
			{VP: "vpShared", State: vitals.StateLive, AgeMS: 200},
			{VP: "vpUnassigned", State: vitals.StateDegraded, AgeMS: 300, GapSeconds: 9},
		},
	})
	now := base
	f, err := NewFederator(Config{
		Targets: func() []Target {
			return []Target{
				{ID: "c1", AdminAddr: c1.addr(), Connected: true},
				{ID: "c2", AdminAddr: c2.addr(), Connected: true},
			}
		},
		Interval:   time.Second,
		StaleAfter: 3 * time.Second,
		Clock:      func() time.Time { return now },
		Vitals:     true,
		Assignments: func() map[string]string {
			return map[string]string{"vpShared": "c2", "vpOnly1": "c1"}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	f.ScrapeOnce(context.Background())

	fv := f.FleetVitals()
	if fv.Collectors != 2 {
		t.Fatalf("collectors = %d, want 2", fv.Collectors)
	}
	rows := make(map[string]FleetVPRow, len(fv.VPs))
	for _, r := range fv.VPs {
		if _, dup := rows[r.VP]; dup {
			t.Fatalf("vp %s appears twice in the merged view", r.VP)
		}
		rows[r.VP] = r
	}
	if len(rows) != 3 {
		t.Fatalf("merged VPs = %d (%v), want 3", len(rows), fv.VPs)
	}
	shared := rows["vpShared"]
	if shared.Collector != "c2" || !shared.Assigned || shared.State != vitals.StateLive {
		t.Fatalf("vpShared attributed to %s (assigned=%v, state=%s), want c2/assigned/live",
			shared.Collector, shared.Assigned, shared.State)
	}
	if r := rows["vpOnly1"]; r.Collector != "c1" || !r.Assigned {
		t.Fatalf("vpOnly1 attributed to %s (assigned=%v), want c1/assigned", r.Collector, r.Assigned)
	}
	if r := rows["vpUnassigned"]; r.Collector != "c2" || r.Assigned {
		t.Fatalf("vpUnassigned attributed to %s (assigned=%v), want c2/unassigned", r.Collector, r.Assigned)
	}
	if fv.States[vitals.StateLive] != 2 || fv.States[vitals.StateDegraded] != 1 {
		t.Fatalf("state counts = %v, want live:2 degraded:1", fv.States)
	}
	if fv.GapSecondsTotal != 40 {
		t.Fatalf("gap seconds total = %v, want 40 (31+9)", fv.GapSecondsTotal)
	}
}

func TestAssignmentsFromStatus(t *testing.T) {
	status := func() fabric.FleetStatus {
		return fabric.FleetStatus{Collectors: []fabric.CollectorStatus{
			{ID: "c1", VPs: []string{"vpA", "vpB"}},
			{ID: "c2", VPs: []string{"vpC"}},
		}}
	}
	got := AssignmentsFromStatus(status)()
	want := map[string]string{"vpA": "c1", "vpB": "c1", "vpC": "c2"}
	if len(got) != len(want) {
		t.Fatalf("assignments = %v, want %v", got, want)
	}
	for vp, owner := range want {
		if got[vp] != owner {
			t.Fatalf("assignments[%s] = %s, want %s", vp, got[vp], owner)
		}
	}
}
