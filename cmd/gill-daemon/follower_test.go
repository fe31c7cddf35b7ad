package main

import (
	"encoding/json"
	"io"
	"net/netip"
	"testing"
	"time"

	"repro/internal/archive"
	"repro/internal/bgp"
	"repro/internal/index"
	"repro/internal/metrics"
	"repro/internal/mrt"
	"repro/internal/telemetry"
	"repro/internal/vitals"
)

var followerT0 = time.Date(2023, 9, 1, 0, 0, 0, 0, time.UTC)

// followerRecord is record i of the test journal: three VPs over four
// prefixes, one record a minute, every seventh a withdrawal — and vp65002
// silent from minute 20 to minute 40, the hole the gap audit must find.
func followerRecord(i int) *mrt.Record {
	vp := uint32(65001 + i%3)
	if vp == 65002 && i >= 20 && i < 40 {
		vp = 65001
	}
	prefix := netip.MustParsePrefix([]string{"203.0.113.0/24", "198.51.100.0/24", "192.0.2.0/25", "10.9.0.0/16"}[i%4])
	msg := &bgp.Update{}
	if i%7 == 5 {
		msg.Withdrawn = []netip.Prefix{prefix}
	} else {
		msg.Origin, msg.ASPath = bgp.OriginIGP, []uint32{vp, 64999, 100 + uint32(i%4)}
		msg.NextHop, msg.NLRI = netip.MustParseAddr("192.0.2.9"), []netip.Prefix{prefix}
	}
	return &mrt.Record{
		Header: mrt.Header{Timestamp: followerT0.Add(time.Duration(i) * time.Minute), Type: mrt.TypeBGP4MP, Subtype: mrt.SubtypeBGP4MPMessageAS4},
		BGP4MP: &mrt.BGP4MPMessage{PeerAS: vp, LocalAS: 65000, PeerIP: netip.MustParseAddr("10.0.0.1"), LocalIP: netip.MustParseAddr("192.0.2.1"), Message: msg},
	}
}

func asJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return string(b)
}

// TestFollowerLagNeverChangesAnAnswer wires the journal, the follower,
// the index and the gap auditor the way main does, holds the follower at
// a gate so that every sealed segment is still unindexed, and checks the
// two promises the design rests on: while it lags, reads are already
// right (RIBAt == ReplayRIB, a full query returns every record); once it
// has drained, the index it built is the one a rebuild computes and the
// online gap audit is the offline one.
func TestFollowerLagNeverChangesAnAnswer(t *testing.T) {
	dir := t.TempDir()
	reg := metrics.NewRegistry()
	const maxGap = 5 * time.Minute
	gaps := vitals.NewGapAuditor(maxGap, reg)
	wal, err := archive.OpenJournal(dir, 8)
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	svc, err := index.NewService(dir, reg)
	if err != nil {
		t.Fatalf("NewService: %v", err)
	}
	gate := make(chan struct{})
	work := indexSealed(svc.Index, gaps, telemetry.NewLogger(io.Discard))
	follower := newSegmentFollower(reg, func(path string) {
		<-gate
		work(path)
	})
	wal.OnSeal = follower.enqueue

	const n = 60
	for i := 0; i < n; i++ {
		if err := wal.Append(followerRecord(i)); err != nil {
			t.Fatalf("Append(%d): %v", i, err)
		}
	}
	if err := wal.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Eight segments sealed, none indexed: the follower is at the gate.
	lag := func() int64 { return reg.Snapshot().Gauges["index.follower_lag_segments"] }
	if got := lag(); got != 8 {
		t.Fatalf("follower lag %d, want 8", got)
	}
	if st := svc.Index.Stats(); st.Sealed != 0 {
		t.Fatalf("index holds %d sealed entries behind a gated follower", st.Sealed)
	}
	probes := []time.Time{followerT0.Add(-time.Minute), followerT0.Add(17 * time.Minute), followerT0.Add(2 * time.Hour)}
	selectors := []struct {
		prefix netip.Prefix
		vp     string
	}{{}, {prefix: netip.MustParsePrefix("203.0.113.0/24")}, {vp: "vp65003"}}
	checkReads := func(when string) {
		t.Helper()
		for _, at := range probes {
			for _, sel := range selectors {
				got, err := svc.RIBAt(at, sel.prefix, sel.vp)
				if err != nil {
					t.Fatalf("%s: RIBAt: %v", when, err)
				}
				want, err := index.ReplayRIB(dir, at, sel.prefix, sel.vp)
				if err != nil {
					t.Fatalf("%s: ReplayRIB: %v", when, err)
				}
				if g, w := asJSON(t, got), asJSON(t, want); g != w {
					t.Fatalf("%s: RIBAt(%v, %+v) diverges from the raw replay:\nindex:  %s\nreplay: %s", when, at, sel, g, w)
				}
			}
		}
		all, err := svc.Query(index.Query{})
		if err != nil || len(all) != n {
			t.Fatalf("%s: full query returned %d of %d records (%v)", when, len(all), n, err)
		}
	}
	checkReads("follower lagging")

	close(gate)
	follower.close()
	if got := lag(); got != 0 {
		t.Fatalf("follower lag %d after close, want 0", got)
	}
	checkReads("follower drained")

	rebuilt, err := index.Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	followed := asJSON(t, svc.Index.Segments())
	if err := rebuilt.Rebuild(); err != nil {
		t.Fatalf("Rebuild: %v", err)
	}
	if want := asJSON(t, rebuilt.Segments()); followed != want || len(rebuilt.Segments()) != 8 {
		t.Fatalf("the follower's index differs from a rebuild:\n got %s\nwant %s", followed, want)
	}

	offline := vitals.NewGapAuditor(maxGap, nil)
	if err := offline.AuditDir(dir); err != nil {
		t.Fatalf("AuditDir: %v", err)
	}
	on, off := gaps.Report(), offline.Report()
	if asJSON(t, on) != asJSON(t, off) {
		t.Fatalf("online gap audit differs from the offline one:\nonline:  %s\noffline: %s", asJSON(t, on), asJSON(t, off))
	}
	if on.Segments != 8 || on.Sealed != 8 || on.Records != n || on.GapSecondsTotal < (19*time.Minute).Seconds() {
		t.Fatalf("gap report %+v: want 8 sealed segments, %d records and vp65002's hole", on, n)
	}
}

// TestFollowerKeepsSealOrderAndDrains: enqueue never blocks, work runs in
// enqueue order on one goroutine, and close returns only when the last
// path has been worked.
func TestFollowerKeepsSealOrderAndDrains(t *testing.T) {
	var worked []string
	f := newSegmentFollower(metrics.NewRegistry(), func(path string) { worked = append(worked, path) })
	var want []string
	for i := 0; i < 500; i++ {
		path := "wal-" + string(rune('a'+i%26)) + ".seg"
		want = append(want, path)
		f.enqueue(path)
	}
	f.close()
	if len(worked) != len(want) {
		t.Fatalf("worked %d of %d segments", len(worked), len(want))
	}
	for i := range want {
		if worked[i] != want[i] {
			t.Fatalf("segment %d worked out of order: %s, want %s", i, worked[i], want[i])
		}
	}
}
