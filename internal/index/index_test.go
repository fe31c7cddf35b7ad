package index

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http/httptest"
	"net/netip"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/archive"
	"repro/internal/bgp"
	"repro/internal/metrics"
	"repro/internal/mrt"
	"repro/internal/update"
)

var t0 = time.Date(2023, 9, 1, 0, 0, 0, 0, time.UTC)

// rec builds one BGP4MP update record: vpAS announces (or withdraws)
// prefix at t0+offset with the given path.
func rec(vpAS uint32, offset time.Duration, prefix string, path []uint32, withdraw bool) *mrt.Record {
	msg := &bgp.Update{}
	p := netip.MustParsePrefix(prefix)
	v6 := p.Addr().Is6()
	switch {
	case withdraw && v6:
		msg.V6Withdrawn = []netip.Prefix{p}
	case withdraw:
		msg.Withdrawn = []netip.Prefix{p}
	case v6:
		msg.Origin = bgp.OriginIGP
		msg.ASPath = path
		msg.V6NextHop = netip.MustParseAddr("2001:db8::9")
		msg.V6NLRI = []netip.Prefix{p}
	default:
		msg.Origin = bgp.OriginIGP
		msg.ASPath = path
		msg.NextHop = netip.MustParseAddr("192.0.2.9")
		msg.NLRI = []netip.Prefix{p}
	}
	return &mrt.Record{
		Header: mrt.Header{
			Timestamp: t0.Add(offset),
			Type:      mrt.TypeBGP4MP,
			Subtype:   mrt.SubtypeBGP4MPMessageAS4,
		},
		BGP4MP: &mrt.BGP4MPMessage{
			PeerAS:  vpAS,
			LocalAS: 65000,
			PeerIP:  netip.MustParseAddr("10.0.0.1"),
			LocalIP: netip.MustParseAddr("192.0.2.1"),
			Message: msg,
		},
	}
}

// fillJournal writes a deterministic multi-segment journal: three VPs,
// four prefixes, announces, re-announces, and withdraws spread over an
// hour, rotating every 8 records. Returns the journal (closed) and the
// records written.
func fillJournal(t *testing.T, dir string, onSeal func(string)) []*mrt.Record {
	t.Helper()
	j, err := archive.OpenJournal(dir, 8)
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	j.OnSeal = onSeal
	var recs []*mrt.Record
	prefixes := []string{"203.0.113.0/24", "198.51.100.0/24", "192.0.2.0/25", "2001:db8::/32"}
	for i := 0; i < 60; i++ {
		vp := uint32(65001 + i%3)
		pfx := prefixes[i%len(prefixes)]
		withdraw := i%7 == 5
		r := rec(vp, time.Duration(i)*time.Minute, pfx, []uint32{vp, 64999, 100 + uint32(i%4)}, withdraw)
		recs = append(recs, r)
		if err := j.Append(r); err != nil {
			t.Fatalf("Append(%d): %v", i, err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return recs
}

func TestIncrementalEqualsRebuild(t *testing.T) {
	dir := t.TempDir()
	var incremental *Index
	var err error
	incremental, err = Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	fillJournal(t, dir, func(path string) {
		if err := incremental.AddSegment(path); err != nil {
			t.Errorf("AddSegment(%s): %v", path, err)
		}
	})

	rebuilt, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := rebuilt.Rebuild(); err != nil {
		t.Fatalf("Rebuild: %v", err)
	}
	a, b := incremental.Segments(), rebuilt.Segments()
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	if string(aj) != string(bj) {
		t.Fatalf("incremental index differs from rebuild:\n%s\n%s", aj, bj)
	}
	if len(a) != 8 { // 60 records / 8 per segment → 7 sealed on rotate + tail on Close
		t.Fatalf("indexed %d segments, want 8", len(a))
	}
	st := rebuilt.Stats()
	if st.Records != 60 || st.Sealed != 8 || st.VPs != 3 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestIndexPersistedAcrossOpen(t *testing.T) {
	dir := t.TempDir()
	fillJournal(t, dir, nil)
	ix, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := ix.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	want, _ := json.Marshal(ix.Segments())

	// A fresh Open reads the persisted file; Sync must trust the sealed
	// entries and not rescan (we verify by corrupting nothing and checking
	// equality, then by deleting a segment and checking the entry drops).
	ix2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	got, _ := json.Marshal(ix2.Segments())
	if string(got) != string(want) {
		t.Fatalf("persisted index differs:\n%s\n%s", got, want)
	}

	segs, _ := archive.ListSegments(dir)
	if err := os.Remove(segs[0]); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if err := ix2.Sync(); err != nil {
		t.Fatalf("Sync after delete: %v", err)
	}
	if n := len(ix2.Segments()); n != 7 {
		t.Fatalf("index kept %d segments after a delete, want 7", n)
	}
}

func TestQueryMatchesDirectScan(t *testing.T) {
	dir := t.TempDir()
	recs := fillJournal(t, dir, nil)
	svc, err := NewService(dir, nil)
	if err != nil {
		t.Fatalf("NewService: %v", err)
	}

	queries := []Query{
		{},
		{From: t0.Add(10 * time.Minute), To: t0.Add(30 * time.Minute)},
		{Prefix: netip.MustParsePrefix("203.0.113.0/24")},
		{VP: "vp65002"},
		{From: t0.Add(5 * time.Minute), Prefix: netip.MustParsePrefix("2001:db8::/32"), VP: "vp65001"},
		{Prefix: netip.MustParsePrefix("10.99.0.0/16")}, // absent: every segment skippable
	}
	for _, q := range queries {
		got, err := svc.Query(q)
		if err != nil {
			t.Fatalf("Query(%+v): %v", q, err)
		}
		// Reference: filter the raw record stream directly.
		var want []*update.Update
		for _, r := range recs {
			for _, u := range r.CanonicalUpdates() {
				if q.matches(u.Time, u.Prefix, u.VP) {
					want = append(want, u)
				}
			}
		}
		gj, _ := json.Marshal(got)
		wj, _ := json.Marshal(want)
		if len(got) != len(want) || (len(want) > 0 && string(gj) != string(wj)) {
			t.Fatalf("Query(%+v): got %d updates, want %d\n%s\n%s", q, len(got), len(want), gj, wj)
		}
	}
}

// TestExportEqualsQuery: an export, decoded and stably sorted by time, is
// exactly what Query returns for the same selectors, and it carries the
// journal's payloads unchanged, in write order.
func TestExportEqualsQuery(t *testing.T) {
	dir := t.TempDir()
	recs := fillJournal(t, dir, nil) // v4 and v6, withdrawals, 8 segments
	svc, err := NewService(dir, nil)
	if err != nil {
		t.Fatalf("NewService: %v", err)
	}
	var all bytes.Buffer
	for _, r := range recs {
		wire, err := mrt.AppendRecord(nil, r)
		if err != nil {
			t.Fatal(err)
		}
		all.Write(wire)
	}
	queries := []Query{
		{},
		{From: t0.Add(10 * time.Minute), To: t0.Add(30 * time.Minute)},
		{VP: "vp65002"},
		{Prefix: netip.MustParsePrefix("2001:db8::/32")},
		{From: t0.Add(5 * time.Minute), To: t0.Add(50 * time.Minute),
			Prefix: netip.MustParsePrefix("203.0.113.0/24"), VP: "vp65001"},
	}
	for _, q := range queries {
		var buf bytes.Buffer
		n, err := svc.Export(q, &buf)
		if err != nil {
			t.Fatalf("Export(%+v): %v", q, err)
		}
		if q == (Query{}) && !bytes.Equal(buf.Bytes(), all.Bytes()) {
			t.Fatalf("unfiltered export is not the journal's records in write order")
		}
		var got []*update.Update
		r := mrt.NewReader(&buf)
		for {
			rec, err := r.ReadRecord()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("Export(%+v): record %d: %v", q, len(got), err)
			}
			got = append(got, rec.CanonicalUpdates()...)
		}
		sort.SliceStable(got, func(i, j int) bool { return got[i].Time.Before(got[j].Time) })
		want, err := svc.Query(q)
		if err != nil {
			t.Fatalf("Query(%+v): %v", q, err)
		}
		gj, _ := json.Marshal(got)
		wj, _ := json.Marshal(want)
		if n != len(want) || len(got) != len(want) || len(want) == 0 || string(gj) != string(wj) {
			t.Fatalf("Export(%+v): %d records, %d updates; Query: %d updates\n%s\n%s", q, n, len(got), len(want), gj, wj)
		}
	}
}

// TestRIBByteEquivalence is the acceptance criterion: RIB reconstruction
// through the skip-index is byte-equivalent to replaying the raw
// segments, for every probe time and filter combination.
func TestRIBByteEquivalence(t *testing.T) {
	dir := t.TempDir()
	fillJournal(t, dir, nil)
	svc, err := NewService(dir, metrics.NewRegistry())
	if err != nil {
		t.Fatalf("NewService: %v", err)
	}
	probes := []time.Time{
		t0.Add(-time.Minute), // before any record: empty state
		t0.Add(3 * time.Minute),
		t0.Add(17 * time.Minute),
		t0.Add(45 * time.Minute),
		t0.Add(2 * time.Hour), // after everything
	}
	filters := []struct {
		prefix string
		vp     string
	}{
		{"", ""},
		{"203.0.113.0/24", ""},
		{"", "vp65003"},
		{"198.51.100.0/24", "vp65002"},
	}
	for _, at := range probes {
		for _, f := range filters {
			var pfx netip.Prefix
			if f.prefix != "" {
				pfx = netip.MustParsePrefix(f.prefix)
			}
			got, err := svc.RIBAt(at, pfx, f.vp)
			if err != nil {
				t.Fatalf("RIBAt(%v,%+v): %v", at, f, err)
			}
			want, err := ReplayRIB(dir, at, pfx, f.vp)
			if err != nil {
				t.Fatalf("ReplayRIB: %v", err)
			}
			gj, _ := json.Marshal(got)
			wj, _ := json.Marshal(want)
			if string(gj) != string(wj) {
				t.Fatalf("RIBAt(%v, %+v) diverges from raw replay:\nindex: %s\nreplay: %s", at, f, gj, wj)
			}
		}
	}
	// The skip-index must actually have skipped something across those
	// queries, or it is dead weight.
	snap := svc.Registry.Snapshot()
	if snap.Counters["index.segments_skipped"] == 0 {
		t.Fatal("no segment was ever skipped; the index is not pruning")
	}
}

// TestRIBCoversUnsealedTail: records in the open (unsealed) segment are
// visible to queries — unknown or unsealed segments are always scanned.
func TestRIBCoversUnsealedTail(t *testing.T) {
	dir := t.TempDir()
	j, err := archive.OpenJournal(dir, 1024) // rotation never triggers
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	if err := j.Append(rec(65001, 0, "203.0.113.0/24", []uint32{65001, 64999}, false)); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := j.Sync(); err != nil { // data on disk, no trailer
		t.Fatalf("Sync: %v", err)
	}
	svc, err := NewService(dir, nil)
	if err != nil {
		t.Fatalf("NewService: %v", err)
	}
	routes, err := svc.RIBAt(t0.Add(time.Minute), netip.Prefix{}, "")
	if err != nil {
		t.Fatalf("RIBAt: %v", err)
	}
	if len(routes) != 1 || routes[0].Prefix.String() != "203.0.113.0/24" {
		t.Fatalf("unsealed tail invisible: %+v", routes)
	}
	_ = j.Close()
}

// A live daemon opens its Service on an empty journal; records written
// afterwards reach the index only at seal time, so the inventory must
// resync before answering or it undercounts the open tail segment.
func TestStatsCoversRecordsWrittenAfterOpen(t *testing.T) {
	dir := t.TempDir()
	j, err := archive.OpenJournal(dir, 1024) // rotation never triggers
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	svc, err := NewService(dir, nil) // opened before any record exists
	if err != nil {
		t.Fatalf("NewService: %v", err)
	}
	if err := j.Append(rec(65001, 0, "203.0.113.0/24", []uint32{65001, 64999}, false)); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := j.Sync(); err != nil { // data on disk, no trailer
		t.Fatalf("Sync: %v", err)
	}
	if got := svc.Index.Stats(); got.Records != 0 {
		t.Fatalf("raw index saw the tail without a resync: %+v", got)
	}
	st, err := svc.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if st.Records != 1 || st.Segments != 1 || st.Sealed != 0 {
		t.Fatalf("inventory missed the open tail: %+v", st)
	}
	_ = j.Close()
}

func TestHTTPAPI(t *testing.T) {
	dir := t.TempDir()
	fillJournal(t, dir, nil)
	svc, err := NewService(dir, nil)
	if err != nil {
		t.Fatalf("NewService: %v", err)
	}
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	get := func(path string) map[string]any {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		var v map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatalf("GET %s: decode: %v", path, err)
		}
		return v
	}

	inv := get("/index")
	if inv["segments"].(float64) != 8 || inv["records"].(float64) != 60 {
		t.Fatalf("/index: %+v", inv)
	}
	q := get("/query?from=" + t0.Format(time.RFC3339) + "&to=" + t0.Add(time.Hour).Format(time.RFC3339) + "&prefix=203.0.113.0/24")
	if q["count"].(float64) == 0 {
		t.Fatalf("/query returned nothing: %+v", q)
	}
	for _, m := range q["updates"].([]any) {
		if p := m.(map[string]any)["prefix"].(string); p != "203.0.113.0/24" {
			t.Fatalf("/query leaked prefix %s", p)
		}
	}
	rib := get("/rib?at=" + t0.Add(time.Hour).Format(time.RFC3339))
	if rib["count"].(float64) == 0 || rib["at"].(string) == "" {
		t.Fatalf("/rib: %+v", rib)
	}
	limited := get("/rib?at=now&limit=1")
	if limited["count"].(float64) != 1 || limited["truncated"].(bool) != true {
		t.Fatalf("/rib limit: %+v", limited)
	}

	// Bad inputs answer 400 with a JSON error, not a panic or a 500.
	resp, err := srv.Client().Get(srv.URL + "/query?from=garbage")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	body := make([]byte, 256)
	n, _ := resp.Body.Read(body)
	resp.Body.Close()
	if resp.StatusCode != 400 || !strings.Contains(string(body[:n]), "error") {
		t.Fatalf("bad from: status=%d body=%s", resp.StatusCode, body[:n])
	}
}

// TestSyncRescansRepairedSegment: a crash-repair rewrites a segment in
// place (shorter, re-sealed); Sync must notice the size change and
// rescan instead of serving stale metadata.
func TestSyncRescansRepairedSegment(t *testing.T) {
	dir := t.TempDir()
	fillJournal(t, dir, nil)
	ix, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := ix.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	segs, _ := archive.ListSegments(dir)
	target := segs[2]
	data, _ := os.ReadFile(target)
	if err := os.WriteFile(target, data[:len(data)/2], 0o644); err != nil {
		t.Fatalf("truncate: %v", err)
	}
	if _, err := archive.RecoverSegment(target, nil); err != nil {
		t.Fatalf("RecoverSegment: %v", err)
	}
	if err := ix.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	var m *SegmentMeta
	for _, s := range ix.Segments() {
		if s.Name == filepath.Base(target) {
			mm := s
			m = &mm
		}
	}
	if m == nil {
		t.Fatal("repaired segment missing from index")
	}
	if m.Records >= 8 || !m.Sealed {
		t.Fatalf("stale metadata survived repair: %+v", m)
	}
}

// TestSyncToleratesSegmentDeletedMidScan: retention pruning can unlink a
// sealed segment between Sync's directory listing and its scan. That is
// a deletion, not an error — Sync must drop the entry and keep going.
func TestSyncToleratesSegmentDeletedMidScan(t *testing.T) {
	dir := t.TempDir()
	fillJournal(t, dir, nil)
	segs, _ := archive.ListSegments(dir)
	if len(segs) < 3 {
		t.Fatalf("want >= 3 segments, got %d", len(segs))
	}
	target := segs[1]

	ix, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	syncScanHook = func(path string) {
		if path == target {
			if err := os.Remove(target); err != nil {
				t.Fatalf("mid-scan remove: %v", err)
			}
		}
	}
	defer func() { syncScanHook = nil }()
	if err := ix.Sync(); err != nil {
		t.Fatalf("Sync with mid-scan deletion: %v", err)
	}

	for _, s := range ix.Segments() {
		if s.Name == filepath.Base(target) {
			t.Fatalf("deleted segment %s still indexed", s.Name)
		}
	}
	if got, want := len(ix.Segments()), len(segs)-1; got != want {
		t.Fatalf("indexed segments = %d, want %d", got, want)
	}
	// The surviving entries must still answer queries, and a second Sync
	// (nothing changed on disk now) must be a no-op.
	syncScanHook = nil
	before := ix.Stats()
	if err := ix.Sync(); err != nil {
		t.Fatalf("second Sync: %v", err)
	}
	if after := ix.Stats(); after != before {
		t.Fatalf("second Sync changed stats: %+v -> %+v", before, after)
	}
}
