package index

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/netip"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"repro/internal/archive"
	"repro/internal/metrics"
	"repro/internal/mrt"
)

// logLines reads the index log: its header and the entry lines.
func logLines(t *testing.T, dir string) (logHeader, [][]byte) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, FileName))
	if err != nil {
		t.Fatalf("reading the index log: %v", err)
	}
	if len(data) == 0 || data[len(data)-1] != '\n' {
		t.Fatalf("index log does not end on a line boundary: %q", data)
	}
	lines := bytes.Split(data[:len(data)-1], []byte("\n"))
	var hdr logHeader
	if err := json.Unmarshal(lines[0], &hdr); err != nil {
		t.Fatalf("index log header %q: %v", lines[0], err)
	}
	return hdr, lines[1:]
}

// checkTotals holds the running totals behind the gauges to a full walk.
func checkTotals(t *testing.T, ix *Index) {
	t.Helper()
	st := ix.Stats()
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.sealed != st.Sealed || ix.records != st.Records || ix.bytes != st.Bytes || len(ix.segs) != st.Segments {
		t.Fatalf("running totals %d sealed, %d records, %d bytes; a walk finds %+v", ix.sealed, ix.records, ix.bytes, st)
	}
}

func segmentsJSON(t *testing.T, ix *Index) string {
	t.Helper()
	return mustJSON(t, ix.Segments())
}

// TestAddSegmentCostIsIndependentOfIndexSize: persisting a seal appends
// one entry, whatever the archive already holds — the same bytes with 10
// segments behind it as with 500.
func TestAddSegmentCostIsIndependentOfIndexSize(t *testing.T) {
	var wrote []int64
	for _, prior := range []int{10, 500} {
		dir := t.TempDir()
		fillJournal(t, dir, nil) // 8 segments
		segs, _ := archive.ListSegments(dir)
		ix, err := Open(dir)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		// Pad with hard links: every name is a segment of its own to the index.
		link := func(seq int) string {
			path := filepath.Join(dir, fmt.Sprintf("wal-%08d.seg", seq))
			if err := os.Link(segs[0], path); err != nil {
				t.Fatalf("Link: %v", err)
			}
			return path
		}
		if err := ix.Sync(); err != nil {
			t.Fatalf("Sync: %v", err)
		}
		for seq := len(segs); seq < prior; seq++ {
			if err := ix.AddSegment(link(seq)); err != nil {
				t.Fatalf("AddSegment: %v", err)
			}
		}
		size := func() int64 {
			fi, err := os.Stat(filepath.Join(dir, FileName))
			if err != nil {
				t.Fatalf("Stat: %v", err)
			}
			return fi.Size()
		}
		before := size()
		if err := ix.AddSegment(link(prior)); err != nil {
			t.Fatalf("AddSegment: %v", err)
		}
		wrote = append(wrote, size()-before)
		if _, entries := logLines(t, dir); len(entries) != prior+1 {
			t.Fatalf("log holds %d entries after %d segments", len(entries), prior+1)
		}
		checkTotals(t, ix)
	}
	if wrote[0] <= 0 || wrote[0] != wrote[1] {
		t.Fatalf("AddSegment wrote %d bytes behind 10 segments and %d behind 500", wrote[0], wrote[1])
	}
}

// TestIndexLogSurvivesTornLineAndDuplicate: a crash mid-append leaves a
// torn last line and a re-indexed segment leaves two entries of one name.
// Open must read through both (the last whole entry per name wins), and
// the next Sync must leave a log with neither.
func TestIndexLogSurvivesTornLineAndDuplicate(t *testing.T) {
	dir := t.TempDir()
	ix, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	fillJournal(t, dir, func(path string) {
		if err := ix.AddSegment(path); err != nil {
			t.Errorf("AddSegment(%s): %v", path, err)
		}
	})
	segs, _ := archive.ListSegments(dir)
	if err := ix.AddSegment(segs[3]); err != nil { // indexed twice
		t.Fatalf("AddSegment again: %v", err)
	}
	want := segmentsJSON(t, ix)
	if _, entries := logLines(t, dir); len(entries) != len(segs)+1 {
		t.Fatalf("log holds %d entries, want %d and one duplicate", len(entries), len(segs))
	}
	checkTotals(t, ix)

	logPath := filepath.Join(dir, FileName)
	whole, _ := os.ReadFile(logPath)
	_, entries := logLines(t, dir)
	torn := append(append([]byte(nil), whole...), entries[0][:len(entries[0])/2]...)
	if err := os.WriteFile(logPath, torn, 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}

	reopened, err := Open(dir)
	if err != nil {
		t.Fatalf("Open over a torn log: %v", err)
	}
	if got := segmentsJSON(t, reopened); got != want {
		t.Fatalf("torn log read back differently:\n got %s\nwant %s", got, want)
	}
	checkTotals(t, reopened)
	if err := reopened.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	hdr, entries := logLines(t, dir)
	if hdr.Version != formatVersion || len(entries) != len(segs) {
		t.Fatalf("after Sync the log has version %d and %d entries, want %d and %d", hdr.Version, len(entries), formatVersion, len(segs))
	}
	again, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if got := segmentsJSON(t, again); got != want || again.stale {
		t.Fatalf("compacted log (stale=%v) read back differently:\n got %s\nwant %s", again.stale, got, want)
	}

	// With nothing changed on disk, a Sync writes nothing.
	before, _ := os.ReadFile(logPath)
	if err := again.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if after, _ := os.ReadFile(logPath); !bytes.Equal(before, after) {
		t.Fatal("a Sync with nothing to do rewrote the log")
	}

	// A deleted segment's entry leaves the log with the next Sync.
	if err := os.Remove(segs[0]); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if err := again.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if _, entries := logLines(t, dir); len(entries) != len(segs)-1 {
		t.Fatalf("log holds %d entries after a segment was deleted, want %d", len(entries), len(segs)-1)
	}
	checkTotals(t, again)
}

// TestOldIndexFormatIsRebuilt: the index is derived data, so a file in
// the previous layout (one JSON document) is not migrated but rescanned.
func TestOldIndexFormatIsRebuilt(t *testing.T) {
	dir := t.TempDir()
	fillJournal(t, dir, nil)
	old := `{"version":1,"segments":[{"name":"wal-00000000.seg","size":1,"records":99,"sealed":true,"min_time":0,"max_time":0,"vps":[],"prefixes":[]}]}`
	if err := os.WriteFile(filepath.Join(dir, FileName), []byte(old), 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	ix, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if n := len(ix.Segments()); n != 0 {
		t.Fatalf("Open trusted %d entries of an old-format file", n)
	}
	if err := ix.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	rebuilt, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := rebuilt.Rebuild(); err != nil {
		t.Fatalf("Rebuild: %v", err)
	}
	if got, want := segmentsJSON(t, ix), segmentsJSON(t, rebuilt); got != want || ix.Stats().Records != 60 {
		t.Fatalf("index over an old-format file:\n got %s\nwant %s", got, want)
	}
	if hdr, entries := logLines(t, dir); hdr.Version != formatVersion || len(entries) != 8 {
		t.Fatalf("log has version %d and %d entries, want %d and 8", hdr.Version, len(entries), formatVersion)
	}
}

// PrefixKey is persisted, so the allocation-free hash must stay the
// FNV-1a of the prefix's text form.
func TestPrefixKeyIsFNV1aOfText(t *testing.T) {
	for _, s := range []string{"0.0.0.0/0", "203.0.113.0/24", "10.1.2.3/32", "2001:db8::/32", "::/0",
		"ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff/128", "::ffff:192.0.2.1/128"} {
		p := netip.MustParsePrefix(s)
		h := fnv.New64a()
		h.Write([]byte(p.String()))
		if got, want := PrefixKey(p), h.Sum64(); got != want {
			t.Errorf("PrefixKey(%s) = %#x, want %#x", s, got, want)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { PrefixKey(netip.MustParsePrefix("2001:db8::/32")) }); allocs != 0 {
		t.Errorf("PrefixKey allocates %.1f times", allocs)
	}
}

// TestSealPassAllocations guards the pass the daemon makes over every
// sealed segment (skip entry and gap-audit tap together): its allocations
// are a small constant per segment (13 here: the file, the read buffers,
// the entry) and none per record, so a segment eight times as long costs
// the same number.
func TestSealPassAllocations(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, n int) string {
		sub := filepath.Join(dir, name)
		j, err := archive.OpenJournal(sub, n+1)
		if err != nil {
			t.Fatalf("OpenJournal: %v", err)
		}
		for i := 0; i < n; i++ {
			vp := uint32(65001 + i%5)
			pfx := fmt.Sprintf("10.%d.%d.0/24", i%200, i/200)
			if err := j.Append(rec(vp, time.Duration(i)*time.Second, pfx, []uint32{vp, 64999}, i%11 == 0)); err != nil {
				t.Fatalf("Append: %v", err)
			}
		}
		if err := j.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		segs, _ := archive.ListSegments(sub)
		return segs[0]
	}
	short, long := write("short", 512), write("long", 4096)
	observed := 0
	pass := func(path string, records uint64) func() {
		return func() {
			m, err := scanMeta(path, func(v *mrt.UpdateView) { observed++ })
			if err != nil || m.Records != records || !m.Sealed || len(m.VPs) != 5 {
				t.Fatalf("scanMeta(%s): %+v, %v", path, m, err)
			}
		}
	}
	pass(long, 4096)() // size the pooled scratch
	perShort := testing.AllocsPerRun(20, pass(short, 512))
	perLong := testing.AllocsPerRun(20, pass(long, 4096))
	// One allocation per record would be 3584 more over the long segment.
	// Under the race detector sync.Pool drops a share of what is put back,
	// so the pass still runs there but the count is not asserted.
	if !raceEnabled && (perLong > perShort+8 || perLong > 32) {
		t.Fatalf("seal pass allocates %.0f times over 512 records and %.0f over 4096; want the same small constant", perShort, perLong)
	}
	if observed == 0 {
		t.Fatal("the tap saw no record")
	}
}

// The follower's metrics: one index.add_segment_ns observation per
// AddSegment, and gauges that equal a full walk.
func TestAddSegmentMetrics(t *testing.T) {
	dir := t.TempDir()
	reg := metrics.NewRegistry()
	ix, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	ix.Registry = reg
	fillJournal(t, dir, func(path string) {
		if err := ix.AddSegment(path); err != nil {
			t.Errorf("AddSegment(%s): %v", path, err)
		}
	})
	snap := reg.Snapshot()
	st := ix.Stats()
	if snap.Histograms["index.add_segment_ns"].Count != 8 ||
		snap.Gauges["index.segments"] != 8 || snap.Gauges["index.sealed_segments"] != 8 ||
		snap.Gauges["index.records"] != int64(st.Records) || snap.Gauges["index.bytes"] != st.Bytes {
		t.Fatalf("metrics after 8 seals: %d observations, gauges %v, stats %+v", snap.Histograms["index.add_segment_ns"].Count, snap.Gauges, st)
	}
}

// FuzzIndexOpen feeds arbitrary bytes to Open as the index log beside a
// fixed two-segment journal. The log is derived data, so whatever it
// holds: Open and Sync never fail, after Sync the index names exactly the
// segments on disk (no entry the log invented survives), and the log Sync
// leaves behind reads back to the same Stats.
func FuzzIndexOpen(f *testing.F) {
	fixture := f.TempDir()
	j, err := archive.OpenJournal(fixture, 8)
	if err != nil {
		f.Fatalf("OpenJournal: %v", err)
	}
	for i := 0; i < 12; i++ {
		vp := uint32(65001 + i%2)
		if err := j.Append(rec(vp, time.Duration(i)*time.Minute, "203.0.113.0/24", []uint32{vp, 64999}, i%5 == 4)); err != nil {
			f.Fatalf("Append: %v", err)
		}
	}
	if err := j.Close(); err != nil {
		f.Fatalf("Close: %v", err)
	}
	segs, err := archive.ListSegments(fixture)
	if err != nil || len(segs) != 2 {
		f.Fatalf("fixture has segments %v (%v), want 2", segs, err)
	}
	var names []string
	for _, s := range segs {
		names = append(names, filepath.Base(s))
	}

	// Seeds: a good log, then the cases the table tests pin — a duplicate
	// entry, a torn last line, the old one-document version — and entries
	// for a segment that does not exist or whose size is wrong.
	ix, err := Open(fixture)
	if err != nil {
		f.Fatalf("Open: %v", err)
	}
	if err := ix.Sync(); err != nil {
		f.Fatalf("Sync: %v", err)
	}
	good, err := os.ReadFile(filepath.Join(fixture, FileName))
	if err != nil {
		f.Fatalf("ReadFile: %v", err)
	}
	lines := bytes.SplitAfter(good, []byte("\n"))
	entry := lines[1]
	f.Add(good)
	f.Add(append(slices.Clone(good), entry...))
	f.Add(append(slices.Clone(good), entry[:len(entry)/2]...))
	f.Add([]byte(`{"version":1,"segments":[{"name":"wal-00000000.seg","size":1,"records":99,"sealed":true}]}`))
	f.Add(append(slices.Clone(lines[0]), bytes.Replace(entry, []byte(names[0]), []byte("wal-99999999.seg"), 1)...))
	f.Add(append(slices.Clone(lines[0]), `{"name":"`+names[1]+`","size":7,"records":3,"sealed":true,"min_time":0,"max_time":9}`+"\n"...))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		for _, s := range segs {
			if err := os.Link(s, filepath.Join(dir, filepath.Base(s))); err != nil {
				t.Fatalf("Link: %v", err)
			}
		}
		if err := os.WriteFile(filepath.Join(dir, FileName), data, 0o644); err != nil {
			t.Fatalf("WriteFile: %v", err)
		}
		ix, err := Open(dir)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		if err := ix.Sync(); err != nil {
			t.Fatalf("Sync: %v", err)
		}
		var got []string
		for _, m := range ix.Segments() {
			got = append(got, m.Name)
		}
		if !slices.Equal(got, names) {
			t.Fatalf("after Sync the index names %q, the disk holds %q", got, names)
		}
		again, err := Open(dir)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		if a, b := again.Stats(), ix.Stats(); a != b {
			t.Fatalf("the log Sync wrote reads back as %+v, Sync left %+v", a, b)
		}
	})
}
