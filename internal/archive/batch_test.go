package archive

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"repro/internal/bgp"
	"repro/internal/metrics"
	"repro/internal/mrt"
)

// randRecords returns n walRecords with random AS paths, encoded.
func randRecords(t *testing.T, r *rand.Rand, n int) [][]byte {
	t.Helper()
	out := make([][]byte, n)
	for i := range out {
		rec := walRecord(i)
		msg := rec.BGP4MP.Message.(*bgp.Update)
		msg.ASPath = msg.ASPath[:0]
		for k := r.Intn(40); k >= 0; k-- {
			msg.ASPath = append(msg.ASPath, r.Uint32())
		}
		wire, err := mrt.AppendRecord(nil, rec)
		if err != nil {
			t.Fatalf("AppendRecord(%d): %v", i, err)
		}
		out[i] = wire
	}
	return out
}

// dirFiles reads every file in dir, by name.
func dirFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	out := make(map[string][]byte, len(entries))
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatalf("ReadFile: %v", err)
		}
		out[e.Name()] = data
	}
	return out
}

// TestAppendBatchMatchesAppend: random records journaled through
// AppendBatch in random batch sizes — batches that cross one rotation or
// several included — leave a directory byte-identical to the same records
// journaled one Append at a time, and OnSeal fires once per segment, in
// order, before the AppendBatch that sealed it returns.
func TestAppendBatchMatchesAppend(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rotate := 1 + r.Intn(9)
		recs := randRecords(t, r, 1+r.Intn(120))

		one, batched := t.TempDir(), t.TempDir()
		jo, err := OpenJournal(one, rotate)
		if err != nil {
			t.Fatalf("OpenJournal: %v", err)
		}
		var oneSealed []string
		jo.OnSeal = func(path string) { oneSealed = append(oneSealed, filepath.Base(path)) }
		for i, wire := range recs {
			rec, err := mrt.NewReader(bytes.NewReader(wire)).ReadRecord()
			if err != nil {
				t.Fatalf("ReadRecord(%d): %v", i, err)
			}
			if err := jo.Append(rec); err != nil {
				t.Fatalf("Append(%d): %v", i, err)
			}
		}

		jb, err := OpenJournal(batched, rotate)
		if err != nil {
			t.Fatalf("OpenJournal: %v", err)
		}
		jb.Registry = metrics.NewRegistry()
		var sealed []string
		jb.OnSeal = func(path string) { sealed = append(sealed, filepath.Base(path)) }
		for done := 0; done < len(recs); {
			k := min(len(recs)-done, r.Intn(3*rotate+2))
			n, err := jb.AppendBatch(recs[done : done+k])
			if err != nil || n != k {
				t.Errorf("seed %d: AppendBatch(%d) = %d, %v", seed, k, n, err)
				return false
			}
			done += k
			// Rotation is lazy: segment s is sealed by the record after its last.
			if want := max(0, (done-1)/rotate); len(sealed) != want {
				t.Errorf("seed %d: %d records in, %d seals when AppendBatch returned, want %d", seed, done, len(sealed), want)
				return false
			}
		}
		if err := jo.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		if err := jb.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		segs := (len(recs) + rotate - 1) / rotate
		if len(sealed) != segs || len(oneSealed) != segs {
			t.Errorf("seed %d: %d and %d seal callbacks, want %d", seed, len(sealed), len(oneSealed), segs)
			return false
		}
		for i := range sealed {
			if sealed[i] != oneSealed[i] || i > 0 && sealed[i] <= sealed[i-1] {
				t.Errorf("seed %d: seal order %v, want %v", seed, sealed, oneSealed)
				return false
			}
		}
		a, b := dirFiles(t, one), dirFiles(t, batched)
		if len(a) != len(b) || len(a) != segs {
			t.Errorf("seed %d: %d vs %d files, want %d", seed, len(a), len(b), segs)
			return false
		}
		for name, data := range a {
			if !bytes.Equal(data, b[name]) {
				t.Errorf("seed %d: %s differs between Append and AppendBatch", seed, name)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestAppendBatchKilledMidWrite: a crash while one batch's write(2) is in
// flight leaves an arbitrary prefix of it on disk. Recovery returns a
// strict prefix of what was journaled — every batch before, every complete
// frame of the torn one — and counts at most the one torn frame as lost.
func TestAppendBatchKilledMidWrite(t *testing.T) {
	kill := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		recs := randRecords(t, r, 40+r.Intn(40))
		last := 1 + r.Intn(len(recs)-1) // the torn batch is recs[len-last:]
		dir := t.TempDir()
		j, err := OpenJournal(dir, len(recs)) // one segment, still open at the crash
		if err != nil {
			t.Fatalf("OpenJournal: %v", err)
		}
		path := filepath.Join(dir, "wal-00000000.seg")
		before := len(recs) - last
		for done := 0; done < before; {
			k := min(before-done, 1+r.Intn(8))
			if _, err := j.AppendBatch(recs[done : done+k]); err != nil {
				t.Fatalf("AppendBatch: %v", err)
			}
			done += k
		}
		var start int64
		if before > 0 {
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatalf("Stat: %v", err)
			}
			start = fi.Size()
		}
		if _, err := j.AppendBatch(recs[before:]); err != nil {
			t.Fatalf("AppendBatch: %v", err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("ReadFile: %v", err)
		}
		if before == 0 {
			start = int64(len(segmentMagic))
		}
		cut := start + r.Int63n(int64(len(data))-start+1) // inside the batch's write, or at its ends
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatalf("WriteFile: %v", err)
		}

		complete, off := 0, int64(len(segmentMagic))
		for _, rec := range recs {
			if off += int64(8 + len(rec)); off > cut {
				break
			}
			complete++
		}
		var got [][]byte
		stats, err := RecoverJournal(dir, nil, func(rec *mrt.Record) error {
			wire, err := mrt.AppendRecord(nil, rec)
			got = append(got, wire)
			return err
		})
		if err != nil {
			t.Errorf("seed %d: RecoverJournal: %v", seed, err)
			return false
		}
		if len(got) != complete || complete < before || stats.Lost > 1 {
			t.Errorf("seed %d: recovered %d (stats %+v), want the %d complete frames (%d before the torn batch), ≤ 1 lost",
				seed, len(got), stats, complete, before)
			return false
		}
		for i := range got {
			if !bytes.Equal(got[i], recs[i]) {
				t.Errorf("seed %d: recovered record %d differs from the one journaled", seed, i)
				return false
			}
		}
		return true
	}
	if err := quick.Check(kill, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestAppendBatchMetrics: every AppendBatch is one archive.wal.append_ns
// and one archive.wal.batch_records observation; one that rotated is also
// an archive.seal_ns observation.
func TestAppendBatchMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	j, err := OpenJournal(t.TempDir(), 4)
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	j.Registry = reg
	recs := randRecords(t, rand.New(rand.NewSource(1)), 10)
	for _, batch := range [][][]byte{recs[:3], recs[3:6], recs[6:]} { // records 4 and 8 rotate
		if n, err := j.AppendBatch(batch); err != nil || n != len(batch) {
			t.Fatalf("AppendBatch(%d) = %d, %v", len(batch), n, err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	snap := reg.Snapshot()
	if h := snap.Histograms["archive.wal.append_ns"]; h.Count != 3 {
		t.Errorf("archive.wal.append_ns count %d, want 3", h.Count)
	}
	if h := snap.Histograms["archive.wal.batch_records"]; h.Count != 3 || h.Sum != 10 {
		t.Errorf("archive.wal.batch_records count %d sum %d, want 3 and 10", h.Count, h.Sum)
	}
	if h := snap.Histograms["archive.seal_ns"]; h.Count != 2 {
		t.Errorf("archive.seal_ns count %d, want 2", h.Count)
	}
	if c, ok := snap.Counters["archive.wal.fsync_errors"]; !ok || c != 0 {
		t.Errorf("archive.wal.fsync_errors = %d (registered %v), want 0", c, ok)
	}
}

// TestAppendBatchStopsAtBadRecord: an unframeable record ends the batch
// there; the records before it are journaled and counted.
func TestAppendBatchStopsAtBadRecord(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir, 0)
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	recs := randRecords(t, rand.New(rand.NewSource(2)), 4)
	recs[2] = nil
	if n, err := j.AppendBatch(recs); n != 2 || err == nil {
		t.Fatalf("AppendBatch = %d, %v; want 2 and an error", n, err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	stats, err := RecoverJournal(dir, nil, nil)
	if err != nil || !stats.Clean || stats.Recovered != 2 {
		t.Fatalf("recovery %+v (%v), want clean with 2", stats, err)
	}
}
