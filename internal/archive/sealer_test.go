package archive

import (
	"math/rand"
	"os"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/metrics"
	"repro/internal/mrt"
)

// frameEnds returns, for records lo..hi-1 written to one segment, the
// file offset at which each record's frame ends.
func frameEnds(t *testing.T, lo, hi int) []int {
	t.Helper()
	ends := make([]int, 0, hi-lo)
	off := len(segmentMagic)
	for i := lo; i < hi; i++ {
		wire, err := mrt.AppendRecord(nil, walRecord(i))
		if err != nil {
			t.Fatalf("AppendRecord(%d): %v", i, err)
		}
		off += 4 + len(wire) + 4
		ends = append(ends, off)
	}
	return ends
}

// framesWithin counts the frames that lie wholly inside the first n bytes.
func framesWithin(ends []int, n int) int {
	k := 0
	for k < len(ends) && ends[k] <= n {
		k++
	}
	return k
}

// TestJournalCrashWithSealPending is the new WAL window, killed at every
// kind of byte: the journal has rotated, segment N's fsync has not
// finished and N+1 already holds records, and the machine dies — which
// leaves an arbitrary written-back prefix of each. Recovery must deliver
// every complete frame of both, in order, and count at most the one
// partial frame per segment as lost.
func TestJournalCrashWithSealPending(t *testing.T) {
	const rotate, n = 16, 27 // segment 0 full (and trailed), segment 1 open with 11
	ends := [2][]int{frameEnds(t, 0, rotate), frameEnds(t, rotate, n)}
	crash := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dir := t.TempDir()
		j, err := OpenJournal(dir, rotate)
		if err != nil {
			t.Fatalf("OpenJournal: %v", err)
		}
		for i := 0; i < n; i++ {
			if err := j.Append(walRecord(i)); err != nil {
				t.Fatalf("Append(%d): %v", i, err)
			}
		}
		if err := j.Sync(); err != nil { // let the sealer finish with its file
			t.Fatalf("Sync: %v", err)
		}
		segs, _ := ListSegments(dir)
		if len(segs) != 2 {
			t.Fatalf("%d segments, want 2", len(segs))
		}
		var want [2]int
		for s, path := range segs {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("ReadFile: %v", err)
			}
			cut := r.Intn(len(data) + 1) // what had been written back when the power went
			if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
				t.Fatalf("WriteFile: %v", err)
			}
			want[s] = framesWithin(ends[s], cut)
		}

		var got []uint32
		stats, err := RecoverJournal(dir, nil, func(rec *mrt.Record) error {
			got = append(got, rec.BGP4MP.PeerAS)
			return nil
		})
		if err != nil {
			t.Errorf("seed %d: RecoverJournal: %v", seed, err)
			return false
		}
		var wantAS []uint32
		for i := 0; i < want[0]; i++ {
			wantAS = append(wantAS, uint32(65000+i))
		}
		for i := 0; i < want[1]; i++ {
			wantAS = append(wantAS, uint32(65000+rotate+i))
		}
		if len(got) != len(wantAS) || stats.Recovered != uint64(len(wantAS)) || stats.Lost > 2 {
			t.Errorf("seed %d: recovered %d records (stats %+v), want %d+%d and at most 2 lost", seed, len(got), stats, want[0], want[1])
			return false
		}
		for i := range got {
			if got[i] != wantAS[i] {
				t.Errorf("seed %d: record %d is AS%d, want AS%d", seed, i, got[i], wantAS[i])
				return false
			}
		}
		// The repair is idempotent: a second pass finds everything sealed.
		again, err := RecoverJournal(dir, nil, nil)
		if err != nil || !again.Clean || again.Recovered != stats.Recovered {
			t.Errorf("seed %d: second recovery %+v (%v), want clean with %d", seed, again, err, stats.Recovered)
			return false
		}
		return true
	}
	if err := quick.Check(crash, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestJournalSyncAndCloseAreBarriers: rotation does not wait for the disk,
// Sync and Close do — when either returns, every segment rotated out
// before it has had its fsync, which the journal counts in
// archive.wal.fsync_ns as each completes.
func TestJournalSyncAndCloseAreBarriers(t *testing.T) {
	reg := metrics.NewRegistry()
	j, err := OpenJournal(t.TempDir(), 4)
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	j.Registry = reg
	fsyncs := func() uint64 { return reg.Snapshot().Histograms["archive.wal.fsync_ns"].Count }
	for i := 0; i < 4*8+2; i++ { // eight rotations, two records in the ninth segment
		if err := j.Append(walRecord(i)); err != nil {
			t.Fatalf("Append(%d): %v", i, err)
		}
	}
	if err := j.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if got := fsyncs(); got != 8 {
		t.Fatalf("Sync returned with %d of 8 rotated segments fsynced", got)
	}
	if got := reg.Snapshot().Histograms["archive.seal_ns"].Count; got != 8 {
		t.Fatalf("archive.seal_ns observed %d rotating appends, want 8", got)
	}
	for i := 0; i < 4*3; i++ { // three more rotations
		if err := j.Append(walRecord(i)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got := fsyncs(); got != 12 {
		t.Fatalf("Close returned with %d of 12 segments fsynced", got)
	}
	j.sealMu.Lock()
	pending, running := len(j.unsynced), j.sealing
	j.sealMu.Unlock()
	if pending != 0 || running {
		t.Fatalf("after Close: %d files pending, sealer running %v", pending, running)
	}
	segs, _ := ListSegments(j.dir)
	for _, path := range segs {
		if _, sealed, err := ScanSegment(path, nil); err != nil || !sealed {
			t.Fatalf("%s: sealed %v, err %v", path, sealed, err)
		}
	}
}

// TestJournalConcurrentAppendAndSync drives the journal the way the
// daemon does — several appenders, rotations every few records — with
// Sync barriers racing them, and checks nothing is lost or reordered
// within an appender and that OnSeal reports segments in seal order. Run
// with -race.
func TestJournalConcurrentAppendAndSync(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir, 8)
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	var sealed []string
	var sealMu sync.Mutex
	j.OnSeal = func(path string) {
		sealMu.Lock()
		sealed = append(sealed, path)
		sealMu.Unlock()
	}
	const appenders, each = 4, 100
	var wg sync.WaitGroup
	for a := 0; a < appenders; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := j.Append(walRecord(a*1000 + i)); err != nil {
					t.Errorf("Append: %v", err)
					return
				}
				if i%25 == 0 {
					if err := j.Sync(); err != nil {
						t.Errorf("Sync: %v", err)
					}
				}
			}
		}(a)
	}
	wg.Wait()
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	segs, _ := ListSegments(dir)
	if len(sealed) != len(segs) || len(segs) != appenders*each/8 {
		t.Fatalf("%d segments on disk, %d seal callbacks, want %d", len(segs), len(sealed), appenders*each/8)
	}
	for i := range sealed {
		if sealed[i] != segs[i] {
			t.Errorf("OnSeal #%d reported %s, want %s (seal order)", i, sealed[i], segs[i])
			break
		}
	}
	next := make([]int, appenders)
	stats, err := RecoverJournal(dir, nil, func(rec *mrt.Record) error {
		i := int(rec.BGP4MP.PeerAS) - 65000
		if a := i / 1000; i%1000 != next[a] {
			t.Errorf("appender %d: record %d arrived where %d was due", a, i%1000, next[a])
		}
		next[i/1000]++
		return nil
	})
	if err != nil || !stats.Clean || stats.Recovered != appenders*each {
		t.Fatalf("recovery %+v (%v), want clean with %d", stats, err, appenders*each)
	}
}
