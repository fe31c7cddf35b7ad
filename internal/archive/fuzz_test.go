package archive

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// FuzzRecoverSegment writes arbitrary bytes as a segment file and holds
// RecoverSegment to its contract. A file that does not start with the
// magic is refused with ErrNotSegment and left as it was. Any other file
// recovers without a panic, allocating at most one MaxSegmentRecord frame
// buffer beyond what its own intact frames need; the payloads it delivers
// are exactly those a ScanSegment of the repaired file yields, that file
// scans as sealed, and recovering it again finds it clean with nothing
// lost or cut.
func FuzzRecoverSegment(f *testing.F) {
	path := filepath.Join(f.TempDir(), "wal-00000000.seg")
	w, err := CreateSegment(path)
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := w.Append(segPayload(i)); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	mutate := func(fn func(b []byte)) []byte {
		b := bytes.Clone(valid)
		fn(b)
		return b
	}
	for cut := range valid {
		f.Add(valid[:cut])
	}
	f.Add(valid)
	first := len(segmentMagic) + 8 + len(segPayload(0))   // end of the first frame
	f.Add(mutate(func(b []byte) { b[first-1] ^= 0x01 }))  // flipped CRC byte
	f.Add(mutate(func(b []byte) { b[len(b)-5] ^= 0x01 })) // bad trailer count
	f.Add(mutate(func(b []byte) {                         // oversized length prefix
		binary.BigEndian.PutUint32(b[first:], MaxSegmentRecord+1)
	}))
	f.Add([]byte("not a segment file"))
	f.Add([]byte("GILX")) // shorter than the magic, and no torn copy of it
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "wal-00000000.seg")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var got [][]byte
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		stats, err := RecoverSegment(path, func(p []byte) error {
			got = append(got, bytes.Clone(p))
			return nil
		})
		runtime.ReadMemStats(&after)
		if n := min(len(data), len(segmentMagic)); string(data[:n]) != segmentMagic[:n] {
			if !errors.Is(err, ErrNotSegment) {
				t.Fatalf("no magic: err %v, want ErrNotSegment", err)
			}
			if now, _ := os.ReadFile(path); !bytes.Equal(now, data) {
				t.Fatal("a file refused as not a segment was modified")
			}
			return
		}
		if err != nil {
			t.Fatalf("RecoverSegment: %v", err)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > MaxSegmentRecord+4*uint64(len(data))+1<<20 {
			t.Fatalf("recovering %d bytes allocated %d", len(data), alloc)
		}
		if stats.Recovered != uint64(len(got)) {
			t.Fatalf("stats %+v for %d delivered payloads", stats, len(got))
		}
		var scanned [][]byte
		n, sealed, err := ScanSegment(path, func(p []byte) error {
			scanned = append(scanned, bytes.Clone(p))
			return nil
		})
		if err != nil || !sealed || n != stats.Recovered {
			t.Fatalf("repaired file scans %d records, sealed %v, err %v; recovery delivered %d", n, sealed, err, len(got))
		}
		for i := range got {
			if !bytes.Equal(got[i], scanned[i]) {
				t.Fatalf("payload %d: recovery delivered %x, the repaired file holds %x", i, got[i], scanned[i])
			}
		}
		again, err := RecoverSegment(path, nil)
		if err != nil || !again.Clean || again.Lost != 0 || again.TruncatedBytes != 0 || again.Recovered != stats.Recovered {
			t.Fatalf("second recovery %+v (err %v), want clean with %d records", again, err, stats.Recovered)
		}
	})
}
