package main

import (
	"bytes"
	"compress/gzip"
	"io"
	"net/netip"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/archive"
	"repro/internal/index"
	"repro/internal/mrt"
	"repro/internal/pipeline"
	"repro/internal/update"
)

// TestExportMRTGzipRoundTrip: a .gz export decompresses to exactly the
// plain export, and both hold every journaled record.
func TestExportMRTGzipRoundTrip(t *testing.T) {
	dir := t.TempDir()
	walDir := filepath.Join(dir, "wal")
	j, err := archive.OpenJournal(walDir, 4)
	if err != nil {
		t.Fatal(err)
	}
	// The daemon's archive stage encodes the records, one prefix each.
	t0 := time.Date(2023, 9, 1, 0, 0, 0, 0, time.UTC)
	var us []*update.Update
	for i := 0; i < 10; i++ {
		u := &update.Update{VP: "vp65001", Time: t0.Add(time.Duration(i) * time.Minute),
			Prefix: netip.MustParsePrefix("203.0.113.0/24"), Path: []uint32{65001, uint32(100 + i)}}
		switch i % 3 {
		case 1:
			u.Prefix = netip.MustParsePrefix("2001:db8::/32")
		case 2:
			u.Withdraw, u.Path = true, nil
		}
		us = append(us, u)
	}
	st := &pipeline.ArchiveStage{LocalAS: 65000, Sink: j.AppendBatch}
	st.Process(us)
	if err := j.Close(); err != nil || st.Written() != 10 {
		t.Fatalf("journaled %d of 10 (close: %v)", st.Written(), err)
	}
	svc, err := index.NewService(walDir, nil)
	if err != nil {
		t.Fatal(err)
	}

	plain, zipped := filepath.Join(dir, "u.mrt"), filepath.Join(dir, "u.mrt.gz")
	for _, name := range []string{plain, zipped} {
		if n, err := exportMRT(svc, index.Query{}, name); err != nil || n != 10 {
			t.Fatalf("exportMRT(%s) = %d, %v; want 10 records", name, n, err)
		}
	}
	raw, err := os.ReadFile(plain)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(zipped)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	unzipped, err := io.ReadAll(zr)
	if err != nil {
		t.Fatalf("gzip stream: %v", err)
	}
	if !bytes.Equal(unzipped, raw) {
		t.Fatal(".gz export does not decompress to the plain export")
	}
	r := mrt.NewReader(bytes.NewReader(raw))
	for i := range us {
		rec, err := r.ReadRecord()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if got := rec.CanonicalUpdates(); len(got) != 1 || got[0].Prefix != us[i].Prefix || got[0].Withdraw != us[i].Withdraw {
			t.Fatalf("record %d decodes to %+v, want %+v", i, got, us[i])
		}
	}
	if _, err := r.ReadRecord(); err != io.EOF {
		t.Fatalf("after 10 records: %v, want EOF", err)
	}
}
