// Package archive is GILL's on-disk update database (§9): rotating
// gzip-compressed MRT files (one per time window, RouteViews-style
// naming), RIB snapshots, and a time-range query API over the archive.
// The paper publishes this data at bgproutes.io together with the
// computed filters and anchor list so users know exactly which bits are
// missing.
package archive

import (
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/mrt"
	"repro/internal/update"
)

// DefaultRotation is the per-file window (RouteViews rotates updates
// every 15 minutes; GILL's volume makes an hour practical at our scale).
const DefaultRotation = time.Hour

// Store is a rotating MRT archive rooted at a directory.
type Store struct {
	dir    string
	rotate time.Duration

	mu       sync.Mutex
	buf      []byte // Append's encode buffer
	curGz    *gzip.Writer
	curFile  *os.File
	curStart time.Time
	appended uint64
}

// Open creates (or reuses) an archive directory. rotate ≤ 0 uses
// DefaultRotation.
func Open(dir string, rotate time.Duration) (*Store, error) {
	if rotate <= 0 {
		rotate = DefaultRotation
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("archive: %w", err)
	}
	return &Store{dir: dir, rotate: rotate}, nil
}

// fileName renders the window file name: updates.20230901.1500.mrt.gz.
func (s *Store) fileName(start time.Time) string {
	return fmt.Sprintf("updates.%s.mrt.gz", start.UTC().Format("20060102.1504"))
}

// windowStart truncates t to its rotation window.
func (s *Store) windowStart(t time.Time) time.Time {
	return t.UTC().Truncate(s.rotate)
}

// Append writes one record into the file covering its timestamp's window:
// a one-record AppendBatch.
func (s *Store) Append(rec *mrt.Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	buf, err := mrt.AppendRecord(s.buf[:0], rec)
	if err != nil {
		return err
	}
	s.buf = buf
	_, err = s.appendLocked([][]byte{buf})
	return err
}

// AppendBatch writes encoded MRT records, in order, each into the file
// covering its timestamp's window (the first four bytes of its MRT
// header), and returns how many it wrote; fewer than len(recs) comes with
// the error that stopped it. Records are expected in roughly chronological
// order; a record older than the currently open window lands in the
// current file (its timestamp stays authoritative for queries).
func (s *Store) AppendBatch(recs [][]byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.appendLocked(recs)
}

func (s *Store) appendLocked(recs [][]byte) (int, error) {
	for i, rec := range recs {
		if len(rec) < 12 {
			return i, fmt.Errorf("archive: %w", mrt.ErrShortRecord)
		}
		w := s.windowStart(time.Unix(int64(binary.BigEndian.Uint32(rec)), 0))
		if s.curGz == nil || w.After(s.curStart) {
			if err := s.rollLocked(w); err != nil {
				return i, err
			}
		}
		if _, err := s.curGz.Write(rec); err != nil {
			return i, fmt.Errorf("archive: %w", err)
		}
		s.appended++
	}
	return len(recs), nil
}

// rollLocked closes the current file and opens the window's file.
func (s *Store) rollLocked(start time.Time) error {
	if err := s.closeCurrentLocked(); err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(s.dir, s.fileName(start)),
		os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("archive: %w", err)
	}
	s.curFile = f
	s.curGz = gzip.NewWriter(f)
	s.curStart = start
	return nil
}

func (s *Store) closeCurrentLocked() error {
	if s.curGz == nil {
		return nil
	}
	if err := s.curGz.Close(); err != nil {
		s.curFile.Close()
		return err
	}
	err := s.curFile.Close()
	s.curGz, s.curFile = nil, nil
	return err
}

// Flush rolls the current file shut so its contents become queryable.
func (s *Store) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closeCurrentLocked()
}

// Close finalizes the archive.
func (s *Store) Close() error { return s.Flush() }

// Appended returns the number of records written.
func (s *Store) Appended() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.appended
}

// FileInfo describes one archive file.
type FileInfo struct {
	Name  string
	Start time.Time
	Size  int64
}

// Files lists the archive's update files, sorted by window start.
func (s *Store) Files() ([]FileInfo, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	var out []FileInfo
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "updates.") || !strings.HasSuffix(name, ".mrt.gz") {
			continue
		}
		stamp := strings.TrimSuffix(strings.TrimPrefix(name, "updates."), ".mrt.gz")
		start, err := time.ParseInLocation("20060102.1504", stamp, time.UTC)
		if err != nil {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		out = append(out, FileInfo{Name: name, Start: start, Size: info.Size()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out, nil
}

// Query returns the canonical updates with timestamps in [from, to),
// scanning only the files whose windows overlap the range. The currently
// open window is flushed first so recent data is visible.
func (s *Store) Query(from, to time.Time) ([]*update.Update, error) {
	if err := s.Flush(); err != nil {
		return nil, err
	}
	files, err := s.Files()
	if err != nil {
		return nil, err
	}
	var out []*update.Update
	for _, fi := range files {
		end := fi.Start.Add(s.rotate)
		// A file can hold records slightly older than its window
		// (out-of-order appends land in the then-current file), so the
		// window following `to` is scanned as well; records disordered by
		// more than one rotation are not guaranteed to be found.
		if !fi.Start.Before(to.Add(s.rotate)) || !end.After(from) {
			continue
		}
		if err := s.scanFile(fi.Name, from, to, &out); err != nil {
			return nil, err
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Time.Before(out[j].Time) })
	return out, nil
}

func (s *Store) scanFile(name string, from, to time.Time, out *[]*update.Update) error {
	f, err := os.Open(filepath.Join(s.dir, name))
	if err != nil {
		return err
	}
	defer f.Close()
	r, err := mrt.NewArchiveReader(f)
	if err != nil {
		return fmt.Errorf("archive: %s: %w", name, err)
	}
	for {
		rec, err := r.ReadRecord()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("archive: %s: %w", name, err)
		}
		for _, u := range rec.CanonicalUpdates() {
			if !u.Time.Before(from) && u.Time.Before(to) {
				*out = append(*out, u)
			}
		}
	}
}

// WriteRIB stores a RIB snapshot via the given dump function (typically
// (*daemon.Daemon).DumpRIB), named rib.<stamp>.mrt.gz.
func (s *Store) WriteRIB(at time.Time, dump func(io.Writer) error) error {
	name := fmt.Sprintf("rib.%s.mrt.gz", at.UTC().Format("20060102.1504"))
	f, err := os.Create(filepath.Join(s.dir, name))
	if err != nil {
		return err
	}
	gz := gzip.NewWriter(f)
	if err := dump(gz); err != nil {
		gz.Close()
		f.Close()
		return err
	}
	if err := gz.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// RIBs lists stored RIB snapshot names, sorted.
func (s *Store) RIBs() ([]string, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "rib.") && strings.HasSuffix(e.Name(), ".mrt.gz") {
			out = append(out, e.Name())
		}
	}
	sort.Strings(out)
	return out, nil
}
