// Package index is the read side of the archive journal: a compact
// time/prefix/VP skip-index over the crash-safe MRT segments
// (internal/archive/segment.go) and a RIB-reconstruction query service on
// top of it. The paper's platform is consumed by "millions of users" who
// are readers (§9 publishes the database at bgproutes.io); the index is
// what makes those reads cheap — a query touches only the segments whose
// metadata can match, and correctness never depends on the metadata: a
// matched segment is always re-scanned record by record, so index entries
// are a pure skip optimization (false positives cost a scan, never an
// answer).
//
// Per sealed segment the index stores the record count, the covered
// timestamp range, the set of vantage points, and the set of announced or
// withdrawn prefixes as sorted 64-bit FNV-1a fingerprints. Segments are
// indexed incrementally as the journal seals them and the whole index is
// rebuildable by scan, so it can always be derived from the data it
// serves. Unsealed or unknown segments are never skipped, which is also
// why indexing may lag sealing without changing an answer.
//
// On disk the index is an append-only log beside the segments: a header
// line {"version":N}, then one JSON SegmentMeta per line, appended by
// AddSegment — so persisting a seal costs O(that segment), whatever the
// archive's size. Open replays the log, the last entry per name winning.
// Only sealed entries are logged (the others are rescanned by every Sync
// anyway). The log is rewritten whole only when it holds something Open
// must not see again — an entry for a deleted segment, a torn last line,
// another version — and, being derived data, in place: a crash mid-rewrite
// costs a rescan of the segments whose entries were lost.
package index

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"net/netip"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/archive"
	"repro/internal/metrics"
	"repro/internal/mrt"
)

// FileName is the index log kept beside the segments in the journal dir.
const FileName = "gillidx.json"

// formatVersion guards the persisted layout; a mismatch forces a rebuild.
// Version 1 was one JSON document rewritten on every seal.
const formatVersion = 2

// logHeader is the log's first line.
type logHeader struct {
	Version int `json:"version"`
}

// SegmentMeta is the per-segment skip entry.
type SegmentMeta struct {
	// Name is the segment's base file name (wal-XXXXXXXX.seg).
	Name string `json:"name"`
	// Size is the file size the metadata was computed over; a mismatch
	// (e.g. a crash-repair truncation) invalidates the entry.
	Size int64 `json:"size"`
	// Records is the number of intact MRT records.
	Records uint64 `json:"records"`
	// Sealed records whether the segment had a valid trailer when scanned.
	// Only sealed entries are trusted for skipping.
	Sealed bool `json:"sealed"`
	// MinTime and MaxTime bound the timestamps of the segment's BGP4MP
	// records (unix seconds); both are zero when it has none.
	MinTime int64 `json:"min_time"`
	MaxTime int64 `json:"max_time"`
	// VPs is the sorted set of vantage points seen in the segment.
	VPs []string `json:"vps"`
	// Prefixes is the sorted set of 64-bit FNV-1a fingerprints of the
	// prefixes announced or withdrawn in the segment.
	Prefixes []uint64 `json:"prefixes"`
}

// PrefixKey fingerprints a prefix for the skip set: FNV-1a over the
// prefix's text form, computed without allocating.
func PrefixKey(p netip.Prefix) uint64 {
	var buf [64]byte
	h := uint64(14695981039346656037)
	for _, c := range p.AppendTo(buf[:0]) {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return h
}

func (m *SegmentMeta) hasVP(vp string) bool {
	i := sort.SearchStrings(m.VPs, vp)
	return i < len(m.VPs) && m.VPs[i] == vp
}

func (m *SegmentMeta) hasPrefix(key uint64) bool {
	i := sort.Search(len(m.Prefixes), func(i int) bool { return m.Prefixes[i] >= key })
	return i < len(m.Prefixes) && m.Prefixes[i] == key
}

// Index is the persistent skip-index over one journal directory.
type Index struct {
	dir string

	// Registry optionally receives index.* metrics (segment/record gauges,
	// scan counters). Set before Sync/Rebuild.
	Registry *metrics.Registry

	mu   sync.Mutex
	segs map[string]*SegmentMeta // keyed by base name
	// Running totals over segs, kept by put and drop so that publishing
	// the gauges after a seal does not walk the whole index.
	sealed  int
	records uint64
	bytes   int64
	// stale marks a log that must be rewritten rather than appended to:
	// it is missing, or holds something Open must not see again.
	stale bool
}

// Open loads the persisted index for dir (if any). It does not scan; call
// Sync to bring the index up to date with the segments on disk, or
// Rebuild to recompute it from scratch.
func Open(dir string) (*Index, error) {
	ix := &Index{dir: dir, segs: make(map[string]*SegmentMeta)}
	data, err := os.ReadFile(filepath.Join(dir, FileName))
	if err != nil {
		if os.IsNotExist(err) {
			ix.stale = true
			return ix, nil
		}
		return nil, fmt.Errorf("index: %w", err)
	}
	// A corrupt or old log is not an error: it is derived data, and what
	// cannot be read is rescanned by Sync.
	line, rest, ok := bytes.Cut(data, []byte("\n"))
	var hdr logHeader
	if !ok || json.Unmarshal(line, &hdr) != nil || hdr.Version != formatVersion {
		ix.stale = true
		return ix, nil
	}
	for len(rest) > 0 {
		line, rest, ok = bytes.Cut(rest, []byte("\n"))
		m := new(SegmentMeta)
		if !ok || json.Unmarshal(line, m) != nil || m.Name == "" {
			ix.stale = true // torn by a crash mid-append, or corrupted
			continue
		}
		ix.put(m)
	}
	return ix, nil
}

// put installs m, replacing any entry of the same name.
func (ix *Index) put(m *SegmentMeta) {
	if old := ix.segs[m.Name]; old != nil {
		if old.Sealed && !m.Sealed {
			ix.stale = true // the log's entry for this name is no longer true
		}
		ix.drop(m.Name)
	}
	ix.segs[m.Name] = m
	if m.Sealed {
		ix.sealed++
	}
	ix.records += m.Records
	ix.bytes += m.Size
}

// drop removes the named entry from memory; the caller decides whether
// the log still holds it.
func (ix *Index) drop(name string) {
	m := ix.segs[name]
	if m == nil {
		return
	}
	delete(ix.segs, name)
	if m.Sealed {
		ix.sealed--
	}
	ix.records -= m.Records
	ix.bytes -= m.Size
}

// segmentScan is the reusable scratch of one scanMeta pass.
type segmentScan struct {
	view mrt.UpdateView
	keys []uint64
	vps  map[string]struct{}
}

var scanPool = sync.Pool{New: func() any { return &segmentScan{vps: make(map[string]struct{})} }}

// scanMeta computes a segment's metadata in one read-only pass, without
// allocating per record. observe, when non-nil, is shown every record of
// the same pass.
func scanMeta(path string, observe func(*mrt.UpdateView)) (*SegmentMeta, error) {
	sc := scanPool.Get().(*segmentScan)
	defer scanPool.Put(sc)
	sc.keys = sc.keys[:0]
	clear(sc.vps)
	m := &SegmentMeta{Name: filepath.Base(path)}
	timed := false
	records, sealed, err := archive.ScanUpdates(path, &sc.view, func(v *mrt.UpdateView) error {
		ts := v.Time.Unix()
		if !timed || ts < m.MinTime {
			m.MinTime = ts
		}
		if !timed || ts > m.MaxTime {
			m.MaxTime = ts
		}
		timed = true
		vp := v.VP()
		v.Each(func(p netip.Prefix, _ bool) {
			sc.vps[vp] = struct{}{}
			sc.keys = append(sc.keys, PrefixKey(p))
		})
		if observe != nil {
			observe(v)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Records counts intact frames, including any that are not update
	// records but still occupy the segment.
	m.Records = records
	m.Sealed = sealed
	if fi, err := os.Stat(path); err == nil {
		m.Size = fi.Size()
	}
	m.VPs = make([]string, 0, len(sc.vps))
	for vp := range sc.vps {
		m.VPs = append(m.VPs, vp)
	}
	sort.Strings(m.VPs)
	slices.Sort(sc.keys)
	keys := slices.Compact(sc.keys)
	m.Prefixes = append(make([]uint64, 0, len(keys)), keys...)
	return m, nil
}

// AddSegment scans one segment and appends its metadata to the log — the
// incremental path, run for every segment the journal seals.
func (ix *Index) AddSegment(path string) error {
	_, err := ix.AddSegmentObserved(path, nil)
	return err
}

// AddSegmentObserved is AddSegment for a caller with per-record work of
// its own on a sealed segment (the daemon's archive gap audit): observe
// sees every decoded record of the one pass AddSegment makes, in write
// order, and must copy what it keeps. It reports whether the segment was
// sealed.
func (ix *Index) AddSegmentObserved(path string, observe func(*mrt.UpdateView)) (sealed bool, err error) {
	start := time.Now()
	m, err := scanMeta(path, observe)
	if err != nil {
		return false, err
	}
	ix.mu.Lock()
	ix.put(m)
	err = ix.persistLocked(m)
	ix.publishLocked()
	ix.mu.Unlock()
	if ix.Registry != nil {
		ix.Registry.Histogram("index.add_segment_ns", metrics.ExpBuckets(1000, 4, 14)).
			Observe(uint64(time.Since(start)))
	}
	return m.Sealed, err
}

// syncScanHook, when set, runs before Sync re-scans a segment. Tests
// use it to delete the file between the directory listing and the scan,
// exercising the mid-scan-deletion path without a second goroutine.
var syncScanHook func(path string)

// Sync reconciles the index with the segments on disk: entries for
// deleted segments are dropped, and any segment that is missing, was
// unsealed when last scanned, or whose size changed (crash repair
// truncates in place) is re-scanned. Trusted sealed entries are kept
// as-is, so a clean restart costs one directory listing and writes
// nothing. A segment that vanishes between the listing and its scan
// (retention pruning runs concurrently) is treated as deleted, not as an
// error.
func (ix *Index) Sync() error {
	segs, err := archive.ListSegments(ix.dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	defer ix.publishLocked()
	present := make(map[string]bool, len(segs))
	var added []*SegmentMeta
	for _, path := range segs {
		name := filepath.Base(path)
		present[name] = true
		old := ix.segs[name]
		if old != nil && old.Sealed {
			if fi, err := os.Stat(path); err == nil && fi.Size() == old.Size {
				continue
			}
		}
		if syncScanHook != nil {
			syncScanHook(path)
		}
		m, err := scanMeta(path, nil)
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				delete(present, name)
				continue
			}
			return err
		}
		ix.put(m)
		added = append(added, m)
	}
	for name := range ix.segs {
		if !present[name] {
			ix.drop(name)
			ix.stale = true
		}
	}
	return ix.persistLocked(added...)
}

// Rebuild discards every entry and recomputes the index by scanning all
// segments.
func (ix *Index) Rebuild() error {
	ix.mu.Lock()
	ix.segs = make(map[string]*SegmentMeta)
	ix.sealed, ix.records, ix.bytes = 0, 0, 0
	ix.stale = true
	ix.mu.Unlock()
	return ix.Sync()
}

// persistLocked brings the log up to date after added entered the index:
// normally by appending them, and by rewriting the whole log from memory
// when it is stale.
func (ix *Index) persistLocked(added ...*SegmentMeta) error {
	flags := os.O_CREATE | os.O_WRONLY | os.O_APPEND
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf) // one line per value
	if ix.stale {
		flags = os.O_CREATE | os.O_WRONLY | os.O_TRUNC
		added = make([]*SegmentMeta, 0, len(ix.segs))
		for _, m := range ix.segs {
			added = append(added, m)
		}
		sort.Slice(added, func(i, j int) bool { return added[i].Name < added[j].Name })
		if err := enc.Encode(logHeader{formatVersion}); err != nil {
			return err
		}
	}
	for _, m := range added {
		if !m.Sealed {
			continue
		}
		if err := enc.Encode(m); err != nil {
			return err
		}
	}
	if buf.Len() == 0 {
		return nil
	}
	// Until the write is known whole, the log may end in a torn line.
	ix.stale = true
	f, err := os.OpenFile(filepath.Join(ix.dir, FileName), flags, 0o644)
	if err != nil {
		return fmt.Errorf("index: %w", err)
	}
	if _, err := f.Write(buf.Bytes()); err != nil {
		f.Close()
		return fmt.Errorf("index: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("index: %w", err)
	}
	ix.stale = false
	return nil
}

// Segments returns the indexed metadata in write order.
func (ix *Index) Segments() []SegmentMeta {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	names := make([]string, 0, len(ix.segs))
	for name := range ix.segs {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]SegmentMeta, 0, len(names))
	for _, name := range names {
		out = append(out, *ix.segs[name])
	}
	return out
}

// Stats summarizes the index for /api/index and gill-query -stats.
type Stats struct {
	Segments int    `json:"segments"`
	Sealed   int    `json:"sealed"`
	Records  uint64 `json:"records"`
	MinTime  int64  `json:"min_time"`
	MaxTime  int64  `json:"max_time"`
	VPs      int    `json:"vps"`
	Bytes    int64  `json:"bytes"`
}

// Stats computes the aggregate over the indexed segments.
func (ix *Index) Stats() Stats {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	var s Stats
	vps := make(map[string]bool)
	timed := false
	for _, m := range ix.segs {
		s.Segments++
		if m.Sealed {
			s.Sealed++
		}
		s.Records += m.Records
		s.Bytes += m.Size
		// A zero time range means no timestamped records; it must not
		// bound the others, whatever order the map yields the segments in.
		if m.Records > 0 && (m.MinTime != 0 || m.MaxTime != 0) {
			if !timed || m.MinTime < s.MinTime {
				s.MinTime = m.MinTime
			}
			if !timed || m.MaxTime > s.MaxTime {
				s.MaxTime = m.MaxTime
			}
			timed = true
		}
		for _, vp := range m.VPs {
			vps[vp] = true
		}
	}
	s.VPs = len(vps)
	return s
}

// publishLocked refreshes the index.* gauges from the running totals.
func (ix *Index) publishLocked() {
	if ix.Registry == nil {
		return
	}
	ix.Registry.Gauge("index.segments").Set(int64(len(ix.segs)))
	ix.Registry.Gauge("index.sealed_segments").Set(int64(ix.sealed))
	ix.Registry.Gauge("index.records").Set(int64(ix.records))
	ix.Registry.Gauge("index.bytes").Set(ix.bytes)
}

// Query selects updates from the journal. Zero fields match everything;
// To is exclusive, From inclusive.
type Query struct {
	From, To time.Time
	// Prefix restricts to one exact prefix.
	Prefix netip.Prefix
	// VP restricts to one vantage point.
	VP string
}

func (q Query) matches(ts time.Time, prefix netip.Prefix, vp string) bool {
	if !q.From.IsZero() && ts.Before(q.From) {
		return false
	}
	if !q.To.IsZero() && !ts.Before(q.To) {
		return false
	}
	if q.Prefix.IsValid() && q.Prefix != prefix {
		return false
	}
	if q.VP != "" && q.VP != vp {
		return false
	}
	return true
}

// skippable reports whether meta proves no record of the segment can
// match q. Only trusted (sealed, size-verified by Sync) metadata may
// prove a skip.
func (q Query) skippable(m *SegmentMeta) bool {
	if m == nil || !m.Sealed {
		return false
	}
	if m.Records == 0 {
		return true
	}
	if !q.From.IsZero() && m.MaxTime < q.From.Unix() {
		return true
	}
	if !q.To.IsZero() && m.MinTime >= q.To.Unix() {
		return true
	}
	if q.Prefix.IsValid() && !m.hasPrefix(PrefixKey(q.Prefix)) {
		return true
	}
	if q.VP != "" && !m.hasVP(q.VP) {
		return true
	}
	return false
}
