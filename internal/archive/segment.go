// Package archive is GILL's on-disk update database (§9): a rotating
// journal of crash-safe segment files holding the retained updates as MRT
// records. The daemon recovers it on startup, the index package builds the
// serving plane's skip-index over its sealed segments (/api/query,
// /api/rib), and the vitals gap auditor replays it. The paper publishes
// this data at bgproutes.io together with the computed filters and anchor
// list so users know exactly which bits are missing.
//
// GILL's premise is that the non-redundant updates a VP sends exist
// nowhere else (§4, §7) — losing an archive tail to a crash is exactly the
// loss the platform exists to prevent. So records are length-prefixed and
// CRC-framed, a per-segment trailer is written on rotation, every
// rotated-out segment is fsynced off the append path, and recovery
// truncates a torn tail in place and reports exactly how many records were
// recovered vs. lost.
//
// Segment layout:
//
//	header : 8 bytes magic "GILLSEG1"
//	frame  : u32 length | payload | u32 CRC32-C(payload)
//	trailer: u32 0 | u32 record count | u32 CRC32-C(all payloads, chained)
//
// A zero length marks the trailer, so recovery can tell a sealed segment
// (clean shutdown or prior repair) from one torn by a crash.
package archive

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/mrt"
)

const (
	segmentMagic = "GILLSEG1"
	// MaxSegmentRecord bounds one frame's payload; a length prefix above it
	// is treated as corruption during recovery.
	MaxSegmentRecord = 16 << 20
)

// ErrNotSegment is returned when a file does not start with the segment
// magic — it is some other file, not a torn segment.
var ErrNotSegment = errors.New("archive: not a segment file")

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// SegmentWriter appends CRC-framed records to one segment file.
type SegmentWriter struct {
	f       *os.File
	mu      sync.Mutex
	records uint32
	crc     uint32
	closed  bool
	frame   []byte // reused frame buffer
}

// CreateSegment creates path (truncating any previous content) and writes
// the segment header.
func CreateSegment(path string) (*SegmentWriter, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("archive: %w", err)
	}
	if _, err := f.Write([]byte(segmentMagic)); err != nil {
		f.Close()
		return nil, fmt.Errorf("archive: %w", err)
	}
	return &SegmentWriter{f: f}, nil
}

// Append writes one record frame. The payload is copied to the OS before
// Append returns, but only Sync/Close force it to stable storage.
func (w *SegmentWriter) Append(payload []byte) error {
	if err := checkPayload(payload); err != nil {
		return err
	}
	_, err := w.appendFrames([][]byte{payload})
	return err
}

// checkPayload rejects a record the frame format cannot carry.
func checkPayload(payload []byte) error {
	if len(payload) == 0 {
		return errors.New("archive: empty segment record")
	}
	if len(payload) > MaxSegmentRecord {
		return fmt.Errorf("archive: segment record of %d bytes exceeds max %d", len(payload), MaxSegmentRecord)
	}
	return nil
}

// appendFrames frames every payload (each one passed checkPayload) into
// the reused frame buffer and hands them to the OS in one write(2). It
// returns how many frames the file holds complete: on a short write, the
// ones that fit before it stopped.
func (w *SegmentWriter) appendFrames(payloads [][]byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, errors.New("archive: segment closed")
	}
	frame := w.frame[:0]
	for _, p := range payloads {
		frame = binary.BigEndian.AppendUint32(frame, uint32(len(p)))
		frame = append(frame, p...)
		frame = binary.BigEndian.AppendUint32(frame, crc32.Checksum(p, crcTable))
	}
	w.frame = frame
	wrote, err := w.f.Write(frame)
	n := 0
	for _, p := range payloads {
		if wrote < 8+len(p) {
			break
		}
		wrote -= 8 + len(p)
		w.records++
		w.crc = crc32.Update(w.crc, crcTable, p)
		n++
	}
	if err != nil {
		return n, fmt.Errorf("archive: %w", err)
	}
	return n, nil
}

// Records returns the number of frames appended.
func (w *SegmentWriter) Records() uint32 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.records
}

// Sync forces appended frames to stable storage.
func (w *SegmentWriter) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	return w.f.Sync()
}

// Close seals the segment: trailer, fsync, close. A sealed segment
// recovers as Clean with zero loss.
func (w *SegmentWriter) Close() error {
	f, err := w.seal()
	if f == nil {
		return err
	}
	return syncClose(f)
}

// seal writes the trailer and returns the file, complete but not yet
// forced to stable storage; the caller owes it syncClose. It returns nil
// once the writer is closed.
func (w *SegmentWriter) seal() (*os.File, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil, nil
	}
	w.closed = true
	var tr [12]byte
	binary.BigEndian.PutUint32(tr[4:8], w.records)
	binary.BigEndian.PutUint32(tr[8:12], w.crc)
	if _, err := w.f.Write(tr[:]); err != nil {
		w.f.Close()
		return nil, fmt.Errorf("archive: %w", err)
	}
	return w.f, nil
}

func syncClose(f *os.File) error {
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("archive: %w", err)
	}
	return f.Close()
}

// ScanSegment reads a segment without modifying it, delivering every
// intact record (in order) to fn. It is the read path of the serving
// plane: unlike RecoverSegment it opens the file read-only, never repairs
// it, and treats a torn tail, a corrupt frame, or a missing trailer as
// end-of-data rather than an error — a scanner may race the writer on the
// journal's open segment and must simply stop at the last complete frame.
// It returns the number of records delivered and whether the segment is
// sealed by a valid trailer. An error from fn aborts the scan.
func ScanSegment(path string, fn func(payload []byte) error) (records uint64, sealed bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, false, fmt.Errorf("archive: %w", err)
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<16)

	hdr := make([]byte, len(segmentMagic))
	if _, err := io.ReadFull(br, hdr); err != nil {
		return 0, false, nil // shorter than a header: nothing to read
	}
	if string(hdr) != segmentMagic {
		return 0, false, fmt.Errorf("%w: %s", ErrNotSegment, path)
	}

	var runCRC uint32
	var word [8]byte               // a frame's length; the trailer's count and checksum
	frame := make([]byte, 0, 4096) // a frame's payload and CRC
	for {
		if _, err := io.ReadFull(br, word[:4]); err != nil {
			return records, false, nil // torn between frames
		}
		length := binary.BigEndian.Uint32(word[:4])
		if length == 0 {
			if _, err := io.ReadFull(br, word[:]); err != nil {
				return records, false, nil
			}
			count := binary.BigEndian.Uint32(word[:4])
			sum := binary.BigEndian.Uint32(word[4:])
			return records, count == uint32(records) && sum == runCRC, nil
		}
		if length > MaxSegmentRecord {
			return records, false, nil // corrupt length: stop at the intact prefix
		}
		if cap(frame) < int(length)+4 {
			frame = make([]byte, length+4)
		}
		frame = frame[:length+4]
		if _, err := io.ReadFull(br, frame); err != nil {
			return records, false, nil
		}
		payload := frame[:length]
		if binary.BigEndian.Uint32(frame[length:]) != crc32.Checksum(payload, crcTable) {
			return records, false, nil
		}
		if fn != nil {
			if err := fn(payload); err != nil {
				return records, false, err
			}
		}
		records++
		runCRC = crc32.Update(runCRC, crcTable, payload)
	}
}

// ScanUpdates scans a segment read-only through v, the reusable decoder,
// and calls fn with v positioned on each intact BGP4MP record in write
// order. A CRC-valid frame that fails to decode is skipped (it was
// corrupted before framing, or is not an update record). What fn keeps
// past its return it must copy out of v.
func ScanUpdates(path string, v *mrt.UpdateView, fn func(*mrt.UpdateView) error) (records uint64, sealed bool, err error) {
	return ScanSegment(path, func(payload []byte) error {
		if v.Decode(payload) != nil {
			return nil
		}
		return fn(v)
	})
}

// RecoverStats reports a recovery pass.
type RecoverStats struct {
	// Recovered records were intact and delivered.
	Recovered uint64
	// Lost records were physically present but unrecoverable: a frame with
	// a failed checksum, frames after a corruption point (discarded to keep
	// the recovered stream a strict prefix), or the partial frame a crash
	// left at the tail.
	Lost uint64
	// TruncatedBytes were cut from torn tails.
	TruncatedBytes int64
	// TornSegments counts segments that needed repair.
	TornSegments int
	// Clean reports every segment was already sealed with a valid trailer.
	Clean bool
}

func (s *RecoverStats) add(o RecoverStats) {
	s.Recovered += o.Recovered
	s.Lost += o.Lost
	s.TruncatedBytes += o.TruncatedBytes
	s.TornSegments += o.TornSegments
	s.Clean = s.Clean && o.Clean
}

// RecoverSegment scans one segment, delivers every intact record (in
// order) to fn, and repairs the file in place: a torn tail is truncated at
// the end of the intact prefix and the segment is re-sealed with a valid
// trailer, so recovery is idempotent and a recovered segment reads as
// clean afterwards. fn may be nil to only repair and count. An error from
// fn aborts (the file is left unrepaired).
func RecoverSegment(path string, fn func(payload []byte) error) (RecoverStats, error) {
	var stats RecoverStats
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return stats, fmt.Errorf("archive: %w", err)
	}
	defer f.Close()

	hdr := make([]byte, len(segmentMagic))
	n, err := io.ReadFull(f, hdr)
	if string(hdr[:n]) != segmentMagic[:n] {
		return stats, fmt.Errorf("%w: %s", ErrNotSegment, path)
	}
	if err != nil {
		// A torn header: nothing recoverable; normalize to an empty sealed
		// segment (repairSegment rewrites the magic for good < header).
		return stats, repairSegment(f, 0, 0, 0, &stats, true)
	}

	good := int64(len(segmentMagic)) // end of the intact prefix
	var runCRC uint32
	var lenBuf [4]byte
	payload := make([]byte, 0, 4096)
	for {
		if _, err := io.ReadFull(f, lenBuf[:]); err != nil {
			// EOF exactly at a frame boundary: crash between frames (or
			// between a frame and its trailer). The prefix is intact.
			torn := err == io.ErrUnexpectedEOF
			if torn {
				stats.Lost++ // a partial length prefix is one in-flight record
			}
			return stats, repairSegment(f, good, uint32(stats.Recovered), runCRC, &stats, true)
		}
		length := binary.BigEndian.Uint32(lenBuf[:])
		if length == 0 {
			// Trailer: count + chained CRC.
			var tr [8]byte
			if _, err := io.ReadFull(f, tr[:]); err != nil {
				stats.Lost++ // partial trailer counts as the record-in-flight
				return stats, repairSegment(f, good, uint32(stats.Recovered), runCRC, &stats, true)
			}
			count := binary.BigEndian.Uint32(tr[:4])
			sum := binary.BigEndian.Uint32(tr[4:8])
			if count != uint32(stats.Recovered) || sum != runCRC {
				return stats, repairSegment(f, good, uint32(stats.Recovered), runCRC, &stats, true)
			}
			// Anything after a valid trailer is garbage from a reused file;
			// drop it silently but mark torn if present.
			if pos, _ := f.Seek(0, io.SeekCurrent); pos >= 0 {
				if end, _ := f.Seek(0, io.SeekEnd); end > pos {
					stats.TruncatedBytes += end - pos
					stats.TornSegments++
					if err := f.Truncate(pos); err != nil {
						return stats, fmt.Errorf("archive: %w", err)
					}
					return stats, f.Sync()
				}
			}
			stats.Clean = true
			return stats, nil
		}
		if length > MaxSegmentRecord {
			// Corrupted length: frame structure is gone; everything from
			// here is one unaccountable lost tail.
			stats.Lost++
			return stats, repairSegment(f, good, uint32(stats.Recovered), runCRC, &stats, true)
		}
		if cap(payload) < int(length) {
			payload = make([]byte, length)
		}
		payload = payload[:length]
		if _, err := io.ReadFull(f, payload); err != nil {
			stats.Lost++
			return stats, repairSegment(f, good, uint32(stats.Recovered), runCRC, &stats, true)
		}
		var crcBuf [4]byte
		if _, err := io.ReadFull(f, crcBuf[:]); err != nil {
			stats.Lost++
			return stats, repairSegment(f, good, uint32(stats.Recovered), runCRC, &stats, true)
		}
		if binary.BigEndian.Uint32(crcBuf[:]) != crc32.Checksum(payload, crcTable) {
			// Payload corrupted. The frame structure may still be intact, so
			// count the complete frames that follow as lost (they are
			// discarded to keep the output a strict prefix), then repair.
			stats.Lost++
			stats.Lost += countFrames(f)
			return stats, repairSegment(f, good, uint32(stats.Recovered), runCRC, &stats, true)
		}
		if fn != nil {
			if err := fn(payload); err != nil {
				return stats, err
			}
		}
		stats.Recovered++
		runCRC = crc32.Update(runCRC, crcTable, payload)
		good += int64(4 + len(payload) + 4)
	}
}

// countFrames counts the structurally complete frames from the current
// offset — records that existed but are discarded by the prefix rule.
func countFrames(f *os.File) uint64 {
	var n uint64
	var lenBuf [4]byte
	for {
		if _, err := io.ReadFull(f, lenBuf[:]); err != nil {
			return n
		}
		length := binary.BigEndian.Uint32(lenBuf[:])
		if length == 0 || length > MaxSegmentRecord {
			return n
		}
		if _, err := f.Seek(int64(length)+4, io.SeekCurrent); err != nil {
			return n
		}
		// The seek may run past EOF; verify the CRC bytes were really there.
		if pos, err := f.Seek(0, io.SeekCurrent); err == nil {
			if end, err := f.Seek(0, io.SeekEnd); err == nil {
				if end < pos {
					return n
				}
				if _, err := f.Seek(pos, io.SeekStart); err != nil {
					return n
				}
			}
		}
		n++
	}
}

// repairSegment truncates f to the end of the intact prefix and, when
// seal is set, rewrites header and trailer so the file re-reads as clean.
func repairSegment(f *os.File, good int64, count, crc uint32, stats *RecoverStats, seal bool) error {
	end, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return fmt.Errorf("archive: %w", err)
	}
	if end > good {
		stats.TruncatedBytes += end - good
	}
	stats.TornSegments++
	if err := f.Truncate(good); err != nil {
		return fmt.Errorf("archive: %w", err)
	}
	if good < int64(len(segmentMagic)) {
		// File was shorter than its header; rewrite it whole.
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			return fmt.Errorf("archive: %w", err)
		}
		if _, err := f.Write([]byte(segmentMagic)); err != nil {
			return fmt.Errorf("archive: %w", err)
		}
	} else if _, err := f.Seek(good, io.SeekStart); err != nil {
		return fmt.Errorf("archive: %w", err)
	}
	if seal {
		var tr [12]byte
		binary.BigEndian.PutUint32(tr[4:8], count)
		binary.BigEndian.PutUint32(tr[8:12], crc)
		if _, err := f.Write(tr[:]); err != nil {
			return fmt.Errorf("archive: %w", err)
		}
	}
	return f.Sync()
}

// Journal is the archive's writer: a rotating crash-safe segment store for
// MRT records. Records are framed with CRCs and reach
// the OS before Append or AppendBatch returns, one write(2) per call and
// segment touched — a crash mid-write tears a batch the way it tears a
// record: a torn tail, cut by recovery. A rotation writes the old segment's
// trailer and opens the next segment under the journal lock; the old
// file's fsync and close happen on a background sealer, so an append never
// waits for the disk. What a crash can tear is therefore the open segment
// plus any rotated-out segment whose fsync had not finished — recovery
// bounds the loss in each to the frames the OS had not yet written back —
// and Sync and Close are the barriers that wait until everything rotated
// out so far is durable.
type Journal struct {
	dir    string
	rotate uint32

	// OnSeal, when set before the first Append, is invoked with the path
	// of every segment the journal seals, synchronously on the goroutine
	// of the rotating Append (and of Close), once the trailer is written
	// and the file is complete for readers; on rotation its fsync may still
	// be pending. The callback runs outside the journal lock (appends from
	// other goroutines proceed) but must not call back into the Journal.
	OnSeal func(path string)

	// Registry, when set before the first Append, receives the histograms
	// archive.wal.append_ns (one append call, rotation and OnSeal included),
	// archive.wal.batch_records (records per append call), archive.seal_ns
	// (an append call that rotated, as its caller sees it) and
	// archive.wal.fsync_ns (one background fsync+close), and the counter
	// archive.wal.fsync_errors (background fsync/close failures, counted
	// when they happen; Sync and Close still return the first one).
	Registry *metrics.Registry

	mu        sync.Mutex
	seg       *SegmentWriter
	segPath   string
	seq       int
	buf       []byte // Append's encode buffer
	appendNS  *metrics.Histogram
	batchRecs *metrics.Histogram
	sealNS    *metrics.Histogram
	fsyncNS   *metrics.Histogram
	fsyncErrs *metrics.Counter

	// The background sealer: unsynced holds the rotated-out files still
	// owed an fsync+close, oldest first; one goroutine drains it and exits
	// when it is empty.
	sealMu   sync.Mutex
	synced   sync.Cond // on sealMu; signalled whenever unsynced shrinks
	unsynced []*os.File
	sealing  bool  // a sealer goroutine is running
	sealErr  error // first background fsync/close error, reported by Sync/Close
}

// DefaultJournalRotation is the per-segment record budget.
const DefaultJournalRotation = 4096

// OpenJournal opens (or creates) a journal directory. rotateRecords ≤ 0
// selects DefaultJournalRotation. New segments continue numbering after
// any existing ones; existing segments are left untouched (run
// RecoverJournal first after a crash).
func OpenJournal(dir string, rotateRecords int) (*Journal, error) {
	if rotateRecords <= 0 {
		rotateRecords = DefaultJournalRotation
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("archive: %w", err)
	}
	segs, err := journalSegments(dir)
	if err != nil {
		return nil, err
	}
	seq := 0
	if len(segs) > 0 {
		last := segs[len(segs)-1]
		fmt.Sscanf(filepath.Base(last), "wal-%08d.seg", &seq)
		seq++
	}
	j := &Journal{dir: dir, rotate: uint32(rotateRecords), seq: seq}
	j.synced.L = &j.sealMu
	return j, nil
}

func journalSegments(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("archive: %w", err)
	}
	var out []string
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".seg") {
			out = append(out, filepath.Join(dir, name))
		}
	}
	sort.Strings(out)
	return out, nil
}

// ListSegments returns the journal's segment files in dir, sorted in
// write order (full paths). It is the read-side entry point: scanners and
// the index use it to enumerate what a journal has on disk.
func ListSegments(dir string) ([]string, error) {
	return journalSegments(dir)
}

// Append journals one MRT record: a one-record AppendBatch.
func (j *Journal) Append(rec *mrt.Record) error {
	j.mu.Lock()
	buf, err := mrt.AppendRecord(j.buf[:0], rec)
	if err != nil {
		j.mu.Unlock()
		return err
	}
	j.buf = buf
	_, err = j.appendBatchLocked([][]byte{buf})
	return err
}

// AppendBatch journals encoded MRT records, in order, and returns how many
// it journaled; fewer than len(recs) comes with the error that stopped it.
// Each record is framed into the open segment's reused buffer, and the
// frames bound for one segment reach the OS in a single write(2) before
// AppendBatch returns — a batch that crosses the rotation point is split
// there, and OnSeal runs for every segment it sealed, in order, before
// AppendBatch returns. It is usable directly as a daemon RecordSink or
// pipeline ArchiveStage Sink.
func (j *Journal) AppendBatch(recs [][]byte) (int, error) {
	j.mu.Lock()
	return j.appendBatchLocked(recs)
}

// appendBatchLocked is AppendBatch with j.mu held; it releases j.mu before
// running OnSeal.
func (j *Journal) appendBatchLocked(recs [][]byte) (int, error) {
	var start time.Time
	if j.Registry != nil {
		start = time.Now()
		if j.appendNS == nil {
			buckets := metrics.ExpBuckets(1000, 4, 14) // 1 µs … 67 s
			j.appendNS = j.Registry.Histogram("archive.wal.append_ns", buckets)
			j.batchRecs = j.Registry.Histogram("archive.wal.batch_records", metrics.ExpBuckets(1, 2, 14))
			j.sealNS = j.Registry.Histogram("archive.seal_ns", buckets)
			j.fsyncNS = j.Registry.Histogram("archive.wal.fsync_ns", buckets)
			j.fsyncErrs = j.Registry.Counter("archive.wal.fsync_errors")
		}
	}
	valid := len(recs)
	var err error
	for i, rec := range recs {
		if err = checkPayload(rec); err != nil {
			valid = i
			break
		}
	}
	var sealedBuf [1]string
	sealed := sealedBuf[:0]
	n := 0
	for n < valid {
		if j.seg != nil && j.seg.Records() >= j.rotate {
			path, rerr := j.rotateLocked()
			if path != "" {
				sealed = append(sealed, path)
			}
			if rerr != nil {
				err = rerr
				break
			}
		}
		if j.seg == nil {
			path := filepath.Join(j.dir, fmt.Sprintf("wal-%08d.seg", j.seq))
			seg, cerr := CreateSegment(path)
			if cerr != nil {
				err = cerr
				break
			}
			j.seg, j.segPath = seg, path
			j.seq++
		}
		k := min(valid-n, int(j.rotate-j.seg.Records()))
		wrote, werr := j.seg.appendFrames(recs[n : n+k])
		n += wrote
		if werr != nil {
			err = werr
			break
		}
	}
	appendNS, batchRecs, sealNS := j.appendNS, j.batchRecs, j.sealNS
	j.mu.Unlock()
	if j.OnSeal != nil {
		for _, path := range sealed {
			j.OnSeal(path)
		}
	}
	if appendNS != nil {
		took := uint64(time.Since(start))
		appendNS.Observe(took)
		batchRecs.Observe(uint64(len(recs)))
		if len(sealed) > 0 {
			sealNS.Observe(took)
		}
	}
	return n, err
}

// rotateLocked completes the open segment (trailer) and hands its file to
// the background sealer. It returns the completed segment's path.
func (j *Journal) rotateLocked() (string, error) {
	f, err := j.seg.seal()
	j.seg = nil
	if err != nil {
		return "", err
	}
	j.sealMu.Lock()
	j.unsynced = append(j.unsynced, f)
	if !j.sealing {
		j.sealing = true
		go j.sealLoop(j.fsyncNS, j.fsyncErrs)
	}
	j.sealMu.Unlock()
	return j.segPath, nil
}

// sealLoop makes the rotated-out segments durable, oldest first, and
// exits once none is pending.
func (j *Journal) sealLoop(fsyncNS *metrics.Histogram, fsyncErrs *metrics.Counter) {
	j.sealMu.Lock()
	for len(j.unsynced) > 0 {
		f := j.unsynced[0]
		j.sealMu.Unlock()
		start := time.Now()
		err := syncClose(f)
		if fsyncNS != nil {
			fsyncNS.Observe(uint64(time.Since(start)))
			if err != nil {
				fsyncErrs.Inc()
			}
		}
		j.sealMu.Lock()
		j.unsynced[0] = nil
		j.unsynced = j.unsynced[1:]
		if j.sealErr == nil {
			j.sealErr = err
		}
		j.synced.Broadcast()
	}
	j.sealing = false
	j.sealMu.Unlock()
}

// waitSealed blocks until every segment rotated out so far is durable
// and returns (once) the first error the background sealer met.
func (j *Journal) waitSealed() error {
	j.sealMu.Lock()
	defer j.sealMu.Unlock()
	for len(j.unsynced) > 0 {
		j.synced.Wait()
	}
	err := j.sealErr
	j.sealErr = nil
	return err
}

// Sync is the durability barrier: it returns once every rotated-out
// segment and everything appended to the open one is on stable storage.
func (j *Journal) Sync() error {
	// The open segment first, under the lock: whatever was appended before
	// this call is then either in it or in a file already handed to the
	// sealer.
	j.mu.Lock()
	var err error
	if j.seg != nil {
		err = j.seg.Sync()
	}
	j.mu.Unlock()
	if werr := j.waitSealed(); err == nil {
		err = werr
	}
	return err
}

// Close seals the open segment and returns once it and every segment
// rotated out before it are durable.
func (j *Journal) Close() error {
	j.mu.Lock()
	var sealed string
	var err error
	if j.seg != nil {
		sealed, err = j.rotateLocked()
	}
	j.mu.Unlock()
	if werr := j.waitSealed(); err == nil {
		err = werr
	}
	if sealed != "" && j.OnSeal != nil {
		j.OnSeal(sealed)
	}
	return err
}

// RecoverJournal scans every segment in dir, delivers each intact MRT
// record (in write order) to fn, repairs torn tails in place, and reports
// the aggregate. When reg is non-nil the outcome is published as
// archive.wal.recovered / archive.wal.lost counters and an
// archive.wal.torn_segments gauge, so a restarted daemon's monitoring
// shows exactly what the crash cost. fn may be nil (repair + count only).
func RecoverJournal(dir string, reg *metrics.Registry, fn func(*mrt.Record) error) (RecoverStats, error) {
	stats := RecoverStats{Clean: true}
	segs, err := journalSegments(dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return stats, nil
		}
		return stats, err
	}
	for _, path := range segs {
		segStats, err := RecoverSegment(path, func(payload []byte) error {
			if fn == nil {
				return nil
			}
			rec, rerr := mrt.NewReader(bytes.NewReader(payload)).ReadRecord()
			if rerr != nil {
				// A CRC-valid frame that fails MRT parsing was corrupted
				// before framing; count it lost rather than abort recovery.
				stats.Lost++
				return nil
			}
			return fn(rec)
		})
		stats.add(segStats)
		if err != nil {
			return stats, fmt.Errorf("%s: %w", path, err)
		}
	}
	if reg != nil {
		reg.Counter("archive.wal.recovered").Add(stats.Recovered)
		reg.Counter("archive.wal.lost").Add(stats.Lost)
		reg.Gauge("archive.wal.torn_segments").Set(int64(stats.TornSegments))
	}
	return stats, nil
}
