package mrt

import (
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"time"
)

// MaxRecordLen bounds the body length this reader will buffer for a
// single MRT record. Real records are tiny next to this; the cap keeps a
// corrupt or hostile length field from forcing a multi-gigabyte
// allocation.
const MaxRecordLen = 16 << 20

// Writer serializes MRT records to an underlying stream. The encode
// scratch buffer is reused across WriteRecord calls, so a long-lived
// Writer (the archive journal, a dump stream) encodes without per-record
// allocations. Writer is not safe for concurrent use.
type Writer struct {
	w   io.Writer
	buf []byte
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// AppendRecord appends the full wire encoding of r (header + body) to dst
// and returns the extended slice. The body length (and, for *_ET types,
// the microsecond field) is back-patched once the body size is known. On
// error dst is returned unchanged, so batch encoders can keep
// accumulating into one arena.
func AppendRecord(dst []byte, r *Record) ([]byte, error) {
	base := len(dst)
	hdrLen := 12
	et := r.Header.Type == TypeBGP4MPET
	if et {
		hdrLen = 16
	}
	out := dst
	for i := 0; i < hdrLen; i++ {
		out = append(out, 0)
	}
	out, err := r.appendBody(out)
	if err != nil {
		return dst, err
	}
	dst = out
	hdr := dst[base : base+hdrLen]
	binary.BigEndian.PutUint32(hdr[0:4], uint32(r.Header.Timestamp.Unix()))
	binary.BigEndian.PutUint16(hdr[4:6], r.Header.Type)
	binary.BigEndian.PutUint16(hdr[6:8], r.Header.Subtype)
	length := uint32(len(dst) - base - hdrLen)
	if et {
		length += 4
		binary.BigEndian.PutUint32(hdr[12:16], r.Header.Microseconds)
	}
	binary.BigEndian.PutUint32(hdr[8:12], length)
	return dst, nil
}

// WriteRecord writes one MRT record (header + body) in a single Write.
func (w *Writer) WriteRecord(r *Record) error {
	buf, err := AppendRecord(w.buf[:0], r)
	if err != nil {
		return err
	}
	w.buf = buf
	_, err = w.w.Write(buf)
	return err
}

// parseHeader decodes the common 12-byte record header.
func parseHeader(hdr []byte) Header {
	return Header{
		Timestamp: time.Unix(int64(binary.BigEndian.Uint32(hdr[0:4])), 0).UTC(),
		Type:      binary.BigEndian.Uint16(hdr[4:6]),
		Subtype:   binary.BigEndian.Uint16(hdr[6:8]),
		Length:    binary.BigEndian.Uint32(hdr[8:12]),
	}
}

// Reader deserializes MRT records from an underlying stream. The body
// buffer is reused across ReadRecord calls (every parser copies what it
// keeps); Reader is not safe for concurrent use.
type Reader struct {
	r   io.Reader
	buf []byte
}

// NewReader wraps r.
func NewReader(r io.Reader) *Reader { return &Reader{r: r} }

// ReadRecord reads one MRT record, or io.EOF at a clean end of stream.
func (r *Reader) ReadRecord() (*Record, error) {
	var hdr [12]byte
	if _, err := io.ReadFull(r.r, hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return nil, ErrShortRecord
		}
		return nil, err
	}
	rec := &Record{Header: parseHeader(hdr[:])}
	if rec.Header.Length > MaxRecordLen {
		return nil, fmt.Errorf("%w: record length %d exceeds %d", ErrShortRecord, rec.Header.Length, MaxRecordLen)
	}
	if cap(r.buf) < int(rec.Header.Length) {
		r.buf = make([]byte, rec.Header.Length)
	}
	body := r.buf[:rec.Header.Length]
	if _, err := io.ReadFull(r.r, body); err != nil {
		return nil, ErrShortRecord
	}
	if rec.Header.Type == TypeBGP4MPET {
		if len(body) < 4 {
			return nil, ErrShortRecord
		}
		rec.Header.Microseconds = binary.BigEndian.Uint32(body[:4])
		body = body[4:]
	}
	var err error
	switch rec.Header.Type {
	case TypeBGP4MP, TypeBGP4MPET:
		switch rec.Header.Subtype {
		case SubtypeBGP4MPMessage, SubtypeBGP4MPMessageAS4:
			rec.BGP4MP, err = parseBGP4MP(body)
		default:
			return nil, fmt.Errorf("%w: BGP4MP subtype %d", ErrUnknownSubtype, rec.Header.Subtype)
		}
	case TypeTableDumpV2:
		switch rec.Header.Subtype {
		case SubtypePeerIndexTable:
			rec.PeerIndex, err = parsePeerIndexTable(body)
		case SubtypeRIBIPv4Unicast:
			rec.RIB, err = parseRIBEntrySet(body, false)
		case SubtypeRIBIPv6Unicast:
			rec.RIB, err = parseRIBEntrySet(body, true)
		default:
			return nil, fmt.Errorf("%w: TABLE_DUMP_V2 subtype %d", ErrUnknownSubtype, rec.Header.Subtype)
		}
	default:
		return nil, fmt.Errorf("%w: %d", ErrUnknownType, rec.Header.Type)
	}
	if err != nil {
		return nil, err
	}
	return rec, nil
}

// ArchiveWriter writes gzip-compressed MRT archives, the GILL equivalent of
// the paper's bzip2-compressed dumps (stdlib bzip2 is decompress-only; see
// DESIGN.md).
type ArchiveWriter struct {
	*Writer
	gz  *gzip.Writer
	dst io.Closer
}

// NewArchiveWriter layers gzip compression over w. If w is an io.Closer it
// is closed by Close.
func NewArchiveWriter(w io.Writer) *ArchiveWriter {
	gz := gzip.NewWriter(w)
	aw := &ArchiveWriter{Writer: NewWriter(gz), gz: gz}
	if c, ok := w.(io.Closer); ok {
		aw.dst = c
	}
	return aw
}

// Close flushes the compressor and closes the destination if it is a Closer.
func (a *ArchiveWriter) Close() error {
	if err := a.gz.Close(); err != nil {
		return err
	}
	if a.dst != nil {
		return a.dst.Close()
	}
	return nil
}

// NewArchiveReader layers gzip decompression over r.
func NewArchiveReader(r io.Reader) (*Reader, error) {
	gz, err := gzip.NewReader(r)
	if err != nil {
		return nil, err
	}
	return NewReader(gz), nil
}
