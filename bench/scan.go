package main

import (
	"bytes"

	"repro/bench/gen"
)

// line is what the harness needs from one /stream NDJSON line.
type line struct {
	vp       int
	prefix   int   // index into gen's universe
	ts       int64 // the daemon's timestamp, unix seconds
	withdraw bool
	tag      uint32 // announcements only
}

var (
	keyUpdate = []byte(`{"type":"UPDATE","vp":"vp`)
	keyTS     = []byte(`"timestamp":`)
	keyPrefix = []byte(`"prefix":"32.`)
	keyComms  = []byte(`"communities":[`)
	keyWD     = []byte(`"withdraw":true`)
)

// scanLine hand-scans one live.Message line, relying on its fixed key
// order; json.Unmarshal here would make the reader the bottleneck. ok is
// false for hello/keepalive/evicted lines and anything malformed.
func scanLine(b []byte) (l line, ok bool) {
	if !bytes.HasPrefix(b, keyUpdate) {
		return l, false
	}
	b = b[len(keyUpdate):]
	as, b := digits(b)
	l.vp = as - gen.FirstAS
	i := bytes.Index(b, keyTS)
	if i < 0 {
		return l, false
	}
	ts, b := digits(b[i+len(keyTS):])
	l.ts = int64(ts)
	if i = bytes.Index(b, keyPrefix); i < 0 {
		return l, false
	}
	b1, b := digits(b[i+len(keyPrefix):])
	if len(b) == 0 || b[0] != '.' {
		return l, false
	}
	b2, b := digits(b[1:])
	l.prefix = gen.PrefixIndex(byte(b1), byte(b2))
	if i = bytes.Index(b, keyComms); i < 0 {
		l.withdraw = bytes.Contains(b, keyWD)
		return l, l.withdraw
	}
	// The tag is the last community.
	b = b[i+len(keyComms):]
	end := bytes.IndexByte(b, ']')
	if end < 0 {
		return l, false
	}
	b = b[:end]
	if c := bytes.LastIndexByte(b, ','); c >= 0 {
		b = b[c+1:]
	}
	tag, rest := digits(b)
	l.tag = uint32(tag)
	return l, len(rest) == 0 && len(b) > 0
}

// digits parses a leading run of decimal digits.
func digits(b []byte) (n int, rest []byte) {
	i := 0
	for ; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
		n = n*10 + int(b[i]-'0')
	}
	return n, b[i:]
}
