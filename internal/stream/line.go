package stream

// The UPDATE line, appended by hand. Publish renders every retained update
// once, on the collection path, so the line is built straight from the
// update with strconv and netip appenders instead of through reflection.
// The bytes are exactly encoding/json's for the live.Message the update
// converts to (field order, omitempty, HTML-safe escaping) plus the NDJSON
// newline; a string that would need escaping falls back to json.Marshal
// for that string alone.

import (
	"encoding/json"
	"strconv"

	"repro/internal/update"
)

// appendEventJSON appends u's NDJSON line, stamped with seq, to dst.
func appendEventJSON(dst []byte, u *update.Update, seq uint64) []byte {
	dst = append(dst, `{"type":"UPDATE","vp":`...)
	dst = appendJSONString(dst, u.VP)
	dst = append(dst, `,"timestamp":`...)
	dst = strconv.AppendInt(dst, u.Time.Unix(), 10)
	dst = append(dst, `,"prefix":"`...)
	if u.Prefix.IsValid() {
		dst = u.Prefix.AppendTo(dst)
	} else {
		dst = append(dst, u.Prefix.String()...)
	}
	dst = append(dst, '"')
	if len(u.Path) > 0 {
		dst = appendUints(append(dst, `,"path":`...), u.Path)
	}
	if len(u.Comms) > 0 {
		dst = appendUints(append(dst, `,"communities":`...), u.Comms)
	}
	if u.Withdraw {
		dst = append(dst, `,"withdraw":true`...)
	}
	if seq != 0 {
		dst = strconv.AppendUint(append(dst, `,"seq":`...), seq, 10)
	}
	if u.TraceID != 0 {
		dst = append(dst, `,"trace_id":"`...)
		for shift := 60; shift >= 0; shift -= 4 {
			dst = append(dst, hexDigits[u.TraceID>>shift&0xf])
		}
		dst = append(dst, '"')
	}
	return append(dst, "}\n"...)
}

const hexDigits = "0123456789abcdef"

func appendUints(dst []byte, xs []uint32) []byte {
	dst = append(dst, '[')
	for i, x := range xs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendUint(dst, uint64(x), 10)
	}
	return append(dst, ']')
}

// appendJSONString appends s as a JSON string. Printable ASCII other than
// the characters encoding/json escapes is copied as is; anything else
// hands the whole string to json.Marshal.
func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, _ := json.Marshal(s) // a string always marshals
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}
