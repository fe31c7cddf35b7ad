package stream

import (
	"encoding/binary"
	"encoding/json"
	"math/rand"
	"net/netip"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/live"
	"repro/internal/update"
)

// marshalLine is the reference encoding: encoding/json over the wire
// schema, plus the NDJSON newline.
func marshalLine(t testing.TB, u *update.Update, seq uint64) string {
	m := live.ToMessage(u)
	m.Seq = seq
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatalf("json.Marshal: %v", err)
	}
	return string(b) + "\n"
}

// lineInput is one random update and seq for the appender property.
type lineInput struct {
	U   *update.Update
	Seq uint64
}

var vpSamples = []string{
	"vp65001", "", "vp<script>&amp;", `quote"back\slash`, "tab\tnew\nline\x00\x1f\x7f",
	"caf\xc3\xa9", "\xff\xfe invalid", "line\u2028sep\u2029", "\xe2\x80", "plain ascii ~!@#$%^*()",
}

// Generate implements quick.Generator.
func (lineInput) Generate(r *rand.Rand, _ int) reflect.Value {
	u := &update.Update{Time: time.Unix(r.Int63n(1<<40)-1<<39, 0)}
	if r.Intn(4) == 0 {
		b := make([]byte, r.Intn(12))
		r.Read(b)
		u.VP = string(b)
	} else {
		u.VP = vpSamples[r.Intn(len(vpSamples))]
	}
	switch r.Intn(5) {
	case 0: // the zero prefix
	case 1:
		var a [16]byte
		r.Read(a[:])
		u.Prefix = netip.PrefixFrom(netip.AddrFrom16(a), r.Intn(129))
	case 2: // IPv4-mapped
		u.Prefix = netip.PrefixFrom(netip.AddrFrom16([16]byte{10: 0xff, 11: 0xff, 12: byte(r.Intn(256)), 15: 1}), 96+r.Intn(33))
	default:
		var a [4]byte
		r.Read(a[:])
		u.Prefix = netip.PrefixFrom(netip.AddrFrom4(a), r.Intn(33))
	}
	uints := func() []uint32 {
		switch r.Intn(3) {
		case 0:
			return nil
		case 1:
			return []uint32{}
		}
		xs := make([]uint32, 1+r.Intn(8))
		for i := range xs {
			xs[i] = r.Uint32() >> r.Intn(32)
		}
		return xs
	}
	u.Path, u.Comms = uints(), uints()
	u.Withdraw = r.Intn(3) == 0
	if r.Intn(2) == 0 {
		u.TraceID = r.Uint64() >> r.Intn(64)
	}
	in := lineInput{U: u}
	if r.Intn(3) > 0 {
		in.Seq = r.Uint64() >> r.Intn(64)
	}
	return reflect.ValueOf(in)
}

// TestAppendEventJSONMatchesMarshal: the hand-written appender produces
// exactly encoding/json's bytes for the live.Message — escaped, control,
// invalid-UTF-8 and line-separator VP names, v4, v6 and mapped prefixes,
// empty or absent path and communities, withdrawals, seq and trace ID
// zero and non-zero.
func TestAppendEventJSONMatchesMarshal(t *testing.T) {
	check := func(in lineInput) bool {
		got := string(appendEventJSON(nil, in.U, in.Seq))
		if want := marshalLine(t, in.U, in.Seq); got != want {
			t.Errorf("appender:\n got %q\nwant %q", got, want)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20000}); err != nil {
		t.Error(err)
	}
}

// goldenSeeds are TestHubWireGolden's lines, the fuzzer's starting points.
var goldenSeeds = []string{
	`{"type":"UPDATE","vp":"vp65001","timestamp":1693526400,"prefix":"203.0.113.0/24","path":[65001,6939,64999],"communities":[4259905636,7],"seq":1,"trace_id":"0000000000abcdef"}`,
	`{"type":"UPDATE","vp":"vp65002","timestamp":1693526400,"prefix":"198.51.100.0/24","withdraw":true,"seq":2}`,
	`{"type":"UPDATE","vp":"vp65001","timestamp":1693526400,"prefix":"2001:db8:1::/48","path":[65001,64999],"seq":3}`,
}

func packUints(xs []uint32) []byte {
	b := make([]byte, 0, 4*len(xs))
	for _, x := range xs {
		b = binary.BigEndian.AppendUint32(b, x)
	}
	return b
}

func unpackUints(b []byte) []uint32 {
	var xs []uint32
	for ; len(b) >= 4; b = b[4:] {
		xs = append(xs, binary.BigEndian.Uint32(b))
	}
	return xs
}

// FuzzAppendEventJSON holds the appender to encoding/json on arbitrary
// updates, starting from the golden wire lines.
func FuzzAppendEventJSON(f *testing.F) {
	for _, line := range goldenSeeds {
		var m live.Message
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			f.Fatal(err)
		}
		u, err := m.ToUpdate()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(u.VP, u.Time.Unix(), u.Prefix.Addr().AsSlice(), u.Prefix.Bits(),
			packUints(u.Path), packUints(u.Comms), u.Withdraw, m.Seq, u.TraceID)
	}
	f.Fuzz(func(t *testing.T, vp string, ts int64, addr []byte, bits int, path, comms []byte, withdraw bool, seq, trace uint64) {
		u := &update.Update{
			VP: vp, Time: time.Unix(ts, 0), Path: unpackUints(path), Comms: unpackUints(comms),
			Withdraw: withdraw, TraceID: trace,
		}
		if a, ok := netip.AddrFromSlice(addr); ok {
			u.Prefix = netip.PrefixFrom(a, bits)
		}
		if got, want := string(appendEventJSON(nil, u, seq)), marshalLine(t, u, seq); got != want {
			t.Fatalf("appender:\n got %q\nwant %q", got, want)
		}
	})
}
