package bgp

import (
	"bytes"
	"encoding/hex"
	"errors"
	"net/netip"
	"testing"
)

// goldenWire pins the exact wire bytes the codec produced before the
// zero-alloc rewrite; the encoder must stay byte-identical forever, and
// every vector must survive decode→encode→decode through both the eager
// and the lazy path.
var goldenWire = map[string]string{
	"full-v4":       "ffffffffffffffffffffffffffffffff005902000718c63364100a0200354001010040020e02030000fde90000fdea00061a81400304c00002fe8004040000000a40050400000064c00808fde90064fde900c818cb0071080a",
	"v6":            "ffffffffffffffffffffffffffffffff005902000000424001010240020a02020000fc000000fc01800e210002011020010db8000000000000000000000001002020010db83020010db80001800f0a0002013020010db80002",
	"withdraw-only": "ffffffffffffffffffffffffffffffff001b02000418c000020000",
	"empty-path":    "ffffffffffffffffffffffffffffffff002a020000000e400101014002004003040a00000119c0000200",
	"host-routes":   "ffffffffffffffffffffffffffffffff004d020000003040010100400222020800000001000000020000000300000004000000050000000600000007000000084003040a09090920c000020100",
}

// goldenAttrsFullV4 is the AppendAttributes output for the full-v4 update.
const goldenAttrsFullV4 = "4001010040020e02030000fde90000fdea00061a81400304c00002fe8004040000000a40050400000064c00808fde90064fde900c8"

// goldenPath255 is the seed encoding of a 255-ASN path (one maximal
// AS_SEQUENCE segment behind an extended-length attribute). Only the
// leading bytes are pinned literally; the ASN run is generated.
func goldenPath255() []byte {
	head := unhex("ffffffffffffffffffffffffffffffff0428020000040d40010100500203fe02ff")
	for i := uint32(1); i <= 255; i++ {
		head = append(head, byte(i>>24), byte(i>>16), byte(i>>8), byte(i))
	}
	return append(head, unhex("4003040a00000118c00002")...)
}

func unhex(s string) []byte {
	b, err := hex.DecodeString(s)
	if err != nil {
		panic(err)
	}
	return b
}

func mp(s string) netip.Prefix { return netip.MustParsePrefix(s) }

func goldenUpdates() map[string]*Update {
	long := &Update{Origin: OriginIGP, NextHop: netip.MustParseAddr("10.0.0.1"),
		NLRI: []netip.Prefix{mp("192.0.2.0/24")}}
	for i := uint32(1); i <= 255; i++ {
		long.ASPath = append(long.ASPath, i)
	}
	return map[string]*Update{
		"full-v4": {
			Withdrawn:   []netip.Prefix{mp("198.51.100.0/24"), mp("10.2.0.0/16")},
			Origin:      OriginIGP,
			ASPath:      []uint32{65001, 65002, 400001},
			NextHop:     netip.MustParseAddr("192.0.2.254"),
			MED:         10,
			HasMED:      true,
			LocalPref:   100,
			HasLocal:    true,
			Communities: []Community{Community(65001<<16 | 100), Community(65001<<16 | 200)},
			NLRI:        []netip.Prefix{mp("203.0.113.0/24"), mp("10.0.0.0/8")},
		},
		"v6": {
			Origin:      OriginIncomplete,
			ASPath:      []uint32{64512, 64513},
			V6NLRI:      []netip.Prefix{mp("2001:db8::/32"), mp("2001:db8:1::/48")},
			V6NextHop:   netip.MustParseAddr("2001:db8::1"),
			V6Withdrawn: []netip.Prefix{mp("2001:db8:2::/48")},
		},
		"withdraw-only": {Withdrawn: []netip.Prefix{mp("192.0.2.0/24")}},
		"empty-path": {
			Origin:  OriginEGP,
			NextHop: netip.MustParseAddr("10.0.0.1"),
			NLRI:    []netip.Prefix{mp("192.0.2.0/25")},
		},
		"host-routes": {
			Origin:  OriginIGP,
			ASPath:  []uint32{1, 2, 3, 4, 5, 6, 7, 8},
			NextHop: netip.MustParseAddr("10.9.9.9"),
			NLRI:    []netip.Prefix{mp("192.0.2.1/32"), mp("0.0.0.0/0")},
		},
		"path-255": long,
	}
}

func TestGoldenWire(t *testing.T) {
	wires := make(map[string][]byte, len(goldenWire)+1)
	for name, h := range goldenWire {
		wires[name] = unhex(h)
	}
	wires["path-255"] = goldenPath255()

	for name, u := range goldenUpdates() {
		want := wires[name]
		got, err := Marshal(u)
		if err != nil {
			t.Fatalf("%s: Marshal: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: encoder drifted from golden wire\n got %x\nwant %x", name, got, want)
		}

		// Eager decode → encode must reproduce the wire.
		m, err := Unmarshal(want)
		if err != nil {
			t.Fatalf("%s: Unmarshal: %v", name, err)
		}
		re, err := Marshal(m)
		if err != nil {
			t.Fatalf("%s: re-Marshal: %v", name, err)
		}
		if !bytes.Equal(re, want) {
			t.Errorf("%s: eager round trip not byte-identical", name)
		}

		// Lazy decode into a reused Update → encode must also reproduce it,
		// twice in a row to prove Reset leaves no residue.
		var lu Update
		for i := 0; i < 2; i++ {
			if err := UnmarshalUpdate(want, &lu); err != nil {
				t.Fatalf("%s: UnmarshalUpdate: %v", name, err)
			}
			re, err = Marshal(&lu)
			if err != nil {
				t.Fatalf("%s: lazy re-Marshal: %v", name, err)
			}
			if !bytes.Equal(re, want) {
				t.Errorf("%s: lazy round trip %d not byte-identical", name, i)
			}
		}
	}
}

func TestGoldenAttributes(t *testing.T) {
	u := goldenUpdates()["full-v4"]
	got, err := u.AppendAttributes(nil)
	if err != nil {
		t.Fatalf("AppendAttributes: %v", err)
	}
	if want := unhex(goldenAttrsFullV4); !bytes.Equal(got, want) {
		t.Errorf("attribute encoder drifted\n got %x\nwant %x", got, want)
	}
	var back Update
	if err := back.UnmarshalAttributes(got); err != nil {
		t.Fatalf("UnmarshalAttributes: %v", err)
	}
	re, err := back.AppendAttributes(nil)
	if err != nil {
		t.Fatalf("re-AppendAttributes: %v", err)
	}
	if !bytes.Equal(re, got) {
		t.Error("attribute round trip not byte-identical")
	}
}

// TestASPathSegmentSplit pins the fix for the AS_PATH overflow bug: the
// seed encoder wrote the segment count as byte(len(path)), so 256 ASNs
// encoded a count of 0 and 300 a count of 44 — corrupt attributes that
// could not round-trip. Long paths must now split into AS_SEQUENCE
// segments of at most 255 ASNs.
func TestASPathSegmentSplit(t *testing.T) {
	for _, n := range []int{255, 256, 300} {
		u := &Update{Origin: OriginIGP, NextHop: netip.MustParseAddr("10.0.0.1"),
			NLRI: []netip.Prefix{mp("192.0.2.0/24")}}
		for i := 1; i <= n; i++ {
			u.ASPath = append(u.ASPath, uint32(i))
		}
		wire, err := Marshal(u)
		if err != nil {
			t.Fatalf("n=%d: Marshal: %v", n, err)
		}

		// The encoded AS_PATH value must be a sequence of full segments.
		wantSegs := (n + 254) / 255
		if segs := countASPathSegments(t, wire, n); segs != wantSegs {
			t.Errorf("n=%d: %d segments, want %d", n, segs, wantSegs)
		}

		m, err := Unmarshal(wire)
		if err != nil {
			t.Fatalf("n=%d: Unmarshal: %v", n, err)
		}
		got := m.(*Update)
		if len(got.Path()) != n {
			t.Fatalf("n=%d: round trip lost ASNs: got %d", n, len(got.Path()))
		}
		for i, as := range got.Path() {
			if as != uint32(i+1) {
				t.Fatalf("n=%d: path[%d] = %d, want %d", n, i, as, i+1)
			}
		}
		re, err := Marshal(got)
		if err != nil {
			t.Fatalf("n=%d: re-Marshal: %v", n, err)
		}
		if !bytes.Equal(re, wire) {
			t.Errorf("n=%d: round trip not byte-identical", n)
		}
	}
}

// countASPathSegments walks the attributes of wire and returns how many
// AS_PATH segments were emitted, verifying every segment count octet is
// consistent with the total.
func countASPathSegments(t *testing.T, wire []byte, totalASNs int) int {
	t.Helper()
	body := wire[HeaderLen:]
	wdLen := int(body[0])<<8 | int(body[1])
	attrs := body[2+wdLen:]
	attrLen := int(attrs[0])<<8 | int(attrs[1])
	attrs = attrs[2 : 2+attrLen]
	for len(attrs) > 0 {
		flags, code := attrs[0], attrs[1]
		var alen, hdr int
		if flags&flagExtLen != 0 {
			alen, hdr = int(attrs[2])<<8|int(attrs[3]), 4
		} else {
			alen, hdr = int(attrs[2]), 3
		}
		val := attrs[hdr : hdr+alen]
		attrs = attrs[hdr+alen:]
		if code != AttrASPath {
			continue
		}
		segs, seen := 0, 0
		for len(val) > 0 {
			segType, n := val[0], int(val[1])
			if segType != segSequence {
				t.Fatalf("segment type %d", segType)
			}
			if n == 0 || n > 255 {
				t.Fatalf("segment count %d out of range", n)
			}
			segs++
			seen += n
			val = val[2+4*n:]
		}
		if seen != totalASNs {
			t.Fatalf("segments carry %d ASNs, want %d", seen, totalASNs)
		}
		return segs
	}
	t.Fatal("no AS_PATH attribute found")
	return 0
}

// TestMPReachNextHopForms pins the MP_REACH round-trip fix: the 32-byte
// global+link-local next-hop form is decoded and re-encoded explicitly,
// and a next-hop length that leaves no usable IPv6 next hop is rejected
// at decode time instead of producing an update that cannot re-Marshal.
func TestMPReachNextHopForms(t *testing.T) {
	u := &Update{
		Origin:      OriginIGP,
		ASPath:      []uint32{64512},
		V6NLRI:      []netip.Prefix{mp("2001:db8::/32")},
		V6NextHop:   netip.MustParseAddr("2001:db8::1"),
		V6LinkLocal: netip.MustParseAddr("fe80::1"),
	}
	wire, err := Marshal(u)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	m, err := Unmarshal(wire)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	got := m.(*Update)
	if got.V6NextHop != u.V6NextHop {
		t.Errorf("V6NextHop = %v, want %v", got.V6NextHop, u.V6NextHop)
	}
	if got.V6LinkLocal != u.V6LinkLocal {
		t.Errorf("V6LinkLocal = %v, want %v", got.V6LinkLocal, u.V6LinkLocal)
	}
	re, err := Marshal(got)
	if err != nil {
		t.Fatalf("re-Marshal: %v", err)
	}
	if !bytes.Equal(re, wire) {
		t.Error("32-byte next-hop round trip not byte-identical")
	}

	var lu Update
	if err := UnmarshalUpdate(wire, &lu); err != nil {
		t.Fatalf("UnmarshalUpdate: %v", err)
	}
	re, err = Marshal(&lu)
	if err != nil {
		t.Fatalf("lazy re-Marshal: %v", err)
	}
	if !bytes.Equal(re, wire) {
		t.Error("lazy 32-byte next-hop round trip not byte-identical")
	}

	// A 4-byte "next hop" decoded successfully before the fix but the
	// resulting update failed re-Marshal with ErrBadAttribute. It must now
	// be rejected up front.
	bad := mpReachWithNHLen(4)
	if _, err := Unmarshal(bad); !errors.Is(err, ErrBadAttribute) {
		t.Errorf("nhLen=4: Unmarshal err = %v, want ErrBadAttribute", err)
	}
	if err := UnmarshalUpdate(bad, &lu); !errors.Is(err, ErrBadAttribute) {
		t.Errorf("nhLen=4: UnmarshalUpdate err = %v, want ErrBadAttribute", err)
	}
	// Same for a length between the two legal forms.
	if _, err := Unmarshal(mpReachWithNHLen(20)); !errors.Is(err, ErrBadAttribute) {
		t.Errorf("nhLen=20: Unmarshal err = %v, want ErrBadAttribute", err)
	}
}

// mpReachWithNHLen hand-crafts an UPDATE whose MP_REACH_NLRI carries an
// IPv6/unicast family with the given next-hop length and one /32 prefix.
func mpReachWithNHLen(nhLen int) []byte {
	val := []byte{0x00, AFIIPv6, SAFIUnicast, byte(nhLen)}
	val = append(val, make([]byte, nhLen)...) // next hop bytes
	val = append(val, 0)                      // SNPA count
	val = append(val, 0x20, 0x20, 0x01, 0x0d, 0xb8)
	body := []byte{0, 0} // no withdrawn routes
	attr := append([]byte{flagOptional, AttrMPReachNLRI, byte(len(val))}, val...)
	body = append(body, byte(len(attr)>>8), byte(len(attr)))
	body = append(body, attr...)
	msg := append([]byte{}, marker[:]...)
	msg = append(msg, 0, 0, TypeUpdate)
	msg = append(msg, body...)
	msg[16] = byte(len(msg) >> 8)
	msg[17] = byte(len(msg))
	return msg
}

// TestCodecSteadyStateAllocs is the package-level pin of the tentpole:
// decode into a reused Update (including attribute materialization) and
// append-encode into a reused buffer both run allocation-free once warm.
func TestCodecSteadyStateAllocs(t *testing.T) {
	wire := unhex(goldenWire["full-v4"])
	var u Update
	if err := UnmarshalUpdate(wire, &u); err != nil {
		t.Fatalf("warmup decode: %v", err)
	}
	u.Path()
	u.Comms()
	decAllocs := testing.AllocsPerRun(200, func() {
		if err := UnmarshalUpdate(wire, &u); err != nil {
			t.Fatalf("decode: %v", err)
		}
		u.Path()
		u.Comms()
	})
	if decAllocs != 0 {
		t.Errorf("decode into reused Update: %.1f allocs/op, want 0", decAllocs)
	}

	src := goldenUpdates()["full-v4"]
	dst := make([]byte, 0, MaxMessageLen)
	encAllocs := testing.AllocsPerRun(200, func() {
		var err error
		dst, err = AppendMessage(dst[:0], src)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
	})
	if encAllocs != 0 {
		t.Errorf("append-encode into reused buffer: %.1f allocs/op, want 0", encAllocs)
	}
}
