package bgp

import (
	"bytes"
	"errors"
	"math/rand"
	"net/netip"
	"reflect"
	"testing"
	"testing/quick"
)

func mustPrefix(t *testing.T, s string) netip.Prefix {
	t.Helper()
	p, err := netip.ParsePrefix(s)
	if err != nil {
		t.Fatalf("ParsePrefix(%q): %v", s, err)
	}
	return p
}

func TestOpenRoundTrip(t *testing.T) {
	o := NewOpen(65001, 180, netip.MustParseAddr("192.0.2.1"))
	buf, err := Marshal(o)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	m, err := Unmarshal(buf)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	got, ok := m.(*Open)
	if !ok {
		t.Fatalf("got %T, want *Open", m)
	}
	if got.AS != 65001 || got.HoldTime != 180 || got.RouterID != o.RouterID {
		t.Errorf("round trip mismatch: %+v", got)
	}
}

func TestOpenFourOctetASTrans(t *testing.T) {
	// ASNs above 65535 must encode AS_TRANS in the 2-byte field but be
	// recoverable from the capability.
	o := NewOpen(400001, 90, netip.MustParseAddr("10.0.0.1"))
	buf, err := Marshal(o)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	// The 2-byte AS field lives at body offset 1 (header is 19 bytes).
	as2 := uint16(buf[HeaderLen+1])<<8 | uint16(buf[HeaderLen+2])
	if as2 != ASTrans {
		t.Errorf("wire 2-byte AS = %d, want AS_TRANS %d", as2, ASTrans)
	}
	m, err := Unmarshal(buf)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if got := m.(*Open).AS; got != 400001 {
		t.Errorf("recovered AS = %d, want 400001", got)
	}
}

func TestOpenRejectsIPv6RouterID(t *testing.T) {
	o := NewOpen(1, 90, netip.MustParseAddr("2001:db8::1"))
	if _, err := Marshal(o); err == nil {
		t.Fatal("Marshal accepted IPv6 router ID")
	}
}

func TestKeepaliveRoundTrip(t *testing.T) {
	buf, err := Marshal(&Keepalive{})
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	if len(buf) != HeaderLen {
		t.Errorf("KEEPALIVE length %d, want %d", len(buf), HeaderLen)
	}
	if _, err := Unmarshal(buf); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
}

func TestNotificationRoundTrip(t *testing.T) {
	n := &Notification{Code: NotifCease, Subcode: 2, Data: []byte("bye")}
	buf, err := Marshal(n)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	m, err := Unmarshal(buf)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	got := m.(*Notification)
	if got.Code != n.Code || got.Subcode != n.Subcode || !bytes.Equal(got.Data, n.Data) {
		t.Errorf("round trip mismatch: %+v", got)
	}
}

func TestUpdateRoundTrip(t *testing.T) {
	u := &Update{
		Withdrawn:   []netip.Prefix{mustPrefix(t, "198.51.100.0/24")},
		Origin:      OriginIGP,
		ASPath:      []uint32{65001, 65002, 400001},
		NextHop:     netip.MustParseAddr("192.0.2.254"),
		MED:         10,
		HasMED:      true,
		LocalPref:   100,
		HasLocal:    true,
		Communities: []Community{Community(65001<<16 | 100), Community(65001<<16 | 200)},
		NLRI:        []netip.Prefix{mustPrefix(t, "203.0.113.0/24"), mustPrefix(t, "10.0.0.0/8")},
	}
	buf, err := Marshal(u)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	m, err := Unmarshal(buf)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	got := m.(*Update)
	if !reflect.DeepEqual(got, u) {
		t.Errorf("round trip mismatch:\n got  %+v\n want %+v", got, u)
	}
}

func TestUpdateV6RoundTrip(t *testing.T) {
	u := &Update{
		Origin:      OriginIncomplete,
		ASPath:      []uint32{64512, 64513},
		V6NLRI:      []netip.Prefix{mustPrefix(t, "2001:db8::/32"), mustPrefix(t, "2001:db8:1::/48")},
		V6NextHop:   netip.MustParseAddr("2001:db8::1"),
		V6Withdrawn: []netip.Prefix{mustPrefix(t, "2001:db8:2::/48")},
	}
	buf, err := Marshal(u)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	m, err := Unmarshal(buf)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	got := m.(*Update)
	if !reflect.DeepEqual(got.V6NLRI, u.V6NLRI) {
		t.Errorf("V6NLRI mismatch: got %v want %v", got.V6NLRI, u.V6NLRI)
	}
	if got.V6NextHop != u.V6NextHop {
		t.Errorf("V6NextHop = %v, want %v", got.V6NextHop, u.V6NextHop)
	}
	if !reflect.DeepEqual(got.V6Withdrawn, u.V6Withdrawn) {
		t.Errorf("V6Withdrawn mismatch: got %v want %v", got.V6Withdrawn, u.V6Withdrawn)
	}
}

func TestUpdateWithdrawOnly(t *testing.T) {
	u := &Update{Withdrawn: []netip.Prefix{mustPrefix(t, "192.0.2.0/24")}}
	buf, err := Marshal(u)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	m, err := Unmarshal(buf)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	got := m.(*Update)
	if len(got.NLRI) != 0 || len(got.Withdrawn) != 1 {
		t.Errorf("round trip mismatch: %+v", got)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	good, _ := Marshal(&Keepalive{})
	cases := []struct {
		name string
		mut  func([]byte) []byte
		want error
	}{
		{"short", func(b []byte) []byte { return b[:10] }, ErrShortMessage},
		{"marker", func(b []byte) []byte { b[3] = 0; return b }, ErrBadMarker},
		{"length-zero", func(b []byte) []byte { b[16], b[17] = 0, 0; return b }, ErrBadLength},
		{"length-mismatch", func(b []byte) []byte { b[17]++; return b }, ErrBadLength},
		{"unknown-type", func(b []byte) []byte { b[18] = 99; return b }, ErrUnknownType},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			buf := tc.mut(append([]byte(nil), good...))
			if _, err := Unmarshal(buf); !errors.Is(err, tc.want) {
				t.Errorf("Unmarshal err = %v, want %v", err, tc.want)
			}
		})
	}
}

func TestParsePrefixRejectsOversizedLength(t *testing.T) {
	if _, _, err := parsePrefix([]byte{33, 1, 2, 3, 4, 5}, false); !errors.Is(err, ErrBadPrefix) {
		t.Errorf("v4 /33 accepted: %v", err)
	}
	if _, _, err := parsePrefix([]byte{129}, true); !errors.Is(err, ErrBadPrefix) {
		t.Errorf("v6 /129 accepted: %v", err)
	}
}

func TestCommunityString(t *testing.T) {
	c := Community(65001<<16 | 40)
	if got := c.String(); got != "65001:40" {
		t.Errorf("String() = %q", got)
	}
}

// randPrefix builds a valid random IPv4 prefix for property tests.
func randPrefix(r *rand.Rand) netip.Prefix {
	bits := r.Intn(25) + 8
	var a [4]byte
	r.Read(a[:])
	p, _ := netip.AddrFrom4(a).Prefix(bits)
	return p
}

func TestUpdateRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		u := &Update{
			Origin:  uint8(rr.Intn(3)),
			NextHop: netip.AddrFrom4([4]byte{10, 0, byte(rr.Intn(256)), 1}),
		}
		for i := 0; i < 1+rr.Intn(5); i++ {
			u.ASPath = append(u.ASPath, uint32(rr.Intn(1<<20)+1))
		}
		for i := 0; i < 1+rr.Intn(4); i++ {
			u.NLRI = append(u.NLRI, randPrefix(rr))
		}
		for i := 0; i < rr.Intn(4); i++ {
			u.Withdrawn = append(u.Withdrawn, randPrefix(rr))
		}
		for i := 0; i < rr.Intn(5); i++ {
			u.Communities = append(u.Communities, Community(rr.Uint32()))
		}
		buf, err := Marshal(u)
		if err != nil {
			return false
		}
		m, err := Unmarshal(buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(m, u)
	}
	cfg := &quick.Config{MaxCount: 200, Rand: r}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestUnmarshalFuzzResilience(t *testing.T) {
	// The parser must reject, never panic on, arbitrary bodies.
	r := rand.New(rand.NewSource(99))
	for i := 0; i < 2000; i++ {
		n := r.Intn(128)
		buf := make([]byte, HeaderLen+n)
		for j := 0; j < 16; j++ {
			buf[j] = 0xff
		}
		buf[16] = byte(len(buf) >> 8)
		buf[17] = byte(len(buf))
		buf[18] = byte(1 + r.Intn(4))
		r.Read(buf[HeaderLen:])
		_, _ = Unmarshal(buf) // must not panic
	}
}

func TestExtendedLengthAttribute(t *testing.T) {
	// More than 63 ASes forces the AS_PATH over 255 bytes, exercising the
	// extended-length attribute encoding.
	u := &Update{
		Origin:  OriginIGP,
		NextHop: netip.MustParseAddr("192.0.2.1"),
		NLRI:    []netip.Prefix{mustPrefix(t, "192.0.2.0/24")},
	}
	for i := uint32(1); i <= 100; i++ {
		u.ASPath = append(u.ASPath, i)
	}
	buf, err := Marshal(u)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	m, err := Unmarshal(buf)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if got := m.(*Update).ASPath; len(got) != 100 {
		t.Errorf("ASPath length = %d, want 100", len(got))
	}
}
