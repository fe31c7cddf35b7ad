package mrt

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"net/netip"
	"reflect"
	"testing"
	"time"

	"repro/internal/bgp"
)

var ts = time.Date(2023, 9, 1, 12, 0, 0, 0, time.UTC)

func sampleUpdate() *bgp.Update {
	return &bgp.Update{
		Origin:      bgp.OriginIGP,
		ASPath:      []uint32{65001, 65002, 400001},
		NextHop:     netip.MustParseAddr("192.0.2.1"),
		Communities: []bgp.Community{bgp.Community(65001<<16 | 100)},
		NLRI:        []netip.Prefix{netip.MustParsePrefix("203.0.113.0/24")},
	}
}

func sampleBGP4MP() *Record {
	return &Record{
		Header: Header{Timestamp: ts, Type: TypeBGP4MP, Subtype: SubtypeBGP4MPMessageAS4},
		BGP4MP: &BGP4MPMessage{
			PeerAS:  65001,
			LocalAS: 65000,
			PeerIP:  netip.MustParseAddr("192.0.2.1"),
			LocalIP: netip.MustParseAddr("192.0.2.100"),
			Message: sampleUpdate(),
		},
	}
}

func roundTrip(t *testing.T, recs ...*Record) []*Record {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, r := range recs {
		if err := w.WriteRecord(r); err != nil {
			t.Fatalf("WriteRecord: %v", err)
		}
	}
	r := NewReader(&buf)
	var out []*Record
	for {
		rec, err := r.ReadRecord()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("ReadRecord: %v", err)
		}
		out = append(out, rec)
	}
	if len(out) != len(recs) {
		t.Fatalf("round trip count %d, want %d", len(out), len(recs))
	}
	return out
}

func TestBGP4MPRoundTrip(t *testing.T) {
	in := sampleBGP4MP()
	out := roundTrip(t, in)[0]
	if out.Header.Timestamp != ts {
		t.Errorf("timestamp %v, want %v", out.Header.Timestamp, ts)
	}
	if out.BGP4MP.PeerAS != 65001 || out.BGP4MP.LocalAS != 65000 {
		t.Errorf("ASNs %d/%d", out.BGP4MP.PeerAS, out.BGP4MP.LocalAS)
	}
	if out.BGP4MP.PeerIP != netip.MustParseAddr("192.0.2.1") {
		t.Errorf("peer IP %v", out.BGP4MP.PeerIP)
	}
	got, ok := out.BGP4MP.Message.(*bgp.Update)
	if !ok {
		t.Fatalf("message type %T", out.BGP4MP.Message)
	}
	if !reflect.DeepEqual(got, sampleUpdate()) {
		t.Errorf("update mismatch: %+v", got)
	}
}

func TestBGP4MPETMicroseconds(t *testing.T) {
	in := sampleBGP4MP()
	in.Header.Type = TypeBGP4MPET
	in.Header.Microseconds = 123456
	out := roundTrip(t, in)[0]
	if out.Header.Microseconds != 123456 {
		t.Errorf("microseconds = %d, want 123456", out.Header.Microseconds)
	}
}

func TestBGP4MPIPv6Endpoints(t *testing.T) {
	in := sampleBGP4MP()
	in.BGP4MP.PeerIP = netip.MustParseAddr("2001:db8::1")
	in.BGP4MP.LocalIP = netip.MustParseAddr("2001:db8::2")
	out := roundTrip(t, in)[0]
	if out.BGP4MP.PeerIP != in.BGP4MP.PeerIP || out.BGP4MP.LocalIP != in.BGP4MP.LocalIP {
		t.Errorf("v6 endpoints %v/%v", out.BGP4MP.PeerIP, out.BGP4MP.LocalIP)
	}
}

func TestPeerIndexTableRoundTrip(t *testing.T) {
	in := &Record{
		Header: Header{Timestamp: ts, Type: TypeTableDumpV2, Subtype: SubtypePeerIndexTable},
		PeerIndex: &PeerIndexTable{
			CollectorID: netip.MustParseAddr("198.51.100.1"),
			ViewName:    "gill",
			Peers: []Peer{
				{BGPID: netip.MustParseAddr("192.0.2.1"), IP: netip.MustParseAddr("192.0.2.1"), AS: 65001},
				{BGPID: netip.MustParseAddr("192.0.2.2"), IP: netip.MustParseAddr("2001:db8::9"), AS: 400001},
			},
		},
	}
	out := roundTrip(t, in)[0]
	if !reflect.DeepEqual(out.PeerIndex, in.PeerIndex) {
		t.Errorf("peer index mismatch:\n got  %+v\n want %+v", out.PeerIndex, in.PeerIndex)
	}
}

func TestRIBRoundTrip(t *testing.T) {
	attr := bgp.Update{
		Origin:      bgp.OriginIGP,
		ASPath:      []uint32{65001, 65002},
		NextHop:     netip.MustParseAddr("192.0.2.1"),
		Communities: []bgp.Community{42},
	}
	in := &Record{
		Header: Header{Timestamp: ts, Type: TypeTableDumpV2, Subtype: SubtypeRIBIPv4Unicast},
		RIB: &RIBEntrySet{
			Sequence: 7,
			Prefix:   netip.MustParsePrefix("203.0.113.0/24"),
			Entries:  []RIBEntry{{PeerIndex: 3, OriginatedTime: ts.Add(-time.Hour), Attrs: attr}},
		},
	}
	out := roundTrip(t, in)[0]
	if out.RIB.Sequence != 7 || out.RIB.Prefix != in.RIB.Prefix {
		t.Errorf("RIB header mismatch: %+v", out.RIB)
	}
	e := out.RIB.Entries[0]
	if e.PeerIndex != 3 || !e.OriginatedTime.Equal(ts.Add(-time.Hour)) {
		t.Errorf("entry mismatch: %+v", e)
	}
	if !reflect.DeepEqual(e.Attrs.ASPath, attr.ASPath) || e.Attrs.NextHop != attr.NextHop {
		t.Errorf("attrs mismatch: %+v", e.Attrs)
	}
}

func TestRIBIPv6RoundTrip(t *testing.T) {
	in := &Record{
		Header: Header{Timestamp: ts, Type: TypeTableDumpV2, Subtype: SubtypeRIBIPv6Unicast},
		RIB: &RIBEntrySet{
			Prefix:  netip.MustParsePrefix("2001:db8::/32"),
			Entries: []RIBEntry{{PeerIndex: 0, OriginatedTime: ts, Attrs: bgp.Update{ASPath: []uint32{1, 2}}}},
		},
	}
	out := roundTrip(t, in)[0]
	if out.RIB.Prefix != in.RIB.Prefix {
		t.Errorf("v6 prefix %v, want %v", out.RIB.Prefix, in.RIB.Prefix)
	}
}

func TestArchiveRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	aw := NewWriter(zw)
	for i := 0; i < 10; i++ {
		if err := aw.WriteRecord(sampleBGP4MP()); err != nil {
			t.Fatalf("WriteRecord: %v", err)
		}
	}
	if err := zw.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	gz, err := gzip.NewReader(&buf)
	if err != nil {
		t.Fatalf("gzip.NewReader: %v", err)
	}
	ar := NewReader(gz)
	n := 0
	for {
		_, err := ar.ReadRecord()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("ReadRecord: %v", err)
		}
		n++
	}
	if n != 10 {
		t.Errorf("read %d records, want 10", n)
	}
}

func TestReaderErrors(t *testing.T) {
	// Truncated header mid-record.
	r := NewReader(bytes.NewReader([]byte{0, 0, 0}))
	if _, err := r.ReadRecord(); !errors.Is(err, ErrShortRecord) {
		t.Errorf("short header: %v", err)
	}
	// Unknown type.
	var buf bytes.Buffer
	hdr := make([]byte, 12)
	hdr[5] = 99 // type 99
	buf.Write(hdr)
	if _, err := NewReader(&buf).ReadRecord(); !errors.Is(err, ErrUnknownType) {
		t.Errorf("unknown type: %v", err)
	}
	// Body shorter than declared length.
	hdr = make([]byte, 12)
	hdr[5] = TypeBGP4MP
	hdr[7] = SubtypeBGP4MPMessageAS4
	hdr[11] = 50
	buf.Reset()
	buf.Write(hdr)
	buf.Write([]byte{1, 2, 3})
	if _, err := NewReader(&buf).ReadRecord(); !errors.Is(err, ErrShortRecord) {
		t.Errorf("short body: %v", err)
	}
}

func TestCleanEOF(t *testing.T) {
	r := NewReader(bytes.NewReader(nil))
	if _, err := r.ReadRecord(); err != io.EOF {
		t.Errorf("empty stream error = %v, want io.EOF", err)
	}
}

func TestMarshalAttributesRoundTrip(t *testing.T) {
	u := bgp.Update{
		Origin:      bgp.OriginEGP,
		ASPath:      []uint32{1, 2, 3},
		NextHop:     netip.MustParseAddr("10.0.0.1"),
		MED:         5,
		HasMED:      true,
		LocalPref:   200,
		HasLocal:    true,
		Communities: []bgp.Community{7, 8},
	}
	b, err := u.AppendAttributes(nil)
	if err != nil {
		t.Fatalf("AppendAttributes: %v", err)
	}
	var got bgp.Update
	if err := got.UnmarshalAttributes(b); err != nil {
		t.Fatalf("UnmarshalAttributes: %v", err)
	}
	if !reflect.DeepEqual(got, u) {
		t.Errorf("attrs mismatch:\n got  %+v\n want %+v", got, u)
	}
}
