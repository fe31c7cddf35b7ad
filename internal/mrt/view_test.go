package mrt

import (
	"bytes"
	"net/netip"
	"reflect"
	"testing"

	"repro/internal/bgp"
	"repro/internal/update"
)

// viewUpdates is what a reader of the view gets for one record: every
// prefix Each lists, materialized.
func viewUpdates(v *UpdateView) []*update.Update {
	var out []*update.Update
	v.Each(func(p netip.Prefix, withdraw bool) {
		out = append(out, v.Canonical(p, withdraw))
	})
	return out
}

// checkViewAgrees holds the view to its contract on one payload: it
// accepts exactly the BGP4MP records ReadRecord accepts and yields the
// updates CanonicalUpdates derives from them.
func checkViewAgrees(t *testing.T, v *UpdateView, payload []byte) {
	t.Helper()
	rec, rerr := NewReader(bytes.NewReader(payload)).ReadRecord()
	verr := v.Decode(payload)
	if rerr != nil || rec.BGP4MP == nil {
		if verr == nil {
			t.Fatalf("view accepted a payload the reader does not read as BGP4MP (reader: %v): %x", rerr, payload)
		}
		return
	}
	if verr != nil {
		t.Fatalf("view rejected a record the reader accepts: %v: %x", verr, payload)
	}
	if !v.Time.Equal(rec.Header.Timestamp) || v.Peer.PeerAS != rec.BGP4MP.PeerAS || v.Peer.PeerIP != rec.BGP4MP.PeerIP {
		t.Fatalf("view header %v AS%d %v, reader %v AS%d %v", v.Time, v.Peer.PeerAS, v.Peer.PeerIP, rec.Header.Timestamp, rec.BGP4MP.PeerAS, rec.BGP4MP.PeerIP)
	}
	got, want := viewUpdates(v), rec.CanonicalUpdates()
	if len(got) != len(want) {
		t.Fatalf("view yields %d updates, CanonicalUpdates %d: %x", len(got), len(want), payload)
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.VP != w.VP || !g.Time.Equal(w.Time) || g.Prefix != w.Prefix || g.Withdraw != w.Withdraw ||
			!reflect.DeepEqual(append([]uint32{}, g.Path...), append([]uint32{}, w.Path...)) ||
			!reflect.DeepEqual(append([]uint32{}, g.Comms...), append([]uint32{}, w.Comms...)) {
			t.Fatalf("update %d: view %+v, CanonicalUpdates %+v", i, g, w)
		}
	}
}

func TestUpdateViewAgreesWithReader(t *testing.T) {
	full := sampleBGP4MP()
	msg := full.BGP4MP.Message.(*bgp.Update)
	msg.Withdrawn = []netip.Prefix{netip.MustParsePrefix("198.51.100.0/24")}
	msg.V6NLRI = []netip.Prefix{netip.MustParsePrefix("2001:db8::/32")}
	msg.V6NextHop = netip.MustParseAddr("2001:db8::1")
	msg.V6Withdrawn = []netip.Prefix{netip.MustParsePrefix("2001:db8:1::/48")}

	et := sampleBGP4MP()
	et.Header.Type, et.Header.Microseconds = TypeBGP4MPET, 123456

	v6peer := sampleBGP4MP()
	v6peer.BGP4MP.PeerIP = netip.MustParseAddr("2001:db8::9")
	v6peer.BGP4MP.LocalIP = netip.MustParseAddr("2001:db8::1")

	keepalive := sampleBGP4MP()
	keepalive.BGP4MP.Message = &bgp.Keepalive{}

	var v UpdateView
	for name, rec := range map[string]*Record{"full": full, "et": et, "v6peer": v6peer, "keepalive": keepalive} {
		wire, err := AppendRecord(nil, rec)
		if err != nil {
			t.Fatalf("%s: AppendRecord: %v", name, err)
		}
		checkViewAgrees(t, &v, wire)
		checkViewAgrees(t, &v, append(wire, 0xde, 0xad)) // bytes past the record are not its business
		for cut := 0; cut < len(wire); cut += 7 {
			checkViewAgrees(t, &v, wire[:cut])
		}
	}
	if err := v.Decode(unhex(t, goldenRIBV4)); err == nil {
		t.Fatal("view accepted a TABLE_DUMP_V2 record")
	}
	// The name is interned: one string per peer, however many records.
	wire, _ := AppendRecord(nil, sampleBGP4MP())
	if err := v.Decode(wire); err != nil {
		t.Fatal(err)
	}
	if name := v.VP(); name != "vp65001" || len(v.vps) != 1 {
		t.Fatalf("VP() = %q with %d names interned", name, len(v.vps))
	}
}

// The point of the view: a scan that keeps nothing allocates nothing.
func TestUpdateViewDecodeDoesNotAllocate(t *testing.T) {
	wire, err := AppendRecord(nil, sampleBGP4MP())
	if err != nil {
		t.Fatal(err)
	}
	var v UpdateView
	prefixes := 0
	scan := func() {
		if err := v.Decode(wire); err != nil {
			t.Fatal(err)
		}
		_ = v.VP()
		v.Each(func(netip.Prefix, bool) { prefixes++ })
	}
	scan() // first use interns the VP name and sizes the update's slices
	if allocs := testing.AllocsPerRun(200, scan); allocs != 0 {
		t.Fatalf("decoding a record through a warm view allocates %.1f times, want 0", allocs)
	}
	if prefixes == 0 {
		t.Fatal("Each delivered no prefix")
	}
}
