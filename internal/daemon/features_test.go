package daemon

import (
	"bytes"
	"net/netip"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/bgp"
	"repro/internal/filter"
	"repro/internal/mrt"
	"repro/internal/update"
	"repro/internal/validity"
)

func sendUpdate(t *testing.T, peer *bgp.Session, path []uint32, pfx string) {
	t.Helper()
	u := &bgp.Update{
		Origin:  bgp.OriginIGP,
		ASPath:  path,
		NextHop: netip.MustParseAddr("192.0.2.9"),
		NLRI:    []netip.Prefix{netip.MustParsePrefix(pfx)},
	}
	if err := peer.Send(u); err != nil {
		t.Fatalf("Send: %v", err)
	}
}

func TestDaemonValidityChecker(t *testing.T) {
	reg := validity.NewRegistry()
	reg.Add(validity.ROA{Prefix: netip.MustParsePrefix("203.0.113.0/24"), ASN: 64999})
	d := New(Config{
		LocalAS: 65000,
		Checker: &validity.Checker{Registry: reg, DropInvalid: true},
	})
	defer d.Close()
	peer := dialPeer(t, d, 65001)

	// Legit: origin 64999 authorized.
	sendUpdate(t, peer, []uint32{65001, 64999}, "203.0.113.0/24")
	// Invalid origin: 666 not authorized for the covered prefix.
	sendUpdate(t, peer, []uint32{65001, 666}, "203.0.113.0/24")
	// Forged first hop: path does not start with the peer's ASN.
	sendUpdate(t, peer, []uint32{64444, 64999}, "198.51.100.0/24")

	waitFor(t, func() bool { return d.Stats().Received >= 3 })
	st := d.Stats()
	if st.Rejected != 2 {
		t.Errorf("rejected %d, want 2 (invalid origin + forged first hop)", st.Rejected)
	}
	// The legit route landed in the RIB; the rejected ones did not.
	d.mu.Lock()
	rib := d.rib["vp65001"]
	_, okLegit := rib[netip.MustParsePrefix("203.0.113.0/24")]
	_, okForged := rib[netip.MustParsePrefix("198.51.100.0/24")]
	d.mu.Unlock()
	if !okLegit || okForged {
		t.Errorf("RIB state wrong: legit=%v forged=%v", okLegit, okForged)
	}
}

func TestDaemonForwardingRules(t *testing.T) {
	// Filters drop everything from the peer; the forwarding rule must
	// still deliver the operator's prefix (§14 custom visibility).
	watched := netip.MustParsePrefix("203.0.113.0/24")
	other := netip.MustParsePrefix("198.51.100.0/24")
	fs := filter.NewSet(filter.GranVPPrefix)
	fs.AddDropVPPrefix("vp65001", watched)
	fs.AddDropVPPrefix("vp65001", other)

	d := New(Config{LocalAS: 65000, Filters: fs})
	defer d.Close()

	var mu sync.Mutex
	var got []*update.Update
	d.AddForward([]netip.Prefix{watched}, func(u *update.Update) {
		mu.Lock()
		got = append(got, u)
		mu.Unlock()
	})
	peer := dialPeer(t, d, 65001)
	sendUpdate(t, peer, []uint32{65001, 2}, watched.String())
	sendUpdate(t, peer, []uint32{65001, 2}, other.String())

	// Filtering happens in the async pipeline; wait for it to drain.
	waitFor(t, func() bool { return d.Stats().Filtered >= 2 })
	st := d.Stats()
	if st.Filtered != 2 {
		t.Errorf("filtered %d, want 2 (both dropped by filters)", st.Filtered)
	}
	if st.Forwarded != 1 {
		t.Errorf("forwarded %d, want 1", st.Forwarded)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 || got[0].Prefix != watched {
		t.Errorf("forwarded updates: %+v", got)
	}
}

func TestDaemonPublishTee(t *testing.T) {
	var mu sync.Mutex
	var published []*update.Update
	fs := filter.NewSet(filter.GranVPPrefix)
	dropped := netip.MustParsePrefix("198.51.100.0/24")
	fs.AddDropVPPrefix("vp65001", dropped)
	d := New(Config{
		LocalAS: 65000,
		Filters: fs,
		Publish: func(u *update.Update) {
			mu.Lock()
			published = append(published, u)
			mu.Unlock()
		},
	})
	defer d.Close()
	peer := dialPeer(t, d, 65001)
	sendUpdate(t, peer, []uint32{65001, 2}, "203.0.113.0/24") // retained
	sendUpdate(t, peer, []uint32{65001, 2}, dropped.String()) // filtered

	// Both updates traverse the async pipeline: one is filtered, the
	// retained one is published then archived.
	waitFor(t, func() bool {
		st := d.Stats()
		return st.Filtered >= 1 && st.Written >= 1
	})
	time.Sleep(10 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	if len(published) != 1 {
		t.Fatalf("published %d, want only the retained update", len(published))
	}
	if published[0].Prefix != netip.MustParsePrefix("203.0.113.0/24") {
		t.Errorf("published %+v", published[0])
	}
}

func TestDaemonRecordSink(t *testing.T) {
	var mu sync.Mutex
	var prefixes []string
	d := New(Config{
		LocalAS: 65000,
		RecordSink: func(batch [][]byte) (int, error) {
			mu.Lock()
			defer mu.Unlock()
			for _, b := range batch {
				rec, err := mrt.NewReader(bytes.NewReader(b)).ReadRecord()
				if err != nil {
					return 0, err
				}
				for _, u := range rec.CanonicalUpdates() {
					prefixes = append(prefixes, u.Prefix.String())
				}
			}
			return len(batch), nil
		},
	})
	defer d.Close()
	peer := dialPeer(t, d, 65001)
	sendUpdate(t, peer, []uint32{65001, 2}, "203.0.113.0/24")
	sendUpdate(t, peer, []uint32{65001, 3}, "198.51.100.0/24")
	waitFor(t, func() bool { return d.Stats().Written >= 2 })
	mu.Lock()
	defer mu.Unlock()
	slices.Sort(prefixes)
	if want := []string{"198.51.100.0/24", "203.0.113.0/24"}; !slices.Equal(prefixes, want) {
		t.Errorf("record sink saw prefixes %v, want %v", prefixes, want)
	}
}
