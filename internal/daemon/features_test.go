package daemon

import (
	"bytes"
	"net/netip"
	"slices"
	"sync"
	"testing"

	"repro/internal/bgp"
	"repro/internal/filter"
	"repro/internal/mrt"
	"repro/internal/update"
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
