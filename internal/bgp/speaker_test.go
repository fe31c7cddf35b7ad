package bgp

import (
	"context"
	"errors"
	"net"
	"net/netip"
	"testing"
	"time"
)

// pairSessions establishes two ends of a BGP session over a real TCP
// loopback connection.
func pairSessions(t *testing.T) (collector, peer *Session) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer ln.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	t.Cleanup(cancel)

	type result struct {
		s   *Session
		err error
	}
	ch := make(chan result, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			ch <- result{nil, err}
			return
		}
		s, err := Establish(ctx, conn, SpeakerConfig{
			LocalAS:  65000,
			RouterID: netip.MustParseAddr("192.0.2.100"),
			HoldTime: 30,
		})
		ch <- result{s, err}
	}()

	peer, err = Dial(ctx, ln.Addr().String(), SpeakerConfig{
		LocalAS:  65001,
		RouterID: netip.MustParseAddr("192.0.2.1"),
		HoldTime: 30,
	})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	res := <-ch
	if res.err != nil {
		t.Fatalf("Establish (passive): %v", res.err)
	}
	t.Cleanup(func() { peer.Close(); res.s.Close() })
	return res.s, peer
}

func TestSessionHandshake(t *testing.T) {
	collector, peer := pairSessions(t)
	if collector.PeerAS != 65001 {
		t.Errorf("collector sees peer AS %d, want 65001", collector.PeerAS)
	}
	if peer.PeerAS != 65000 {
		t.Errorf("peer sees collector AS %d, want 65000", peer.PeerAS)
	}
	if collector.State() != StateEstablished || peer.State() != StateEstablished {
		t.Errorf("states = %v / %v, want Established", collector.State(), peer.State())
	}
}

func TestSessionUpdateDelivery(t *testing.T) {
	collector, peer := pairSessions(t)
	u := &Update{
		Origin:  OriginIGP,
		ASPath:  []uint32{65001, 64999},
		NextHop: netip.MustParseAddr("192.0.2.1"),
		NLRI:    []netip.Prefix{netip.MustParsePrefix("203.0.113.0/24")},
	}
	if err := peer.Send(u); err != nil {
		t.Fatalf("Send: %v", err)
	}
	select {
	case got := <-collector.Updates():
		if len(got.NLRI) != 1 || got.NLRI[0] != u.NLRI[0] {
			t.Errorf("received %+v", got)
		}
		if path := got.Path(); len(path) != 2 || path[0] != 65001 {
			t.Errorf("AS path %v", path)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("update not delivered")
	}
}

func TestSessionBurstDelivery(t *testing.T) {
	collector, peer := pairSessions(t)
	const n = 500
	go func() {
		for i := 0; i < n; i++ {
			u := &Update{
				Origin:  OriginIGP,
				ASPath:  []uint32{65001},
				NextHop: netip.MustParseAddr("192.0.2.1"),
				NLRI:    []netip.Prefix{netip.MustParsePrefix("10.0.0.0/8")},
			}
			if err := peer.Send(u); err != nil {
				return
			}
		}
	}()
	got := 0
	deadline := time.After(10 * time.Second)
	for got < n {
		select {
		case _, ok := <-collector.Updates():
			if !ok {
				t.Fatalf("session closed after %d updates", got)
			}
			got++
		case <-deadline:
			t.Fatalf("timeout after %d/%d updates", got, n)
		}
	}
}

func TestSessionCloseSendsNotification(t *testing.T) {
	collector, peer := pairSessions(t)
	if err := peer.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	select {
	case <-collector.Done():
		n, ok := collector.Err().(*Notification)
		if !ok {
			t.Fatalf("Err = %v, want *Notification", collector.Err())
		}
		if n.Code != NotifCease {
			t.Errorf("notification code = %d, want Cease", n.Code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("collector did not observe close")
	}
}

// TestCloseWithUndrainedUpdates: a session whose Updates nobody reads any
// more still ends on Close. The read loop is parked handing an update to
// the full channel, short of the read that Close's conn.Close would fail;
// Done must close and Err must report it anyway.
func TestCloseWithUndrainedUpdates(t *testing.T) {
	collector, peer := pairSessions(t)
	go func() {
		for i := 0; i < 3000; i++ {
			u := &Update{
				Origin:  OriginIGP,
				ASPath:  []uint32{65001},
				NextHop: netip.MustParseAddr("192.0.2.1"),
				NLRI:    []netip.Prefix{netip.MustParsePrefix("10.0.0.0/8")},
			}
			if err := peer.Send(u); err != nil {
				return
			}
		}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for len(collector.Updates()) < cap(collector.Updates()) {
		if time.Now().After(deadline) {
			t.Fatalf("Updates holds %d of %d after 10 s", len(collector.Updates()), cap(collector.Updates()))
		}
		time.Sleep(time.Millisecond)
	}
	if err := collector.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	select {
	case <-collector.Done():
		if collector.Err() == nil {
			t.Error("Err is nil after Close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Done still open 2 s after Close: the read loop is parked on Updates")
	}
}

// rawServer accepts one TCP connection and runs fn over it.
func rawServer(t *testing.T, fn func(net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		fn(conn)
	}()
	return ln.Addr().String()
}

func TestEstablishRejectsBadVersion(t *testing.T) {
	addr := rawServer(t, func(conn net.Conn) {
		defer conn.Close()
		_, _ = ReadMessage(conn) // swallow our OPEN
		open := NewOpen(65009, 90, netip.MustParseAddr("192.0.2.9"))
		open.VersionNum = 3 // BGP-3
		_ = WriteMessage(conn, open)
		_, _ = ReadMessage(conn) // expect the notification back
	})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := Dial(ctx, addr, SpeakerConfig{
		LocalAS: 65000, RouterID: netip.MustParseAddr("192.0.2.1"),
	}); err == nil {
		t.Fatal("session established with BGP version 3")
	}
}

func TestEstablishRejectsNonOpenFirst(t *testing.T) {
	addr := rawServer(t, func(conn net.Conn) {
		defer conn.Close()
		_, _ = ReadMessage(conn)
		_ = WriteMessage(conn, &Keepalive{}) // keepalive before OPEN
	})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := Dial(ctx, addr, SpeakerConfig{
		LocalAS: 65000, RouterID: netip.MustParseAddr("192.0.2.1"),
	}); err == nil {
		t.Fatal("session established without an OPEN")
	}
}

func TestEstablishNotificationDuringHandshake(t *testing.T) {
	addr := rawServer(t, func(conn net.Conn) {
		defer conn.Close()
		_, _ = ReadMessage(conn)
		_ = WriteMessage(conn, NewOpen(65009, 90, netip.MustParseAddr("192.0.2.9")))
		_, _ = ReadMessage(conn) // our keepalive
		_ = WriteMessage(conn, &Notification{Code: NotifCease})
	})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, err := Dial(ctx, addr, SpeakerConfig{
		LocalAS: 65000, RouterID: netip.MustParseAddr("192.0.2.1"),
	})
	n, ok := err.(*Notification)
	if !ok || n.Code != NotifCease {
		t.Fatalf("err = %v, want Cease notification", err)
	}
}

func TestEstablishHandshakeTimeout(t *testing.T) {
	addr := rawServer(t, func(conn net.Conn) {
		// Accept and stay silent; the dialer's context deadline applies.
		defer conn.Close()
		time.Sleep(3 * time.Second)
	})
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := Dial(ctx, addr, SpeakerConfig{
		LocalAS: 65000, RouterID: netip.MustParseAddr("192.0.2.1"),
	}); err == nil {
		t.Fatal("session established against a silent peer")
	}
	if time.Since(start) > 2*time.Second {
		t.Error("handshake did not respect the context deadline")
	}
}

// passiveEstablish runs Establish on the next connection ln accepts — the
// collector's side — and returns its outcome on a channel.
func passiveEstablish(ctx context.Context, ln net.Listener) <-chan error {
	ch := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			ch <- err
			return
		}
		s, err := Establish(ctx, conn, SpeakerConfig{
			LocalAS:  65000,
			RouterID: netip.MustParseAddr("192.0.2.100"),
			HoldTime: 180,
		})
		if err == nil {
			s.Close()
		}
		ch <- err
	}()
	return ch
}

// TestEstablishHostileOpen drives the collector's handshake with OPENs a
// real peer may send and checks each ends cleanly: an unacceptable hold
// time draws NOTIFICATION (OPEN Message Error, Unacceptable Hold Time),
// everything else establishes — nothing hangs.
func TestEstablishHostileOpen(t *testing.T) {
	cases := []struct {
		name string
		hold uint16
		caps []Capability // appended to NewOpen's
		// wantSubcode is the OPEN error subcode the peer must read; 0
		// means the session establishes.
		wantSubcode uint8
	}{
		{name: "hold-0", hold: 0},
		{name: "hold-1", hold: 1, wantSubcode: 6},
		{name: "hold-2", hold: 2, wantSubcode: 6},
		{name: "hold-3", hold: 3},
		{name: "unknown-cap-and-add-path", hold: 90, caps: []Capability{
			{Code: 69, Value: []byte{0, AFIIPv4, SAFIUnicast, 3}}, // ADD-PATH send+receive
			{Code: 250, Value: []byte{1, 2, 3}},                   // unassigned code
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			done := passiveEstablish(ctx, ln)

			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
			if m, err := ReadMessage(conn); err != nil || m.Type() != TypeOpen {
				t.Fatalf("collector's OPEN: %v, %v", m, err)
			}
			open := NewOpen(65001, tc.hold, netip.MustParseAddr("192.0.2.1"))
			open.Capabilities = append(open.Capabilities, tc.caps...)
			if err := WriteMessage(conn, open); err != nil {
				t.Fatal(err)
			}
			m, err := ReadMessage(conn)
			if err != nil {
				t.Fatalf("reading the collector's answer: %v", err)
			}
			if tc.wantSubcode != 0 {
				n, ok := m.(*Notification)
				if !ok || n.Code != NotifOpenError || n.Subcode != tc.wantSubcode {
					t.Fatalf("answer = %#v, want NOTIFICATION (%d, %d)", m, NotifOpenError, tc.wantSubcode)
				}
				if err := <-done; err == nil {
					t.Fatal("Establish accepted the OPEN")
				}
				return
			}
			if _, ok := m.(*Keepalive); !ok {
				t.Fatalf("answer = %#v, want KEEPALIVE", m)
			}
			if err := WriteMessage(conn, &Keepalive{}); err != nil {
				t.Fatal(err)
			}
			if err := <-done; err != nil {
				t.Fatalf("Establish: %v", err)
			}
		})
	}
}

// TestEstablishCancelUnblocksSilentPeer: a connection that never sends an
// OPEN, under a context with no deadline, must not hold Establish once the
// context is canceled.
func TestEstablishCancelUnblocksSilentPeer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	ctx, cancel := context.WithCancel(context.Background())
	done := passiveEstablish(ctx, ln)
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := ReadMessage(conn); err != nil { // the collector's OPEN
		t.Fatal(err)
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Establish = %v, want context.Canceled", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Establish still blocked 1s after cancel")
	}
}
