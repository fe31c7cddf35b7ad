package daemon

import (
	"context"
	"errors"
	"net"
	"net/netip"
	"sync"
	"testing"
	"time"

	"repro/internal/bgp"
	"repro/internal/filter"
	"repro/internal/resilience"
	"repro/internal/update"
	"repro/internal/workload"
)

// flakyListener injects transient Accept failures before delegating.
type flakyListener struct {
	net.Listener
	mu       sync.Mutex
	failures int
}

func (l *flakyListener) Accept() (net.Conn, error) {
	l.mu.Lock()
	if l.failures > 0 {
		l.failures--
		l.mu.Unlock()
		return nil, errors.New("transient accept failure")
	}
	l.mu.Unlock()
	return l.Listener.Accept()
}

func TestServeSurvivesTransientAcceptErrors(t *testing.T) {
	d := New(Config{LocalAS: 65000,
		AcceptBackoff: resilience.Backoff{Base: time.Millisecond, Max: 2 * time.Millisecond, Jitter: -1}})
	defer d.Close()

	base, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	ln := &flakyListener{Listener: base, failures: 5}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := make(chan error, 1)
	go func() { served <- d.Serve(ctx, ln) }()

	// Despite five injected Accept failures, the daemon must still reach
	// this session and collect its updates.
	hctx, hcancel := context.WithTimeout(ctx, 10*time.Second)
	defer hcancel()
	sess, err := bgp.Dial(hctx, base.Addr().String(), bgp.SpeakerConfig{
		LocalAS:  65001,
		RouterID: netip.AddrFrom4([4]byte{192, 0, 2, 9}),
		HoldTime: 60,
	})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer sess.Close()
	for _, tu := range workload.Stream(workload.StreamConfig{PeerAS: 65001, Seed: 3, Prefixes: 10}, 20) {
		if err := sess.Send(tu.Update); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	waitFor(t, func() bool { return d.Stats().Received >= 20 })

	cancel()
	if err := <-served; err != nil {
		t.Fatalf("Serve = %v after clean cancel, want nil", err)
	}
}

func TestServeCleanShutdownOnListenerClose(t *testing.T) {
	d := New(Config{LocalAS: 65000})
	defer d.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	served := make(chan error, 1)
	go func() { served <- d.Serve(context.Background(), ln) }()
	// An externally closed listener is a clean shutdown (net.ErrClosed),
	// not an error — and must not race Serve's own close-on-cancel.
	time.Sleep(5 * time.Millisecond)
	ln.Close()
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve = %v after listener close, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after listener close")
	}
}

func TestServeGivesUpOnPersistentAcceptFailure(t *testing.T) {
	d := New(Config{LocalAS: 65000,
		AcceptBackoff: resilience.Backoff{Base: time.Microsecond, Max: time.Microsecond, Jitter: -1}})
	defer d.Close()
	base, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer base.Close()
	ln := &flakyListener{Listener: base, failures: 1 << 30}
	if err := d.Serve(context.Background(), ln); err == nil {
		t.Fatal("Serve = nil with a permanently failing listener, want the accept error")
	}
}

// TestServeReturnsOnCancelWithSilentPeer: a TCP connect that never sends
// an OPEN (a port scan, a wedged router) must not keep Serve from
// returning once its context is canceled.
func TestServeReturnsOnCancelWithSilentPeer(t *testing.T) {
	d := New(Config{LocalAS: 65000})
	defer d.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := make(chan error, 1)
	go func() { served <- d.Serve(ctx, ln) }()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer conn.Close()
	// The daemon's OPEN proves the session handler is inside the handshake.
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := bgp.ReadMessage(conn); err != nil {
		t.Fatalf("reading the daemon's OPEN: %v", err)
	}
	cancel()
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve = %v after cancel, want nil", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Serve still blocked 1s after cancel by a peer that never sent OPEN")
	}
}

// fakeClock is a mutex-guarded manual clock.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func TestDaemonDegradedModeRetainsEverything(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1700000000, 0)}
	fs := filter.NewSet(filter.GranVPPrefix)
	victim := netip.MustParsePrefix("203.0.113.0/24")
	fs.AddDropVPPrefix("vp65001", victim)

	var mu sync.Mutex
	published := 0
	d := New(Config{
		LocalAS:   65000,
		Filters:   fs,
		FilterTTL: time.Minute,
		Clock:     clk.Now,
		Publish: func(*update.Update) {
			mu.Lock()
			published++
			mu.Unlock()
		},
	})
	defer d.Close()

	vp := d.register(65001, netip.AddrFrom4([4]byte{10, 0, 0, 1}), netip.AddrFrom4([4]byte{10, 0, 0, 1}))
	send := func() {
		d.ingest(vp, &bgp.Update{
			ASPath: []uint32{65001, 3356},
			NLRI:   []netip.Prefix{victim},
		})
	}

	// Fresh filters: the update is dropped.
	send()
	waitFor(t, func() bool { return d.Stats().Filtered == 1 })
	if d.Degraded() {
		t.Fatal("degraded with fresh filters")
	}

	// No refresh for past the TTL: the daemon must fall back to
	// retain-everything and surface the gauge.
	clk.Advance(2 * time.Minute)
	send()
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return published == 1
	})
	if !d.Degraded() {
		t.Fatal("not degraded after TTL expiry")
	}
	if g := d.Metrics().Gauges["daemon.degraded"]; g != 1 {
		t.Fatalf("daemon.degraded gauge = %d, want 1", g)
	}

	// A refresh restores filtering and clears the gauge.
	d.SetFilters(fs)
	if d.Degraded() {
		t.Fatal("still degraded after SetFilters")
	}
	send()
	waitFor(t, func() bool { return d.Stats().Filtered == 2 })
	if g := d.Metrics().Gauges["daemon.degraded"]; g != 0 {
		t.Fatalf("daemon.degraded gauge = %d after refresh, want 0", g)
	}
	if c := d.Metrics().Counters["daemon.degrade_events"]; c != 1 {
		t.Fatalf("daemon.degrade_events = %d, want 1", c)
	}
}
