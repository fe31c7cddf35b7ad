package stream

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/live"
	"repro/internal/resilience"
)

func tailBackoff() resilience.Backoff {
	return resilience.Backoff{Base: time.Millisecond, Max: 5 * time.Millisecond, Jitter: 0.2, Seed: 1}
}

// serveOn serves the hub's stream handler on ln.
func serveOn(h *Hub, ln net.Listener) *httptest.Server {
	srv := httptest.NewUnstartedServer(h.StreamHandler())
	srv.Listener.Close()
	srv.Listener = ln
	srv.Start()
	return srv
}

// TestTailReconnectsThroughFlakyListener is the supervised-reconnect
// scenario: a listener (via the faults harness) that drops every 2nd
// connection and occasionally resets established sessions. The client
// must converge — keep re-establishing with jittered backoff and keep
// consuming — and the tee must never see the same update twice.
func TestTailReconnectsThroughFlakyListener(t *testing.T) {
	base, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	inj := faults.New(faults.Config{Seed: 11, DropEveryN: 2, ResetProb: 0.02})
	h := NewHub(Config{Shards: 1})
	defer h.Close()
	srv := serveOn(h, inj.Listener(base))
	defer srv.Close()

	// Publisher: a paced stream of updates until the consumer is done.
	pctx, pcancel := context.WithCancel(context.Background())
	defer pcancel()
	go func() {
		u := upd("vp65001", "203.0.113.0/24", []uint32{65001, 3356}, nil, false)
		tick := time.NewTicker(500 * time.Microsecond)
		defer tick.Stop()
		for pctx.Err() == nil {
			h.Publish(u)
			<-tick.C
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var (
		mu    sync.Mutex
		seqs  []uint64
		flaps int
	)
	err = Tail(ctx, base.Addr().String(), nil, TailConfig{
		Backoff: tailBackoff(),
		OnRetry: func(int, error) {
			mu.Lock()
			flaps++
			mu.Unlock()
		},
	}, func(m *live.Message) error {
		mu.Lock()
		defer mu.Unlock()
		seqs = append(seqs, m.Seq)
		// Converged: survived at least two flaps and kept consuming after.
		if len(seqs) >= 300 && flaps >= 2 {
			cancel()
		}
		return nil
	})
	pcancel()
	if err != nil {
		t.Fatalf("Tail = %v, want nil on ctx end", err)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(seqs) < 300 || flaps < 2 {
		t.Fatalf("did not converge: %d messages, %d flaps", len(seqs), flaps)
	}
	last := uint64(0)
	for _, q := range seqs {
		if q <= last {
			t.Fatalf("seq %d delivered after %d: duplicate or reordered", q, last)
		}
		last = q
	}
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// TestTailSkipsControlLinesAndReconnects pins the client's line handling
// on a scripted transport: each connection opens with hello and keepalive
// lines, delivers three updates and ends either in an evicted notice or a
// bare EOF. The handler must see every update once, in order, and no
// control line; both endings must lead to a reconnect.
func TestTailSkipsControlLinesAndReconnects(t *testing.T) {
	line := func(seq uint64) string {
		return fmt.Sprintf(`{"type":"UPDATE","vp":"vp1","timestamp":1700000000,"prefix":"203.0.113.0/24","seq":%d}`+"\n", seq)
	}
	conns := 0
	hc := &http.Client{Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
		if r.URL.Path != "/stream" || r.URL.Query().Get("vp") != "vp1" {
			t.Errorf("request %s: want /stream with the vp=vp1 term", r.URL)
		}
		conns++
		if conns > 5 {
			return nil, errors.New("feed gone") // end the test via the restart budget
		}
		from := uint64(3*(conns-1) + 1)
		var b strings.Builder
		b.WriteString(`{"type":"hello","filter":"vp=vp1"}` + "\n" + `{"type":"keepalive"}` + "\n")
		b.WriteString(line(from) + `{"type":"keepalive"}` + "\n" + line(from+1) + line(from+2))
		if conns%2 == 1 {
			b.WriteString(`{"type":"evicted","seq":99}` + "\n")
		}
		return &http.Response{StatusCode: http.StatusOK, Body: io.NopCloser(strings.NewReader(b.String()))}, nil
	})}

	var got []uint64
	err := Tail(context.Background(), "fake", url.Values{"vp": {"vp1"}}, TailConfig{
		Backoff:     resilience.Backoff{Base: time.Microsecond, Max: time.Microsecond, Jitter: -1},
		MaxRestarts: 5,
		Client:      hc,
	}, func(m *live.Message) error {
		got = append(got, m.Seq)
		return nil
	})
	if !errors.Is(err, resilience.ErrRestartsExceeded) {
		t.Fatalf("Tail = %v, want ErrRestartsExceeded when the feed dies", err)
	}
	want := uint64(1)
	for _, q := range got {
		if q != want {
			t.Fatalf("delivered seqs %v: duplicate or gap at %d (want %d)", got, q, want)
		}
		want++
	}
	if want != 16 {
		t.Fatalf("delivered %d seqs, want 15", want-1)
	}
}

// TestTailDeliversConcurrentPublishers: the daemon's pipeline shards call
// Publish concurrently, so the hub may enqueue seq N+1 before N. Tail must
// hand over every line it receives whatever order the seqs arrive in:
// delivered == published, each seq exactly once.
func TestTailDeliversConcurrentPublishers(t *testing.T) {
	const publishers, each = 4, 5000
	h := NewHub(Config{Shards: 1, ShardQueue: publishers * each, MaxQueue: publishers * each})
	defer h.Close()
	srv := httptest.NewServer(h.StreamHandler())
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	seen := make(map[uint64]int, publishers*each)
	tailErr := make(chan error, 1)
	go func() {
		q := url.Values{"queue": {fmt.Sprint(publishers * each)}}
		tailErr <- Tail(ctx, srv.Listener.Addr().String(), q, TailConfig{Backoff: tailBackoff()}, func(m *live.Message) error {
			seen[m.Seq]++
			if len(seen) == publishers*each {
				cancel()
			}
			return nil
		})
	}()
	waitFor(t, "tail attached", func() bool { return h.Subscribers() == 1 })

	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			u := upd("vp65001", "203.0.113.0/24", []uint32{65001, 3356}, nil, false)
			for i := 0; i < each; i++ {
				h.Publish(u)
			}
		}()
	}
	wg.Wait()
	if err := <-tailErr; err != nil {
		t.Fatalf("Tail = %v, want nil on ctx end", err)
	}
	if h.EvictedSlow() != 0 {
		t.Fatalf("hub evicted the tail; the queue was sized to hold every update")
	}
	if len(seen) != publishers*each {
		t.Fatalf("delivered %d of %d published updates", len(seen), publishers*each)
	}
	for seq, n := range seen {
		if n != 1 {
			t.Fatalf("seq %d delivered %d times", seq, n)
		}
	}
}

// TestDialRejectsUnterminatedLine: a peer that never sends a newline (the
// wrong port, a proxy) must fail the dial with bounded memory rather than
// be buffered without limit.
func TestDialRejectsUnterminatedLine(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(strings.Repeat("x", 2*maxLine)))
	}))
	defer srv.Close()
	_, err := Dial(context.Background(), nil, srv.Listener.Addr().String(), nil)
	if err == nil || !strings.Contains(err.Error(), "line longer than") {
		t.Fatalf("Dial = %v, want the line-length error", err)
	}
}

// TestTailSurvivesCollectorRestart: a restarted collector is a new hub
// whose sequence starts over at 1. The tail must deliver the new
// process's updates rather than discard them as already seen.
func TestTailSurvivesCollectorRestart(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	addr := ln.Addr().String()
	h1 := NewHub(Config{Shards: 1})
	srv1 := serveOn(h1, ln)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	got := make(chan *live.Message, 16)
	tailErr := make(chan error, 1)
	go func() {
		tailErr <- Tail(ctx, addr, nil, TailConfig{Backoff: tailBackoff()}, func(m *live.Message) error {
			got <- m
			return nil
		})
	}()
	recv := func(n int) []*live.Message {
		t.Helper()
		out := make([]*live.Message, 0, n)
		for len(out) < n {
			select {
			case m := <-got:
				out = append(out, m)
			case <-ctx.Done():
				t.Fatalf("timed out after %d of %d messages", len(out), n)
			}
		}
		return out
	}
	publish := func(h *Hub, from, n int) {
		for i := from; i < from+n; i++ {
			h.Publish(upd("vp65001", fmt.Sprintf("10.%d.0.0/16", i), []uint32{65001}, nil, false))
		}
	}

	waitFor(t, "tail attached to the first hub", func() bool { return h1.Subscribers() == 1 })
	publish(h1, 0, 5)
	all := recv(5)

	// The collector goes away; a new one comes up on the same address.
	h1.Close()
	srv1.CloseClientConnections()
	srv1.Close()
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("re-Listen on %s: %v", addr, err)
	}
	h2 := NewHub(Config{Shards: 1})
	defer h2.Close()
	srv2 := serveOn(h2, ln2)
	defer srv2.Close()

	waitFor(t, "tail attached to the restarted hub", func() bool { return h2.Subscribers() == 1 })
	publish(h2, 5, 3)
	all = append(all, recv(3)...)

	cancel()
	if err := <-tailErr; err != nil {
		t.Fatalf("Tail = %v, want nil on ctx end", err)
	}
	// Eight distinct prefixes in publish order: none lost, none twice.
	for i, m := range all {
		if want := fmt.Sprintf("10.%d.0.0/16", i); m.Prefix != want {
			t.Fatalf("message %d is %s, want %s", i, m.Prefix, want)
		}
	}
	if len(got) != 0 {
		t.Fatalf("%d extra messages delivered", len(got))
	}
}

// TestTailBadFilterIsPermanent: a filter the hub rejects must end the
// tail with the hub's message, not retry forever.
func TestTailBadFilterIsPermanent(t *testing.T) {
	h := NewHub(Config{})
	defer h.Close()
	srv := httptest.NewServer(h.StreamHandler())
	defer srv.Close()

	err := Tail(context.Background(), srv.Listener.Addr().String(), url.Values{"prefix": {"zzz"}},
		TailConfig{Backoff: tailBackoff()}, func(*live.Message) error { return nil })
	if err == nil || !resilience.IsPermanent(err) || !strings.Contains(err.Error(), "zzz") {
		t.Fatalf("Tail = %v, want a permanent error naming the bad prefix", err)
	}
}
