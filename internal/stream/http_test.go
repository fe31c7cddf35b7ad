package stream

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/live"
)

func TestStreamHandlerNDJSON(t *testing.T) {
	h := NewHub(Config{Shards: 1})
	defer h.Close()
	srv := httptest.NewServer(h.StreamHandler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/?within=203.0.113.0/24&type=announce&name=curl-test")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson; charset=utf-8" {
		t.Fatalf("Content-Type = %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)

	readLine := func() map[string]any {
		t.Helper()
		lines := make(chan string, 1)
		go func() {
			if sc.Scan() {
				lines <- sc.Text()
			}
			close(lines)
		}()
		select {
		case line, ok := <-lines:
			if !ok {
				t.Fatalf("stream ended early (scan err: %v)", sc.Err())
			}
			var m map[string]any
			if err := json.Unmarshal([]byte(line), &m); err != nil {
				t.Fatalf("bad NDJSON line %q: %v", line, err)
			}
			return m
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out waiting for a stream line")
			return nil
		}
	}

	hello := readLine()
	if hello["type"] != "hello" {
		t.Fatalf("first line = %v, want hello", hello)
	}

	// The handler subscribes asynchronously; wait for attachment before
	// publishing (the hello is written after Subscribe, so it suffices).
	waitFor(t, "subscriber attach", func() bool { return h.Subscribers() == 1 })

	h.Publish(upd("vp65002", "198.51.100.0/24", []uint32{65002, 1}, nil, false)) // filtered out
	h.Publish(upd("vp65001", "203.0.113.0/24", nil, nil, true))                  // withdraw: filtered out
	h.Publish(upd("vp65001", "203.0.113.0/24", []uint32{65001, 64999}, nil, false))

	got := readLine()
	if got["type"] != "UPDATE" || got["prefix"] != "203.0.113.0/24" {
		t.Fatalf("delivered line = %v, want the matching announcement", got)
	}
	var m live.Message
	b, _ := json.Marshal(got)
	if err := json.Unmarshal(b, &m); err != nil || m.Seq != 3 {
		t.Fatalf("delivered message seq = %d (err %v), want 3", m.Seq, err)
	}
}

func TestStreamHandlerBadRequests(t *testing.T) {
	h := NewHub(Config{})
	defer h.Close()
	srv := httptest.NewServer(h.StreamHandler())
	defer srv.Close()

	for _, q := range []string{"?prefix=zzz", "?filter=bogus%3D1", "?queue=-1", "?rate=abc"} {
		resp, err := http.Get(srv.URL + "/" + q)
		if err != nil {
			t.Fatalf("GET %s: %v", q, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET %s: status %d, want 400", q, resp.StatusCode)
		}
	}
}

func TestStreamHandlerEvictionNotice(t *testing.T) {
	h := NewHub(Config{Shards: 1})
	defer h.Close()
	srv := httptest.NewServer(h.StreamHandler())
	defer srv.Close()

	// queue=1 with no reads: the second matching publish evicts.
	resp, err := http.Get(srv.URL + "/?queue=1")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	defer resp.Body.Close()
	waitFor(t, "subscriber attach", func() bool { return h.Subscribers() == 1 })

	// The handler drains its queue into the response; since this client
	// never reads, the socket buffers eventually fill, the handler's write
	// blocks, its queue of 1 overflows, and the hub evicts it. Publish
	// large updates in bursts until that happens.
	longPath := make([]uint32, 256)
	for i := range longPath {
		longPath[i] = 64512 + uint32(i)
	}
	waitFor(t, "eviction", func() bool {
		for i := 0; i < 512; i++ {
			h.Publish(upd("vp65001", "203.0.113.0/24", longPath, nil, false))
		}
		return h.EvictedSlow() == 1
	})

	// The stream must end, with an evicted notice as its final line.
	sc := bufio.NewScanner(resp.Body)
	last := ""
	for sc.Scan() {
		last = sc.Text()
	}
	var m map[string]any
	if err := json.Unmarshal([]byte(last), &m); err != nil || m["type"] != "evicted" {
		t.Fatalf("final line = %q (err %v), want an evicted notice", last, err)
	}
}

// TestStreamHandlerDeadClientReaped: a client that stops reading without
// closing its connection must be detected by the per-write deadline and
// unsubscribed — not left blocking the handler goroutine forever on a
// full socket buffer. The subscriber queue is set to the maximum so the
// hub's slow-subscriber eviction cannot fire first: the only way the
// subscriber count can drop is the handler reaping the dead writer.
func TestStreamHandlerDeadClientReaped(t *testing.T) {
	h := NewHub(Config{
		Shards:       1,
		WriteTimeout: 200 * time.Millisecond,
		Keepalive:    50 * time.Millisecond,
	})
	defer h.Close()
	srv := httptest.NewServer(h.StreamHandler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/?queue=8192")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	defer resp.Body.Close()
	waitFor(t, "subscriber attach", func() bool { return h.Subscribers() == 1 })

	// Read the hello, then go silent with the connection still open — the
	// classic NAT-timeout/power-loss client. Publishing keeps the handler
	// writing until the kernel buffer fills and the write deadline fires.
	buf := make([]byte, 64)
	if _, err := resp.Body.Read(buf); err != nil {
		t.Fatalf("hello read: %v", err)
	}
	longPath := make([]uint32, 4096)
	for i := range longPath {
		longPath[i] = 64512 + uint32(i%1024)
	}
	// One bounded burst — far under the 8192 queue, so eviction stays
	// impossible — is tens of megabytes of NDJSON: more than loopback TCP
	// buffers can absorb, so the handler's write must block and the
	// deadline must fire; the keepalive ticker keeps forcing writes after.
	for i := 0; i < 2000; i++ {
		h.Publish(upd("vp65001", "203.0.113.0/24", longPath, nil, false))
	}
	waitFor(t, "dead client reaped", func() bool {
		return h.Subscribers() == 0
	})
	if h.EvictedSlow() != 0 {
		t.Fatalf("subscriber left via slow-eviction (%d), want write-deadline reap", h.EvictedSlow())
	}
}

// TestStreamHandlerKeepaliveOnlyWhenIdle: a keepalive says "still here" on
// a stream that would otherwise be silent. A stream carrying updates says
// so by itself and gets none; once the updates stop, one follows.
func TestStreamHandlerKeepaliveOnlyWhenIdle(t *testing.T) {
	const every = 150 * time.Millisecond
	h := NewHub(Config{Shards: 1, Keepalive: every})
	defer h.Close()
	srv := httptest.NewServer(h.StreamHandler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	next := func() string {
		t.Helper()
		if !sc.Scan() {
			t.Fatalf("stream ended early: %v", sc.Err())
		}
		var m struct{ Type string }
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		return m.Type
	}
	if got := next(); got != "hello" {
		t.Fatalf("first line is %q, want hello", got)
	}
	waitFor(t, "subscriber attach", func() bool { return h.Subscribers() == 1 })

	// Busy for four keepalive periods: each update is published as soon as
	// the previous one has been read back.
	updates := 0
	for start := time.Now(); time.Since(start) < 4*every; updates++ {
		h.Publish(upd("vp65001", "203.0.113.0/24", []uint32{65001, 64999}, nil, false))
		got := next()
		if got == "keepalive" && updates == 0 {
			got = next() // the stream was idle until this first update
		}
		if got != "UPDATE" {
			t.Fatalf("line %d of a busy stream is %q, want an update", updates, got)
		}
	}
	// Idle: the next line is a keepalive.
	if got := next(); got != "keepalive" {
		t.Fatalf("an idle stream sent %q, want keepalive", got)
	}
}
