package stream

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// recvAll drains n events from sub (with a timeout), returning them in
// delivery order.
func recvAll(t *testing.T, sub *Subscriber, n int) []*Event {
	t.Helper()
	out := make([]*Event, 0, n)
	for len(out) < n {
		select {
		case ev, ok := <-sub.C():
			if !ok {
				t.Fatalf("stream closed after %d of %d events", len(out), n)
			}
			out = append(out, ev)
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out after %d of %d events", len(out), n)
		}
	}
	return out
}

func TestHubFilteredFanout(t *testing.T) {
	reg := metrics.NewRegistry()
	h := NewHub(Config{Registry: reg})
	defer h.Close()

	all := h.Subscribe(SubOptions{Name: "all"})
	v4only, err := ParseFilter("within=203.0.113.0/24")
	if err != nil {
		t.Fatal(err)
	}
	filtered := h.Subscribe(SubOptions{Filter: v4only, Name: "v4"})
	wd, err := ParseFilter("type=withdraw")
	if err != nil {
		t.Fatal(err)
	}
	withdraws := h.Subscribe(SubOptions{Filter: wd, Name: "wd"})

	h.Publish(upd("vp65001", "203.0.113.0/24", []uint32{65001, 64999}, nil, false))
	h.Publish(upd("vp65002", "198.51.100.0/24", []uint32{65002, 1}, nil, false))
	h.Publish(upd("vp65001", "203.0.113.0/24", nil, nil, true))

	got := recvAll(t, all, 3)
	for i, ev := range got {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d: seq %d", i, ev.Seq)
		}
		if !bytes.HasSuffix(ev.JSON, []byte("\n")) {
			t.Fatalf("event %d: JSON not newline-terminated", i)
		}
		var m Message
		if err := json.Unmarshal(ev.JSON, &m); err != nil {
			t.Fatalf("event %d: bad JSON: %v", i, err)
		}
		if m.Prefix != ev.U.Prefix.String() || m.Seq != ev.Seq {
			t.Fatalf("event %d: JSON diverges from update", i)
		}
	}

	fgot := recvAll(t, filtered, 2)
	if fgot[0].Seq != 1 || fgot[1].Seq != 3 {
		t.Fatalf("filtered subscriber got seqs %d, %d; want 1, 3", fgot[0].Seq, fgot[1].Seq)
	}
	wgot := recvAll(t, withdraws, 1)
	if wgot[0].Seq != 3 || !wgot[0].U.Withdraw {
		t.Fatalf("withdraw subscriber got seq %d", wgot[0].Seq)
	}

	// Encode-once: all subscribers observed the same Event object.
	if got[0] != fgot[0] {
		t.Fatalf("subscribers received distinct Event allocations for one publish")
	}

	if h.Published() != 3 {
		t.Fatalf("Published = %d, want 3", h.Published())
	}
	if n := h.Subscribers(); n != 3 {
		t.Fatalf("Subscribers = %d, want 3", n)
	}
	all.Close()
	all.Close() // idempotent
	if n := h.Subscribers(); n != 2 {
		t.Fatalf("Subscribers after Close = %d, want 2", n)
	}
}

func TestSlowSubscriberEvicted(t *testing.T) {
	reg := metrics.NewRegistry()
	h := NewHub(Config{Shards: 1, Registry: reg})
	defer h.Close()

	slow := h.Subscribe(SubOptions{Queue: 2, Name: "slow"}) // never reads
	fast := h.Subscribe(SubOptions{Queue: 64, Name: "fast"})

	const n = 32
	for i := 0; i < n; i++ {
		h.Publish(upd("vp65001", fmt.Sprintf("10.%d.0.0/16", i), []uint32{65001, 64999}, nil, false))
	}

	// The fast subscriber sees everything despite sharing a shard with the
	// stalled one.
	got := recvAll(t, fast, n)
	for i, ev := range got {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("fast subscriber: event %d has seq %d", i, ev.Seq)
		}
	}

	waitFor(t, "slow subscriber eviction", func() bool { return h.EvictedSlow() == 1 })
	select {
	case <-slow.Evicted():
	default:
		t.Fatalf("Evicted channel not closed")
	}
	// The queue still holds the events delivered before eviction, then the
	// channel closes.
	drained := 0
	for range slow.C() {
		drained++
	}
	if drained != 2 {
		t.Fatalf("slow subscriber drained %d events, want its queue depth of 2", drained)
	}
	if n := h.Subscribers(); n != 1 {
		t.Fatalf("Subscribers after eviction = %d, want 1", n)
	}
	if v := reg.Counter("stream.evicted_slow").Load(); v != 1 {
		t.Fatalf("stream.evicted_slow = %d, want 1", v)
	}
	// A voluntary close is not an eviction.
	fast.Close()
	select {
	case <-fast.Evicted():
		t.Fatalf("voluntary Close closed the Evicted channel")
	default:
	}
}

func TestPublishNeverBlocks(t *testing.T) {
	h := NewHub(Config{Shards: 2, ShardQueue: 8})
	defer h.Close()
	// Stalled subscribers with tiny queues on every shard.
	for i := 0; i < 4; i++ {
		h.Subscribe(SubOptions{Queue: 1, Name: fmt.Sprintf("stall%d", i)})
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50000; i++ {
			h.Publish(upd("vp65001", "203.0.113.0/24", []uint32{65001, 64999}, nil, false))
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("Publish blocked on stalled subscribers")
	}
	waitFor(t, "stalled subscribers evicted", func() bool { return h.Subscribers() == 0 })
	if h.EvictedSlow() != 4 {
		t.Fatalf("EvictedSlow = %d, want 4", h.EvictedSlow())
	}
}

func TestRateLimit(t *testing.T) {
	var mu sync.Mutex
	now := time.Unix(1693526400, 0)
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	advance := func(d time.Duration) {
		mu.Lock()
		now = now.Add(d)
		mu.Unlock()
	}

	reg := metrics.NewRegistry()
	h := NewHub(Config{Shards: 1, Registry: reg, Clock: clock})
	defer h.Close()

	sub := h.Subscribe(SubOptions{Rate: 1, Burst: 2, Queue: 64, Name: "limited"})

	// Five publishes at one instant: the bucket holds 2.
	for i := 0; i < 5; i++ {
		h.Publish(upd("vp65001", "203.0.113.0/24", []uint32{65001, 64999}, nil, false))
	}
	waitFor(t, "rate-limit drops", func() bool { return h.DroppedRateLimited() == 3 })
	got := recvAll(t, sub, 2)
	if got[0].Seq != 1 || got[1].Seq != 2 {
		t.Fatalf("rate-limited subscriber got seqs %d, %d; want 1, 2", got[0].Seq, got[1].Seq)
	}

	// Three seconds later the bucket has refilled to its burst cap of 2,
	// not 3.
	advance(3 * time.Second)
	for i := 0; i < 3; i++ {
		h.Publish(upd("vp65001", "203.0.113.0/24", []uint32{65001, 64999}, nil, false))
	}
	waitFor(t, "second round drops", func() bool { return h.DroppedRateLimited() == 4 })
	got = recvAll(t, sub, 2)
	if got[0].Seq != 6 || got[1].Seq != 7 {
		t.Fatalf("after refill got seqs %d, %d; want 6, 7", got[0].Seq, got[1].Seq)
	}
	if v := reg.Counter("stream.dropped_rate_limited").Load(); v != 4 {
		t.Fatalf("stream.dropped_rate_limited = %d, want 4", v)
	}
	// Rate limiting never evicts.
	if h.EvictedSlow() != 0 {
		t.Fatalf("rate limiting caused an eviction")
	}
}

func TestHubClose(t *testing.T) {
	h := NewHub(Config{})
	subs := make([]*Subscriber, 8)
	for i := range subs {
		subs[i] = h.Subscribe(SubOptions{Name: fmt.Sprintf("s%d", i)})
	}
	h.Publish(upd("vp65001", "203.0.113.0/24", []uint32{65001}, nil, false))
	h.Close()
	h.Close() // idempotent
	for i, sub := range subs {
		// Channel must end (possibly after the delivered event).
		for {
			ev, ok := <-sub.C()
			if !ok {
				break
			}
			if ev.Seq != 1 {
				t.Fatalf("sub %d: unexpected seq %d", i, ev.Seq)
			}
		}
	}
	if n := h.Subscribers(); n != 0 {
		t.Fatalf("Subscribers after Close = %d, want 0", n)
	}
	// Publishing and subscribing on a closed hub are calm no-ops.
	h.Publish(upd("vp65001", "203.0.113.0/24", []uint32{65001}, nil, false))
	if h.Published() != 1 {
		t.Fatalf("publish after Close counted")
	}
	late := h.Subscribe(SubOptions{Name: "late"})
	if _, ok := <-late.C(); ok {
		t.Fatalf("subscription on closed hub delivered an event")
	}
}

// TestHubWireGolden pins the exact bytes of an UPDATE line. Stream
// consumers — bench/scan.go among them — scan these bytes by hand, so a
// reordered Message field or a changed omitempty is a wire break
// that must fail here, not at benchmark time.
func TestHubWireGolden(t *testing.T) {
	h := NewHub(Config{Shards: 1})
	defer h.Close()
	sub := h.Subscribe(SubOptions{})

	announce := upd("vp65001", "203.0.113.0/24", []uint32{65001, 6939, 64999}, []uint32{65001<<16 | 100, 7}, false)
	announce.TraceID = 0xabcdef
	h.Publish(announce)
	h.Publish(upd("vp65002", "198.51.100.0/24", nil, nil, true))
	h.Publish(upd("vp65001", "2001:db8:1::/48", []uint32{65001, 64999}, nil, false))

	want := []string{
		`{"type":"UPDATE","vp":"vp65001","timestamp":1693526400,"prefix":"203.0.113.0/24","path":[65001,6939,64999],"communities":[4259905636,7],"seq":1,"trace_id":"0000000000abcdef"}` + "\n",
		`{"type":"UPDATE","vp":"vp65002","timestamp":1693526400,"prefix":"198.51.100.0/24","withdraw":true,"seq":2}` + "\n",
		`{"type":"UPDATE","vp":"vp65001","timestamp":1693526400,"prefix":"2001:db8:1::/48","path":[65001,64999],"seq":3}` + "\n",
	}
	for i, ev := range recvAll(t, sub, len(want)) {
		if string(ev.JSON) != want[i] {
			t.Errorf("line %d:\n got %s want %s", i, ev.JSON, want[i])
		}
	}
}

// TestConcurrentPublishersSeqIsAnID pins what Seq means: with concurrent
// publishers — the daemon's shard workers — every event reaches a
// subscriber exactly once under a seq no other event has, but not in seq
// order.
func TestConcurrentPublishersSeqIsAnID(t *testing.T) {
	const publishers, each = 4, 5000
	h := NewHub(Config{ShardQueue: publishers * each, MaxQueue: publishers * each})
	defer h.Close()
	sub := h.Subscribe(SubOptions{Queue: publishers * each})
	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				h.Publish(upd("vp65001", "203.0.113.0/24", []uint32{65001}, nil, false))
			}
		}()
	}
	got := recvAll(t, sub, publishers*each)
	wg.Wait()
	seen := make([]bool, publishers*each+1)
	for _, ev := range got {
		if ev.Seq == 0 || ev.Seq > publishers*each || seen[ev.Seq] {
			t.Fatalf("seq %d out of range or delivered twice", ev.Seq)
		}
		seen[ev.Seq] = true
	}
	if h.EvictedSlow() != 0 || h.Published() != publishers*each {
		t.Fatalf("evicted %d, published %d; want 0 and %d", h.EvictedSlow(), h.Published(), publishers*each)
	}
}

// TestPublishAllocations: an idle hub publishes without allocating (and
// still counts); with a subscriber, an event costs at most two
// allocations, delivery included.
func TestPublishAllocations(t *testing.T) {
	h := NewHub(Config{})
	defer h.Close()
	u := upd("vp65001", "203.0.113.0/24", []uint32{65001, 6939, 64999}, []uint32{65001<<16 | 100, 7}, false)
	u.TraceID = 0xabcdef
	if a := testing.AllocsPerRun(1000, func() { h.Publish(u) }); a != 0 {
		t.Fatalf("Publish with no subscriber: %.1f allocations, want 0", a)
	}
	if h.Published() != 1001 {
		t.Fatalf("Published = %d, want 1001", h.Published())
	}
	sub := h.Subscribe(SubOptions{Queue: 4096})
	if a := testing.AllocsPerRun(1000, func() { h.Publish(u) }); a > 2 {
		t.Fatalf("Publish with one subscriber: %.1f allocations, want ≤ 2", a)
	}
	recvAll(t, sub, 1001)
}
