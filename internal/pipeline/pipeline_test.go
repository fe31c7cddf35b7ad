package pipeline

import (
	"context"
	"fmt"
	"net/netip"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/update"
)

// mkUpdate builds a distinguishable update; i is encoded in the prefix.
func mkUpdate(i int) *update.Update {
	return &update.Update{
		VP:     "vp65001",
		Time:   time.Unix(int64(i), 0),
		Prefix: netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)}), 32),
		Path:   []uint32{65001, 2},
	}
}

// gateStage blocks inside Process until released, so tests can hold the
// single worker busy and fill the queue deterministically.
type gateStage struct {
	entered chan struct{} // signaled once per Process call
	release chan struct{} // one token lets one Process call finish
}

func newGateStage() *gateStage {
	return &gateStage{
		entered: make(chan struct{}, 64),
		release: make(chan struct{}, 64),
	}
}

func (g *gateStage) Name() string { return "gate" }

func (g *gateStage) Process(batch []*update.Update) []*update.Update {
	g.entered <- struct{}{}
	<-g.release
	return batch
}

// collectStage records every update that reaches it.
type collectStage struct {
	mu  sync.Mutex
	got []*update.Update
}

func (c *collectStage) Name() string { return "collect" }

func (c *collectStage) Process(batch []*update.Update) []*update.Update {
	c.mu.Lock()
	c.got = append(c.got, batch...)
	c.mu.Unlock()
	return batch
}

func (c *collectStage) prefixes() map[netip.Prefix]bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[netip.Prefix]bool, len(c.got))
	for _, u := range c.got {
		out[u.Prefix] = true
	}
	return out
}

// startGated builds a single-shard, batch-1 pipeline whose worker parks in
// the gate on the first update, leaving the queue free to fill.
func startGated(t *testing.T, queue int, pol Policy) (*Pipeline, *gateStage, *collectStage) {
	t.Helper()
	gate := newGateStage()
	coll := &collectStage{}
	p := New(Config{Shards: 1, QueueSize: queue, BatchSize: 1, Overflow: pol}, gate, coll)
	if err := p.Start(context.Background()); err != nil {
		t.Fatalf("Start: %v", err)
	}
	return p, gate, coll
}

func TestOverflowBlockBackpressures(t *testing.T) {
	p, gate, coll := startGated(t, 1, Block)
	defer p.Close()

	u1, u2, u3 := mkUpdate(1), mkUpdate(2), mkUpdate(3)
	p.Ingest(u1)
	<-gate.entered // worker busy with u1
	p.Ingest(u2)   // fills the 1-slot queue

	// A third ingest must block until the worker frees a slot.
	done := make(chan struct{})
	go func() {
		p.Ingest(u3)
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("Ingest returned with a full queue under Block policy")
	case <-time.After(50 * time.Millisecond):
	}

	gate.release <- struct{}{} // u1 completes, u2 dequeues, u3 admitted
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Ingest still blocked after the queue drained")
	}
	gate.release <- struct{}{}
	gate.release <- struct{}{}
	<-gate.entered
	<-gate.entered
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	snap := p.Snapshot()
	if snap.Dropped != 0 {
		t.Errorf("Block policy dropped %d updates", snap.Dropped)
	}
	if snap.Ingested != 3 || snap.Out != 3 {
		t.Errorf("ingested=%d out=%d, want 3/3", snap.Ingested, snap.Out)
	}
	if got := coll.prefixes(); len(got) != 3 {
		t.Errorf("collected %d distinct updates, want 3", len(got))
	}
}

func TestOverflowDropNewest(t *testing.T) {
	p, gate, coll := startGated(t, 2, DropNewest)
	defer p.Close()

	us := []*update.Update{mkUpdate(1), mkUpdate(2), mkUpdate(3), mkUpdate(4), mkUpdate(5)}
	p.Ingest(us[0])
	<-gate.entered // worker parked on u1; queue (cap 2) is empty
	if !p.Ingest(us[1]) || !p.Ingest(us[2]) {
		t.Fatal("queue rejected updates below capacity")
	}
	// Queue full: exactly the newest two must be refused.
	if p.Ingest(us[3]) {
		t.Error("4th update admitted past a full queue")
	}
	if p.Ingest(us[4]) {
		t.Error("5th update admitted past a full queue")
	}

	for i := 0; i < 3; i++ {
		gate.release <- struct{}{}
	}
	<-gate.entered
	<-gate.entered
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	snap := p.Snapshot()
	if snap.Dropped != 2 {
		t.Errorf("dropped %d, want exactly 2", snap.Dropped)
	}
	got := coll.prefixes()
	for _, u := range us[:3] {
		if !got[u.Prefix] {
			t.Errorf("oldest update %v lost under DropNewest", u.Prefix)
		}
	}
	for _, u := range us[3:] {
		if got[u.Prefix] {
			t.Errorf("newest update %v survived under DropNewest", u.Prefix)
		}
	}
}

func TestIngestAfterCloseIsCountedDropped(t *testing.T) {
	p := New(Config{Shards: 2, QueueSize: 8}, &collectStage{})
	_ = p.Start(context.Background())
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if p.Ingest(mkUpdate(1)) {
		t.Error("Ingest admitted an update after Close")
	}
	snap := p.Snapshot()
	if snap.Ingested != 1 || snap.Dropped != 1 {
		t.Errorf("post-close accounting: %+v", snap)
	}
}

func TestContextCancelClosesPipeline(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	coll := &collectStage{}
	p := New(Config{Shards: 1, QueueSize: 4}, coll)
	_ = p.Start(ctx)
	p.Ingest(mkUpdate(1))
	cancel()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if !p.Ingest(mkUpdate(2)) {
			return // closed via ctx
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("pipeline did not close after context cancellation")
}

// countStage keeps independent atomic tallies, optionally discarding every
// k-th update, so quick-check can cross-validate the pipeline's accounting.
type countStage struct {
	name    string
	dropMod int
	in, out atomic.Uint64
}

func (c *countStage) Name() string { return c.name }

func (c *countStage) Process(batch []*update.Update) []*update.Update {
	c.in.Add(uint64(len(batch)))
	kept := batch
	if c.dropMod > 1 {
		kept = batch[:0]
		for i, u := range batch {
			if i%c.dropMod != 0 {
				kept = append(kept, u)
			}
		}
	}
	c.out.Add(uint64(len(kept)))
	return kept
}

// TestAccountingProperty quick-checks the conservation invariants: for any
// shard/queue/batch/policy configuration and update count, after Close
// every offered update is accounted exactly once (taken or dropped), the
// queues are empty, and each stage's in/out chain is consistent.
func TestAccountingProperty(t *testing.T) {
	prop := func(shards, queue, batch uint8, pol uint8, n uint16) bool {
		cfg := Config{
			Shards:    int(shards%8) + 1,
			QueueSize: int(queue%64) + 1,
			BatchSize: int(batch%16) + 1,
			Overflow:  Policy(pol % 2),
		}
		count := int(n % 2000)
		st1 := &countStage{name: "a", dropMod: 3}
		st2 := &countStage{name: "b"}
		p := New(cfg, st1, st2)
		if err := p.Start(context.Background()); err != nil {
			return false
		}
		for i := 0; i < count; i++ {
			p.Ingest(mkUpdate(i))
		}
		if err := p.Close(); err != nil {
			return false
		}
		snap := p.Snapshot()
		ok := snap.Ingested == uint64(count) &&
			snap.Queued == 0 &&
			snap.Ingested == snap.Taken+snap.Dropped &&
			snap.Stage("a").In == snap.Taken &&
			snap.Stage("a").In == st1.in.Load() &&
			snap.Stage("a").Out == st1.out.Load() &&
			snap.Stage("b").In == snap.Stage("a").Out &&
			snap.Stage("b").In == st2.in.Load() &&
			snap.Stage("b").Out == st2.out.Load() &&
			snap.Out == snap.Stage("b").Out
		for _, ss := range snap.Stages {
			if ss.In != ss.Out+ss.Dropped {
				ok = false
			}
		}
		if cfg.Overflow == Block && snap.Dropped != 0 {
			ok = false // Block never loses updates
		}
		if !ok {
			t.Logf("config=%+v count=%d snapshot=%+v", cfg, count, snap)
		}
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestShardKeyStable(t *testing.T) {
	u := mkUpdate(7)
	k := shardKey(u)
	for i := 0; i < 10; i++ {
		if shardKey(u) != k {
			t.Fatal("shardKey not deterministic")
		}
	}
	// Same (VP, prefix), different attrs: same shard (ordering guarantee).
	u2 := *u
	u2.Path = []uint32{9, 9, 9}
	u2.Withdraw = true
	if shardKey(&u2) != k {
		t.Error("shardKey must depend only on (VP, prefix)")
	}
}

func TestBatchingUnderLoad(t *testing.T) {
	gate := newGateStage()
	p := New(Config{Shards: 1, QueueSize: 64, BatchSize: 16, Overflow: Block}, gate)
	_ = p.Start(context.Background())
	p.Ingest(mkUpdate(0))
	<-gate.entered // worker parked; queue accumulates
	for i := 1; i <= 16; i++ {
		p.Ingest(mkUpdate(i))
	}
	gate.release <- struct{}{} // the next batch should drain all 16
	<-gate.entered
	gate.release <- struct{}{}
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	snap := p.Snapshot()
	if snap.BatchSizes.Count != 2 {
		t.Fatalf("saw %d batches, want 2 (1 + 16)", snap.BatchSizes.Count)
	}
	if snap.BatchSizes.Sum != 17 {
		t.Errorf("batched %d updates total, want 17", snap.BatchSizes.Sum)
	}
}

func TestPerShardOrderPreserved(t *testing.T) {
	coll := &collectStage{}
	p := New(Config{Shards: 4, QueueSize: 256, BatchSize: 8, Overflow: Block}, coll)
	_ = p.Start(context.Background())
	// All updates share (VP, prefix) → one shard → strict order.
	base := mkUpdate(1)
	const n = 500
	for i := 0; i < n; i++ {
		u := *base
		u.Time = time.Unix(int64(i), 0)
		p.Ingest(&u)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	coll.mu.Lock()
	defer coll.mu.Unlock()
	if len(coll.got) != n {
		t.Fatalf("collected %d, want %d", len(coll.got), n)
	}
	for i, u := range coll.got {
		if u.Time.Unix() != int64(i) {
			t.Fatalf("order violated at %d: got t=%d", i, u.Time.Unix())
		}
	}
}

func TestPolicyString(t *testing.T) {
	for pol, want := range map[Policy]string{
		Block: "block", DropNewest: "drop-newest", Policy(9): "unknown",
	} {
		if got := pol.String(); got != want {
			t.Errorf("Policy(%d).String() = %q, want %q", pol, got, want)
		}
	}
}

func TestMetricsRegistryExposure(t *testing.T) {
	p := New(Config{Shards: 1, QueueSize: 4, Name: "t"}, &collectStage{})
	_ = p.Start(context.Background())
	p.Ingest(mkUpdate(1))
	_ = p.Close()
	snap := p.Registry().Snapshot()
	for _, name := range []string{"t.in", "t.taken", "t.out", "t.dropped", "t.stage.collect.in", "t.stage.collect.out"} {
		if _, ok := snap.Counters[name]; !ok {
			t.Errorf("registry missing counter %q; have %v", name, snap.Counters)
		}
	}
	if _, ok := snap.Gauges["t.queue_depth"]; !ok {
		t.Error("registry missing queue_depth gauge")
	}
	if _, ok := snap.Histograms["t.batch_size"]; !ok {
		t.Error("registry missing batch_size histogram")
	}
	if s := snap.String(); s == "" {
		t.Error("empty snapshot render")
	}
}

func ExamplePolicy() {
	fmt.Println(Block, DropNewest)
	// Output: block drop-newest
}
