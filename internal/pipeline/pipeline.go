// Package pipeline is the sharded, backpressure-aware ingest pipeline of
// the collection path (§8). GILL's overshoot-and-discard design means the
// daemon's hot path is filter → MRT-encode → write; a single serialized
// chain caps ingest throughput and makes loss under the paper's 241K upd/h
// p99 rates a measured fact rather than an engineered trade-off. The
// pipeline turns that chain into composable Stages over batches of
// canonical updates, sharded by FNV hash of (VP, prefix) across parallel
// workers with bounded per-shard queues and an explicit overflow policy,
// so loss is a configuration choice with exact per-stage accounting
// (Table 1 stays derivable from counters alone).
package pipeline

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/telemetry"
	"repro/internal/update"
)

// Stage is one processing step. Process receives a batch of updates and
// returns the batch to hand to the next stage; returning fewer updates
// discards the difference (accounted per stage). Stages are invoked
// concurrently from all shard workers and must be safe for concurrent use.
// Updates with the same (VP, prefix) always arrive on the same shard, in
// ingest order.
type Stage interface {
	// Name labels the stage in snapshots and metrics.
	Name() string
	// Process transforms one batch.
	Process(batch []*update.Update) []*update.Update
}

// Starter is implemented by stages needing context-aware startup.
type Starter interface {
	Start(ctx context.Context) error
}

// Policy selects what Ingest does when a shard queue is full.
type Policy int

// Overflow policies.
const (
	// Block backpressures the producer until the queue has room.
	Block Policy = iota
	// DropNewest discards the incoming update (the daemon's Table 1
	// semantics: never stall the BGP session).
	DropNewest
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case Block:
		return "block"
	case DropNewest:
		return "drop-newest"
	default:
		return "unknown"
	}
}

// Config parameterizes a Pipeline.
type Config struct {
	// Shards is the number of parallel workers (default 1). Updates are
	// distributed by FNV-1a hash of (VP, prefix), so per-key order is
	// preserved within a shard.
	Shards int
	// QueueSize bounds the total buffered updates across all shards
	// (default 4096); each shard gets QueueSize/Shards (min 1).
	QueueSize int
	// BatchSize is the maximum updates handed to a stage per call
	// (default 64). Workers drain whatever is queued up to this bound, so
	// batches grow under load and shrink when idle.
	BatchSize int
	// Overflow selects the full-queue behavior (default Block).
	Overflow Policy
	// Registry receives the pipeline's counters, queue-depth gauge and
	// batch-size histogram (nil: a private registry is used).
	Registry *metrics.Registry
	// Name prefixes metric names (default "pipeline"). Must be unique
	// within a shared Registry.
	Name string
	// Tracer, when set, samples roughly one update per its interval into
	// the flight recorder: per-stage latencies, queue wait, and the final
	// verdict, dumpable over /tracez. Nil disables tracing; the latency
	// histograms below are recorded either way.
	Tracer *telemetry.Recorder
}

// item is one queued update: the enqueue timestamp carries the monotonic
// clock reading captured at Ingest (queue-wait and end-to-end latency are
// measured from it), tr is non-nil on the ~1/interval sampled updates.
type item struct {
	u   *update.Update
	enq time.Time
	tr  *telemetry.Trace
}

// Pipeline runs updates through a stage chain across sharded workers.
type Pipeline struct {
	cfg    Config
	stages []Stage
	queues []chan item
	reg    *metrics.Registry

	in    *metrics.Counter // updates offered to Ingest
	drop  *metrics.Counter // lost at intake (overflow or closed)
	taken *metrics.Counter // popped from queues into batches
	out   *metrics.Counter // emerged from the final stage
	batch *metrics.Histogram
	qwait *metrics.Histogram // ns from Ingest to worker pop, per update
	e2e   *metrics.Histogram // ns from Ingest to chain exit, per update
	stIn  []*metrics.Counter
	stOut []*metrics.Counter
	stLat []*metrics.Histogram // ns per Process call, per stage

	mu      sync.RWMutex
	closed  bool
	started bool

	wg        sync.WaitGroup
	closeOnce sync.Once
}

// New builds a pipeline over the given stage chain. Call Start to launch
// the shard workers.
func New(cfg Config, stages ...Stage) *Pipeline {
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.QueueSize <= 0 {
		cfg.QueueSize = 4096
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 64
	}
	if cfg.Name == "" {
		cfg.Name = "pipeline"
	}
	reg := cfg.Registry
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	perShard := cfg.QueueSize / cfg.Shards
	if perShard < 1 {
		perShard = 1
	}
	// Latency bounds: 1µs to ~2.1s in powers of two, in nanoseconds. The
	// low end resolves an uncontended pop, the high end a queue sitting
	// behind a stalled archive write.
	latBounds := metrics.ExpBuckets(1024, 2, 22)
	p := &Pipeline{
		cfg:    cfg,
		stages: stages,
		queues: make([]chan item, cfg.Shards),
		reg:    reg,
		in:     reg.Counter(cfg.Name + ".in"),
		drop:   reg.Counter(cfg.Name + ".dropped"),
		taken:  reg.Counter(cfg.Name + ".taken"),
		out:    reg.Counter(cfg.Name + ".out"),
		batch:  reg.Histogram(cfg.Name+".batch_size", metrics.ExpBuckets(1, 2, 11)),
		qwait:  reg.Histogram(cfg.Name+".queue_wait_ns", latBounds),
		e2e:    reg.Histogram(cfg.Name+".e2e_latency_ns", latBounds),
	}
	for i := range p.queues {
		p.queues[i] = make(chan item, perShard)
	}
	for _, st := range stages {
		p.stIn = append(p.stIn, reg.Counter(fmt.Sprintf("%s.stage.%s.in", cfg.Name, st.Name())))
		p.stOut = append(p.stOut, reg.Counter(fmt.Sprintf("%s.stage.%s.out", cfg.Name, st.Name())))
		p.stLat = append(p.stLat, reg.Histogram(fmt.Sprintf("%s.stage.%s.latency_ns", cfg.Name, st.Name()), latBounds))
	}
	reg.GaugeFunc(cfg.Name+".queue_depth", func() int64 {
		var d int64
		for _, q := range p.queues {
			d += int64(len(q))
		}
		return d
	})
	return p
}

// Registry returns the registry holding the pipeline's metrics.
func (p *Pipeline) Registry() *metrics.Registry { return p.reg }

// Start launches the shard workers and any Starter stages. Canceling ctx
// closes the pipeline (drains it) in the background.
func (p *Pipeline) Start(ctx context.Context) error {
	p.mu.Lock()
	if p.started || p.closed {
		p.mu.Unlock()
		return nil
	}
	p.started = true
	p.mu.Unlock()
	for _, st := range p.stages {
		if s, ok := st.(Starter); ok {
			if err := s.Start(ctx); err != nil {
				return err
			}
		}
	}
	for i := range p.queues {
		p.wg.Add(1)
		go p.worker(i)
	}
	if ctx.Done() != nil {
		go func() {
			<-ctx.Done()
			p.Close()
		}()
	}
	return nil
}

// worker drains one shard queue, batching whatever is ready up to
// BatchSize, and runs each batch through the stage chain. It observes
// queue wait per update at pop, stage latency per Process call, and
// end-to-end latency per update when its batch exits the chain (updates a
// stage discards are included — their journey ended inside the chain).
func (p *Pipeline) worker(shard int) {
	defer p.wg.Done()
	q := p.queues[shard]
	batch := make([]item, 0, p.cfg.BatchSize)
	us := make([]*update.Update, 0, p.cfg.BatchSize)
	var traced []item // sampled items in the current batch (usually empty)
	for it := range q {
		batch = append(batch[:0], it)
	fill:
		for len(batch) < cap(batch) {
			select {
			case it2, ok := <-q:
				if !ok {
					break fill
				}
				batch = append(batch, it2)
			default:
				break fill
			}
		}
		p.taken.Add(uint64(len(batch)))
		p.batch.Observe(uint64(len(batch)))
		popped := time.Now()
		us = us[:0]
		traced = traced[:0]
		for _, b := range batch {
			us = append(us, b.u)
			p.qwait.Observe(uint64(popped.Sub(b.enq)))
			if b.tr != nil {
				b.tr.ObserveQueueWait(popped.Sub(b.enq))
				traced = append(traced, b)
			}
		}
		cur := us
		for i, st := range p.stages {
			p.stIn[i].Add(uint64(len(cur)))
			t0 := time.Now()
			cur = st.Process(cur)
			d := time.Since(t0)
			p.stLat[i].Observe(uint64(d))
			p.stOut[i].Add(uint64(len(cur)))
			for _, b := range traced {
				if b.tr.Done() {
					continue
				}
				b.tr.ObserveStage(st.Name(), d)
				if !containsUpdate(cur, b.u) {
					b.tr.Finish(telemetry.VerdictFiltered(st.Name()), time.Since(b.enq))
				}
			}
			if len(cur) == 0 {
				break
			}
		}
		p.out.Add(uint64(len(cur)))
		end := time.Now()
		for _, b := range batch {
			p.e2e.Observe(uint64(end.Sub(b.enq)))
			b.tr.Finish(telemetry.VerdictOK, end.Sub(b.enq))
		}
	}
}

// containsUpdate reports whether u survived into the batch cur (pointer
// identity — stages pass updates through, they do not copy them). Only
// consulted for sampled updates, so the linear scan is off the hot path.
func containsUpdate(cur []*update.Update, u *update.Update) bool {
	for _, c := range cur {
		if c == u {
			return true
		}
	}
	return false
}

// shardKey hashes (VP, prefix) with FNV-1a. The key choice keeps every
// update stream a filter rule can match on one shard, so per-rule
// processing order is stable and per-shard stage state needs no locking.
func shardKey(u *update.Update) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(u.VP); i++ {
		h = (h ^ uint32(u.VP[i])) * prime32
	}
	a := u.Prefix.Addr().As16()
	for _, b := range a {
		h = (h ^ uint32(b)) * prime32
	}
	h = (h ^ uint32(u.Prefix.Bits())) * prime32
	return h
}

// Ingest routes one update to its shard queue. It reports whether the
// update was admitted: false means it was lost to the overflow policy (or
// the pipeline is closed), counted in the dropped counter either way.
// Under the Block policy Ingest only returns false after Close.
func (p *Pipeline) Ingest(u *update.Update) bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	p.in.Inc()
	var tr *telemetry.Trace
	if p.cfg.Tracer.ShouldSample() {
		tr = p.cfg.Tracer.Begin(u.VP, u.Prefix.String(), u.Withdraw)
		// Stamp the distributed trace ID on the update itself so the
		// stream/serving envelopes carry it downstream and the fleet
		// stitcher can line the hops up.
		u.TraceID = uint64(tr.TraceID)
	}
	if p.closed {
		p.drop.Inc()
		tr.Finish(telemetry.VerdictClosed, 0)
		return false
	}
	it := item{u: u, enq: time.Now(), tr: tr}
	q := p.queues[int(shardKey(u))%len(p.queues)]
	switch p.cfg.Overflow {
	case DropNewest:
		select {
		case q <- it:
			return true
		default:
			p.drop.Inc()
			tr.Finish(telemetry.VerdictOverflow, time.Since(it.enq))
			return false
		}
	default: // Block
		q <- it
		return true
	}
}

// Close drains the queues and waits for the workers. It is idempotent and
// safe to call concurrently with Ingest: updates offered after Close are
// counted as dropped.
func (p *Pipeline) Close() {
	p.closeOnce.Do(func() {
		p.mu.Lock()
		p.closed = true
		started := p.started
		p.mu.Unlock()
		for _, q := range p.queues {
			close(q)
		}
		if started {
			p.wg.Wait()
		} else {
			// Never started: drain and drop whatever was queued so the
			// accounting invariant still holds.
			for _, q := range p.queues {
				for it := range q {
					p.drop.Inc()
					it.tr.Finish(telemetry.VerdictClosed, time.Since(it.enq))
				}
			}
		}
	})
}

// StageSnapshot is one stage's accounting: In updates entered, Out were
// passed on, Dropped is the difference (discarded by the stage).
type StageSnapshot struct {
	Name             string
	In, Out, Dropped uint64
	// LatencyNS is the distribution of Process-call durations (ns).
	LatencyNS metrics.HistogramSnapshot
}

// Snapshot is a point-in-time view of the pipeline's accounting. At
// quiescence (and always after Close) Ingested == Taken + Dropped +
// Queued, each stage's In equals the previous stage's Out, and Out equals
// the final stage's Out.
type Snapshot struct {
	Ingested uint64 // updates offered to Ingest
	Dropped  uint64 // lost at intake (overflow policy or closed)
	Taken    uint64 // handed to the stage chain
	Out      uint64 // emerged from the final stage
	Queued   uint64 // currently buffered across shards
	Stages   []StageSnapshot
	// BatchSizes is the distribution of batch sizes handed to stages.
	BatchSizes metrics.HistogramSnapshot
	// QueueWaitNS is the per-update Ingest→pop wait distribution (ns).
	QueueWaitNS metrics.HistogramSnapshot
	// E2ENS is the per-update Ingest→chain-exit latency distribution (ns).
	E2ENS metrics.HistogramSnapshot
}

// Stage returns the named stage's snapshot (zero value if absent).
func (s Snapshot) Stage(name string) StageSnapshot {
	for _, st := range s.Stages {
		if st.Name == name {
			return st
		}
	}
	return StageSnapshot{}
}

// LossFraction is Dropped / Ingested.
func (s Snapshot) LossFraction() float64 {
	if s.Ingested == 0 {
		return 0
	}
	return float64(s.Dropped) / float64(s.Ingested)
}

// Snapshot captures the pipeline's counters.
func (p *Pipeline) Snapshot() Snapshot {
	var queued uint64
	for _, q := range p.queues {
		queued += uint64(len(q))
	}
	s := Snapshot{
		Ingested:    p.in.Load(),
		Dropped:     p.drop.Load(),
		Taken:       p.taken.Load(),
		Out:         p.out.Load(),
		Queued:      queued,
		BatchSizes:  p.batch.Snapshot(),
		QueueWaitNS: p.qwait.Snapshot(),
		E2ENS:       p.e2e.Snapshot(),
	}
	for i, st := range p.stages {
		in, out := p.stIn[i].Load(), p.stOut[i].Load()
		s.Stages = append(s.Stages, StageSnapshot{
			Name: st.Name(), In: in, Out: out, Dropped: in - out,
			LatencyNS: p.stLat[i].Snapshot(),
		})
	}
	return s
}
