package stream

// The fan-out hub. One Publish must serve 100K subscribers without the
// collection path ever noticing them, which forces four structural
// decisions:
//
//   - Encode once, and only for someone. A published update is rendered
//     to its Message NDJSON line exactly once, by a hand-written
//     appender (line.go); every subscriber shares the same *Event (and the
//     same lazily rendered AS-path string for regex filters). Delivery is
//     a channel send of one pointer. With no subscriber at all, Publish
//     counts the update and returns without encoding or locking.
//   - Shard the subscriber set. Subscribers are assigned round-robin to a
//     fixed set of shards, each with its own lock, delivery goroutine, and
//     bounded inbox. Publish enqueues one pointer per shard that has a
//     subscriber and returns; matching and delivery happen on the shard
//     goroutines, so a large or contended subscriber set adds no latency
//     to the publisher.
//   - Seq is an id, not an order. Publish takes the next seq atomically
//     and then enqueues, so with concurrent publishers (the daemon's shard
//     workers) seq N+1 can reach a subscriber before N. Each seq is unique
//     within one hub and restarts at 1 with it; events from one publishing
//     goroutine reach a subscriber in that goroutine's publish order.
//   - Never block, never wait. A full shard inbox drops the event for
//     that shard (counted), a full subscriber queue evicts the subscriber
//     (counted), a rate-limited subscriber skips the message (counted).
//     Every failure mode is a counter, not a stall.

import (
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/telemetry"
	"repro/internal/update"
)

// Defaults for Config zero values.
const (
	DefaultShards     = 4
	DefaultShardQueue = 4096
	DefaultSubQueue   = 64
	MaxSubQueue       = 8192
)

// latencySampleEvery controls how often delivery latency is observed into
// the histogram (per shard): sampling keeps the 100K-subscriber hot path
// free of clock reads.
const latencySampleEvery = 64

// Config tunes a Hub; zero values select the defaults above.
type Config struct {
	// Shards is the number of subscriber shards (delivery goroutines).
	Shards int
	// ShardQueue bounds each shard's publish inbox (events).
	ShardQueue int
	// DefaultQueue is the per-subscriber queue when SubOptions.Queue is 0.
	DefaultQueue int
	// MaxQueue caps the per-subscriber queue a client may request.
	MaxQueue int
	// Registry receives stream.* metrics; nil disables them.
	Registry *metrics.Registry
	// Log receives subscriber lifecycle events; nil discards them.
	Log *telemetry.Logger
	// Clock overrides time.Now (tests).
	Clock func() time.Time
	// Keepalive is the idle-stream keepalive period for the HTTP handler
	// (default KeepaliveInterval; tests shorten it).
	Keepalive time.Duration
	// WriteTimeout bounds each HTTP stream write. A client that stops
	// reading without closing (NAT timeout, power loss) otherwise leaves
	// the handler goroutine blocked in Write forever once the kernel
	// buffer fills (default DefaultWriteTimeout).
	WriteTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = DefaultShards
	}
	if c.ShardQueue <= 0 {
		c.ShardQueue = DefaultShardQueue
	}
	if c.DefaultQueue <= 0 {
		c.DefaultQueue = DefaultSubQueue
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = MaxSubQueue
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	if c.Keepalive <= 0 {
		c.Keepalive = KeepaliveInterval
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = DefaultWriteTimeout
	}
	return c
}

// Event is one published update, shared read-only by every subscriber.
// Events are never pooled — subscribers hold them for as long as they like.
type Event struct {
	// Seq is the event's hub-wide id (1-based, unique within the hub, not
	// ordered across concurrent publishers), also stamped into JSON.
	Seq uint64
	// At is the publish time (the hub clock), used for rate-limit refill
	// and delivery-latency accounting.
	At time.Time
	// U is the canonical update, for in-process consumers and filters.
	U *update.Update
	// JSON is the event's one shared encoding: the Message NDJSON
	// line with trailing newline (shared read-only — writers must not
	// append to it).
	JSON []byte

	// line is JSON's backing store when the line fits, which folds the
	// event and its encoding into one allocation.
	line [lineSize]byte

	pathOnce sync.Once
	pathStr  string
}

// lineSize fits a typical UPDATE line (~170 bytes with a four-hop path,
// two communities and a trace ID); a longer one is appended to the heap.
const lineSize = 256

// PathString returns the space-joined AS path, rendered at most once per
// event no matter how many regex filters consult it.
func (e *Event) PathString() string {
	e.pathOnce.Do(func() {
		if len(e.U.Path) == 0 {
			return
		}
		var b strings.Builder
		for i, as := range e.U.Path {
			if i > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(strconv.FormatUint(uint64(as), 10))
		}
		e.pathStr = b.String()
	})
	return e.pathStr
}

// SubOptions configures one subscriber.
type SubOptions struct {
	// Filter selects which updates the subscriber receives; nil means all.
	Filter *Filter
	// Queue is the subscriber's buffered queue in events; 0 selects the
	// hub default, values above the hub max are clamped down.
	Queue int
	// Rate limits delivery to the subscriber in messages per second
	// (token bucket, refilled continuously); 0 means unlimited.
	Rate float64
	// Burst is the bucket depth when Rate is set; 0 selects max(1, Rate).
	Burst float64
	// Name labels the subscriber in logs.
	Name string
}

// Subscriber is one attached consumer. Read events from C; a closed C
// means the subscription ended (Close, eviction, or hub shutdown), and
// Evicted reports whether the hub cut it off for falling behind.
type Subscriber struct {
	hub    *Hub
	shard  *shard
	filter *Filter
	name   string
	ch     chan *Event

	// Token bucket, touched only by the owning shard goroutine.
	rate, burst, tokens float64
	last                time.Time

	// gone guards double-close between Close and eviction; protected by
	// the shard mutex.
	gone    bool
	evicted chan struct{}
}

// C is the subscriber's event stream. It is closed when the subscription
// ends. Events from one publishing goroutine arrive in its publish order;
// those of concurrent publishers interleave, so Seq is an id, not an order.
func (s *Subscriber) C() <-chan *Event { return s.ch }

// Evicted is closed if the hub evicted the subscriber for being too slow
// (it stays open on a voluntary Close).
func (s *Subscriber) Evicted() <-chan struct{} { return s.evicted }

// Name returns the subscriber's label.
func (s *Subscriber) Name() string { return s.name }

// Close detaches the subscriber; idempotent, safe concurrently with
// delivery and eviction.
func (s *Subscriber) Close() {
	sh := s.shard
	sh.mu.Lock()
	was := !s.gone
	s.dropLocked(false)
	sh.mu.Unlock()
	if was {
		s.hub.nsub.Add(-1)
	}
}

// dropLocked removes the subscriber from its shard and closes its
// channel; the caller holds the shard mutex.
func (s *Subscriber) dropLocked(evicted bool) {
	if s.gone {
		return
	}
	s.gone = true
	delete(s.shard.subs, s)
	s.shard.nsub.Store(int32(len(s.shard.subs)))
	close(s.ch)
	if evicted {
		close(s.evicted)
	}
}

type shard struct {
	hub  *Hub
	in   chan *Event
	mu   sync.Mutex
	subs map[*Subscriber]struct{}
	nsub atomic.Int32 // len(subs), stored under mu, read by Publish
}

// Hub fans published updates out to subscribers.
type Hub struct {
	cfg Config

	seq  atomic.Uint64
	next atomic.Uint64 // round-robin shard assignment
	nsub atomic.Int64

	mu     sync.RWMutex // publish/Subscribe (R) vs Close (W)
	closed atomic.Bool  // stored under mu (W); Publish's idle path reads it bare
	shards []*shard
	wg     sync.WaitGroup

	// Metrics (always non-nil; backed by a private registry when the
	// config has none, so the hot path never branches).
	published     *metrics.Counter
	delivered     *metrics.Counter
	evictedSlow   *metrics.Counter
	droppedRate   *metrics.Counter
	shardOverflow *metrics.Counter
	deliveryNS    *metrics.Histogram
}

// NewHub starts a hub with cfg's shards running.
func NewHub(cfg Config) *Hub {
	cfg = cfg.withDefaults()
	reg := cfg.Registry
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	h := &Hub{
		cfg:           cfg,
		published:     reg.Counter("stream.published"),
		delivered:     reg.Counter("stream.delivered"),
		evictedSlow:   reg.Counter("stream.evicted_slow"),
		droppedRate:   reg.Counter("stream.dropped_rate_limited"),
		shardOverflow: reg.Counter("stream.publish_overflow"),
		deliveryNS:    reg.Histogram("stream.delivery_ns", metrics.ExpBuckets(1000, 4, 16)),
	}
	reg.GaugeFunc("stream.subscribers", h.nsub.Load)
	h.shards = make([]*shard, cfg.Shards)
	for i := range h.shards {
		sh := &shard{hub: h, in: make(chan *Event, cfg.ShardQueue), subs: make(map[*Subscriber]struct{})}
		h.shards[i] = sh
		h.wg.Add(1)
		go sh.run()
	}
	return h
}

// Subscribe attaches a consumer. On a closed hub it returns a subscriber
// whose channel is already closed.
func (h *Hub) Subscribe(opts SubOptions) *Subscriber {
	q := opts.Queue
	if q <= 0 {
		q = h.cfg.DefaultQueue
	}
	if q > h.cfg.MaxQueue {
		q = h.cfg.MaxQueue
	}
	burst := opts.Burst
	if opts.Rate > 0 && burst <= 0 {
		burst = opts.Rate
		if burst < 1 {
			burst = 1
		}
	}
	sub := &Subscriber{
		hub:     h,
		filter:  opts.Filter,
		name:    opts.Name,
		ch:      make(chan *Event, q),
		rate:    opts.Rate,
		burst:   burst,
		tokens:  burst,
		evicted: make(chan struct{}),
	}
	h.mu.RLock()
	defer h.mu.RUnlock()
	sh := h.shards[h.next.Add(1)%uint64(len(h.shards))]
	sub.shard = sh
	if h.closed.Load() {
		close(sub.ch)
		sub.gone = true
		return sub
	}
	sh.mu.Lock()
	sh.subs[sub] = struct{}{}
	sh.nsub.Store(int32(len(sh.subs)))
	sh.mu.Unlock()
	h.nsub.Add(1)
	h.cfg.Log.With("stream").Debug("subscriber attached",
		"name", sub.name, "queue", q, "filter", opts.Filter.String())
	return sub
}

// Publish fans one update out to every shard that has a subscriber. It
// never blocks: a shard whose inbox is full misses the event (counted as
// publish_overflow). With no subscriber at all it only counts the update:
// no seq is taken, nothing is encoded.
func (h *Hub) Publish(u *update.Update) {
	if h.nsub.Load() == 0 {
		if !h.closed.Load() {
			h.published.Inc()
		}
		return
	}
	h.mu.RLock()
	defer h.mu.RUnlock()
	if h.closed.Load() {
		return
	}
	seq := h.seq.Add(1)
	ev := &Event{Seq: seq, At: h.cfg.Clock(), U: u}
	ev.JSON = slices.Clip(appendEventJSON(ev.line[:0], u, seq)) // an append copies
	h.published.Inc()
	for _, sh := range h.shards {
		if sh.nsub.Load() == 0 {
			continue
		}
		select {
		case sh.in <- ev:
		default:
			h.shardOverflow.Inc()
		}
	}
}

// run is a shard's delivery loop: match, rate-limit, enqueue, evict.
func (sh *shard) run() {
	defer sh.hub.wg.Done()
	h := sh.hub
	var n uint64
	for ev := range sh.in {
		var evicted []*Subscriber
		sh.mu.Lock()
		for sub := range sh.subs {
			if !sub.filter.Match(ev.U, ev.PathString) {
				continue
			}
			if sub.rate > 0 {
				sub.tokens += ev.At.Sub(sub.last).Seconds() * sub.rate
				if sub.tokens > sub.burst {
					sub.tokens = sub.burst
				}
				sub.last = ev.At
				if sub.tokens < 1 {
					h.droppedRate.Inc()
					continue
				}
				sub.tokens--
			}
			select {
			case sub.ch <- ev:
				h.delivered.Inc()
			default:
				evicted = append(evicted, sub)
			}
		}
		for _, sub := range evicted {
			sub.dropLocked(true)
		}
		sh.mu.Unlock()
		for _, sub := range evicted {
			h.nsub.Add(-1)
			h.evictedSlow.Inc()
			h.cfg.Log.With("stream").Warn("slow subscriber evicted",
				"name", sub.name, "seq", ev.Seq)
		}
		if n++; n%latencySampleEvery == 0 {
			h.deliveryNS.Observe(uint64(h.cfg.Clock().Sub(ev.At).Nanoseconds()))
		}
	}
	// Hub shutdown: end every remaining subscription.
	sh.mu.Lock()
	for sub := range sh.subs {
		sub.dropLocked(false)
		h.nsub.Add(-1)
	}
	sh.mu.Unlock()
}

// Close shuts the hub down: publishes are ignored, shard loops drain and
// exit, every subscriber channel is closed. Safe to call once.
func (h *Hub) Close() {
	h.mu.Lock()
	if h.closed.Load() {
		h.mu.Unlock()
		return
	}
	h.closed.Store(true)
	for _, sh := range h.shards {
		close(sh.in)
	}
	h.mu.Unlock()
	h.wg.Wait()
}

// Subscribers returns the number of attached subscribers.
func (h *Hub) Subscribers() int { return int(h.nsub.Load()) }

// Published returns the number of updates published to the hub.
func (h *Hub) Published() uint64 { return h.published.Load() }

// EvictedSlow returns how many subscribers the hub has evicted for
// falling behind.
func (h *Hub) EvictedSlow() uint64 { return h.evictedSlow.Load() }

// DroppedRateLimited returns how many deliveries were skipped by
// per-subscriber rate limits.
func (h *Hub) DroppedRateLimited() uint64 { return h.droppedRate.Load() }

// DeliverySnapshot exposes the sampled delivery-latency histogram.
func (h *Hub) DeliverySnapshot() metrics.HistogramSnapshot { return h.deliveryNS.Snapshot() }
