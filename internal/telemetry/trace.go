package telemetry

// The flight recorder answers "why was this update dropped and how long
// did it sit in the queue" on a live daemon without a debugger: roughly
// one update in a thousand is traced through the ingest pipeline —
// per-stage latencies, queue wait, and the final verdict — into a
// fixed-size ring dumpable over /tracez. Sampling is deterministic
// (counter-based, not random), so a replayed workload traces the same
// updates and the overhead is a single atomic add on the untraced path.

import (
	crand "crypto/rand"
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// SpanID is a 64-bit trace or span identifier, rendered as 16 hex digits
// in JSON (uint64s above 2^53 lose precision in non-Go JSON consumers,
// and operators grep hex anyway). Zero means "absent" and is omitted.
type SpanID uint64

// String renders the canonical 16-hex-digit form ("" for zero).
func (id SpanID) String() string {
	if id == 0 {
		return ""
	}
	return fmt.Sprintf("%016x", uint64(id))
}

// MarshalJSON renders the ID as a hex string.
func (id SpanID) MarshalJSON() ([]byte, error) {
	return []byte(`"` + id.String() + `"`), nil
}

// UnmarshalJSON accepts the hex-string form (with or without quotes) and,
// leniently, a bare decimal from older producers.
func (id *SpanID) UnmarshalJSON(b []byte) error {
	s := strings.Trim(string(b), `"`)
	if s == "" {
		*id = 0
		return nil
	}
	if v, err := strconv.ParseUint(s, 16, 64); err == nil {
		*id = SpanID(v)
		return nil
	}
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return fmt.Errorf("telemetry: bad span id %q", s)
	}
	*id = SpanID(v)
	return nil
}

// idCounter seeds the fallback ID sequence if crypto/rand ever fails.
var idCounter atomic.Uint64

// NewID returns a process-independent random 64-bit identifier — trace
// IDs minted on different machines must not collide, so a per-process
// counter is not enough.
func NewID() SpanID {
	var b [8]byte
	if _, err := crand.Read(b[:]); err == nil {
		if v := binary.BigEndian.Uint64(b[:]); v != 0 {
			return SpanID(v)
		}
	}
	return SpanID(idCounter.Add(1) | 1<<63)
}

// SpanContext is the cross-process trace context carried on control-plane
// frames and serving envelopes: which trace a remote span belongs to and
// which span is its parent. The zero value means "no trace in progress".
type SpanContext struct {
	Trace SpanID
	Span  SpanID
}

// Valid reports whether the context names a trace.
func (sc SpanContext) Valid() bool { return sc.Trace != 0 }

// Default recorder geometry: ring capacity and sampling interval. One
// trace per 1024 offered updates keeps the recorder invisible in the
// throughput profile (one atomic add per update, tracing work on 0.1% of
// them) while a busy daemon at the paper's p99 per-VP rate still yields a
// fresh trace every few seconds.
const (
	DefaultRingSize       = 4096
	DefaultSampleInterval = 1024
)

// Verdicts stamped on completed traces by the pipeline.
const (
	VerdictOK       = "ok"               // survived the whole stage chain
	VerdictOverflow = "dropped:overflow" // lost at intake to the overflow policy
	VerdictClosed   = "dropped:closed"   // offered after pipeline close
)

// VerdictFiltered is the verdict for an update a named stage discarded
// (e.g. "dropped:stage:filter" for an overshoot discard).
func VerdictFiltered(stage string) string { return "dropped:stage:" + stage }

// StageTiming is one stage's latency contribution within a trace.
type StageTiming struct {
	Stage string `json:"stage"`
	NS    int64  `json:"ns"`
}

// Trace is one sampled update's journey through the pipeline. The zero
// of Verdict means the trace is still in flight. Traces are handed from
// the ingesting goroutine to one shard worker; they are not written
// concurrently.
type Trace struct {
	ID       uint64        `json:"id"`
	VP       string        `json:"vp,omitempty"`
	Prefix   string        `json:"prefix,omitempty"`
	Withdraw bool          `json:"withdraw,omitempty"`
	Start    time.Time     `json:"start"`
	QueueNS  int64         `json:"queue_ns,omitempty"`
	Stages   []StageTiming `json:"stages,omitempty"`
	Verdict  string        `json:"verdict"`
	TotalNS  int64         `json:"total_ns"`

	// TraceID identifies the distributed trace this record belongs to;
	// SpanID identifies this record within it and ParentID the span (often
	// in another process) that caused it. Zero IDs render as "" and mark a
	// record that predates propagation.
	TraceID  SpanID `json:"trace_id,omitempty"`
	SpanID   SpanID `json:"span_id,omitempty"`
	ParentID SpanID `json:"parent_id,omitempty"`
	// Process names the process that recorded the span (the Recorder's
	// Process label); the fleet stitcher keys its per-hop view on it.
	Process string `json:"process,omitempty"`
	// Name labels non-pipeline spans ("fabric.distribute_filters",
	// "fabric.install_filters"); pipeline traces leave it empty and are
	// identified by VP/Prefix instead.
	Name string `json:"name,omitempty"`
	// Attrs carries small span attributes (generation tokens, collector
	// IDs) for the stitched fleet view.
	Attrs map[string]string `json:"attrs,omitempty"`

	rec  *Recorder
	done bool
}

// Context returns the trace context to propagate to child spans (in this
// process or across a wire frame).
func (t *Trace) Context() SpanContext {
	if t == nil {
		return SpanContext{}
	}
	return SpanContext{Trace: t.TraceID, Span: t.SpanID}
}

// SetAttr attaches one key=value attribute to the span.
func (t *Trace) SetAttr(k, v string) {
	if t == nil {
		return
	}
	if t.Attrs == nil {
		t.Attrs = make(map[string]string, 4)
	}
	t.Attrs[k] = v
}

// ObserveQueueWait records how long the update sat in a shard queue.
func (t *Trace) ObserveQueueWait(d time.Duration) {
	if t == nil {
		return
	}
	t.QueueNS = int64(d)
}

// ObserveStage appends one stage latency.
func (t *Trace) ObserveStage(stage string, d time.Duration) {
	if t == nil {
		return
	}
	t.Stages = append(t.Stages, StageTiming{Stage: stage, NS: int64(d)})
}

// Finish stamps the verdict and total latency and commits the trace to
// the recorder's ring. Repeated calls are ignored.
func (t *Trace) Finish(verdict string, total time.Duration) {
	if t == nil || t.done {
		return
	}
	t.done = true
	t.Verdict = verdict
	t.TotalNS = int64(total)
	if t.rec != nil {
		t.rec.commit(t)
	}
}

// Done reports whether Finish already ran.
func (t *Trace) Done() bool { return t != nil && t.done }

// Recorder is the sampled always-on flight recorder: a fixed-size ring
// of completed traces. All methods are safe for concurrent use and
// nil-receiver safe.
type Recorder struct {
	// Process labels every trace this recorder commits with the owning
	// process's fleet identity ("coordinator", "collector:c1"). Set it
	// before the first Begin/StartSpan; it is not synchronized.
	Process string

	interval uint64
	offered  atomic.Uint64
	ids      atomic.Uint64
	sampled  atomic.Uint64

	mu   sync.Mutex
	ring []Trace
	next int
	full bool
}

// NewRecorder builds a recorder keeping the last size traces, sampling
// one update per interval offered (<= 0 selects the defaults).
func NewRecorder(size, interval int) *Recorder {
	if size <= 0 {
		size = DefaultRingSize
	}
	if interval <= 0 {
		interval = DefaultSampleInterval
	}
	return &Recorder{interval: uint64(interval), ring: make([]Trace, size)}
}

// ShouldSample counts one offered update and reports whether it is the
// deterministic 1-in-interval pick. The first update is always sampled,
// so short test runs and freshly booted daemons produce traces at once.
func (r *Recorder) ShouldSample() bool {
	if r == nil {
		return false
	}
	return r.offered.Add(1)%r.interval == 1 || r.interval == 1
}

// Begin opens a trace for one sampled update. The trace gets fresh
// distributed IDs, so a sampled update's journey is stitchable across the
// stream/serving envelopes that carry its trace ID downstream.
func (r *Recorder) Begin(vp, prefix string, withdraw bool) *Trace {
	if r == nil {
		return nil
	}
	r.sampled.Add(1)
	return &Trace{
		ID:       r.ids.Add(1),
		VP:       vp,
		Prefix:   prefix,
		Withdraw: withdraw,
		Start:    time.Now(),
		TraceID:  NewID(),
		SpanID:   NewID(),
		Process:  r.Process,
		rec:      r,
	}
}

// StartSpan opens a named control-plane span under the given parent
// context: a zero context starts a fresh root trace, a propagated one (a
// wire frame's trace/span IDs) attaches this process's work to the remote
// caller's trace. Spans bypass sampling — control-plane events are rare
// and each one matters — and commit to the same ring on Finish, so
// /tracez and the fleet stitcher see pipeline traces and fabric spans in
// one timeline.
func (r *Recorder) StartSpan(name string, parent SpanContext) *Trace {
	if r == nil {
		return nil
	}
	r.sampled.Add(1)
	t := &Trace{
		ID:      r.ids.Add(1),
		Name:    name,
		Start:   time.Now(),
		SpanID:  NewID(),
		Process: r.Process,
		rec:     r,
	}
	if parent.Valid() {
		t.TraceID = parent.Trace
		t.ParentID = parent.Span
	} else {
		t.TraceID = NewID()
	}
	return t
}

// commit stores a finished trace in the ring.
func (r *Recorder) commit(t *Trace) {
	r.mu.Lock()
	r.ring[r.next] = *t
	r.next++
	if r.next == len(r.ring) {
		r.next = 0
		r.full = true
	}
	r.mu.Unlock()
}

// Last returns up to n completed traces, newest first.
func (r *Recorder) Last(n int) []Trace {
	if r == nil || n <= 0 {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	size := r.next
	if r.full {
		size = len(r.ring)
	}
	if n > size {
		n = size
	}
	out := make([]Trace, 0, n)
	idx := r.next
	for i := 0; i < n; i++ {
		idx--
		if idx < 0 {
			idx = len(r.ring) - 1
		}
		tr := r.ring[idx]
		tr.rec = nil
		out = append(out, tr)
	}
	return out
}

// Stats reports recorder totals: updates offered to ShouldSample and
// traces begun.
func (r *Recorder) Stats() (offered, sampled uint64) {
	if r == nil {
		return 0, 0
	}
	return r.offered.Load(), r.sampled.Load()
}
