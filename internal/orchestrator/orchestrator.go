// Package orchestrator implements GILL's control plane (§8, §9): the
// automated peering workflow with two-step ownership verification, the
// scheduled refresh of the sampling components (component #1 every 16
// days, component #2 yearly), the temporary mirroring scheme that feeds
// the sampling algorithms all data for bounded windows, and filter
// distribution to the collection daemons.
package orchestrator

import (
	"errors"
	"fmt"
	"net/netip"
	"sort"
	"sync"
	"time"

	"repro/internal/filter"
	"repro/internal/metrics"
	"repro/internal/resilience"
	"repro/internal/telemetry"
)

// Refresh periods (§7).
const (
	// Component1Period is how often redundant-update inference reruns.
	Component1Period = 16 * 24 * time.Hour
	// Component2Period is how often anchor-VP selection reruns.
	Component2Period = 365 * 24 * time.Hour
	// RefreshJitter is the ± fraction applied to each refresh period. The
	// offset is a pure function of (component, generation), so successive
	// refreshes do not land on a fixed grid, yet replaying one refresh
	// history reproduces its schedule exactly.
	RefreshJitter = 0.05
)

// PeeringRequest is the §9 web-form submission.
type PeeringRequest struct {
	ASN      uint32
	Email    string
	RouterIP netip.Addr
	// MD5Secret etc. would ride along here; omitted.
}

// OwnershipVerifier answers whether an email address is authoritative for
// an ASN — GILL cross-checks against PeeringDB (§9); tests and the demo
// deployment plug in a simulated registry.
type OwnershipVerifier interface {
	Owns(email string, asn uint32) bool
}

// VerifierFunc adapts a function to OwnershipVerifier.
type VerifierFunc func(email string, asn uint32) bool

// Owns implements OwnershipVerifier.
func (f VerifierFunc) Owns(email string, asn uint32) bool { return f(email, asn) }

// Peer is an activated peering session.
type Peer struct {
	ASN       uint32
	RouterIP  netip.Addr
	AddedAt   time.Time
	Confirmed bool
}

// Errors of the peering workflow.
var (
	ErrUnverified    = errors.New("orchestrator: email does not own the ASN")
	ErrAlreadyPeered = errors.New("orchestrator: ASN already has a session")
	ErrNoSuchPeer    = errors.New("orchestrator: unknown peer")
)

// Orchestrator is GILL's control plane.
type Orchestrator struct {
	mu       sync.Mutex
	verifier OwnershipVerifier
	clock    func() time.Time
	log      *telemetry.Logger

	peers   map[uint32]*Peer
	pending map[uint32]PeeringRequest

	// filters is nil until the first refresh installs a set: before any
	// recompute has run there are no filters to distribute, and the
	// accept-everything default applies implicitly.
	filters *filter.Set

	lastComponent1 time.Time
	lastComponent2 time.Time
	gen1, gen2     uint64 // completed refreshes, indexes the jitter stream

	// began counts refreshes begun per component (the generation-token
	// stream); inflight counts those begun but not yet committed.
	// Indexed by component (1, 2).
	began    [3]uint64
	inflight [3]int

	// subscribers receive new filter sets (the daemons' loading hook);
	// tracedSubscribers additionally receive the refresh span's context so
	// downstream hops (the fabric coordinator) can attach their spans to
	// the refresh trace.
	subscribers       []func(*filter.Set)
	tracedSubscribers []func(telemetry.SpanContext, *filter.Set)

	// recorder, when set, records one root span per filter fan-out — the
	// orchestrator hop of the stitched fleet trace.
	recorder *telemetry.Recorder

	// hookPanics counts subscriber hooks that panicked during fan-out.
	// Always non-nil (Instrument swaps in the shared registry's counter).
	hookPanics *metrics.Counter
}

// New builds an orchestrator.
func New(verifier OwnershipVerifier, clock func() time.Time) *Orchestrator {
	if clock == nil {
		clock = time.Now
	}
	return &Orchestrator{
		verifier:   verifier,
		clock:      clock,
		peers:      make(map[uint32]*Peer),
		pending:    make(map[uint32]PeeringRequest),
		hookPanics: &metrics.Counter{},
	}
}

// Instrument publishes the orchestrator's counters on the shared registry
// (orchestrator.hook_panics).
func (o *Orchestrator) Instrument(reg *metrics.Registry) {
	o.mu.Lock()
	o.hookPanics = reg.Counter("orchestrator.hook_panics")
	o.mu.Unlock()
}

// SetLogger routes the orchestrator's structured events (peering
// workflow, filter distribution) to l; nil discards them.
func (o *Orchestrator) SetLogger(l *telemetry.Logger) {
	o.mu.Lock()
	o.log = l.With("orchestrator")
	o.mu.Unlock()
}

// SetRecorder attaches the flight recorder that records one root span per
// filter fan-out ("orchestrator.distribute"); nil disables tracing.
func (o *Orchestrator) SetRecorder(r *telemetry.Recorder) {
	o.mu.Lock()
	o.recorder = r
	o.mu.Unlock()
}

// SubmitPeering registers a web-form request; the session activates only
// after ConfirmEmail (the §9 two-step scheme).
func (o *Orchestrator) SubmitPeering(req PeeringRequest) error {
	o.mu.Lock()
	if _, ok := o.peers[req.ASN]; ok {
		o.mu.Unlock()
		return ErrAlreadyPeered
	}
	o.pending[req.ASN] = req
	log := o.log
	o.mu.Unlock()
	log.Info("peering request submitted", "asn", req.ASN, "router", req.RouterIP)
	return nil
}

// ConfirmEmail completes the two-step verification: the sender's address
// must be authoritative for the ASN per the registry.
func (o *Orchestrator) ConfirmEmail(asn uint32, senderEmail string) (*Peer, error) {
	o.mu.Lock()
	req, ok := o.pending[asn]
	if !ok {
		o.mu.Unlock()
		return nil, fmt.Errorf("%w: no pending request for AS%d", ErrNoSuchPeer, asn)
	}
	if o.verifier != nil && !o.verifier.Owns(senderEmail, asn) {
		log := o.log
		o.mu.Unlock()
		log.Warn("ownership verification failed", "asn", asn)
		return nil, ErrUnverified
	}
	delete(o.pending, asn)
	p := &Peer{ASN: asn, RouterIP: req.RouterIP, AddedAt: o.clock(), Confirmed: true}
	o.peers[asn] = p
	log := o.log
	o.mu.Unlock()
	log.Info("peering session activated", "asn", asn, "router", p.RouterIP)
	return p, nil
}

// Peers lists active sessions sorted by ASN.
func (o *Orchestrator) Peers() []*Peer {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make([]*Peer, 0, len(o.peers))
	for _, p := range o.peers {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ASN < out[j].ASN })
	return out
}

// Pending returns the number of peering requests awaiting confirmation.
func (o *Orchestrator) Pending() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.pending)
}

// Subscribe registers a filter-loading hook called with every refreshed
// filter set. If a refresh has already produced filters, the hook is also
// invoked immediately with the current set; before the first refresh it is
// not — there are no filters yet, and fanning out a placeholder would
// overwrite whatever set a daemon bootstrapped from disk with nothing.
func (o *Orchestrator) Subscribe(fn func(*filter.Set)) {
	o.mu.Lock()
	o.subscribers = append(o.subscribers, fn)
	cur := o.filters
	log := o.log
	o.mu.Unlock()
	if cur != nil {
		o.callHook(fn, cur, log)
	}
}

// SubscribeTraced registers a filter-loading hook that also receives the
// distributing refresh's span context, so a cross-process subscriber (the
// fabric coordinator's DistributeFiltersTraced) can parent its own span
// under the orchestrator's trace. Catch-up delivery of an already-current
// set carries a zero context — that fan-out's span is long finished.
func (o *Orchestrator) SubscribeTraced(fn func(telemetry.SpanContext, *filter.Set)) {
	o.mu.Lock()
	o.tracedSubscribers = append(o.tracedSubscribers, fn)
	cur := o.filters
	log := o.log
	o.mu.Unlock()
	if cur != nil {
		o.callHook(func(fs *filter.Set) { fn(telemetry.SpanContext{}, fs) }, cur, log)
	}
}

// callHook invokes one subscriber hook, containing any panic: a broken
// subscriber (a daemon shutting down mid-refresh, a fabric push hitting a
// closed coordinator) must not abort the refresh that is fanning out or
// poison the subscribers after it. Panics are counted on
// orchestrator.hook_panics and logged, never propagated.
func (o *Orchestrator) callHook(fn func(*filter.Set), fs *filter.Set, log *telemetry.Logger) {
	defer func() {
		if r := recover(); r != nil {
			o.mu.Lock()
			panics := o.hookPanics
			o.mu.Unlock()
			panics.Inc()
			log.Error("filter subscriber hook panicked", "panic", fmt.Sprint(r))
		}
	}()
	fn(fs)
}

// RefreshToken authorizes one recompute result: BeginRefresh hands it out
// when a refresh starts, and CommitFilters only installs a result carrying
// the newest token for its component. A recompute overtaken by a fresher
// one (trained on a more recent window) is rejected instead of racing it.
type RefreshToken struct {
	Component int
	gen       uint64
}

// ErrStaleRefresh reports a recompute result that was overtaken by a newer
// refresh of the same component and therefore not installed.
var ErrStaleRefresh = errors.New("orchestrator: stale recompute result rejected")

// BeginRefresh registers the start of a recompute for component 1 or 2 and
// returns the token its result must present to CommitFilters. While a
// refresh is in flight, Due no longer reports the component due, so
// callers polling the schedule cannot launch overlapping recomputes.
func (o *Orchestrator) BeginRefresh(component int) RefreshToken {
	if component != 1 && component != 2 {
		panic("orchestrator: BeginRefresh component must be 1 or 2")
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	o.began[component]++
	o.inflight[component]++
	return RefreshToken{Component: component, gen: o.began[component]}
}

// CommitFilters installs a refresh result if its token is still the newest
// begun for the component; a stale result — another refresh began after
// this one — is rejected with ErrStaleRefresh, so the install order can
// never regress to an older training window.
func (o *Orchestrator) CommitFilters(fs *filter.Set, tok RefreshToken) error {
	o.mu.Lock()
	if o.inflight[tok.Component] > 0 {
		o.inflight[tok.Component]--
	}
	if tok.gen != o.began[tok.Component] {
		log := o.log
		o.mu.Unlock()
		log.Warn("stale recompute result rejected", "component", tok.Component)
		return ErrStaleRefresh
	}
	o.installLocked(fs, tok.Component)
	return nil
}

// LoadFilters installs a freshly generated filter set and fans it out,
// bypassing the generation-token check (single-caller deployments and
// tests); concurrent refreshes should use BeginRefresh + CommitFilters.
func (o *Orchestrator) LoadFilters(fs *filter.Set, component int) {
	o.mu.Lock()
	o.installLocked(fs, component)
}

// installLocked records the refresh and fans fs out to subscribers. Called
// with o.mu held; returns with it released (fan-out runs unlocked so a
// slow subscriber never stalls the control plane).
func (o *Orchestrator) installLocked(fs *filter.Set, component int) {
	o.filters = fs
	now := o.clock()
	switch component {
	case 1:
		o.lastComponent1 = now
		o.gen1++
	case 2:
		o.lastComponent2 = now
		o.gen2++
	}
	subs := make([]func(*filter.Set), len(o.subscribers))
	copy(subs, o.subscribers)
	tsubs := make([]func(telemetry.SpanContext, *filter.Set), len(o.tracedSubscribers))
	copy(tsubs, o.tracedSubscribers)
	gen := o.gen1 + o.gen2
	log := o.log
	rec := o.recorder
	o.mu.Unlock()
	span := rec.StartSpan("orchestrator.distribute", telemetry.SpanContext{})
	span.SetAttr("component", fmt.Sprint(component))
	span.SetAttr("generation", fmt.Sprint(gen))
	start := now
	log.Info("filter set distributed", "component", component, "generation", gen,
		"subscribers", len(subs)+len(tsubs))
	for _, fn := range subs {
		o.callHook(fn, fs, log)
	}
	ctx := span.Context()
	for _, fn := range tsubs {
		fn := fn
		o.callHook(func(fs *filter.Set) { fn(ctx, fs) }, fs, log)
	}
	span.Finish(telemetry.VerdictOK, o.clock().Sub(start))
}

// Filters returns the current filter set, or nil before the first refresh
// (accept everything).
func (o *Orchestrator) Filters() *filter.Set {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.filters
}

// jitteredPeriod spreads period by ±RefreshJitter, deterministically from
// (component, generation): each refresh draws a fresh offset, and
// replaying the same history reproduces the same schedule.
func jitteredPeriod(period time.Duration, component int, gen uint64) time.Duration {
	f := resilience.JitterFraction(0, uint64(component)<<32|gen)
	return time.Duration(float64(period) * (1 + RefreshJitter*f))
}

// RefreshPeriods returns the jittered periods the next Due check applies
// to components #1 and #2.
func (o *Orchestrator) RefreshPeriods() (component1, component2 time.Duration) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return jitteredPeriod(Component1Period, 1, o.gen1),
		jitteredPeriod(Component2Period, 2, o.gen2)
}

// Due reports which components need refreshing (§7 periods, each spread
// by ±RefreshJitter). A component that never ran is always due; a
// component with a refresh in flight (begun via BeginRefresh, not yet
// committed) is never due, so schedule pollers cannot launch
// overlapping recomputes.
func (o *Orchestrator) Due() (component1, component2 bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	now := o.clock()
	component1 = o.inflight[1] == 0 &&
		(o.lastComponent1.IsZero() ||
			now.Sub(o.lastComponent1) >= jitteredPeriod(Component1Period, 1, o.gen1))
	component2 = o.inflight[2] == 0 &&
		(o.lastComponent2.IsZero() ||
			now.Sub(o.lastComponent2) >= jitteredPeriod(Component2Period, 2, o.gen2))
	return
}
