package fabric

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"repro/internal/filter"
	"repro/internal/metrics"
	"repro/internal/resilience"
	"repro/internal/telemetry"
)

// DefaultLeaseTTL is the production lease duration. A collector heartbeats
// every TTL/3, so three consecutive losses cost the lease — fast enough
// that a crashed collector's shard is rebalanced before its VPs' routers
// give up re-dialing, slow enough that one dropped packet doesn't tear a
// healthy collector out of the fleet.
const DefaultLeaseTTL = 15 * time.Second

// DefaultWriteTimeout bounds one control-plane push; a collector that
// cannot absorb a frame in this window is treated as disconnected (its
// lease decides whether it is dead).
const DefaultWriteTimeout = 5 * time.Second

// CoordinatorConfig parameterizes a Coordinator.
type CoordinatorConfig struct {
	// LeaseTTL is the lease granted to each collector (default
	// DefaultLeaseTTL).
	LeaseTTL time.Duration
	// WriteTimeout bounds each control-plane write (default
	// DefaultWriteTimeout).
	WriteTimeout time.Duration
	// Registry receives fabric.* metrics; nil uses a private one.
	Registry *metrics.Registry
	// Log receives fleet lifecycle events; nil discards them.
	Log *telemetry.Logger
	// Clock overrides time.Now (tests drive leases deterministically).
	Clock func() time.Time
	// AcceptBackoff paces Serve's retries of transient Accept errors.
	AcceptBackoff resilience.Backoff
	// OnRebalance observes each completed rebalance (tests, operators).
	// Called outside the coordinator lock.
	OnRebalance func(Rebalance)
	// Recorder, when set, records coordinator-side control-plane spans
	// (filter distribution rounds, rebalances, ack receipts) whose trace
	// context rides the pushed frames — the coordinator hop of the
	// stitched fleet trace on /fleet/tracez.
	Recorder *telemetry.Recorder
}

// Rebalance describes one assignment-map recomputation.
type Rebalance struct {
	// Gen is the assignment generation installed by this rebalance.
	Gen uint64
	// Reason is a short operator-readable cause ("join:c2", "expire:c1",
	// "vps").
	Reason string
	// Moved counts VPs whose owner changed.
	Moved int
	// Collectors is the live set the map was computed over.
	Collectors []string
}

// collectorState is the coordinator's book on one collector.
type collectorState struct {
	id        string
	addr      string
	adminAddr string
	lease     *resilience.Lease
	joinedAt  time.Time

	// conn is the current control connection; nil while the collector is
	// between connections (its lease keeps it in the fleet). Guarded by
	// the coordinator mutex; writes serialize on sendMu.
	conn   net.Conn
	sendMu sync.Mutex

	heartbeats         uint64
	installedFilterGen uint64
	installedFilterSum uint64
	pushedFilterGen    uint64
	ackedAssignGen     uint64
}

// Coordinator owns the VP→collector assignment map and the fleet's filter
// distribution. It is safe for concurrent use; all network pushes happen
// outside its lock.
type Coordinator struct {
	cfg CoordinatorConfig
	log *telemetry.Logger

	mu         sync.Mutex
	vps        map[string]bool
	collectors map[string]*collectorState
	assignment map[string]string // vp → collector id
	assignGen  uint64

	filterGen   uint64
	filterBytes []byte
	filterSum   uint64
	// distributedAt remembers when each recent filter generation was
	// pushed, so acks yield the fleet's filter-propagation latency.
	distributedAt map[uint64]time.Time

	heartbeats    *metrics.Counter
	leasesExpired *metrics.Counter
	rebalances    *metrics.Counter
	vpsReassigned *metrics.Counter
	filterPushes  *metrics.Counter
	filterAcks    *metrics.Counter
	pushErrors    *metrics.Counter
	acceptRetries *metrics.Counter
	propagation   *metrics.Histogram
}

// NewCoordinator builds a coordinator. Call SetVPs (or AddVP) to seed the
// VP universe and Serve/Run to put it on the network.
func NewCoordinator(cfg CoordinatorConfig) *Coordinator {
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = DefaultLeaseTTL
	}
	if cfg.WriteTimeout <= 0 {
		cfg.WriteTimeout = DefaultWriteTimeout
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	reg := cfg.Registry
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	c := &Coordinator{
		cfg:           cfg,
		log:           cfg.Log.With("fabric"),
		vps:           make(map[string]bool),
		collectors:    make(map[string]*collectorState),
		assignment:    make(map[string]string),
		distributedAt: make(map[uint64]time.Time),
		heartbeats:    reg.Counter("fabric.heartbeats"),
		leasesExpired: reg.Counter("fabric.leases_expired"),
		rebalances:    reg.Counter("fabric.rebalances"),
		vpsReassigned: reg.Counter("fabric.vps_reassigned"),
		filterPushes:  reg.Counter("fabric.filter_pushes"),
		filterAcks:    reg.Counter("fabric.filter_acks"),
		pushErrors:    reg.Counter("fabric.push_errors"),
		acceptRetries: reg.Counter("fabric.accept_retries"),
		// Push-to-ack latency per collector in microseconds: 1ms .. ~2min.
		propagation: reg.Histogram("fabric.filter_propagation_us",
			metrics.ExpBuckets(1000, 2, 17)),
	}
	reg.GaugeFunc("fabric.collectors", func() int64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return int64(len(c.collectors))
	})
	reg.GaugeFunc("fabric.vps", func() int64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return int64(len(c.vps))
	})
	return c
}

// LeaseTTL returns the configured lease duration.
func (c *Coordinator) LeaseTTL() time.Duration { return c.cfg.LeaseTTL }

// SetVPs replaces the VP universe and rebalances.
func (c *Coordinator) SetVPs(vps []string) {
	c.mu.Lock()
	c.vps = make(map[string]bool, len(vps))
	for _, vp := range vps {
		c.vps[vp] = true
	}
	pushes := c.rebalanceLocked("vps")
	c.mu.Unlock()
	c.deliver(pushes)
}

// AddVP adds one VP to the universe (a freshly confirmed peering) and
// rebalances. Adding an already-known VP is a no-op.
func (c *Coordinator) AddVP(vp string) {
	c.mu.Lock()
	if c.vps[vp] {
		c.mu.Unlock()
		return
	}
	c.vps[vp] = true
	pushes := c.rebalanceLocked("vps")
	c.mu.Unlock()
	c.deliver(pushes)
}

// Assignment snapshots the current VP→collector map.
func (c *Coordinator) Assignment() map[string]string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]string, len(c.assignment))
	for vp, id := range c.assignment {
		out[vp] = id
	}
	return out
}

// OwnerOf returns the collector currently assigned vp ("" if none).
func (c *Coordinator) OwnerOf(vp string) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.assignment[vp]
}

// AssignGen returns the current assignment generation.
func (c *Coordinator) AssignGen() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.assignGen
}

// FilterGen returns the current filter generation and its byte digest.
func (c *Coordinator) FilterGen() (gen, sum uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.filterGen, c.filterSum
}

// push is one queued control-plane write, delivered outside the lock.
type push struct {
	st  *collectorState
	msg *Msg
}

// liveIDsLocked returns the sorted IDs of collectors holding a lease.
func (c *Coordinator) liveIDsLocked() []string {
	ids := make([]string, 0, len(c.collectors))
	for id := range c.collectors {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// rebalanceLocked recomputes the assignment map over the live collector
// set, bumps the assignment generation, and queues one assign message per
// connected collector. Caller holds c.mu and must deliver the returned
// pushes after unlocking. Rendezvous hashing keeps the recompute minimal:
// only VPs whose owner changed actually move, and Moved counts them.
func (c *Coordinator) rebalanceLocked(reason string) []push {
	span := c.cfg.Recorder.StartSpan("fabric.rebalance", telemetry.SpanContext{})
	start := c.cfg.Clock()
	live := c.liveIDsLocked()
	vps := make([]string, 0, len(c.vps))
	for vp := range c.vps {
		vps = append(vps, vp)
	}
	sort.Strings(vps)
	next := Assign(vps, live)
	moved := 0
	for vp, owner := range next {
		if c.assignment[vp] != owner {
			moved++
		}
	}
	for vp := range c.assignment {
		if _, still := next[vp]; !still {
			moved++
		}
	}
	c.assignment = next
	c.assignGen++
	c.rebalances.Inc()
	c.vpsReassigned.Add(uint64(moved))

	shards := make(map[string][]string, len(live))
	for _, vp := range vps {
		if owner := next[vp]; owner != "" {
			shards[owner] = append(shards[owner], vp)
		}
	}
	var pushes []push
	for id, st := range c.collectors {
		if st.conn == nil {
			continue
		}
		pushes = append(pushes, push{st: st, msg: &Msg{
			Type: MsgAssign, Gen: c.assignGen, VPs: shards[id],
			TraceID: span.Context().Trace, SpanID: span.Context().Span,
		}})
	}
	span.SetAttr("reason", reason)
	span.SetAttr("gen", fmt.Sprint(c.assignGen))
	span.SetAttr("moved", fmt.Sprint(moved))
	span.Finish(telemetry.VerdictOK, c.cfg.Clock().Sub(start))
	c.log.Info("rebalanced", "reason", reason, "gen", c.assignGen,
		"collectors", len(live), "vps", len(vps), "moved", moved)
	if c.cfg.OnRebalance != nil {
		// Capture for the unlocked observer call made by deliver's caller;
		// invoke inline here would run under the lock, so defer via pushes
		// is not possible — call on a copy from a goroutine-free path:
		rb := Rebalance{Gen: c.assignGen, Reason: reason, Moved: moved, Collectors: live}
		go c.cfg.OnRebalance(rb)
	}
	return pushes
}

// deliver writes queued pushes concurrently, each under its collector's
// send lock with the configured write deadline. A failed write detaches
// that collector's connection (its lease keeps it in the fleet until
// expiry).
func (c *Coordinator) deliver(pushes []push) {
	if len(pushes) == 0 {
		return
	}
	var wg sync.WaitGroup
	for _, p := range pushes {
		wg.Add(1)
		go func(p push) {
			defer wg.Done()
			p.st.sendMu.Lock()
			conn := p.st.conn
			var err error
			if conn != nil {
				err = WriteMsg(conn, p.msg, c.cfg.Clock().Add(c.cfg.WriteTimeout))
			}
			p.st.sendMu.Unlock()
			if err != nil {
				c.pushErrors.Inc()
				c.log.Warn("control push failed", "collector", p.st.id,
					"type", p.msg.Type, "err", err)
				c.detach(p.st, conn)
			} else if p.msg.Type == MsgFilters {
				c.filterPushes.Inc()
			}
		}(p)
	}
	wg.Wait()
}

// DistributeFilters marshals fs once and pushes it to every connected
// collector under a fresh filter generation. Its signature matches
// orchestrator.Subscribe's hook, so the orchestrator's in-process fan-out
// becomes fleet-wide distribution with one Subscribe call. Unreachable
// collectors are repaired later: their heartbeats report the stale
// installed generation and the coordinator re-pushes (and the daemon's
// FilterTTL watchdog degrades to retain-everything in the meantime, so a
// partitioned collector overshoots instead of dropping data).
func (c *Coordinator) DistributeFilters(fs *filter.Set) {
	c.DistributeFiltersTraced(telemetry.SpanContext{}, fs)
}

// DistributeFiltersTraced is DistributeFilters under a propagated parent
// span (the orchestrator's refresh span): the coordinator records its own
// distribution span as a child and stamps that span's context on every
// pushed frame, so one refresh yields one orchestrator → coordinator →
// collector trace. A zero parent starts a fresh root trace.
func (c *Coordinator) DistributeFiltersTraced(parent telemetry.SpanContext, fs *filter.Set) {
	var buf bytes.Buffer
	if err := fs.Marshal(&buf); err != nil {
		c.log.Error("filter marshal failed", "err", err)
		return
	}
	raw := buf.Bytes()
	span := c.cfg.Recorder.StartSpan("fabric.distribute_filters", parent)
	start := c.cfg.Clock()
	c.mu.Lock()
	c.filterGen++
	c.filterBytes = raw
	c.filterSum = FilterSum(raw)
	gen, sum := c.filterGen, c.filterSum
	c.distributedAt[gen] = start
	// Bound the book: only acks for recent generations are interesting.
	for g := range c.distributedAt {
		if g+16 <= gen {
			delete(c.distributedAt, g)
		}
	}
	var pushes []push
	for _, st := range c.collectors {
		if st.conn == nil {
			continue
		}
		st.pushedFilterGen = gen
		pushes = append(pushes, push{st: st, msg: &Msg{
			Type: MsgFilters, Gen: gen, Filters: raw, Sum: sum,
			TraceID: span.Context().Trace, SpanID: span.Context().Span,
		}})
	}
	c.mu.Unlock()
	span.SetAttr("filter_gen", fmt.Sprint(gen))
	span.SetAttr("collectors", fmt.Sprint(len(pushes)))
	span.SetAttr("bytes", fmt.Sprint(len(raw)))
	c.log.Info("distributing filter set", "filter_gen", gen,
		"bytes", len(raw), "collectors", len(pushes))
	c.deliver(pushes)
	span.Finish(telemetry.VerdictOK, c.cfg.Clock().Sub(start))
}

// Serve accepts collector control connections on ln until ctx ends,
// through the shared fault-tolerant accept loop.
func (c *Coordinator) Serve(ctx context.Context, ln net.Listener) error {
	return resilience.AcceptLoopOpts(ctx, ln, resilience.AcceptOptions{
		Backoff: c.cfg.AcceptBackoff,
		Retries: c.acceptRetries,
		OnRetry: func(failures int, err error, delay time.Duration) {
			c.log.Warn("control accept failed, retrying", "failures", failures,
				"delay", delay, "err", err)
		},
	}, func(conn net.Conn) {
		go c.handle(conn)
	})
}

// Run drives lease expiry: Tick every LeaseTTL/4 until ctx ends. Serve
// and Run together are a deployed coordinator; tests call Tick directly
// with their own clock.
func (c *Coordinator) Run(ctx context.Context) {
	t := time.NewTicker(c.cfg.LeaseTTL / 4)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			c.Tick(c.cfg.Clock())
		}
	}
}

// Tick expires lapsed leases and rebalances their shards onto the
// survivors. It returns the expired collector IDs (empty when none).
func (c *Coordinator) Tick(now time.Time) []string {
	c.mu.Lock()
	var expired []string
	var conns []net.Conn
	for id, st := range c.collectors {
		if st.lease.Expired(now) {
			expired = append(expired, id)
			if st.conn != nil {
				conns = append(conns, st.conn)
				st.conn = nil
			}
			delete(c.collectors, id)
		}
	}
	var pushes []push
	if len(expired) > 0 {
		sort.Strings(expired)
		c.leasesExpired.Add(uint64(len(expired)))
		pushes = c.rebalanceLocked("expire:" + expired[0])
	}
	c.mu.Unlock()
	for _, conn := range conns {
		conn.Close()
	}
	if len(expired) > 0 {
		c.log.Warn("leases expired", "collectors", fmt.Sprint(expired))
	}
	c.deliver(pushes)
	return expired
}

// handle runs one collector control connection: register, then
// heartbeats and acks until the connection dies. The read deadline is a
// backstop at 3×TTL — liveness is the lease's job, not the socket's.
func (c *Coordinator) handle(conn net.Conn) {
	defer conn.Close()
	now := c.cfg.Clock()
	m, err := ReadMsg(conn, now.Add(DefaultIOTimeout))
	if err != nil || m.Type != MsgRegister || m.ID == "" {
		c.log.Debug("rejecting control connection", "peer", conn.RemoteAddr(), "err", err)
		return
	}
	st, pushes := c.register(m, conn)
	c.deliver(pushes)
	for {
		m, err := ReadMsg(conn, c.cfg.Clock().Add(3*c.cfg.LeaseTTL))
		if err != nil {
			c.detach(st, conn)
			return
		}
		switch m.Type {
		case MsgHeartbeat:
			c.deliver(c.heartbeat(st, conn, m))
		case MsgAck:
			c.recordAck(st, m)
		}
	}
}

// register admits (or re-admits) a collector: grant a lease, install the
// connection, and queue the lease grant, the current shard, and the
// current filter set. A reconnecting collector replaces its old
// connection; its generations make the re-delivery idempotent.
func (c *Coordinator) register(m *Msg, conn net.Conn) (*collectorState, []push) {
	now := c.cfg.Clock()
	c.mu.Lock()
	st, known := c.collectors[m.ID]
	var old net.Conn
	if !known {
		st = &collectorState{
			id:       m.ID,
			lease:    resilience.NewLease(c.cfg.LeaseTTL, now),
			joinedAt: now,
		}
		c.collectors[m.ID] = st
	} else {
		st.lease.Renew(now)
		old = st.conn
	}
	st.addr = m.Addr
	if m.AdminAddr != "" {
		st.adminAddr = m.AdminAddr
	}
	st.conn = conn
	st.installedFilterGen = m.FilterGen
	st.installedFilterSum = m.Sum
	var pushes []push
	pushes = append(pushes, push{st: st, msg: &Msg{
		Type: MsgLease, TTLMillis: c.cfg.LeaseTTL.Milliseconds(),
		Gen: c.assignGen, FilterGen: c.filterGen,
	}})
	if !known {
		// A join rebalances the whole fleet (the new collector wins some
		// VPs) and already queues everyone's shard, including the joiner's.
		pushes = append(pushes, c.rebalanceLocked("join:"+m.ID)...)
	} else {
		// A reconnect re-sends the collector its current shard.
		var shard []string
		for vp, owner := range c.assignment {
			if owner == st.id {
				shard = append(shard, vp)
			}
		}
		sort.Strings(shard)
		pushes = append(pushes, push{st: st, msg: &Msg{
			Type: MsgAssign, Gen: c.assignGen, VPs: shard,
		}})
	}
	if c.filterGen > 0 && m.FilterGen < c.filterGen {
		st.pushedFilterGen = c.filterGen
		pushes = append(pushes, push{st: st, msg: &Msg{
			Type: MsgFilters, Gen: c.filterGen, Filters: c.filterBytes, Sum: c.filterSum,
		}})
	}
	c.mu.Unlock()
	if old != nil && old != conn {
		old.Close()
	}
	c.log.Info("collector registered", "collector", m.ID, "addr", m.Addr,
		"rejoined", known)
	return st, pushes
}

// heartbeat renews the collector's lease, records what it has installed,
// and queues a lease ack — plus a filter re-push if the heartbeat shows
// the collector behind the current generation (the repair path for
// pushes lost to a partition).
func (c *Coordinator) heartbeat(st *collectorState, conn net.Conn, m *Msg) []push {
	now := c.cfg.Clock()
	c.mu.Lock()
	if _, live := c.collectors[st.id]; !live || st.conn != conn {
		// Lease already expired (or superseded by a newer connection):
		// don't resurrect state behind the rebalance's back. The collector
		// will re-register when it notices the dead connection.
		c.mu.Unlock()
		conn.Close()
		return nil
	}
	st.lease.Renew(now)
	st.heartbeats++
	st.installedFilterGen = m.FilterGen
	st.installedFilterSum = m.Sum
	c.heartbeats.Inc()
	pushes := []push{{st: st, msg: &Msg{
		Type: MsgLease, TTLMillis: c.cfg.LeaseTTL.Milliseconds(),
		Gen: c.assignGen, FilterGen: c.filterGen,
	}}}
	if c.filterGen > 0 && m.FilterGen < c.filterGen {
		st.pushedFilterGen = c.filterGen
		pushes = append(pushes, push{st: st, msg: &Msg{
			Type: MsgFilters, Gen: c.filterGen, Filters: c.filterBytes, Sum: c.filterSum,
		}})
	}
	c.mu.Unlock()
	return pushes
}

// recordAck books a collector's install confirmation. An ack carrying
// trace context (the collector's install span) closes the round trip with
// an ack-receipt span, so the stitched trace shows when the coordinator
// learned the install landed.
func (c *Coordinator) recordAck(st *collectorState, m *Msg) {
	c.mu.Lock()
	switch m.Kind {
	case MsgFilters:
		st.installedFilterGen = m.Gen
		st.installedFilterSum = m.Sum
		c.filterAcks.Inc()
		if at, ok := c.distributedAt[m.Gen]; ok {
			c.propagation.Observe(uint64(c.cfg.Clock().Sub(at).Microseconds()))
		}
	case MsgAssign:
		if m.Gen > st.ackedAssignGen {
			st.ackedAssignGen = m.Gen
		}
	}
	c.mu.Unlock()
	if c.cfg.Recorder != nil && m.TraceID != 0 {
		span := c.cfg.Recorder.StartSpan("fabric.ack_received", m.TraceContext())
		span.SetAttr("collector", st.id)
		span.SetAttr("kind", m.Kind)
		span.SetAttr("gen", fmt.Sprint(m.Gen))
		span.Finish(telemetry.VerdictOK, 0)
	}
}

// detach drops a dead connection from a collector's state without
// touching its lease: a reconnect inside the TTL keeps the shard, and
// expiry (Tick) reclaims it otherwise.
func (c *Coordinator) detach(st *collectorState, conn net.Conn) {
	c.mu.Lock()
	if st.conn == conn {
		st.conn = nil
	}
	c.mu.Unlock()
	conn.Close()
}

// CollectorStatus is one collector's row in the fleet status payload.
type CollectorStatus struct {
	ID                 string   `json:"id"`
	Addr               string   `json:"addr,omitempty"`
	AdminAddr          string   `json:"admin_addr,omitempty"`
	Connected          bool     `json:"connected"`
	LeaseRemainingMS   int64    `json:"lease_remaining_ms"`
	Heartbeats         uint64   `json:"heartbeats"`
	VPs                []string `json:"vps"`
	AckedAssignGen     uint64   `json:"acked_assign_gen"`
	InstalledFilterGen uint64   `json:"installed_filter_gen"`
	InstalledFilterSum string   `json:"installed_filter_sum"`
}

// FleetStatus is the coordinator's /fleetz payload.
type FleetStatus struct {
	LeaseTTLMS int64             `json:"lease_ttl_ms"`
	AssignGen  uint64            `json:"assign_gen"`
	FilterGen  uint64            `json:"filter_gen"`
	FilterSum  string            `json:"filter_sum"`
	VPs        int               `json:"vps"`
	Unassigned []string          `json:"unassigned,omitempty"`
	Collectors []CollectorStatus `json:"collectors"`
}

// Status assembles the fleet status payload.
func (c *Coordinator) Status() FleetStatus {
	now := c.cfg.Clock()
	c.mu.Lock()
	defer c.mu.Unlock()
	fs := FleetStatus{
		LeaseTTLMS: c.cfg.LeaseTTL.Milliseconds(),
		AssignGen:  c.assignGen,
		FilterGen:  c.filterGen,
		FilterSum:  fmt.Sprintf("%016x", c.filterSum),
		VPs:        len(c.vps),
	}
	shards := make(map[string][]string)
	for vp, owner := range c.assignment {
		if owner == "" {
			fs.Unassigned = append(fs.Unassigned, vp)
			continue
		}
		shards[owner] = append(shards[owner], vp)
	}
	sort.Strings(fs.Unassigned)
	for _, id := range c.liveIDsLocked() {
		st := c.collectors[id]
		shard := shards[id]
		sort.Strings(shard)
		if shard == nil {
			shard = []string{}
		}
		fs.Collectors = append(fs.Collectors, CollectorStatus{
			ID:                 id,
			Addr:               st.addr,
			AdminAddr:          st.adminAddr,
			Connected:          st.conn != nil,
			LeaseRemainingMS:   st.lease.Remaining(now).Milliseconds(),
			Heartbeats:         st.heartbeats,
			VPs:                shard,
			AckedAssignGen:     st.ackedAssignGen,
			InstalledFilterGen: st.installedFilterGen,
			InstalledFilterSum: fmt.Sprintf("%016x", st.installedFilterSum),
		})
	}
	return fs
}
