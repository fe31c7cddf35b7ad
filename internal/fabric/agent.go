package fabric

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/filter"
	"repro/internal/metrics"
	"repro/internal/resilience"
	"repro/internal/telemetry"
)

// AgentConfig parameterizes a collector-side fabric agent.
type AgentConfig struct {
	// ID is the collector's fleet-unique identity (required).
	ID string
	// Coordinator is the control-plane address dialed when Dial is nil.
	Coordinator string
	// Addr is the collector's BGP listen address, advertised at
	// registration.
	Addr string
	// AdminAddr is the collector's admin-plane (HTTP) address, advertised
	// at registration so the coordinator's federation layer can scrape
	// /metrics and /tracez. Empty opts out of scraping.
	AdminAddr string
	// Dial overrides the control-plane dial (tests, chaos wrappers). Nil
	// dials Coordinator over TCP.
	Dial func(ctx context.Context) (net.Conn, error)
	// OnAssign receives each newly installed VP shard (sorted) with its
	// assignment generation. Called from the agent's read loop; keep it
	// quick.
	OnAssign func(gen uint64, vps []string)
	// OnFilters receives each newly installed filter set with its
	// generation and exact marshaled bytes. daemon.Config users typically
	// pass func(_ uint64, fs *filter.Set, _ []byte) { d.SetFilters(fs) }.
	OnFilters func(gen uint64, fs *filter.Set, raw []byte)
	// Backoff paces reconnects (zero value: defaults).
	Backoff resilience.Backoff
	// MaxRestarts bounds consecutive failed sessions (0: reconnect
	// forever — the right default; a partitioned collector must keep
	// trying for as long as the partition lasts).
	MaxRestarts int
	// HeartbeatEvery overrides the heartbeat cadence; zero derives TTL/3
	// from the granted lease.
	HeartbeatEvery time.Duration
	// Registry receives fabric.agent.* metrics; nil uses a private one.
	Registry *metrics.Registry
	// Log receives session lifecycle events; nil discards them.
	Log *telemetry.Logger
	// Clock overrides time.Now (tests).
	Clock func() time.Time
	// Recorder, when set, records collector-side install spans under the
	// trace context propagated on assign/filters frames — the collector
	// hop of the stitched fleet trace.
	Recorder *telemetry.Recorder
}

// Agent maintains one collector's side of the fabric: it registers with
// the coordinator, heartbeats to keep its lease, and installs
// generation-tokened assignments and filter sets. Stale generations are
// rejected — after a reconnect the coordinator re-sends current state and
// re-delivery of anything already installed is a no-op — so the agent's
// installed state moves only forward no matter how the control plane
// flaps.
type Agent struct {
	cfg AgentConfig
	log *telemetry.Logger

	mu          sync.Mutex
	connected   bool
	leaseTTL    time.Duration
	lastContact time.Time
	assignGen   uint64
	shard       []string
	filterGen   uint64
	filterSum   uint64
	hbSentAt    time.Time // pending heartbeat for RTT measurement

	sendMu sync.Mutex // serializes writes (acks vs heartbeats)

	heartbeats   *metrics.Counter
	staleFilters *metrics.Counter
	staleAssigns *metrics.Counter
	installs     *metrics.Counter
	assigns      *metrics.Counter
	rtt          *metrics.Histogram
}

// NewAgent builds an agent; Run starts it.
func NewAgent(cfg AgentConfig) (*Agent, error) {
	if cfg.ID == "" {
		return nil, fmt.Errorf("fabric: agent needs an ID")
	}
	if cfg.Dial == nil && cfg.Coordinator == "" {
		return nil, fmt.Errorf("fabric: agent needs a Coordinator address or a Dial hook")
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	reg := cfg.Registry
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	a := &Agent{
		cfg:          cfg,
		log:          cfg.Log.With("fabric-agent"),
		heartbeats:   reg.Counter("fabric.agent.heartbeats"),
		staleFilters: reg.Counter("fabric.agent.stale_filters_rejected"),
		staleAssigns: reg.Counter("fabric.agent.stale_assigns_rejected"),
		installs:     reg.Counter("fabric.agent.filter_installs"),
		assigns:      reg.Counter("fabric.agent.assign_installs"),
		// Control RTT in microseconds: 100µs .. ~3.3s.
		rtt: reg.Histogram("fabric.agent.control_rtt_us", metrics.ExpBuckets(100, 2, 16)),
	}
	return a, nil
}

// Run maintains the control session until ctx ends, reconnecting with
// backoff through a Supervisor. It returns when ctx is done or the
// restart budget (if any) is exhausted.
func (a *Agent) Run(ctx context.Context) error {
	sup := &resilience.Supervisor{
		Backoff:     a.cfg.Backoff,
		MaxRestarts: a.cfg.MaxRestarts,
		Registry:    a.cfg.Registry,
		Clock:       a.cfg.Clock,
	}
	return sup.Run(ctx, "fabric."+a.cfg.ID, a.session)
}

func (a *Agent) dial(ctx context.Context) (net.Conn, error) {
	if a.cfg.Dial != nil {
		return a.cfg.Dial(ctx)
	}
	var d net.Dialer
	dctx, cancel := context.WithTimeout(ctx, DefaultIOTimeout)
	defer cancel()
	return d.DialContext(dctx, "tcp", a.cfg.Coordinator)
}

// session runs one control connection: register, then a reader goroutine
// for coordinator pushes and a heartbeat loop in the session goroutine.
// Any error tears the connection down and hands control back to the
// Supervisor for a backed-off reconnect.
func (a *Agent) session(ctx context.Context) error {
	conn, err := a.dial(ctx)
	if err != nil {
		return fmt.Errorf("fabric: dial coordinator: %w", err)
	}
	defer conn.Close()

	// Register, reporting what is already installed so the coordinator
	// skips redundant re-pushes after a control-plane blip.
	a.mu.Lock()
	fgen, fsum := a.filterGen, a.filterSum
	a.mu.Unlock()
	err = a.send(conn, &Msg{
		Type: MsgRegister, ID: a.cfg.ID, Addr: a.cfg.Addr,
		AdminAddr: a.cfg.AdminAddr, FilterGen: fgen, Sum: fsum,
	})
	if err != nil {
		return fmt.Errorf("fabric: register: %w", err)
	}

	// Unblock the reader when ctx ends mid-read.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-ctx.Done():
			conn.Close()
		case <-stop:
		}
	}()

	errc := make(chan error, 1)
	go func() { errc <- a.readLoop(conn) }()

	a.setConnected(true)
	defer a.setConnected(false)
	a.log.Info("control session up", "collector", a.cfg.ID)

	for {
		select {
		case err := <-errc:
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return err
		case <-ctx.Done():
			conn.Close()
			<-errc
			return ctx.Err()
		case <-time.After(a.heartbeatEvery()):
			a.mu.Lock()
			fgen, fsum := a.filterGen, a.filterSum
			if a.hbSentAt.IsZero() {
				a.hbSentAt = a.cfg.Clock()
			}
			a.mu.Unlock()
			err := a.send(conn, &Msg{
				Type: MsgHeartbeat, ID: a.cfg.ID, FilterGen: fgen, Sum: fsum,
			})
			if err != nil {
				conn.Close()
				<-errc
				return fmt.Errorf("fabric: heartbeat: %w", err)
			}
			a.heartbeats.Inc()
		}
	}
}

// heartbeatEvery derives the heartbeat cadence: an explicit override, else
// a third of the granted lease, else a conservative pre-lease default.
func (a *Agent) heartbeatEvery() time.Duration {
	if a.cfg.HeartbeatEvery > 0 {
		return a.cfg.HeartbeatEvery
	}
	a.mu.Lock()
	ttl := a.leaseTTL
	a.mu.Unlock()
	if ttl > 0 {
		return ttl / 3
	}
	// Pre-lease (the grant reply has not arrived yet): heartbeat fast so a
	// short-TTL lease cannot lapse in the window between registration and
	// the first TTL-derived heartbeat.
	return 50 * time.Millisecond
}

// send writes one frame under the agent's send lock (acks from the read
// loop interleave with heartbeats from the session loop).
func (a *Agent) send(conn net.Conn, m *Msg) error {
	a.sendMu.Lock()
	defer a.sendMu.Unlock()
	return WriteMsg(conn, m, time.Time{})
}

// readLoop dispatches coordinator pushes until the connection dies. The
// read deadline is refreshed per frame at 3 lease TTLs — a coordinator
// silent for three whole leases is gone, and blocking forever on a dead
// socket would pin this goroutine past the session's end.
func (a *Agent) readLoop(conn net.Conn) error {
	for {
		var deadline time.Time
		a.mu.Lock()
		if a.leaseTTL > 0 {
			deadline = a.cfg.Clock().Add(3 * a.leaseTTL)
		} else {
			deadline = a.cfg.Clock().Add(3 * DefaultLeaseTTL)
		}
		a.mu.Unlock()
		m, err := ReadMsg(conn, deadline)
		if err != nil {
			return err
		}
		switch m.Type {
		case MsgLease:
			a.onLease(m)
		case MsgAssign:
			a.onAssign(conn, m)
		case MsgFilters:
			a.onFilters(conn, m)
		}
	}
}

func (a *Agent) onLease(m *Msg) {
	now := a.cfg.Clock()
	a.mu.Lock()
	a.leaseTTL = time.Duration(m.TTLMillis) * time.Millisecond
	a.lastContact = now
	if !a.hbSentAt.IsZero() {
		rtt := now.Sub(a.hbSentAt)
		a.hbSentAt = time.Time{}
		a.mu.Unlock()
		a.rtt.Observe(uint64(rtt.Microseconds()))
		return
	}
	a.mu.Unlock()
}

// onAssign installs a shard if its generation moves forward; stale
// generations (reordered or replayed deliveries) are rejected.
func (a *Agent) onAssign(conn net.Conn, m *Msg) {
	a.mu.Lock()
	if m.Gen <= a.assignGen && a.assignGen != 0 {
		a.mu.Unlock()
		a.staleAssigns.Inc()
		a.log.Debug("rejecting stale assignment", "gen", m.Gen)
		return
	}
	a.assignGen = m.Gen
	a.shard = append([]string(nil), m.VPs...)
	a.lastContact = a.cfg.Clock()
	a.mu.Unlock()
	span := a.cfg.Recorder.StartSpan("fabric.install_assign", m.TraceContext())
	start := a.cfg.Clock()
	a.assigns.Inc()
	a.log.Info("shard installed", "gen", m.Gen, "vps", len(m.VPs))
	if a.cfg.OnAssign != nil {
		a.cfg.OnAssign(m.Gen, append([]string(nil), m.VPs...))
	}
	span.SetAttr("gen", fmt.Sprint(m.Gen))
	span.SetAttr("vps", fmt.Sprint(len(m.VPs)))
	span.Finish(telemetry.VerdictOK, a.cfg.Clock().Sub(start))
	ackCtx := ackContext(span, m)
	a.send(conn, &Msg{Type: MsgAck, ID: a.cfg.ID, Kind: MsgAssign, Gen: m.Gen,
		TraceID: ackCtx.Trace, SpanID: ackCtx.Span})
}

// ackContext picks the trace context an ack carries back: the local
// install span when one was recorded, else the incoming frame's context
// echoed unchanged (a recorder-less agent must not break the trace).
func ackContext(span *telemetry.Trace, m *Msg) telemetry.SpanContext {
	if ctx := span.Context(); ctx.Valid() {
		return ctx
	}
	return m.TraceContext()
}

// onFilters installs a filter set if its generation moves forward. The
// bytes are parsed before the generation is committed: a corrupt frame
// must not advance the token and mask the real set. Both the stale and
// the installed path ack with the agent's current generation and digest
// so the coordinator's book converges either way.
func (a *Agent) onFilters(conn net.Conn, m *Msg) {
	a.mu.Lock()
	cur := a.filterGen
	a.mu.Unlock()
	if m.Gen <= cur {
		a.staleFilters.Inc()
		a.log.Debug("rejecting stale filter set", "gen", m.Gen, "installed", cur)
		a.mu.Lock()
		gen, sum := a.filterGen, a.filterSum
		a.mu.Unlock()
		a.send(conn, &Msg{Type: MsgAck, ID: a.cfg.ID, Kind: MsgFilters, Gen: gen, Sum: sum})
		return
	}
	fs, err := filter.Unmarshal(bytes.NewReader(m.Filters))
	if err != nil {
		a.log.Error("filter set unmarshal failed", "gen", m.Gen, "err", err)
		return
	}
	sum := FilterSum(m.Filters)
	if m.Sum != 0 && sum != m.Sum {
		a.log.Error("filter set digest mismatch", "gen", m.Gen,
			"want", fmt.Sprintf("%016x", m.Sum), "got", fmt.Sprintf("%016x", sum))
		return
	}
	a.mu.Lock()
	a.filterGen = m.Gen
	a.filterSum = sum
	a.lastContact = a.cfg.Clock()
	a.mu.Unlock()
	span := a.cfg.Recorder.StartSpan("fabric.install_filters", m.TraceContext())
	start := a.cfg.Clock()
	a.installs.Inc()
	a.log.Info("filter set installed", "filter_gen", m.Gen,
		"sum", fmt.Sprintf("%016x", sum), "bytes", len(m.Filters))
	if a.cfg.OnFilters != nil {
		a.cfg.OnFilters(m.Gen, fs, m.Filters)
	}
	span.SetAttr("filter_gen", fmt.Sprint(m.Gen))
	span.SetAttr("bytes", fmt.Sprint(len(m.Filters)))
	span.Finish(telemetry.VerdictOK, a.cfg.Clock().Sub(start))
	ackCtx := ackContext(span, m)
	a.send(conn, &Msg{Type: MsgAck, ID: a.cfg.ID, Kind: MsgFilters, Gen: m.Gen, Sum: sum,
		TraceID: ackCtx.Trace, SpanID: ackCtx.Span})
}

func (a *Agent) setConnected(v bool) {
	a.mu.Lock()
	a.connected = v
	if v {
		a.lastContact = a.cfg.Clock()
	}
	a.hbSentAt = time.Time{}
	a.mu.Unlock()
}

// Connected reports whether a control session is currently up.
func (a *Agent) Connected() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.connected
}

// FilterGen returns the installed filter generation and byte digest.
func (a *Agent) FilterGen() (gen, sum uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.filterGen, a.filterSum
}

// AgentStatus is the collector's fabric section in /statusz.
type AgentStatus struct {
	ID          string   `json:"id"`
	Connected   bool     `json:"connected"`
	LeaseTTLMS  int64    `json:"lease_ttl_ms"`
	LastContact string   `json:"last_contact,omitempty"`
	AssignGen   uint64   `json:"assign_gen"`
	VPs         []string `json:"vps"`
	FilterGen   uint64   `json:"filter_gen"`
	FilterSum   string   `json:"filter_sum"`
}

// Status assembles the agent's status payload.
func (a *Agent) Status() AgentStatus {
	a.mu.Lock()
	defer a.mu.Unlock()
	st := AgentStatus{
		ID:         a.cfg.ID,
		Connected:  a.connected,
		LeaseTTLMS: a.leaseTTL.Milliseconds(),
		AssignGen:  a.assignGen,
		VPs:        append([]string{}, a.shard...),
		FilterGen:  a.filterGen,
		FilterSum:  fmt.Sprintf("%016x", a.filterSum),
	}
	if !a.lastContact.IsZero() {
		st.LastContact = a.lastContact.UTC().Format(time.RFC3339Nano)
	}
	return st
}
