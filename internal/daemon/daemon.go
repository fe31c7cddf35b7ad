// Package daemon implements GILL's collection daemon (§8): a lightweight
// BGP listener tailored to peer with a single router, apply GILL's filters
// to the received updates, and archive what survives — RIB dumps every
// eight hours and every retained update in MRT format. The daemon counts
// received, filtered, written and lost updates so the Table 1 load
// experiment can measure loss as a function of ingest rate, and a
// calibrated capacity model extrapolates to peer counts that cannot run
// on one test machine.
//
// The ingest path is composed from pipeline stages (filter → live tee →
// archive → counters), sharded by (VP, prefix) across parallel workers
// with bounded queues. Overflow drops the newest update (a collector must
// never stall the BGP session), and every stage exports counters so the
// Table 1 loss numbers stay derivable from the pipeline snapshot.
package daemon

import (
	"context"
	"errors"
	"io"
	"net"
	"net/netip"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bgp"
	"repro/internal/filter"
	"repro/internal/metrics"
	"repro/internal/mrt"
	"repro/internal/pipeline"
	"repro/internal/quality"
	"repro/internal/resilience"
	"repro/internal/telemetry"
	"repro/internal/update"
	"repro/internal/vitals"
)

// RIBDumpInterval is the paper's RIB snapshot period (§8).
const RIBDumpInterval = 8 * time.Hour

// Config parameterizes a collection daemon.
type Config struct {
	LocalAS  uint32
	RouterID netip.Addr
	// Filters is the GILL filter set; nil collects everything.
	Filters *filter.Set
	// Out receives the MRT update archive; nil discards.
	Out io.Writer
	// RecordSink, when set, receives the archived MRT records, encoded, one
	// call per pipeline batch (e.g. an archive.Journal's AppendBatch), and
	// returns how many it stored; it runs in addition to Out. See
	// pipeline.ArchiveStage.Sink.
	RecordSink func(recs [][]byte) (int, error)
	// QueueSize bounds the total ingest queue between the BGP readers
	// and the pipeline workers; overflowing updates are lost (default
	// 4096, split across the pipeline's shards).
	QueueSize int
	// WriteDelay emulates storage latency per archived record, letting
	// load tests reproduce the disk-bound regime of Table 1.
	WriteDelay time.Duration
	// Publish, when set, receives every retained update (the live-feed
	// tee, §9).
	Publish func(*update.Update)
	// Registry receives the pipeline's metrics; nil uses a private one
	// (readable via Metrics).
	Registry *metrics.Registry
	// Clock for timestamps (defaults to time.Now).
	Clock func() time.Time
	// FilterTTL bounds how stale the installed filter set may grow. When
	// no SetFilters refresh arrives within the TTL (orchestrator
	// unreachable past its Component1Period slack), the daemon degrades to
	// retain-everything mode — the paper's bias toward overshoot when in
	// doubt (§7) — and surfaces a daemon.degraded gauge. Zero disables the
	// watchdog.
	FilterTTL time.Duration
	// AcceptBackoff paces Serve's retries of transient Accept errors; the
	// zero value uses the resilience defaults.
	AcceptBackoff resilience.Backoff
	// Log receives the daemon's structured events (session up/down,
	// degrade transitions, accept retries); nil discards them.
	Log *telemetry.Logger
	// Tracer samples updates through the ingest pipeline into the flight
	// recorder (dumpable via the admin plane's /tracez); nil disables.
	Tracer *telemetry.Recorder
	// Quality, when set, wires the data-quality plane into the ingest
	// path: its selector picks the shadow-mirrored (VP,prefix) slots at
	// the filter stage, its auditor receives both filter verdicts for
	// those slots, and its completeness ledger samples the daemon's
	// accounting (LedgerCounts).
	Quality *quality.Plane
	// Vitals, when set, taps the ingest pipeline ahead of the filter (so
	// per-VP liveness reflects what the VP sends, not what the platform
	// retains) and receives session up/down events from ServeConn.
	Vitals *vitals.Tracker
}

// Stats are the daemon's monotonic counters.
type Stats struct {
	Received  uint64 // updates read from peers (per-prefix)
	Filtered  uint64 // discarded by GILL's filters
	Written   uint64 // archived to MRT
	Lost      uint64 // dropped on queue overflow (the Table 1 metric)
	Withdrawn uint64 // withdrawal records processed
}

// LossFraction is Lost / Received.
func (s Stats) LossFraction() float64 {
	if s.Received == 0 {
		return 0
	}
	return float64(s.Lost) / float64(s.Received)
}

// Daemon is a running collection daemon.
type Daemon struct {
	cfg  Config
	pipe *pipeline.Pipeline
	arch *pipeline.ArchiveStage
	filt *pipeline.FilterStage
	log  *telemetry.Logger

	received  atomic.Uint64
	filterGen atomic.Uint64 // SetFilters installs, the /statusz generation
	accRetry  *metrics.Counter
	withdrawn atomic.Uint64

	lastRefresh   atomic.Int64 // unix nanos of the last SetFilters
	degraded      atomic.Bool
	degradedGauge *metrics.Gauge
	degradeEvents *metrics.Counter

	// vps maps a VP name to its *vpState. Sessions share nothing else but
	// the pipeline and the atomic counters above.
	vps sync.Map

	conns sync.WaitGroup
}

// vpState is one VP's collection state, registered at its first session
// open and kept across reconnects. Only that VP's sessions write its
// adj-rib-in, under its own lock, so two VPs never contend; the identity
// is swapped whole, so the archive stage reads it without a lock.
type vpState struct {
	name string
	as   uint32
	id   atomic.Pointer[vpIdentity]

	mu  sync.Mutex
	rib map[netip.Prefix]*update.Update // adj-rib-in
}

// vpIdentity is what the newest session says about its VP: the remote
// address of the socket and the BGP identifier of the OPEN.
type vpIdentity struct {
	ip, bgpID netip.Addr
}

// pipelineShards is the number of parallel pipeline workers.
const pipelineShards = 4

// New builds a daemon and starts its ingest pipeline.
func New(cfg Config) *Daemon {
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	d := &Daemon{
		cfg: cfg,
		log: cfg.Log.With("daemon"),
	}
	d.arch = &pipeline.ArchiveStage{
		LocalAS:    cfg.LocalAS,
		LocalIP:    cfg.RouterID,
		Out:        cfg.Out,
		Sink:       cfg.RecordSink,
		Peer:       d.peerIdentity,
		WriteDelay: cfg.WriteDelay,
	}
	d.filt = &pipeline.FilterStage{Set: cfg.Filters}
	if cfg.Quality != nil && cfg.Quality.Selector().Enabled() {
		d.filt.ShadowSelect = cfg.Quality.Selected
		d.filt.ShadowSink = cfg.Quality.ObserveShadow
	}
	if cfg.Quality != nil {
		cfg.Quality.SetLedger(d.LedgerCounts)
	}
	var stages []pipeline.Stage
	if cfg.Vitals != nil {
		stages = append(stages, cfg.Vitals)
	}
	stages = append(stages, d.filt)
	if cfg.Publish != nil {
		stages = append(stages, &pipeline.LiveStage{Publish: cfg.Publish})
	}
	stages = append(stages, d.arch)
	reg := cfg.Registry
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	stages = append(stages, pipeline.NewCounterStage(reg, "daemon.retained"))
	d.lastRefresh.Store(cfg.Clock().UnixNano())
	d.degradedGauge = reg.Gauge("daemon.degraded")
	d.degradeEvents = reg.Counter("daemon.degrade_events")
	d.accRetry = reg.Counter("daemon.accept_retries")
	d.pipe = pipeline.New(pipeline.Config{
		Shards:    pipelineShards,
		QueueSize: cfg.QueueSize,
		Overflow:  pipeline.DropNewest, // never stall the BGP session
		Registry:  reg,
		Name:      "daemon.pipeline",
		Tracer:    cfg.Tracer,
	}, stages...)
	_ = d.pipe.Start(context.Background())
	return d
}

// SetFilters installs a refreshed filter set without stopping the
// pipeline — the orchestrator's distribution hook (its Subscribe callback
// signature matches). A refresh clears degraded mode and restarts the
// staleness clock.
func (d *Daemon) SetFilters(fs *filter.Set) {
	d.filt.Swap(fs)
	gen := d.filterGen.Add(1)
	d.lastRefresh.Store(d.cfg.Clock().UnixNano())
	if d.degraded.CompareAndSwap(true, false) {
		d.degradedGauge.Set(0)
		d.log.Info("degraded mode cleared by filter refresh", "generation", gen)
	}
	d.log.Info("filter set installed", "generation", gen)
}

// Degraded reports whether the daemon has fallen back to
// retain-everything mode because its filter set went stale.
func (d *Daemon) Degraded() bool { return d.degraded.Load() }

// maybeDegrade enforces the FilterTTL watchdog: with no refresh inside
// the TTL, the filters are dropped in favor of collecting everything.
// Overshooting costs disk; a stale filter silently discarding updates the
// platform was built to keep costs data no one can re-collect.
func (d *Daemon) maybeDegrade(now time.Time) {
	if d.cfg.FilterTTL <= 0 || d.degraded.Load() {
		return
	}
	if now.Sub(time.Unix(0, d.lastRefresh.Load())) <= d.cfg.FilterTTL {
		return
	}
	if d.degraded.CompareAndSwap(false, true) {
		d.filt.Swap(nil)
		d.degradedGauge.Set(1)
		d.degradeEvents.Inc()
		d.log.Warn("filter set stale, degrading to retain-everything mode",
			"ttl", d.cfg.FilterTTL,
			"last_refresh", time.Unix(0, d.lastRefresh.Load()).UTC())
	}
}

// register returns the VP's state, creating it on the VP's first session,
// and makes this session's identity the VP's.
func (d *Daemon) register(as uint32, ip, bgpID netip.Addr) *vpState {
	id := &vpIdentity{ip: ip, bgpID: bgpID}
	name := "vp" + strconv.FormatUint(uint64(as), 10)
	fresh := &vpState{name: name, as: as, rib: make(map[netip.Prefix]*update.Update)}
	fresh.id.Store(id) // a registered VP always has an identity
	v, loaded := d.vps.LoadOrStore(name, fresh)
	vp := v.(*vpState)
	if loaded {
		vp.id.Store(id)
	}
	return vp
}

// vpList returns every registered VP, sorted by name.
func (d *Daemon) vpList() []*vpState {
	var vps []*vpState
	d.vps.Range(func(_, v any) bool {
		vps = append(vps, v.(*vpState))
		return true
	})
	sort.Slice(vps, func(i, j int) bool { return vps[i].name < vps[j].name })
	return vps
}

// peerIdentity resolves a VP name to the peer's AS and remote address for
// BGP4MP headers. The shard workers call it per archived record, so it
// takes no lock.
func (d *Daemon) peerIdentity(vp string) (uint32, netip.Addr) {
	v, ok := d.vps.Load(vp)
	if !ok {
		return 0, netip.Addr{}
	}
	st := v.(*vpState)
	return st.as, st.id.Load().ip
}

// Stats snapshots the counters. Filtered, Written and Lost come from the
// pipeline's per-stage accounting.
func (d *Daemon) Stats() Stats {
	snap := d.pipe.Snapshot()
	return Stats{
		Received:  d.received.Load(),
		Filtered:  snap.Stage("filter").Dropped,
		Written:   d.arch.Written(),
		Lost:      snap.Dropped,
		Withdrawn: d.withdrawn.Load(),
	}
}

// LedgerCounts samples the completeness ledger: every update accepted
// from a socket must land in exactly one terminal bucket. The order of
// loads matters for a sample raced against live traffic — terminal
// buckets are read first and the intake counter last, so an in-flight
// update can only surface as a transient positive residual (seen at
// intake, not yet landed), never as phantom double counting. At
// quiescence (and always after Close) the residual is exactly zero; a
// persistent nonzero value is an accounting hole in the collection path.
func (d *Daemon) LedgerCounts() quality.LedgerCounts {
	snap := d.pipe.Snapshot()
	c := quality.LedgerCounts{
		Archived: d.arch.Written(),
		Lost:     d.arch.Failed(),
		Filtered: snap.Stage("filter").Dropped,
		Dropped:  snap.Dropped,
		Queued:   snap.Queued,
	}
	c.In = d.received.Load()
	return c
}

// PipelineSnapshot exposes the ingest pipeline's full per-stage
// accounting (queue depth, batch sizes, per-stage in/out/dropped).
func (d *Daemon) PipelineSnapshot() pipeline.Snapshot { return d.pipe.Snapshot() }

// Metrics snapshots the daemon's metric registry (the pipeline counters
// plus the retained-update mix).
func (d *Daemon) Metrics() metrics.Snapshot { return d.pipe.Registry().Snapshot() }

func addrOr(a netip.Addr) netip.Addr {
	if a.IsValid() {
		return a
	}
	return netip.AddrFrom4([4]byte{192, 0, 2, 1})
}

// Close drains and flushes the ingest pipeline. It is idempotent and safe
// to call while sessions are still tearing down: updates arriving after
// Close are counted as lost rather than abandoned in flight.
func (d *Daemon) Close() error {
	return d.pipe.Close()
}

// ServeConn runs the passive side of one BGP peering session until the
// peer disconnects or ctx is canceled.
func (d *Daemon) ServeConn(ctx context.Context, conn net.Conn) error {
	sess, err := bgp.Establish(ctx, conn, bgp.SpeakerConfig{
		LocalAS:  d.cfg.LocalAS,
		RouterID: addrOr(d.cfg.RouterID),
		HoldTime: 180,
	})
	if err != nil {
		d.log.Warn("session establishment failed", "peer", conn.RemoteAddr(), "err", err)
		return err
	}
	defer sess.Close()
	peerIP := remoteAddr(conn)
	d.log.Info("session up", "peer_as", sess.PeerAS, "peer", peerIP)
	vp := d.register(sess.PeerAS, peerIP, sess.PeerRouterID)
	if d.cfg.Vitals != nil {
		d.cfg.Vitals.SessionUp(vp.name)
	}
	sessionDown := func(reason string) {
		if d.cfg.Vitals != nil {
			d.cfg.Vitals.SessionDown(vp.name, reason)
		}
	}
	stop := ctx.Done()
	for {
		select {
		case <-stop:
			d.log.Info("session closing on shutdown", "peer_as", sess.PeerAS)
			sessionDown("shutdown")
			return ctx.Err()
		case u, ok := <-sess.Updates():
			if !ok {
				err := sess.Err()
				if err == nil || errors.Is(err, io.EOF) {
					d.log.Info("session down", "peer_as", sess.PeerAS)
					sessionDown("")
					return nil
				}
				d.log.Warn("session down", "peer_as", sess.PeerAS, "err", err)
				sessionDown(err.Error())
				return err
			}
			d.ingest(vp, u)
		}
	}
}

func remoteAddr(conn net.Conn) netip.Addr {
	if ap, err := netip.ParseAddrPort(conn.RemoteAddr().String()); err == nil {
		return ap.Addr()
	}
	return netip.AddrFrom4([4]byte{0, 0, 0, 0})
}

// ingest records one BGP update's per-prefix canonical updates in the
// VP's adj-rib-in and hands them to the pipeline (which filters, tees, and
// archives them). It takes only its own VP's lock, and never across
// Pipeline.Ingest.
func (d *Daemon) ingest(vp *vpState, u *bgp.Update) {
	now := d.cfg.Clock()
	d.maybeDegrade(now)
	// Path/Comms accessors materialize lazily decoded attributes exactly
	// once; every per-prefix record shares the same backing slices.
	path, cs := u.Path(), comms(u.Comms())
	for _, nlri := range [2][]netip.Prefix{u.NLRI, u.V6NLRI} {
		for _, p := range nlri {
			d.admit(vp, &update.Update{VP: vp.name, Time: now, Prefix: p, Path: path, Comms: cs})
		}
	}
	for _, withdrawn := range [2][]netip.Prefix{u.Withdrawn, u.V6Withdrawn} {
		for _, p := range withdrawn {
			d.withdrawn.Add(1)
			d.admit(vp, &update.Update{VP: vp.name, Time: now, Prefix: p, Withdraw: true})
		}
	}
}

// admit applies one per-prefix update to the adj-rib-in — what the peer
// told us, whatever the filters later decide — and offers it to the
// pipeline.
func (d *Daemon) admit(vp *vpState, rec *update.Update) {
	vp.mu.Lock()
	if rec.Withdraw {
		delete(vp.rib, rec.Prefix)
	} else {
		vp.rib[rec.Prefix] = rec
	}
	vp.mu.Unlock()
	d.received.Add(1)
	d.pipe.Ingest(rec)
}

func comms(cs []bgp.Community) []uint32 {
	out := make([]uint32, len(cs))
	for i, c := range cs {
		out[i] = uint32(c)
	}
	return out
}

// DumpRIB writes the daemon's adj-rib-in as a TABLE_DUMP_V2 snapshot: a
// PEER_INDEX_TABLE followed by one RIB entry set per prefix. Each VP's
// entries are copied under that VP's lock; encoding and writing hold none,
// so a slow writer stalls no session.
func (d *Daemon) DumpRIB(w io.Writer) error {
	now := d.cfg.Clock()
	table := &mrt.PeerIndexTable{
		CollectorID: addrOr(d.cfg.RouterID),
		ViewName:    "gill",
	}
	byPrefix := make(map[netip.Prefix][]mrt.RIBEntry)
	for i, vp := range d.vpList() {
		id := vp.id.Load()
		table.Peers = append(table.Peers, mrt.Peer{BGPID: id.bgpID, IP: id.ip, AS: vp.as})
		vp.mu.Lock()
		for p, rec := range vp.rib {
			byPrefix[p] = append(byPrefix[p], mrt.RIBEntry{
				PeerIndex:      uint16(i),
				OriginatedTime: rec.Time,
				Attrs: bgp.Update{
					Origin:      bgp.OriginIGP,
					ASPath:      rec.Path,
					Communities: communities(rec.Comms),
				},
			})
		}
		vp.mu.Unlock()
	}

	mw := mrt.NewWriter(w)
	if err := mw.WriteRecord(&mrt.Record{
		Header:    mrt.Header{Timestamp: now, Type: mrt.TypeTableDumpV2, Subtype: mrt.SubtypePeerIndexTable},
		PeerIndex: table,
	}); err != nil {
		return err
	}
	var prefixes []netip.Prefix
	for p := range byPrefix {
		prefixes = append(prefixes, p)
	}
	slices.SortFunc(prefixes, update.ComparePrefix)
	for seq, p := range prefixes {
		sub := uint16(mrt.SubtypeRIBIPv4Unicast)
		if p.Addr().Is6() {
			sub = mrt.SubtypeRIBIPv6Unicast
		}
		if err := mw.WriteRecord(&mrt.Record{
			Header: mrt.Header{Timestamp: now, Type: mrt.TypeTableDumpV2, Subtype: sub},
			RIB: &mrt.RIBEntrySet{
				Sequence: uint32(seq),
				Prefix:   p,
				Entries:  byPrefix[p],
			},
		}); err != nil {
			return err
		}
	}
	return nil
}

func communities(cs []uint32) []bgp.Community {
	out := make([]bgp.Community, len(cs))
	for i, c := range cs {
		out[i] = bgp.Community(c)
	}
	return out
}

// Serve accepts peering sessions until ctx is canceled, then waits for
// every session handler to finish so a following Close finds no ingest in
// flight. Transient Accept errors are retried with backoff — at GILL's
// scale an EMFILE burst or a conntrack hiccup must not kill the listener
// that thousands of VP sessions depend on. A closed listener
// (net.ErrClosed) or canceled context is a clean shutdown: Serve returns
// nil. Per-session fault handling lives in the BGP speaker itself
// (hold-timer read deadlines tear down silent peers; see bgp.Establish).
func (d *Daemon) Serve(ctx context.Context, ln net.Listener) error {
	err := resilience.AcceptLoopOpts(ctx, ln, resilience.AcceptOptions{
		Backoff: d.cfg.AcceptBackoff,
		Retries: d.accRetry,
		OnRetry: func(failures int, err error, delay time.Duration) {
			d.log.Warn("accept failed, retrying", "failures", failures, "delay", delay, "err", err)
		},
	}, func(conn net.Conn) {
		d.conns.Add(1)
		go func() {
			defer d.conns.Done()
			_ = d.ServeConn(ctx, conn)
		}()
	})
	d.conns.Wait()
	return err
}

// SessionStatus is one peering session's /statusz row.
type SessionStatus struct {
	VP       string `json:"vp"`
	PeerIP   string `json:"peer_ip"`
	Prefixes int    `json:"prefixes"` // adj-rib-in size
}

// Status is the daemon's /statusz payload: counters, per-session state,
// and the filter installation's generation and age.
type Status struct {
	Stats         Stats           `json:"stats"`
	Sessions      []SessionStatus `json:"sessions"`
	FilterGen     uint64          `json:"filter_generation"`
	FilterAge     string          `json:"filter_age"`
	Degraded      bool            `json:"degraded"`
	QueueDepth    uint64          `json:"queue_depth"`
	LossFraction  float64         `json:"loss_fraction"`
	AcceptRetries uint64          `json:"accept_retries"`
}

// StatusSnapshot assembles the admin plane's /statusz payload.
func (d *Daemon) StatusSnapshot() Status {
	snap := d.pipe.Snapshot()
	st := Status{
		Stats:         d.Stats(),
		FilterGen:     d.filterGen.Load(),
		FilterAge:     d.cfg.Clock().Sub(time.Unix(0, d.lastRefresh.Load())).Round(time.Millisecond).String(),
		Degraded:      d.degraded.Load(),
		QueueDepth:    snap.Queued,
		LossFraction:  snap.LossFraction(),
		AcceptRetries: d.accRetry.Load(),
	}
	for _, vp := range d.vpList() {
		vp.mu.Lock()
		n := len(vp.rib)
		vp.mu.Unlock()
		st.Sessions = append(st.Sessions, SessionStatus{
			VP:       vp.name,
			PeerIP:   vp.id.Load().ip.String(),
			Prefixes: n,
		})
	}
	return st
}
