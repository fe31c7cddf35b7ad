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
	"repro/internal/validity"
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
	// 4096, split across Shards).
	QueueSize int
	// Shards is the number of parallel pipeline workers (default 4).
	Shards int
	// BatchSize is the maximum updates per stage invocation (default 64).
	BatchSize int
	// WriteDelay emulates storage latency per archived record, letting
	// load tests reproduce the disk-bound regime of Table 1.
	WriteDelay time.Duration
	// Checker optionally validates received routes (origin validation,
	// first-hop verification; §14's fake-data defenses). Updates the
	// checker decides to drop are counted in Stats.Rejected.
	Checker *validity.Checker
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
	Rejected  uint64 // discarded by validity checks (forged or invalid)
	Forwarded uint64 // delivered to operator forwarding rules (§14)
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
	rejected  atomic.Uint64
	forwarded atomic.Uint64

	lastRefresh   atomic.Int64 // unix nanos of the last SetFilters
	degraded      atomic.Bool
	degradedGauge *metrics.Gauge
	degradeEvents *metrics.Counter

	mu       sync.Mutex
	rib      map[string]map[netip.Prefix]*update.Update // adj-rib-in per peer
	peerIPs  map[string]netip.Addr
	forwards []forwardRule

	conns sync.WaitGroup
}

// forwardRule is one §14 custom-visibility service: updates for the
// subscribed prefixes are delivered to the operator before any filtering
// decision.
type forwardRule struct {
	prefixes map[netip.Prefix]bool
	deliver  func(*update.Update)
}

// AddForward subscribes an operator to updates for the given prefixes.
// Matching updates are delivered even when GILL's filters discard them —
// the §14 incentive: full visibility over one's own prefixes.
func (d *Daemon) AddForward(prefixes []netip.Prefix, deliver func(*update.Update)) {
	set := make(map[netip.Prefix]bool, len(prefixes))
	for _, p := range prefixes {
		set[p] = true
	}
	d.mu.Lock()
	d.forwards = append(d.forwards, forwardRule{prefixes: set, deliver: deliver})
	d.mu.Unlock()
}

// New builds a daemon and starts its ingest pipeline.
func New(cfg Config) *Daemon {
	if cfg.QueueSize <= 0 {
		cfg.QueueSize = 4096
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 4
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	d := &Daemon{
		cfg:     cfg,
		log:     cfg.Log.With("daemon"),
		rib:     make(map[string]map[netip.Prefix]*update.Update),
		peerIPs: make(map[string]netip.Addr),
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
		Shards:    cfg.Shards,
		QueueSize: cfg.QueueSize,
		BatchSize: cfg.BatchSize,
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

// peerIdentity resolves a VP name to the peer's AS and remote address for
// BGP4MP headers.
func (d *Daemon) peerIdentity(vp string) (uint32, netip.Addr) {
	d.mu.Lock()
	ip := d.peerIPs[vp]
	d.mu.Unlock()
	return parseVPAS(vp), ip
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
		Rejected:  d.rejected.Load(),
		Forwarded: d.forwarded.Load(),
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
		Rejected: d.rejected.Load(),
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
	vp := "vp" + strconv.FormatUint(uint64(sess.PeerAS), 10)
	if d.cfg.Vitals != nil {
		d.cfg.Vitals.SessionUp(vp)
	}
	sessionDown := func(reason string) {
		if d.cfg.Vitals != nil {
			d.cfg.Vitals.SessionDown(vp, reason)
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
			d.ingest(sess.PeerAS, peerIP, u)
		}
	}
}

func remoteAddr(conn net.Conn) netip.Addr {
	if ap, err := netip.ParseAddrPort(conn.RemoteAddr().String()); err == nil {
		return ap.Addr()
	}
	return netip.AddrFrom4([4]byte{0, 0, 0, 0})
}

// ingest validates one BGP update, applies forwarding rules, tracks the
// adj-rib-in, and hands the per-prefix canonical updates to the pipeline
// (which filters, tees, and archives them).
func (d *Daemon) ingest(peerAS uint32, peerIP netip.Addr, u *bgp.Update) {
	now := d.cfg.Clock()
	d.maybeDegrade(now)
	vp := "vp" + strconv.FormatUint(uint64(peerAS), 10)

	var keep []*update.Update
	d.mu.Lock()
	if _, ok := d.peerIPs[vp]; !ok {
		d.peerIPs[vp] = peerIP
	}
	ribIn := d.rib[vp]
	if ribIn == nil {
		ribIn = make(map[netip.Prefix]*update.Update)
		d.rib[vp] = ribIn
	}
	consider := func(rec *update.Update) {
		d.received.Add(1)
		if rec.Withdraw {
			d.withdrawn.Add(1)
		}
		if d.cfg.Checker != nil {
			if v := d.cfg.Checker.Check(peerAS, rec); v.Drop {
				d.rejected.Add(1)
				return
			}
		}
		// Forwarding rules fire before any discard decision (§14).
		for _, fr := range d.forwards {
			if fr.prefixes[rec.Prefix] {
				d.forwarded.Add(1)
				fr.deliver(rec)
			}
		}
		// The adj-rib-in tracks the session's announced state for every
		// valid update; archival filtering happens downstream in the
		// pipeline and does not alter what the peer told us.
		if rec.Withdraw {
			delete(ribIn, rec.Prefix)
		} else {
			ribIn[rec.Prefix] = rec
		}
		keep = append(keep, rec)
	}
	// Path/Comms accessors materialize lazily decoded attributes exactly
	// once; every per-prefix record shares the same backing slices.
	path, cs := u.Path(), u.Comms()
	for _, p := range u.NLRI {
		consider(&update.Update{
			VP: vp, Time: now, Prefix: p,
			Path:  path,
			Comms: comms(cs),
		})
	}
	for _, p := range u.V6NLRI {
		consider(&update.Update{
			VP: vp, Time: now, Prefix: p,
			Path:  path,
			Comms: comms(cs),
		})
	}
	for _, p := range append(append([]netip.Prefix(nil), u.Withdrawn...), u.V6Withdrawn...) {
		consider(&update.Update{VP: vp, Time: now, Prefix: p, Withdraw: true})
	}
	d.mu.Unlock()

	for _, rec := range keep {
		d.pipe.Ingest(rec)
	}
}

func comms(cs []bgp.Community) []uint32 {
	out := make([]uint32, len(cs))
	for i, c := range cs {
		out[i] = uint32(c)
	}
	return out
}

// DumpRIB writes the daemon's adj-rib-in as a TABLE_DUMP_V2 snapshot: a
// PEER_INDEX_TABLE followed by one RIB entry set per prefix.
func (d *Daemon) DumpRIB(w io.Writer) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	mw := mrt.NewWriter(w)
	now := d.cfg.Clock()

	var peers []string
	for vp := range d.rib {
		peers = append(peers, vp)
	}
	sort.Strings(peers)
	peerIdx := make(map[string]uint16, len(peers))
	table := &mrt.PeerIndexTable{
		CollectorID: addrOr(d.cfg.RouterID),
		ViewName:    "gill",
	}
	for i, vp := range peers {
		peerIdx[vp] = uint16(i)
		as := parseVPAS(vp)
		table.Peers = append(table.Peers, mrt.Peer{
			BGPID: netip.AddrFrom4([4]byte{10, 0, byte(as >> 8), byte(as)}),
			IP:    netip.AddrFrom4([4]byte{10, 0, byte(as >> 8), byte(as)}),
			AS:    as,
		})
	}
	if err := mw.WriteRecord(&mrt.Record{
		Header:    mrt.Header{Timestamp: now, Type: mrt.TypeTableDumpV2, Subtype: mrt.SubtypePeerIndexTable},
		PeerIndex: table,
	}); err != nil {
		return err
	}

	// Group entries per prefix.
	byPrefix := make(map[netip.Prefix][]mrt.RIBEntry)
	for vp, entries := range d.rib {
		for p, rec := range entries {
			byPrefix[p] = append(byPrefix[p], mrt.RIBEntry{
				PeerIndex:      peerIdx[vp],
				OriginatedTime: rec.Time,
				Attrs: bgp.Update{
					Origin: bgp.OriginIGP,
					ASPath: rec.Path,
				},
			})
		}
	}
	var prefixes []netip.Prefix
	for p := range byPrefix {
		prefixes = append(prefixes, p)
	}
	sort.Slice(prefixes, func(i, j int) bool { return prefixes[i].Addr().Less(prefixes[j].Addr()) })
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

func parseVPAS(vp string) uint32 {
	v, _ := strconv.ParseUint(vp[2:], 10, 32)
	return uint32(v)
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
	d.mu.Lock()
	var vps []string
	for vp := range d.rib {
		vps = append(vps, vp)
	}
	sort.Strings(vps)
	for _, vp := range vps {
		st.Sessions = append(st.Sessions, SessionStatus{
			VP:       vp,
			PeerIP:   d.peerIPs[vp].String(),
			Prefixes: len(d.rib[vp]),
		})
	}
	d.mu.Unlock()
	return st
}
