// Command gill-daemon runs one GILL collection daemon: it accepts BGP
// peering sessions, applies a filter set, and archives retained updates in
// MRT.
//
// Usage:
//
//	gill-daemon -listen :1790 -as 65000 -router-id 192.0.2.1 \
//	    -filters filters.txt -wal ./wal -admin 127.0.0.1:8471
//
// The -wal directory is the update database (§9) and the only place the
// daemon archives updates: a crash-safe record journal, recovered and
// repaired on startup, plus the serving plane's skip-index over its
// segments. MRT files for RouteViews-style tools are exports of it
// (gill-query -wal D -mrt FILE). -rib-out dumps the RIB every -rib-every.
// The -admin flag serves the operator plane
// (/metrics, /statusz, /healthz, /readyz, /tracez, /debug/pprof/) and,
// when a WAL is configured, the query API under /api/ and the filtered
// NDJSON live stream on /stream — bind it to loopback or an operator
// network, it is unauthenticated.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/netip"
	"os"
	"os/signal"
	"time"

	"repro/internal/archive"
	"repro/internal/daemon"
	"repro/internal/fabric"
	"repro/internal/filter"
	"repro/internal/index"
	"repro/internal/metrics"
	"repro/internal/quality"
	"repro/internal/stream"
	"repro/internal/telemetry"
	"repro/internal/vitals"
)

func main() {
	var (
		listen       = flag.String("listen", ":1790", "address to accept BGP sessions on")
		localAS      = flag.Uint("as", 65000, "collector AS number")
		routerID     = flag.String("router-id", "192.0.2.1", "collector BGP identifier (IPv4)")
		filters      = flag.String("filters", "", "filter file produced by the orchestrator (empty: collect everything)")
		ribEvery     = flag.Duration("rib-every", daemon.RIBDumpInterval, "RIB dump interval")
		ribOut       = flag.String("rib-out", "", "RIB dump file prefix (empty: no dumps)")
		stats        = flag.Duration("stats", 30*time.Second, "stats reporting interval")
		walDir       = flag.String("wal", "", "crash-safe record journal directory (recovered on startup)")
		walRot       = flag.Int("wal-rotate", 0, "records per journal segment before rotation (0: default)")
		filtTTL      = flag.Duration("filter-ttl", 0, "degrade to retain-everything when filters go stale (0: never)")
		coordTo      = flag.String("coordinator", "", "fabric coordinator address; joins the fleet, receives VP assignments and filter pushes")
		fabricID     = flag.String("fabric-id", "", "collector identity within the fabric (required with -coordinator)")
		advert       = flag.String("advertise", "", "BGP address advertised to the coordinator (default: the bound -listen address)")
		admin        = flag.String("admin", "", "admin-plane address (/metrics, /statusz, /healthz, /readyz, /tracez, /qualityz, pprof); bind loopback — unauthenticated")
		logLevel     = flag.String("log-level", "info", "minimum log level (debug, info, warn, error)")
		shadow       = flag.String("shadow-fraction", "1/64", "fraction of (VP,prefix) slots mirrored into the data-quality shadow lane (1/N, all, or off)")
		vitalsEvery  = flag.Duration("vitals-eval", time.Second, "per-VP vitals evaluation interval (0: disable the vitals plane)")
		vitalsSilent = flag.Duration("vitals-silent-after", 30*time.Second, "last-update age past which a VP renders silent")
		vitalsMaxGap = flag.Duration("vitals-max-gap", 5*time.Minute, "largest inter-record spacing still counted as continuous archive coverage")
	)
	flag.Parse()

	logg := telemetry.NewLogger(os.Stderr)
	logg.SetLevel(telemetry.ParseLevel(*logLevel))
	logm := logg.With("main")
	fatal := func(msg string, kv ...any) {
		logm.Error(msg, kv...)
		os.Exit(1)
	}

	rid, err := netip.ParseAddr(*routerID)
	if err != nil {
		fatal("bad -router-id", "err", err)
	}

	var fs *filter.Set
	if *filters != "" {
		f, err := os.Open(*filters)
		if err != nil {
			fatal("opening filters", "err", err)
		}
		fs, err = filter.Unmarshal(f)
		f.Close()
		if err != nil {
			fatal("parsing filters", "err", err)
		}
		logm.Info("filters loaded", "drop_rules", fs.NumDrops(), "anchors", len(fs.Anchors()))
	}

	reg := metrics.NewRegistry()
	rec := telemetry.NewRecorder(0, 0) // defaults: 4096-trace ring, 1/1024 sampling
	// The recorder's process label is the collector's fleet identity: every
	// span it commits carries it, and the coordinator's stitcher keys the
	// per-hop view on it.
	if *fabricID != "" {
		rec.Process = "collector:" + *fabricID
	} else {
		rec.Process = "daemon"
	}

	denom, err := quality.ParseFraction(*shadow)
	if err != nil {
		fatal("bad -shadow-fraction", "err", err)
	}
	// The plane is always built (so /qualityz and the completeness ledger
	// exist even with the shadow lane off); the selector decides whether
	// any slots are mirrored.
	qp := quality.NewPlane(quality.Config{
		Selector: quality.Selector{Seed: 1, Denom: denom},
		Registry: reg,
		Log:      logg.With("quality"),
	})

	// The vitals plane: per-VP liveness from a pipeline tap, archive gap
	// coverage from the sealed WAL segments, served on /vitalz and scraped
	// into the coordinator's /fleet/vitalz.
	var tracker *vitals.Tracker
	var gaps *vitals.GapAuditor
	if *vitalsEvery > 0 {
		if *walDir != "" {
			gaps = vitals.NewGapAuditor(*vitalsMaxGap, reg)
		}
		tracker = vitals.New(vitals.Config{
			Registry:     reg,
			EvalInterval: *vitalsEvery,
			SilentAfter:  *vitalsSilent,
			Gaps:         gaps,
			Log:          logg,
		})
		tracker.Collector = *fabricID
		qp.SetVPHealth(func() any { return tracker.Summary() })
	}

	cfgD := daemon.Config{
		LocalAS:   uint32(*localAS),
		RouterID:  rid,
		Filters:   fs,
		Registry:  reg,
		FilterTTL: *filtTTL,
		Log:       logg,
		Tracer:    rec,
		Quality:   qp,
		Vitals:    tracker,
	}
	var wal *archive.Journal
	var ix *index.Service
	var follower *segmentFollower
	if *walDir != "" {
		// Recover first: repair torn tails from a previous crash and report
		// exactly what survived before appending anything new.
		rs, err := archive.RecoverJournal(*walDir, reg, nil)
		if err != nil {
			fatal("wal recovery", "err", err)
		}
		if !rs.Clean {
			logm.Warn("wal recovered from unclean shutdown",
				"recovered", rs.Recovered, "lost", rs.Lost,
				"torn_segments", rs.TornSegments, "truncated_bytes", rs.TruncatedBytes)
		}
		wal, err = archive.OpenJournal(*walDir, *walRot)
		if err != nil {
			fatal("opening wal", "err", err)
		}
		wal.Registry = reg
		cfgD.RecordSink = wal.AppendBatch
		// The serving plane's skip-index: Sync (inside NewService) picks up
		// the recovered segments — rescanning any the repair truncated —
		// and the segment follower keeps it (and the gap audit) current as
		// the journal rotates, one pass per sealed segment, off the
		// collection path: the seal hook itself only enqueues.
		ix, err = index.NewService(*walDir, reg)
		if err != nil {
			fatal("opening index", "err", err)
		}
		follower = newSegmentFollower(reg, indexSealed(ix.Index, gaps, logg.With("index")))
		wal.OnSeal = follower.enqueue
		st := ix.Index.Stats()
		logm.Info("index ready", "segments", st.Segments, "records", st.Records)
		if gaps != nil {
			// Boot-time audit: existing segments establish the coverage
			// baseline before any new traffic lands.
			if err := gaps.AuditDir(*walDir); err != nil {
				logm.Warn("boot gap audit failed", "err", err)
			}
		}
	}
	// The live feed: retained updates go to the admin plane's NDJSON
	// stream hub. Publish never blocks, so it is safe on the collection
	// path.
	var hub *stream.Hub
	if *admin != "" {
		hub = stream.NewHub(stream.Config{Registry: reg, Log: logg})
		cfgD.Publish = hub.Publish
	}
	d := daemon.New(cfgD)

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fatal("listen", "addr", *listen, "err", err)
	}
	logm.Info("listening", "as", *localAS, "addr", ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	go qp.Run(ctx)
	logm.Info("data-quality plane running", "shadow_fraction", qp.Selector().String())

	if tracker != nil {
		go tracker.Run(ctx)
		logm.Info("vitals plane running", "eval", *vitalsEvery, "silent_after", *vitalsSilent)
	}

	// The admin listener binds before the fabric agent starts so the agent
	// can advertise the daemon's real admin address (resolved port included)
	// in its register frame — that address is what the coordinator's
	// metrics federation scrapes.
	var adminLn net.Listener
	if *admin != "" {
		adminLn, err = net.Listen("tcp", *admin)
		if err != nil {
			fatal("admin listen", "addr", *admin, "err", err)
		}
	}

	// The fabric agent: join the coordinator's fleet, heartbeat the lease,
	// and install pushed filter sets through the daemon's generation-token
	// path. Filters pushed by the fabric override the -filters file; if
	// the coordinator becomes unreachable, -filter-ttl decides when the
	// daemon degrades to retain-everything mode.
	var agent *fabric.Agent
	if *coordTo != "" {
		if *fabricID == "" {
			fatal("-coordinator requires -fabric-id")
		}
		bgpAddr := *advert
		if bgpAddr == "" {
			bgpAddr = ln.Addr().String()
		}
		adminAddr := ""
		if adminLn != nil {
			adminAddr = adminLn.Addr().String()
		}
		agent, err = fabric.NewAgent(fabric.AgentConfig{
			ID:          *fabricID,
			Coordinator: *coordTo,
			Addr:        bgpAddr,
			AdminAddr:   adminAddr,
			Registry:    reg,
			Recorder:    rec,
			Log:         logg,
			OnAssign: func(gen uint64, vps []string) {
				logm.Info("fabric shard assigned", "gen", gen, "vps", len(vps))
			},
			OnFilters: func(gen uint64, pushed *filter.Set, _ []byte) {
				d.SetFilters(pushed)
				logm.Info("fabric filters installed", "gen", gen,
					"drop_rules", pushed.NumDrops(), "anchors", len(pushed.Anchors()))
			},
		})
		if err != nil {
			fatal("fabric agent", "err", err)
		}
		go agent.Run(ctx)
		logm.Info("fabric agent joining fleet", "coordinator", *coordTo, "id", *fabricID)
	}

	if adminLn != nil {
		filtersConfigured := *filters != ""
		routes := map[string]http.Handler{"/stream": hub.StreamHandler()}
		if ix != nil {
			routes["/api/"] = http.StripPrefix("/api", ix.Handler())
		}
		a := &telemetry.Admin{
			Registry: reg,
			Recorder: rec,
			Log:      logg.With("admin"),
			Routes:   routes,
			Ready: func() (bool, string) {
				// Startup is synchronous: by the time the admin plane
				// serves, filters are parsed and the WAL is recovered. The
				// interesting runtime state is the degraded fallback.
				if d.Degraded() {
					return true, "degraded: retain-everything mode active"
				}
				if filtersConfigured {
					return true, "filters loaded, wal recovered"
				}
				return true, "collecting everything (no filters configured)"
			},
			Status: func() any {
				// The daemon payload inlined (obs tooling greps its keys)
				// plus the serving section: the hub exists whenever the
				// admin plane does, the index only with a WAL.
				s := &servingStatus{
					StreamSubscribers: hub.Subscribers(),
					StreamPublished:   hub.Published(),
					StreamEvictedSlow: hub.EvictedSlow(),
				}
				if ix != nil {
					st := ix.Index.Stats()
					s.IndexSegments = st.Segments
					s.IndexRecords = st.Records
				}
				return statusPayload{Status: d.StatusSnapshot(), Serving: s}
			},
			Quality: func() any { return qp.Status() },
		}
		if tracker != nil {
			a.Vitals = func() any { return tracker.Snapshot() }
		}
		if agent != nil {
			a.Fleet = func() any { return agent.Status() }
		}
		go func() {
			if err := a.Serve(ctx, adminLn); err != nil {
				logm.Warn("admin plane exited", "err", err)
			}
		}()
		logm.Info("admin plane listening", "admin_addr", adminLn.Addr())
	}

	if *stats > 0 {
		go func() {
			t := time.NewTicker(*stats)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					s := d.Stats()
					logm.Info("stats", "received", s.Received, "filtered", s.Filtered,
						"written", s.Written, "lost", s.Lost)
				}
			}
		}()
	}
	if *ribOut != "" && *ribEvery > 0 {
		go func() {
			t := time.NewTicker(*ribEvery)
			defer t.Stop()
			n := 0
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					name := fmt.Sprintf("%s.%d.mrt", *ribOut, n)
					f, err := os.Create(name)
					if err != nil {
						logm.Warn("rib dump failed", "err", err)
						continue
					}
					if err := d.DumpRIB(f); err != nil {
						logm.Warn("rib dump failed", "err", err)
					}
					f.Close()
					n++
				}
			}
		}()
	}

	// Shutdown ordering: Serve returns only after every peering session
	// handler has finished, so Close sees all in-flight updates; Close
	// drains the pipeline queues into the journal before it is closed.
	err = d.Serve(ctx, ln)
	logm.Info("shutting down, draining ingest pipeline")
	d.Close()
	if hub != nil {
		hub.Close()
	}
	if wal != nil {
		if cerr := wal.Close(); cerr != nil {
			logm.Error("wal close failed", "err", cerr)
		}
		// Close sealed the last segment; leave with everything indexed.
		follower.close()
	}
	s := d.Stats()
	snap := d.PipelineSnapshot()
	logm.Info("final stats", "received", s.Received, "filtered", s.Filtered,
		"written", s.Written, "lost", s.Lost, "withdrawn", s.Withdrawn,
		"serve_err", err)
	logm.Info("final pipeline", "loss_fraction", fmt.Sprintf("%.4f", s.LossFraction()),
		"mean_batch", fmt.Sprintf("%.1f", snap.BatchSizes.Mean()),
		"e2e_p50_ns", fmt.Sprintf("%.0f", snap.E2ENS.Quantile(0.5)),
		"e2e_p99_ns", fmt.Sprintf("%.0f", snap.E2ENS.Quantile(0.99)))
	lc := d.LedgerCounts()
	logm.Info("final ledger", "in", lc.In, "archived", lc.Archived,
		"filtered", lc.Filtered, "dropped", lc.Dropped,
		"lost", lc.Lost, "unaccounted", lc.Unaccounted())
}

// servingStatus is the /statusz "serving" section: the read side's
// health at a glance.
type servingStatus struct {
	StreamSubscribers int    `json:"stream_subscribers"`
	StreamPublished   uint64 `json:"stream_published"`
	StreamEvictedSlow uint64 `json:"stream_evicted_slow"`
	IndexSegments     int    `json:"index_segments"`
	IndexRecords      uint64 `json:"index_records"`
}

// statusPayload inlines the daemon status (its keys are a stable grep
// surface for the smoke scripts) and appends the serving section.
type statusPayload struct {
	daemon.Status
	Serving *servingStatus `json:"serving,omitempty"`
}
