// Command gill-orchestrator runs GILL's control plane: it manages peering
// requests with two-step verification, tracks the component refresh
// schedule, trains the sampling pipeline on an MRT stream to produce a
// filter file for gill-daemon, and — with -fabric-listen — hosts the fleet
// coordinator: confirmed peers are the fleet's VPs, every installed filter
// set is pushed to every collector, and with -admin the collectors'
// metrics are federated and the fleet SLOs evaluated.
//
// Commands on stdin (see console.go):
//
//	submit <asn> <email> <router-ip>   file a peering request
//	confirm <asn> <email>              complete email verification
//	peers                              list active sessions
//	status                             refresh schedule state
//	train <stream.mrt[.gz]> <out.filters>  run components #1+#2, write filters
//	filters <file>                     install a filter file (and push it to the fleet)
//	audit <stream.mrt[.gz]>            replay a stream through the data-quality plane
//	quit
//
// EOF on stdin closes the console, not the process: it serves until quit,
// SIGINT or SIGTERM.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/metrics"
	"repro/internal/orchestrator"
	"repro/internal/quality"
	"repro/internal/telemetry"
	"repro/internal/telemetry/fleet"
)

func main() {
	var (
		registryFile = flag.String("registry", "", "ownership registry file with 'email asn' lines (empty: accept everyone)")
		admin        = flag.String("admin", "", "admin-plane address (/metrics, /statusz, /healthz, pprof; /fleetz, /fleet/*, /alertz with -fabric-listen); bind loopback — unauthenticated")
		logLevel     = flag.String("log-level", "info", "minimum log level (debug, info, warn, error)")
		workers      = flag.Int("recompute-workers", 0, "worker pool for the sampling-component recompute (0 = GOMAXPROCS); results are identical at any count")
		qualityAuto  = flag.Bool("quality-autorefresh", false, "act on data-quality drift signals by re-running the last training (default: signals are advisory)")
		fabricListen = flag.String("fabric-listen", "", "run the fleet coordinator on this address: confirmed peers become fleet VPs, installed filters are pushed to every collector")
		fabricLease  = flag.Duration("fabric-lease", fabric.DefaultLeaseTTL, "collector lease TTL; heartbeats renew at TTL/3, expiry rebalances")
		scrapeEvery  = flag.Duration("scrape-every", fleet.DefaultScrapeInterval, "fleet metrics federation scrape interval (with -fabric-listen and -admin); a collector renders stale 3 intervals after its last good scrape")
		sloShort     = flag.Duration("slo-short", 0, "override the fleet SLOs' short burn-rate window (0: per-objective default)")
		sloLong      = flag.Duration("slo-long", 0, "override the fleet SLOs' long burn-rate window (0: per-objective default)")
	)
	flag.Parse()

	logg := telemetry.NewLogger(os.Stderr)
	logg.SetLevel(telemetry.ParseLevel(*logLevel))
	logm := logg.With("main")

	// One ctx for the whole process: quit, SIGINT or SIGTERM cancel it, and
	// it stops the coordinator, the federation ticker and the admin plane.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	o := orchestrator.New(loadRegistry(*registryFile), nil)
	o.SetLogger(logg)

	reg := metrics.NewRegistry()
	o.Instrument(reg)
	// Distinct recorders for the two control-plane roles: distribution root
	// spans carry "orchestrator", the coordinator's fan-out spans carry
	// "coordinator", so a stitched fleet trace shows the real hop structure
	// though both run in this process.
	orchRec := telemetry.NewRecorder(0, 0)
	orchRec.Process = "orchestrator"
	o.SetRecorder(orchRec)
	coordRec := telemetry.NewRecorder(0, 0)
	coordRec.Process = "coordinator"
	rec := orchestrator.NewRecomputer(o, orchestrator.RecomputeConfig{
		Core:     core.DefaultConfig(),
		Workers:  *workers,
		Registry: reg,
		Seed:     1,
		Log:      logg,
	})
	logm.Info("recompute engine ready", "workers", rec.Workers())

	// The data-quality plane on the orchestrator audits offline streams
	// (the `audit` command) against the currently installed filters, and
	// feeds drift-threshold crossings into the recompute engine — advisory
	// by default, acted on with -quality-autorefresh.
	qp := quality.NewPlane(quality.Config{
		Selector: quality.Selector{Seed: 1, Denom: 1}, // audits see the whole replayed stream
		Registry: reg,
		Log:      logg.With("quality"),
		OnDrift:  func(dr quality.DriftReport) { rec.NoteDrift(dr.Score) },
	})
	con := &console{o: o, rec: rec, qp: qp, quit: stop}
	if *qualityAuto {
		rec.SetAutoRefresh(func() {
			in, out := con.lastTraining()
			if in == "" {
				logm.Warn("drift-triggered refresh skipped: nothing trained yet")
				return
			}
			logm.Info("drift-triggered retrain starting", "stream", in, "out", out)
			if err := trainFromMRT(os.Stdout, rec, qp, in, out); err != nil {
				logm.Error("drift-triggered retrain failed", "err", err)
			}
		})
		logm.Info("quality autorefresh armed")
	}

	// The fleet coordinator federates the orchestrator's control decisions
	// across a collector fleet: confirmed peers form the VP universe, and
	// every installed filter set rides the generation-tokened fan-out
	// straight onto the control plane.
	if *fabricListen != "" {
		con.coord = fabric.NewCoordinator(fabric.CoordinatorConfig{
			LeaseTTL: *fabricLease,
			Registry: reg,
			Log:      logg,
			Recorder: coordRec,
			OnRebalance: func(rb fabric.Rebalance) {
				logm.Info("fleet rebalanced", "gen", rb.Gen, "reason", rb.Reason,
					"moved", rb.Moved, "collectors", len(rb.Collectors))
			},
		})
		fln, err := net.Listen("tcp", *fabricListen)
		if err != nil {
			logm.Error("fabric listen failed", "addr", *fabricListen, "err", err)
			os.Exit(1)
		}
		go con.coord.Serve(ctx, fln)
		go con.coord.Run(ctx)
		// Traced subscription: each install's root span context rides into
		// the coordinator's fan-out, so one filter set yields one stitched
		// orchestrator→coordinator→collector trace.
		o.SubscribeTraced(con.coord.DistributeFiltersTraced)
		logm.Info("fabric coordinator listening", "fabric_addr", fln.Addr(), "lease", *fabricLease)
	}

	if *admin != "" {
		ln, err := net.Listen("tcp", *admin)
		if err != nil {
			logm.Error("admin listen failed", "addr", *admin, "err", err)
			os.Exit(1)
		}
		reg.GaugeFunc("orchestrator.peers", func() int64 { return int64(len(o.Peers())) })
		reg.GaugeFunc("orchestrator.pending", func() int64 { return int64(o.Pending()) })
		a := &telemetry.Admin{
			Registry: reg,
			Recorder: orchRec,
			Log:      logg.With("admin"),
			Status: func() any {
				c1, c2 := o.Due()
				return map[string]any{
					"peers":          len(o.Peers()),
					"pending":        o.Pending(),
					"component1_due": c1,
					"component2_due": c2,
					"recompute":      rec.Status(),
				}
			},
			Quality: func() any { return qp.Status() },
		}
		if coord := con.coord; coord != nil {
			// The fleet observability plane: /readyz waits for collectors
			// and a fully assigned fleet, every leased collector's admin
			// metrics are scraped and rolled up on /fleet/metrics,
			// cross-process traces are stitched on /fleet/tracez, and the
			// burn-rate SLOs are evaluated into /alertz after every scrape.
			fed, err := fleet.NewFederator(fleet.Config{
				Targets:     fleet.TargetsFromStatus(coord.Status),
				Interval:    *scrapeEvery,
				Registry:    reg,
				Log:         logg,
				Vitals:      true,
				Assignments: fleet.AssignmentsFromStatus(coord.Status),
			})
			if err != nil {
				logm.Error("federator init failed", "err", err)
				os.Exit(1)
			}
			engine := fleet.NewEngine(tunedObjectives(*sloShort, *sloLong), nil)
			a.Fleet = func() any { return fleet.Enrich(coord.Status(), fed.Health()) }
			a.Alerts = func() any { return engine.Status() }
			a.Ready = func() (bool, string) {
				st := coord.Status()
				if len(st.Collectors) == 0 {
					return false, "no collectors joined"
				}
				if len(st.Unassigned) > 0 {
					return false, fmt.Sprintf("%d VPs unassigned", len(st.Unassigned))
				}
				return true, "fleet assigned"
			}
			a.Routes = fed.Routes(orchRec, coordRec)
			go func() {
				t := time.NewTicker(*scrapeEvery)
				defer t.Stop()
				for {
					select {
					case <-ctx.Done():
						return
					case <-t.C:
						fed.ScrapeOnce(ctx)
						engine.Observe(fed.Rollup())
					}
				}
			}()
			logm.Info("metrics federation running", "scrape_every", *scrapeEvery)
		}
		go func() {
			if err := a.Serve(ctx, ln); err != nil {
				logm.Warn("admin plane exited", "err", err)
			}
		}()
		logm.Info("admin plane listening", "admin_addr", ln.Addr())
	}
	fmt.Println("gill-orchestrator ready; commands: submit/confirm/peers/status/train/filters/audit/quit")

	go func() {
		if err := con.run(ctx, os.Stdin, os.Stdout); err != nil {
			logm.Warn("console read failed", "err", err)
		}
		logm.Debug("console closed; serving until quit, SIGINT or SIGTERM")
	}()
	<-ctx.Done()
	logm.Info("shutting down")
}

// tunedObjectives returns the stock fleet SLOs with any operator window
// overrides applied fleet-wide — the smoke scripts shrink the windows to
// seconds so a synthetic incident fires and resolves within one run.
func tunedObjectives(short, long time.Duration) []fleet.Objective {
	objs := fleet.DefaultObjectives()
	for i := range objs {
		if short > 0 {
			objs[i].ShortWindow = short
		}
		if long > 0 {
			objs[i].LongWindow = long
		}
	}
	return objs
}

func loadRegistry(path string) orchestrator.OwnershipVerifier {
	if path == "" {
		return nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		log.Fatalf("gill-orchestrator: %v", err)
	}
	owned := make(map[string]uint32)
	for _, line := range strings.Split(string(data), "\n") {
		fields := strings.Fields(line)
		if len(fields) != 2 {
			continue
		}
		asn, err := strconv.ParseUint(fields[1], 10, 32)
		if err != nil {
			continue
		}
		owned[fields[0]] = uint32(asn)
	}
	return orchestrator.VerifierFunc(func(email string, asn uint32) bool {
		return owned[email] == asn
	})
}
