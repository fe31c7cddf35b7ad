// Command gill-orchestrator runs GILL's control plane interactively: it
// manages peering requests with two-step verification, tracks the
// component refresh schedule, and can train the sampling pipeline on an
// MRT stream to produce a filter file for gill-daemon.
//
// Commands on stdin:
//
//	submit <asn> <email> <router-ip>   file a peering request
//	confirm <asn> <email>              complete email verification
//	peers                              list active sessions
//	status                             refresh schedule state
//	train <stream.mrt[.gz]> <out.filters>  run components #1+#2, write filters
//	audit <stream.mrt[.gz]>            replay a stream through the data-quality plane
//	quit
package main

import (
	"bufio"
	"compress/gzip"
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/netip"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/metrics"
	"repro/internal/mrt"
	"repro/internal/orchestrator"
	"repro/internal/quality"
	"repro/internal/telemetry"
	"repro/internal/telemetry/fleet"
	"repro/internal/update"
)

func main() {
	var (
		registryFile = flag.String("registry", "", "ownership registry file with 'email asn' lines (empty: accept everyone)")
		admin        = flag.String("admin", "", "admin-plane address (/metrics, /statusz, /healthz, pprof); bind loopback — unauthenticated")
		logLevel     = flag.String("log-level", "info", "minimum log level (debug, info, warn, error)")
		workers      = flag.Int("recompute-workers", 0, "worker pool for the sampling-component recompute (0 = GOMAXPROCS); results are identical at any count")
		qualityAuto  = flag.Bool("quality-autorefresh", false, "act on data-quality drift signals by re-running the last training (default: signals are advisory)")
		fabricListen = flag.String("fabric-listen", "", "run an embedded fabric coordinator on this address: confirmed peers become fleet VPs, trained filters are pushed to every collector")
		fabricLease  = flag.Duration("fabric-lease", fabric.DefaultLeaseTTL, "collector lease TTL for the embedded coordinator")
	)
	flag.Parse()

	logg := telemetry.NewLogger(os.Stderr)
	logg.SetLevel(telemetry.ParseLevel(*logLevel))
	logm := logg.With("main")

	verifier := loadRegistry(*registryFile)
	o := orchestrator.New(verifier, nil)
	o.SetLogger(logg)

	reg := metrics.NewRegistry()
	o.Instrument(reg)
	// Distinct recorders for the two control-plane roles this binary can
	// host: distribution root spans carry "orchestrator", the embedded
	// coordinator's fan-out spans carry "coordinator", so a stitched fleet
	// trace shows the real hop structure even when both run in-process.
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
	var trainMu sync.Mutex
	var lastTrainIn, lastTrainOut string
	if *qualityAuto {
		rec.SetAutoRefresh(func() {
			trainMu.Lock()
			in, out := lastTrainIn, lastTrainOut
			trainMu.Unlock()
			if in == "" {
				logm.Warn("drift-triggered refresh skipped: nothing trained yet")
				return
			}
			logm.Info("drift-triggered retrain starting", "stream", in, "out", out)
			if err := trainFromMRT(rec, qp, in, out); err != nil {
				logm.Error("drift-triggered retrain failed", "err", err)
			}
		})
		logm.Info("quality autorefresh armed")
	}

	// The embedded fabric coordinator federates the orchestrator's control
	// decisions across a collector fleet: confirmed peers form the VP
	// universe, and every trained filter set rides the generation-tokened
	// Subscribe fan-out straight onto the control plane.
	var coord *fabric.Coordinator
	if *fabricListen != "" {
		coord = fabric.NewCoordinator(fabric.CoordinatorConfig{
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
		go coord.Serve(context.Background(), fln)
		go coord.Run(context.Background())
		for _, p := range o.Peers() {
			coord.AddVP(fmt.Sprintf("vp%d", p.ASN))
		}
		// Traced subscription: each install's root span context rides into
		// the coordinator's fan-out, so one trained filter set yields one
		// stitched orchestrator→coordinator→collector trace.
		o.SubscribeTraced(coord.DistributeFiltersTraced)
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
		if coord != nil {
			// The embedded coordinator gets the same observability plane as
			// the standalone one: metrics federation over the fleet, stitched
			// traces (both in-process recorders included), and the stock SLO
			// burn-rate alerts on /alertz.
			fed, ferr := fleet.NewFederator(fleet.Config{
				Targets:     fleet.TargetsFromStatus(coord.Status),
				Registry:    reg,
				Log:         logg,
				Vitals:      true,
				Assignments: fleet.AssignmentsFromStatus(coord.Status),
			})
			if ferr != nil {
				logm.Error("federator init failed", "err", ferr)
				os.Exit(1)
			}
			engine := fleet.NewEngine(fleet.DefaultObjectives(), nil)
			a.Fleet = func() any { return fleet.Enrich(coord.Status(), fed.Health()) }
			a.Alerts = func() any { return engine.Status() }
			a.Routes = fed.Routes(orchRec, coordRec)
			go func() {
				t := time.NewTicker(fleet.DefaultScrapeInterval)
				defer t.Stop()
				for range t.C {
					fed.ScrapeOnce(context.Background())
					engine.Observe(fed.Rollup())
				}
			}()
		}
		go func() {
			if err := a.Serve(context.Background(), ln); err != nil {
				logm.Warn("admin plane exited", "err", err)
			}
		}()
		logm.Info("admin plane listening", "admin_addr", ln.Addr())
	}
	fmt.Println("gill-orchestrator ready; commands: submit/confirm/peers/status/train/audit/quit")

	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "submit":
			if len(fields) != 4 {
				fmt.Println("usage: submit <asn> <email> <router-ip>")
				continue
			}
			asn, err1 := strconv.ParseUint(fields[1], 10, 32)
			ip, err2 := netip.ParseAddr(fields[3])
			if err1 != nil || err2 != nil {
				fmt.Println("bad asn or ip")
				continue
			}
			err := o.SubmitPeering(orchestrator.PeeringRequest{
				ASN: uint32(asn), Email: fields[2], RouterIP: ip,
			})
			report(err, "request filed; confirm by email to activate")
		case "confirm":
			if len(fields) != 3 {
				fmt.Println("usage: confirm <asn> <email>")
				continue
			}
			asn, err := strconv.ParseUint(fields[1], 10, 32)
			if err != nil {
				fmt.Println("bad asn")
				continue
			}
			p, err := o.ConfirmEmail(uint32(asn), fields[2])
			if err != nil {
				report(err, "")
				continue
			}
			if coord != nil {
				coord.AddVP(fmt.Sprintf("vp%d", p.ASN))
			}
			fmt.Printf("AS%d activated (router %s)\n", p.ASN, p.RouterIP)
		case "peers":
			for _, p := range o.Peers() {
				fmt.Printf("AS%-8d %s since %s\n", p.ASN, p.RouterIP, p.AddedAt.Format("2006-01-02 15:04"))
			}
		case "status":
			c1, c2 := o.Due()
			fmt.Printf("component #1 (redundant updates, every %v): due=%v\n", orchestrator.Component1Period, c1)
			fmt.Printf("component #2 (anchor VPs, every %v): due=%v\n", orchestrator.Component2Period, c2)
		case "train":
			if len(fields) != 3 {
				fmt.Println("usage: train <stream.mrt[.gz]> <out.filters>")
				continue
			}
			if err := trainFromMRT(rec, qp, fields[1], fields[2]); err != nil {
				fmt.Println("train:", err)
				continue
			}
			trainMu.Lock()
			lastTrainIn, lastTrainOut = fields[1], fields[2]
			trainMu.Unlock()
		case "audit":
			if len(fields) != 2 {
				fmt.Println("usage: audit <stream.mrt[.gz]>")
				continue
			}
			if err := auditFromMRT(o, qp, fields[1]); err != nil {
				fmt.Println("audit:", err)
			}
		case "quit", "exit":
			return
		default:
			fmt.Println("unknown command")
		}
	}
	if err := sc.Err(); err != nil {
		log.Fatal(err)
	}
}

func report(err error, okMsg string) {
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println(okMsg)
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

// readMRTUpdates loads and annotates the canonical per-prefix updates of
// an (optionally gzipped) MRT stream.
func readMRTUpdates(inPath string) ([]*update.Update, error) {
	f, err := os.Open(inPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var r io.Reader = f
	if strings.HasSuffix(inPath, ".gz") {
		gz, err := gzip.NewReader(f)
		if err != nil {
			return nil, err
		}
		defer gz.Close()
		r = gz
	}
	mr := mrt.NewReader(r)
	var us []*update.Update
	for {
		rec, err := mr.ReadRecord()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		us = append(us, rec.CanonicalUpdates()...)
	}
	update.Annotate(us)
	return us, nil
}

// trainFromMRT replays an MRT stream through the recompute engine —
// parallel, incremental, and installed via the generation-token path —
// writes the resulting filter file, and hands the training window's
// per-prefix digests to the data-quality plane as the drift baseline.
func trainFromMRT(rec *orchestrator.Recomputer, qp *quality.Plane, inPath, outPath string) error {
	us, err := readMRTUpdates(inPath)
	if err != nil {
		return err
	}
	// MRT update streams carry no table dumps; bootstrap each VP's
	// baseline RIB from the first path it announces per prefix, so event
	// detection (component #2) has a reference state.
	baseline := make(map[string]map[netip.Prefix][]uint32)
	for _, u := range us {
		if u.Withdraw || len(u.Path) == 0 {
			continue
		}
		m := baseline[u.VP]
		if m == nil {
			m = make(map[netip.Prefix][]uint32)
			baseline[u.VP] = m
		}
		if _, seen := m[u.Prefix]; !seen {
			m[u.Prefix] = u.Path
		}
	}
	m, err := rec.Refresh(1, core.TrainingData{
		Updates:  us,
		Baseline: baseline,
		TotalVPs: len(baseline),
	})
	if err != nil {
		return err
	}
	if m.Correlation != nil {
		qp.SetBaseline(m.Correlation.Baseline())
	}

	out, err := os.Create(outPath)
	if err != nil {
		return err
	}
	defer out.Close()
	if err := m.Filters.Marshal(out); err != nil {
		return err
	}
	fmt.Printf("trained on %d updates from %d VPs: %d drop rules, %d anchors → %s\n",
		len(us), len(baseline), m.Filters.NumDrops(), len(m.Filters.Anchors()), outPath)
	return nil
}

// auditFromMRT replays an MRT stream through the data-quality plane
// against the currently installed filter set: every update is shadowed
// with the filters' keep/discard verdict, then one audit pass reports
// live reconstitution power, use-case coverage, and drift against the
// last training's digests.
func auditFromMRT(o *orchestrator.Orchestrator, qp *quality.Plane, inPath string) error {
	us, err := readMRTUpdates(inPath)
	if err != nil {
		return err
	}
	fs := o.Filters() // nil until the first train: audit a retain-everything view
	kept := 0
	for _, u := range us {
		k := fs == nil || fs.Keep(u)
		if k {
			kept++
		}
		qp.ObserveShadow(u, k)
	}
	r := qp.Audit()
	fmt.Printf("audited %d updates (%d kept, %d discarded): live_rp=%.3f (training %.2f), drift=%.3f (%s baseline), coverage:\n",
		len(us), kept, len(us)-kept, r.LiveRP, r.TrainingRP, r.Drift.Score, r.Drift.Baseline)
	for name, v := range r.Coverage {
		fmt.Printf("  %-24s %.3f\n", name, v)
	}
	if r.Drift.Crossed {
		fmt.Printf("  DRIFT threshold crossed: %d novel of %d updates, %d changed prefixes, %d new prefixes\n",
			r.Drift.NovelUpdates, r.Drift.TotalUpdates, r.Drift.ChangedPrefixes, r.Drift.NewPrefixes)
	}
	return nil
}
