// Command gill-coordinator runs the federation control plane for a
// multi-collector GILL deployment: it owns the VP→collector assignment
// map, grants time-bounded leases renewed by collector heartbeats, and
// distributes filter sets to the fleet under generation tokens. Kill a
// collector and its entire VP shard is rebalanced onto the survivors
// within two lease periods via rendezvous hashing (minimal movement).
//
// Commands on stdin:
//
//	vps <vp> [vp...]        replace the VP universe
//	add <vp> / del <vp>     adjust the VP universe incrementally
//	filters <file>          distribute a filter file to the fleet
//	fleet                   print the assignment and lease state
//	quit
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/fabric"
	"repro/internal/filter"
	"repro/internal/metrics"
	"repro/internal/telemetry"
	"repro/internal/telemetry/fleet"
)

func main() {
	var (
		listen   = flag.String("listen", "127.0.0.1:8470", "control-plane address collectors dial")
		admin    = flag.String("admin", "", "admin-plane address (/fleetz, /metrics, /statusz); bind loopback — unauthenticated")
		lease    = flag.Duration("lease", fabric.DefaultLeaseTTL, "collector lease TTL; heartbeats renew at TTL/3, expiry rebalances")
		vps      = flag.String("vps", "", "comma-separated initial VP universe (e.g. vp65001,vp65002)")
		filters  = flag.String("filters", "", "filter file to distribute to the fleet at boot")
		logLevel = flag.String("log-level", "info", "minimum log level (debug, info, warn, error)")
		federate = flag.Bool("federate", true, "scrape every collector's admin /metrics and serve fleet rollups on /fleet/metrics (requires -admin)")
		scrapeEv = flag.Duration("scrape-every", fleet.DefaultScrapeInterval, "metrics federation scrape interval")
		staleAf  = flag.Duration("stale-after", 0, "mark a collector stale this long after its last good scrape (0: 3x the scrape interval)")
		sloShort = flag.Duration("slo-short", 0, "override the SLO short burn-rate window (0: per-objective default)")
		sloLong  = flag.Duration("slo-long", 0, "override the SLO long burn-rate window (0: per-objective default)")
		sloBurn  = flag.Float64("slo-burn", 0, "override the SLO burn-rate firing threshold (0: per-objective default)")
	)
	flag.Parse()

	logg := telemetry.NewLogger(os.Stderr)
	logg.SetLevel(telemetry.ParseLevel(*logLevel))
	logm := logg.With("main")

	reg := metrics.NewRegistry()
	rec := telemetry.NewRecorder(0, 0)
	rec.Process = "coordinator"
	coord := fabric.NewCoordinator(fabric.CoordinatorConfig{
		LeaseTTL: *lease,
		Registry: reg,
		Log:      logg,
		Recorder: rec,
		OnRebalance: func(rb fabric.Rebalance) {
			logm.Info("fleet rebalanced", "gen", rb.Gen, "reason", rb.Reason,
				"moved", rb.Moved, "collectors", len(rb.Collectors))
		},
	})

	if *vps != "" {
		var universe []string
		for _, vp := range strings.Split(*vps, ",") {
			if vp = strings.TrimSpace(vp); vp != "" {
				universe = append(universe, vp)
			}
		}
		coord.SetVPs(universe)
		logm.Info("VP universe seeded", "vps", len(universe))
	}
	if *filters != "" {
		if err := distributeFile(coord, *filters); err != nil {
			logm.Error("filter distribution failed", "file", *filters, "err", err)
			os.Exit(1)
		}
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		logm.Error("control listen failed", "addr", *listen, "err", err)
		os.Exit(1)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go coord.Serve(ctx, ln)
	go coord.Run(ctx)
	logm.Info("coordinator listening", "addr", ln.Addr(), "lease", *lease)

	if *admin != "" {
		aln, err := net.Listen("tcp", *admin)
		if err != nil {
			logm.Error("admin listen failed", "addr", *admin, "err", err)
			os.Exit(1)
		}
		a := &telemetry.Admin{
			Registry: reg,
			Recorder: rec,
			Log:      logg.With("admin"),
			Fleet:    func() any { return coord.Status() },
			Status:   func() any { return coord.Status() },
			Ready: func() (bool, string) {
				st := coord.Status()
				if len(st.Collectors) == 0 {
					return false, "no collectors joined"
				}
				if len(st.Unassigned) > 0 {
					return false, fmt.Sprintf("%d VPs unassigned", len(st.Unassigned))
				}
				return true, "fleet assigned"
			},
		}
		// Metrics federation + the SLO alert plane: scrape every leased
		// collector's admin /metrics, roll the fleet up on /fleet/metrics,
		// stitch cross-process traces on /fleet/tracez, and evaluate the
		// burn-rate objectives into /alertz after every scrape.
		if *federate {
			fed, err := fleet.NewFederator(fleet.Config{
				Targets:     fleet.TargetsFromStatus(coord.Status),
				Interval:    *scrapeEv,
				StaleAfter:  *staleAf,
				Registry:    reg,
				Log:         logg,
				Vitals:      true,
				Assignments: fleet.AssignmentsFromStatus(coord.Status),
			})
			if err != nil {
				logm.Error("federator init failed", "err", err)
				os.Exit(1)
			}
			engine := fleet.NewEngine(
				tunedObjectives(*sloShort, *sloLong, *sloBurn), nil)
			a.Fleet = func() any { return fleet.Enrich(coord.Status(), fed.Health()) }
			a.Alerts = func() any { return engine.Status() }
			a.Routes = fed.Routes(rec)
			go func() {
				t := time.NewTicker(*scrapeEv)
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
			logm.Info("metrics federation running", "scrape_every", *scrapeEv)
		}
		go func() {
			if err := a.Serve(ctx, aln); err != nil {
				logm.Warn("admin plane exited", "err", err)
			}
		}()
		logm.Info("admin plane listening", "admin_addr", aln.Addr())
	}

	fmt.Println("gill-coordinator ready; commands: vps/add/del/filters/fleet/quit")
	lines := make(chan string)
	go func() {
		sc := bufio.NewScanner(os.Stdin)
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
	for {
		select {
		case <-ctx.Done():
			logm.Info("shutting down")
			return
		case line, ok := <-lines:
			if !ok {
				<-ctx.Done()
				return
			}
			if quit := command(coord, line); quit {
				return
			}
		}
	}
}

// tunedObjectives returns the stock fleet SLOs with any operator window
// or threshold overrides applied fleet-wide — the smoke scripts shrink
// the windows to seconds so a synthetic incident fires within one run.
func tunedObjectives(short, long time.Duration, burn float64) []fleet.Objective {
	objs := fleet.DefaultObjectives()
	for i := range objs {
		if short > 0 {
			objs[i].ShortWindow = short
		}
		if long > 0 {
			objs[i].LongWindow = long
		}
		if burn > 0 {
			objs[i].BurnThreshold = burn
		}
	}
	return objs
}

// command executes one stdin command; returns true on quit.
func command(coord *fabric.Coordinator, line string) bool {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return false
	}
	switch fields[0] {
	case "vps":
		if len(fields) < 2 {
			fmt.Println("usage: vps <vp> [vp...]")
			return false
		}
		coord.SetVPs(fields[1:])
		fmt.Printf("VP universe: %d VPs\n", len(fields)-1)
	case "add":
		if len(fields) != 2 {
			fmt.Println("usage: add <vp>")
			return false
		}
		coord.AddVP(fields[1])
		fmt.Println("added", fields[1])
	case "del":
		if len(fields) != 2 {
			fmt.Println("usage: del <vp>")
			return false
		}
		coord.RemoveVP(fields[1])
		fmt.Println("removed", fields[1])
	case "filters":
		if len(fields) != 2 {
			fmt.Println("usage: filters <file>")
			return false
		}
		if err := distributeFile(coord, fields[1]); err != nil {
			fmt.Println("filters:", err)
			return false
		}
		gen, sum := coord.FilterGen()
		fmt.Printf("filter generation %d (%016x) pushed to the fleet\n", gen, sum)
	case "fleet":
		printFleet(coord.Status())
	case "quit", "exit":
		return true
	default:
		fmt.Println("unknown command")
	}
	return false
}

func distributeFile(coord *fabric.Coordinator, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	fs, err := filter.Unmarshal(f)
	if err != nil {
		return err
	}
	coord.DistributeFilters(fs)
	return nil
}

func printFleet(st fabric.FleetStatus) {
	fmt.Printf("assignment gen %d, filter gen %d (%s), %d VPs (%d unassigned), lease %s\n",
		st.AssignGen, st.FilterGen, st.FilterSum,
		st.VPs, len(st.Unassigned), time.Duration(st.LeaseTTLMS)*time.Millisecond)
	for _, c := range st.Collectors {
		state := "DETACHED"
		if c.Connected {
			state = "connected"
		}
		fmt.Printf("  %-12s %-22s %-10s lease %5dms  hb %-6d vps %-4d assign-gen %-4d filters %d/%s\n",
			c.ID, c.Addr, state, c.LeaseRemainingMS, c.Heartbeats,
			len(c.VPs), c.AckedAssignGen, c.InstalledFilterGen, c.InstalledFilterSum)
	}
}
