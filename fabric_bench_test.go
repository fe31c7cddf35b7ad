package gill_test

// Fabric control-plane benchmarks: with a coordinator and three collector
// agents on loopback TCP, measure (a) heartbeat round-trip time through
// the real framed control plane, (b) sustained heartbeat throughput, (c)
// filter-distribution propagation latency fleet-wide, and (d) failover
// rebalance latency — kill to full shard reassignment — against the lease
// deadline. TestFabricBenchReport (env-gated, run by `make bench-fabric`)
// writes the machine-readable BENCH_fabric.json artifact.

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/filter"
	"repro/internal/metrics"
	"repro/internal/resilience"
	"repro/internal/telemetry"
)

// benchAgent is one fleet member for the bench: an agent with its own
// registry (so per-agent RTT histograms stay separable) and a kill switch.
type benchAgent struct {
	agent  *fabric.Agent
	reg    *metrics.Registry
	cancel context.CancelFunc
}

func startBenchAgent(t *testing.T, id, coordAddr string, heartbeatEvery time.Duration) *benchAgent {
	t.Helper()
	reg := metrics.NewRegistry()
	agent, err := fabric.NewAgent(fabric.AgentConfig{
		ID:             id,
		Coordinator:    coordAddr,
		HeartbeatEvery: heartbeatEvery,
		Backoff:        resilience.Backoff{Base: 10 * time.Millisecond, Max: 100 * time.Millisecond},
		Registry:       reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go agent.Run(ctx)
	t.Cleanup(cancel)
	return &benchAgent{agent: agent, reg: reg, cancel: cancel}
}

type fabricBenchReport struct {
	GeneratedAt         string  `json:"generated_at"`
	LeaseTTLMS          int64   `json:"lease_ttl_ms"`
	VPs                 int     `json:"vps"`
	Collectors          int     `json:"collectors"`
	Heartbeats          uint64  `json:"heartbeats"`
	HeartbeatsPerSec    float64 `json:"heartbeats_per_sec"`
	ControlRTTP50US     float64 `json:"control_rtt_p50_us"`
	ControlRTTP99US     float64 `json:"control_rtt_p99_us"`
	FilterPropagationMS float64 `json:"filter_propagation_ms"`
	RebalanceMS         float64 `json:"rebalance_ms"`
	RebalanceLeases     float64 `json:"rebalance_leases"`
}

// TestFabricBenchReport measures the fabric control plane and writes
// BENCH_fabric.json. Run by `make bench-fabric` (GILL_BENCH_GUARD=1).
func TestFabricBenchReport(t *testing.T) {
	if os.Getenv("GILL_BENCH_GUARD") != "1" {
		t.Skip("set GILL_BENCH_GUARD=1 to write BENCH_fabric.json")
	}

	const (
		leaseTTL       = 500 * time.Millisecond
		heartbeatEvery = 10 * time.Millisecond // dense sampling for the RTT histogram
		numVPs         = 64
	)
	coord := fabric.NewCoordinator(fabric.CoordinatorConfig{LeaseTTL: leaseTTL})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go coord.Serve(ctx, ln)
	go coord.Run(ctx)

	vps := make([]string, numVPs)
	for i := range vps {
		vps[i] = fmt.Sprintf("vp%d", 65001+i)
	}
	coord.SetVPs(vps)

	wait := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(15 * time.Second)
		for time.Now().Before(deadline) {
			if cond() {
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
		t.Fatalf("timed out waiting for %s", what)
	}

	agents := map[string]*benchAgent{}
	for _, id := range []string{"c1", "c2", "c3"} {
		agents[id] = startBenchAgent(t, id, ln.Addr().String(), heartbeatEvery)
	}
	wait("full assignment", func() bool {
		total := 0
		for _, a := range agents {
			total += len(a.agent.Status().VPs)
		}
		return total == numVPs
	})

	// Filter propagation: distribute once and clock the slowest installer.
	fs := filter.NewSet(filter.GranVPPrefix)
	fs.AddAnchor("vp65001")
	distributedAt := time.Now()
	coord.DistributeFiltersTraced(telemetry.SpanContext{}, fs)
	wantGen, wantSum := coord.FilterGen()
	wait("fleet-wide filter install", func() bool {
		for _, a := range agents {
			if g, s := a.agent.FilterGen(); g != wantGen || s != wantSum {
				return false
			}
		}
		return true
	})
	filterPropagation := time.Since(distributedAt)

	// Heartbeat regime: let the fleet heartbeat densely for a fixed window
	// and read RTTs from the agents' control_rtt_us histograms.
	window := 2 * time.Second
	before := coord.Status()
	var hbBefore uint64
	for _, c := range before.Collectors {
		hbBefore += c.Heartbeats
	}
	time.Sleep(window)
	after := coord.Status()
	var hbAfter uint64
	for _, c := range after.Collectors {
		hbAfter += c.Heartbeats
	}
	heartbeats := hbAfter - hbBefore

	rtt := agents["c1"].reg.Snapshot().Histograms["fabric.agent.control_rtt_us"]
	if rtt.Count == 0 {
		t.Fatal("no control RTT samples recorded")
	}

	// Failover: SIGKILL-equivalent on c1, clock the full shard handoff.
	victimShard := agents["c1"].agent.Status().VPs
	if len(victimShard) == 0 {
		t.Fatal("c1 owns no VPs; bench degenerate")
	}
	killedAt := time.Now()
	agents["c1"].cancel()
	wait("shard reassignment", func() bool {
		for _, vp := range victimShard {
			owner := coord.Assignment()[vp]
			if owner == "" || owner == "c1" {
				return false
			}
		}
		return true
	})
	rebalance := time.Since(killedAt)
	if rebalance > 2*leaseTTL {
		t.Errorf("rebalance took %v, want <= 2 lease periods (%v)", rebalance, 2*leaseTTL)
	}

	rep := fabricBenchReport{
		GeneratedAt:         time.Now().UTC().Format(time.RFC3339),
		LeaseTTLMS:          leaseTTL.Milliseconds(),
		VPs:                 numVPs,
		Collectors:          len(agents),
		Heartbeats:          heartbeats,
		HeartbeatsPerSec:    float64(heartbeats) / window.Seconds(),
		ControlRTTP50US:     rtt.Quantile(0.50),
		ControlRTTP99US:     rtt.Quantile(0.99),
		FilterPropagationMS: float64(filterPropagation.Microseconds()) / 1000,
		RebalanceMS:         float64(rebalance.Microseconds()) / 1000,
		RebalanceLeases:     rebalance.Seconds() / leaseTTL.Seconds(),
	}
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_fabric.json", append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("BENCH_fabric.json: %s", out)
}
