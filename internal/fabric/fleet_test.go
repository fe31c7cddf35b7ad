package fabric_test

// Fleet-in-process chaos harness: a coordinator and three collector
// daemons run over real loopback TCP, simulator-driven VP traffic follows
// the assignment map, and one collector is killed mid-stream. The fabric
// must reassign the dead collector's entire VP shard to the survivors
// within two lease periods, the survivors must hold byte-identical filter
// sets, and every daemon's completeness ledger — including the killed
// one's — must balance to zero residual: failover may lose unsent wire
// bytes, never accounting.

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"testing"
	"time"

	"repro/internal/bgp"
	"repro/internal/daemon"
	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/filter"
	"repro/internal/metrics"
	"repro/internal/quality"
	"repro/internal/resilience"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// collector is one in-process fleet member: a collection daemon, its BGP
// listener, and its fabric agent.
type collector struct {
	id      string
	d       *daemon.Daemon
	qp      *quality.Plane
	agent   *fabric.Agent
	bgpAddr string
	cancel  context.CancelFunc
	done    chan struct{}

	mu        sync.Mutex
	filterRaw []byte
}

func (c *collector) installedRaw() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]byte(nil), c.filterRaw...)
}

// startCollector boots one fleet member against the coordinator address.
func startCollector(t *testing.T, id, coordAddr string) *collector {
	t.Helper()
	reg := metrics.NewRegistry()
	qp := quality.NewPlane(quality.Config{
		Selector: quality.Selector{Seed: 1, Denom: 4},
		Registry: reg,
	})
	c := &collector{id: id, qp: qp, done: make(chan struct{})}
	c.d = daemon.New(daemon.Config{
		LocalAS:  65000,
		Registry: reg,
		Quality:  qp,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c.bgpAddr = ln.Addr().String()
	agent, err := fabric.NewAgent(fabric.AgentConfig{
		ID:          id,
		Coordinator: coordAddr,
		Addr:        c.bgpAddr,
		Backoff:     resilience.Backoff{Base: 10 * time.Millisecond, Max: 100 * time.Millisecond},
		Registry:    reg,
		OnFilters: func(_ uint64, fs *filter.Set, raw []byte) {
			c.mu.Lock()
			c.filterRaw = append([]byte(nil), raw...)
			c.mu.Unlock()
			c.d.SetFilters(fs)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.agent = agent
	ctx, cancel := context.WithCancel(context.Background())
	c.cancel = cancel
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); c.d.Serve(ctx, ln) }()
	go func() { defer wg.Done(); agent.Run(ctx) }()
	go func() { wg.Wait(); close(c.done) }()
	t.Cleanup(func() { c.kill(); c.d.Close() })
	return c
}

// kill tears the collector down abruptly: BGP sessions die, heartbeats
// stop, no goodbye to the coordinator. Idempotent.
func (c *collector) kill() {
	c.cancel()
	<-c.done
}

func fleetVPs() (vps []string, asns map[string]uint32) {
	asns = map[string]uint32{}
	for as := uint32(65001); as <= 65006; as++ {
		vp := fmt.Sprintf("vp%d", as)
		vps = append(vps, vp)
		asns[vp] = as
	}
	return vps, asns
}

func fleetFilters() *filter.Set {
	fs := filter.NewSet(filter.GranVPPrefix)
	fs.AddAnchor("vp65001")
	for i := 0; i < 10; i++ {
		p := netip.PrefixFrom(netip.AddrFrom4([4]byte{32, 0, byte(i), 0}), 24)
		fs.AddDropVPPrefix("vp65002", p)
	}
	return fs
}

// runFleet is the harness shared by the clean-kill and chaos variants:
// wrap lets the caller interpose fault injection on the coordinator's
// control listener.
func runFleet(t *testing.T, wrap func(net.Listener) net.Listener) {
	const leaseTTL = time.Second
	coord := fabric.NewCoordinator(fabric.CoordinatorConfig{LeaseTTL: leaseTTL})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	coordAddr := ln.Addr().String()
	if wrap != nil {
		ln = wrap(ln)
	}
	ctx, cancel := context.WithCancel(context.Background())
	serveDone := make(chan struct{})
	go func() { defer close(serveDone); coord.Serve(ctx, ln) }()
	go coord.Run(ctx)
	t.Cleanup(func() { cancel(); <-serveDone })

	vps, asns := fleetVPs()
	coord.SetVPs(vps)

	cols := map[string]*collector{}
	for _, id := range []string{"c1", "c2", "c3"} {
		cols[id] = startCollector(t, id, coordAddr)
	}
	bgpAddr := func(id string) string {
		if c := cols[id]; c != nil {
			return c.bgpAddr
		}
		return ""
	}

	waitFleet := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(15 * time.Second)
		for time.Now().Before(deadline) {
			if cond() {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Fatalf("timed out waiting for %s", what)
	}

	waitFleet("fleet assignment", func() bool {
		total := 0
		for _, c := range cols {
			total += len(c.agent.Status().VPs)
		}
		return total == len(vps)
	})

	coord.DistributeFiltersTraced(telemetry.SpanContext{}, fleetFilters())
	wantGen, wantSum := coord.FilterGen()
	waitFleet("fleet-wide filter install", func() bool {
		for _, c := range cols {
			if g, s := c.agent.FilterGen(); g != wantGen || s != wantSum {
				return false
			}
		}
		return true
	})

	// Simulator-driven traffic: each VP streams updates to its current
	// owner and re-resolves ownership on session death or reassignment.
	tctx, tcancel := context.WithCancel(context.Background())
	defer tcancel()
	var traffic sync.WaitGroup
	const perVP = 150
	for _, vp := range vps {
		traffic.Add(1)
		go func(vp string, asn uint32) {
			defer traffic.Done()
			stream := workload.Stream(workload.StreamConfig{
				PeerAS: asn, Seed: int64(asn), Prefixes: 20,
			}, perVP)
			i := 0
			for i < perVP && tctx.Err() == nil {
				owner := coord.Assignment()[vp]
				addr := bgpAddr(owner)
				if addr == "" {
					time.Sleep(10 * time.Millisecond)
					continue
				}
				dctx, dcancel := context.WithTimeout(tctx, 5*time.Second)
				sess, err := bgp.Dial(dctx, addr, bgp.SpeakerConfig{
					LocalAS:  asn,
					RouterID: netip.AddrFrom4([4]byte{192, 0, 2, byte(asn)}),
					HoldTime: 60,
				})
				dcancel()
				if err != nil {
					time.Sleep(10 * time.Millisecond)
					continue
				}
				for i < perVP && tctx.Err() == nil {
					if err := sess.Send(stream[i].Update); err != nil {
						break // owner died mid-stream; re-resolve and redial
					}
					i++
					if coord.Assignment()[vp] != owner {
						break // shard moved; follow the assignment map
					}
				}
				sess.Close()
			}
		}(vp, asns[vp])
	}

	// Let traffic flow across the whole fleet, then kill one collector
	// abruptly mid-stream.
	waitFleet("pre-kill traffic on every collector", func() bool {
		for _, c := range cols {
			if c.d.Stats().Received == 0 {
				return false
			}
		}
		return true
	})
	victimID := "c1"
	victimShard := cols[victimID].agent.Status().VPs
	if len(victimShard) == 0 {
		// Rendezvous hashing gave c1 nothing (possible but unlikely with 6
		// VPs); pick a collector that owns VPs so the failover is real.
		for id, c := range cols {
			if len(c.agent.Status().VPs) > 0 {
				victimID = id
				victimShard = c.agent.Status().VPs
				break
			}
		}
	}
	victim := cols[victimID]
	killedAt := time.Now()
	victim.kill()

	// The entire dead shard must land on survivors within 2 lease periods.
	waitFleet("shard reassignment", func() bool {
		for _, vp := range victimShard {
			owner := coord.Assignment()[vp]
			if owner == "" || owner == victimID {
				return false
			}
			found := false
			for _, svp := range cols[owner].agent.Status().VPs {
				if svp == vp {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		return true
	})
	if elapsed := time.Since(killedAt); elapsed > 2*leaseTTL {
		t.Errorf("failover took %v, want <= 2 lease periods (%v)", elapsed, 2*leaseTTL)
	}

	traffic.Wait()

	// Quiesce and audit the whole fleet, the corpse included.
	survivors := map[string]*collector{}
	for id, c := range cols {
		if id != victimID {
			survivors[id] = c
		}
	}
	var fleetIn, fleetResidual uint64
	for id, c := range cols {
		c.kill()
		if err := c.d.Close(); err != nil {
			t.Fatalf("%s close: %v", id, err)
		}
		lc := c.d.LedgerCounts()
		fleetIn += lc.In
		if r := lc.Unaccounted(); r != 0 {
			t.Errorf("%s ledger residual %d, want 0: %+v", id, r, lc)
		}
		fleetResidual += uint64(max64(lc.Unaccounted(), 0))
		if ar := c.qp.Audit(); ar.Ledger != nil && ar.Ledger.Unaccounted != 0 {
			t.Errorf("%s quality audit residual %d, want 0", id, ar.Ledger.Unaccounted)
		}
	}
	if fleetResidual != 0 {
		t.Errorf("cross-fleet unaccounted updates: %d", fleetResidual)
	}
	if fleetIn == 0 {
		t.Fatal("no updates entered the fleet — harness degenerate")
	}

	// Survivors hold the same filter generation, byte for byte.
	var ref []byte
	for id, c := range survivors {
		if g, s := c.agent.FilterGen(); g != wantGen || s != wantSum {
			t.Errorf("%s filter gen/sum = %d/%016x, want %d/%016x", id, g, s, wantGen, wantSum)
		}
		raw := c.installedRaw()
		if len(raw) == 0 {
			t.Fatalf("%s installed no filter bytes", id)
		}
		if ref == nil {
			ref = raw
		} else if !bytes.Equal(ref, raw) {
			t.Errorf("%s filter bytes differ from fleet reference", id)
		}
	}
	var want bytes.Buffer
	if err := fleetFilters().Marshal(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ref, want.Bytes()) {
		t.Error("survivor filter bytes differ from the distributed set")
	}
}

func max64(v int64, floor int64) int64 {
	if v < floor {
		return floor
	}
	return v
}

func TestFleetSurvivesCollectorKill(t *testing.T) {
	runFleet(t, nil)
}

// TestFleetSurvivesControlPlaneChaos runs the same kill scenario with
// faults injected into the coordinator's control listener: latency and
// connection resets force agent reconnects, and generation tokens must
// keep every install idempotent.
func TestFleetSurvivesControlPlaneChaos(t *testing.T) {
	inj := faults.New(faults.Config{
		Seed:        42,
		ResetProb:   0.02,
		LatencyProb: 0.2,
		Latency:     2 * time.Millisecond,
	})
	runFleet(t, func(ln net.Listener) net.Listener { return inj.Listener(ln) })
}
