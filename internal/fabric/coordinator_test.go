package fabric

import (
	"bytes"
	"context"
	"net"
	"net/netip"
	"sync"
	"testing"
	"time"

	"repro/internal/filter"
	"repro/internal/metrics"
	"repro/internal/resilience"
	"repro/internal/telemetry"
)

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// startCoordinator boots a coordinator on loopback TCP without the lease
// ticker — tests drive Tick explicitly for determinism.
func startCoordinator(t *testing.T, cfg CoordinatorConfig) (*Coordinator, string) {
	t.Helper()
	c := NewCoordinator(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); c.Serve(ctx, ln) }()
	t.Cleanup(func() { cancel(); <-done })
	return c, ln.Addr().String()
}

func startAgent(t *testing.T, cfg AgentConfig) (*Agent, context.CancelFunc) {
	t.Helper()
	if cfg.Backoff == (resilience.Backoff{}) {
		cfg.Backoff = resilience.Backoff{Base: 10 * time.Millisecond, Max: 50 * time.Millisecond}
	}
	if cfg.HeartbeatEvery == 0 {
		cfg.HeartbeatEvery = 20 * time.Millisecond
	}
	a, err := NewAgent(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); a.Run(ctx) }()
	t.Cleanup(func() { cancel(); <-done })
	return a, cancel
}

func testFilters(t *testing.T) *filter.Set {
	t.Helper()
	fs := filter.NewSet(filter.GranVPPrefix)
	fs.AddAnchor("vp65000")
	fs.AddDropVPPrefix("vp65001", netip.MustParsePrefix("192.0.2.0/24"))
	return fs
}

func TestFabricAssignAndDistribute(t *testing.T) {
	coord, addr := startCoordinator(t, CoordinatorConfig{LeaseTTL: time.Second})
	vps := []string{"vpA", "vpB", "vpC", "vpD", "vpE", "vpF"}
	coord.SetVPs(vps)

	var mu sync.Mutex
	raws := map[string][]byte{}
	onFilters := func(id string) func(uint64, *filter.Set, []byte) {
		return func(_ uint64, _ *filter.Set, raw []byte) {
			mu.Lock()
			raws[id] = append([]byte(nil), raw...)
			mu.Unlock()
		}
	}
	a1, _ := startAgent(t, AgentConfig{ID: "c1", Coordinator: addr, Addr: "1.1.1.1:179", OnFilters: onFilters("c1")})
	a2, _ := startAgent(t, AgentConfig{ID: "c2", Coordinator: addr, Addr: "2.2.2.2:179", OnFilters: onFilters("c2")})

	waitFor(t, "both agents assigned", func() bool {
		return a1.Status().AssignGen > 0 && a2.Status().AssignGen > 0 &&
			a1.Status().AssignGen == a2.Status().AssignGen &&
			len(a1.Status().VPs)+len(a2.Status().VPs) == len(vps)
	})

	// The installed shards must partition the VP universe exactly as the
	// coordinator's map says.
	assignment := coord.Assignment()
	union := map[string]string{}
	for _, vp := range a1.Status().VPs {
		union[vp] = "c1"
	}
	for _, vp := range a2.Status().VPs {
		if _, dup := union[vp]; dup {
			t.Fatalf("VP %s assigned to both collectors", vp)
		}
		union[vp] = "c2"
	}
	for vp, owner := range assignment {
		if union[vp] != owner {
			t.Fatalf("VP %s: coordinator says %s, agents installed %s", vp, owner, union[vp])
		}
	}

	// Filter distribution: both agents install the same generation with
	// byte-identical digests.
	coord.DistributeFiltersTraced(telemetry.SpanContext{}, testFilters(t))
	wantGen, wantSum := coord.FilterGen()
	if wantGen != 1 || wantSum == 0 {
		t.Fatalf("coordinator filter gen/sum = %d/%d", wantGen, wantSum)
	}
	waitFor(t, "both agents install filters", func() bool {
		g1, s1 := a1.FilterGen()
		g2, s2 := a2.FilterGen()
		return g1 == wantGen && g2 == wantGen && s1 == wantSum && s2 == wantSum
	})
	mu.Lock()
	if string(raws["c1"]) != string(raws["c2"]) || len(raws["c1"]) == 0 {
		t.Fatalf("installed filter bytes differ: %d vs %d bytes", len(raws["c1"]), len(raws["c2"]))
	}
	mu.Unlock()

	// Acks propagate the installed generation back into the fleet status.
	waitFor(t, "coordinator books the installs", func() bool {
		st := coord.Status()
		if len(st.Collectors) != 2 {
			return false
		}
		for _, row := range st.Collectors {
			if row.InstalledFilterGen != wantGen || !row.Connected {
				return false
			}
		}
		return true
	})
}

func TestFabricLeaseExpiryRebalancesOntoSurvivor(t *testing.T) {
	ttl := 500 * time.Millisecond
	coord, addr := startCoordinator(t, CoordinatorConfig{LeaseTTL: ttl})
	vps := []string{"vpA", "vpB", "vpC", "vpD"}
	coord.SetVPs(vps)

	a1, kill := startAgent(t, AgentConfig{ID: "c1", Coordinator: addr})
	a2, _ := startAgent(t, AgentConfig{ID: "c2", Coordinator: addr})
	waitFor(t, "both agents assigned", func() bool {
		return a1.Status().AssignGen > 0 && a2.Status().AssignGen > 0 &&
			len(a1.Status().VPs)+len(a2.Status().VPs) == len(vps)
	})
	genBefore := a2.Status().AssignGen
	survivorShard := a2.Status().VPs

	// Kill c1 abruptly; its lease must lapse and its shard move to c2.
	kill()
	waitFor(t, "c1 disconnect books", func() bool {
		for _, row := range coord.Status().Collectors {
			if row.ID == "c1" {
				return !row.Connected
			}
		}
		return true
	})
	// Drive lease expiry with the real clock: c2 keeps heartbeating so only
	// c1's lease may lapse.
	var expired []string
	waitFor(t, "c1 lease expiry", func() bool {
		expired = append(expired, coord.Tick(time.Now())...)
		for _, id := range expired {
			if id == "c1" {
				return true
			}
		}
		return false
	})
	for _, id := range expired {
		if id != "c1" {
			t.Fatalf("heartbeating survivor %s expired too (expired=%v)", id, expired)
		}
	}
	waitFor(t, "survivor owns everything", func() bool {
		shard := a2.Status().VPs
		return a2.Status().AssignGen > genBefore && len(shard) == len(vps)
	})

	// Rendezvous hashing: the survivor's original VPs did not move.
	after := map[string]bool{}
	for _, vp := range a2.Status().VPs {
		after[vp] = true
	}
	for _, vp := range survivorShard {
		if !after[vp] {
			t.Fatalf("survivor lost its own VP %s during failover", vp)
		}
	}
	if got := coord.Status(); len(got.Collectors) != 1 || got.Collectors[0].ID != "c2" {
		t.Fatalf("fleet status after expiry: %+v", got.Collectors)
	}
}

func TestFabricHeartbeatsKeepLeaseAlive(t *testing.T) {
	ttl := 150 * time.Millisecond
	reg := metrics.NewRegistry()
	coord, addr := startCoordinator(t, CoordinatorConfig{LeaseTTL: ttl, Registry: reg})
	coord.SetVPs([]string{"vpA"})
	a, _ := startAgent(t, AgentConfig{ID: "c1", Coordinator: addr, HeartbeatEvery: 20 * time.Millisecond})
	waitFor(t, "agent assigned", func() bool { return a.Status().AssignGen > 0 })

	// Outlive several TTLs; heartbeats must keep the lease renewed.
	time.Sleep(3 * ttl)
	if expired := coord.Tick(time.Now()); len(expired) != 0 {
		t.Fatalf("heartbeating collector expired: %v", expired)
	}
	if hb := reg.Counter("fabric.heartbeats").Load(); hb == 0 {
		t.Fatal("no heartbeats booked")
	}
}

func TestFabricReconnectAndFilterRepair(t *testing.T) {
	coord, addr := startCoordinator(t, CoordinatorConfig{LeaseTTL: time.Second})
	coord.SetVPs([]string{"vpA", "vpB"})
	coord.DistributeFiltersTraced(telemetry.SpanContext{}, testFilters(t)) // gen 1 before any collector exists

	a, _ := startAgent(t, AgentConfig{ID: "c1", Coordinator: addr})
	wantGen, wantSum := coord.FilterGen()
	// Registration repairs the missed generation.
	waitFor(t, "late joiner repaired", func() bool {
		g, s := a.FilterGen()
		return g == wantGen && s == wantSum
	})
	if len(a.Status().VPs) != 2 {
		t.Fatalf("late joiner shard = %v, want both VPs", a.Status().VPs)
	}
}

func TestAgentRejectsStaleGenerations(t *testing.T) {
	reg := metrics.NewRegistry()
	client, server := net.Pipe()
	dialed := make(chan struct{}, 1)
	a, err := NewAgent(AgentConfig{
		ID:       "c1",
		Registry: reg,
		// Long heartbeat so the fake coordinator only handles the register.
		HeartbeatEvery: time.Hour,
		Dial: func(ctx context.Context) (net.Conn, error) {
			select {
			case dialed <- struct{}{}:
				return client, nil
			default:
				return nil, context.Canceled
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() { defer close(done); a.Run(ctx) }()
	defer func() { cancel(); client.Close(); server.Close(); <-done }()

	// Fake coordinator: consume the register, then feed generations out of
	// order.
	if m, err := ReadMsg(server, time.Now().Add(time.Second)); err != nil || m.Type != MsgRegister {
		t.Fatalf("register: %+v, %v", m, err)
	}
	send := func(m *Msg) {
		t.Helper()
		if err := WriteMsg(server, m, time.Now().Add(time.Second)); err != nil {
			t.Fatal(err)
		}
	}
	readAck := func(wantKind string, wantGen uint64) {
		t.Helper()
		m, err := ReadMsg(server, time.Now().Add(time.Second))
		if err != nil {
			t.Fatal(err)
		}
		if m.Type != MsgAck || m.Kind != wantKind || m.Gen != wantGen {
			t.Fatalf("ack = %+v, want kind=%s gen=%d", m, wantKind, wantGen)
		}
	}

	fsBytes := func(anchor string) []byte {
		fs := filter.NewSet(filter.GranVPPrefix)
		fs.AddAnchor(anchor)
		var buf bytes.Buffer
		if err := fs.Marshal(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	cur := fsBytes("10.0.0.0/8")
	send(&Msg{Type: MsgFilters, Gen: 5, Filters: cur, Sum: FilterSum(cur)})
	readAck(MsgFilters, 5)

	stale := fsBytes("172.16.0.0/12")
	send(&Msg{Type: MsgFilters, Gen: 3, Filters: stale, Sum: FilterSum(stale)})
	readAck(MsgFilters, 5) // acks the *installed* generation, not the stale one

	if g, s := a.FilterGen(); g != 5 || s != FilterSum(cur) {
		t.Fatalf("stale generation overwrote install: gen=%d", g)
	}
	if n := reg.Counter("fabric.agent.stale_filters_rejected").Load(); n != 1 {
		t.Fatalf("stale_filters_rejected = %d, want 1", n)
	}

	send(&Msg{Type: MsgAssign, Gen: 4, VPs: []string{"vpA"}})
	readAck(MsgAssign, 4)
	send(&Msg{Type: MsgAssign, Gen: 2, VPs: []string{"vpZ"}})
	waitFor(t, "stale assign rejected", func() bool {
		return reg.Counter("fabric.agent.stale_assigns_rejected").Load() == 1
	})
	if got := a.Status().VPs; len(got) != 1 || got[0] != "vpA" {
		t.Fatalf("stale assign overwrote shard: %v", got)
	}

	// A corrupt frame (digest mismatch) must not advance the generation; a
	// later clean frame proves the corrupt one was processed and skipped.
	send(&Msg{Type: MsgFilters, Gen: 9, Filters: cur, Sum: FilterSum(cur) ^ 1})
	clean := fsBytes("192.168.0.0/16")
	send(&Msg{Type: MsgFilters, Gen: 10, Filters: clean, Sum: FilterSum(clean)})
	readAck(MsgFilters, 10)
	if g, s := a.FilterGen(); g != 10 || s != FilterSum(clean) {
		t.Fatalf("after corrupt frame: gen=%d, want 10", g)
	}
}
