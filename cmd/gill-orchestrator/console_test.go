package main

import (
	"bytes"
	"context"
	"hash/fnv"
	"net"
	"net/netip"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/filter"
	"repro/internal/orchestrator"
	"repro/internal/quality"
	"repro/internal/update"
)

// newTestConsole wires a console the way main does — the coordinator
// serving on loopback under ctx, subscribed to the orchestrator's traced
// fan-out — with quit cancelling ctx.
func newTestConsole(t *testing.T) (*console, context.Context) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	o := orchestrator.New(nil, nil)
	coord := fabric.NewCoordinator(fabric.CoordinatorConfig{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); coord.Serve(ctx, ln) }()
	go func() { defer wg.Done(); coord.Run(ctx) }()
	t.Cleanup(func() { cancel(); wg.Wait() })
	o.SubscribeTraced(coord.DistributeFiltersTraced)
	return &console{
		o:     o,
		rec:   orchestrator.NewRecomputer(o, orchestrator.RecomputeConfig{Core: core.DefaultConfig(), Seed: 1}),
		qp:    quality.NewPlane(quality.Config{Selector: quality.Selector{Seed: 1, Denom: 1}}),
		coord: coord,
		quit:  cancel,
	}, ctx
}

func runConsole(t *testing.T, c *console, ctx context.Context, script string) string {
	t.Helper()
	var out bytes.Buffer
	if err := c.run(ctx, strings.NewReader(script), &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	return out.String()
}

// A confirmed peering is a fleet VP: the coordinator's VP list is the
// orchestrator's confirmed peers.
func TestConsoleConfirmAddsFleetVP(t *testing.T) {
	c, ctx := newTestConsole(t)
	out := runConsole(t, c, ctx, "submit 65001 noc@example.net 192.0.2.1\nconfirm 65001 noc@example.net\n")
	if !strings.Contains(out, "AS65001 activated") {
		t.Fatalf("confirm did not activate the peering:\n%s", out)
	}
	if _, ok := c.coord.Assignment()["vp65001"]; !ok {
		t.Fatalf("vp65001 not in the coordinator's VP list: %v", c.coord.Assignment())
	}
	if st := c.coord.Status(); st.VPs != 1 {
		t.Fatalf("coordinator holds %d VPs, want 1", st.VPs)
	}
}

// `filters <file>` installs through the orchestrator and reaches the
// coordinator as filter generation 1 whose digest is the FNV-64a of the
// file's bytes — including a path-granularity rule, whose key ends in the
// AS path's trailing space.
func TestConsoleFiltersPushesFileDigest(t *testing.T) {
	c, ctx := newTestConsole(t)
	fs := filter.NewSet(filter.GranVPPrefixPath)
	fs.AddAnchor("vp65000")
	fs.AddDrop(&update.Update{VP: "vp65001", Prefix: netip.MustParsePrefix("192.0.2.0/24"), Path: []uint32{65001, 3356}})
	var raw bytes.Buffer
	if err := fs.Marshal(&raw); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "fleet.filters")
	if err := os.WriteFile(path, raw.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	out := runConsole(t, c, ctx, "filters "+path+"\n")
	h := fnv.New64a()
	h.Write(raw.Bytes())
	gen, sum := c.coord.FilterGen()
	if gen != 1 || sum != h.Sum64() {
		t.Fatalf("coordinator at filter gen %d digest %016x, want gen 1 digest %016x\n%s", gen, sum, h.Sum64(), out)
	}
	if c.o.Filters() == nil || c.o.Filters().NumDrops() != 1 {
		t.Fatalf("orchestrator did not record the pushed set: %v", c.o.Filters())
	}
}

// EOF ends the console, not the process: the ctx the coordinator serves
// on stays live until `quit`.
func TestConsoleEOFKeepsServing(t *testing.T) {
	c, ctx := newTestConsole(t)
	runConsole(t, c, ctx, "peers\n")
	if ctx.Err() != nil {
		t.Fatal("EOF on the console cancelled the serving ctx")
	}
	runConsole(t, c, ctx, "quit\nsubmit 65002 noc@example.net 192.0.2.2\n")
	if ctx.Err() == nil {
		t.Fatal("quit did not cancel the serving ctx")
	}
	if c.o.Pending() != 0 {
		t.Fatal("a command after quit was executed")
	}
}
