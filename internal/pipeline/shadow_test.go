package pipeline_test

// Shadow-lane determinism: the quality.Selector wired into
// FilterStage.ShadowSelect must pick the same (VP,prefix) slots no matter
// how the pipeline is sharded and no matter how many times the process
// restarts. The selection is a seeded hash of the slot key, so two
// pipelines fed the same stream — at different shard counts, or as fresh
// instances standing in for a restarted daemon — must mirror identical
// slot sets into the shadow lane, and every update of a selected slot
// must be mirrored (a slot is never half-shadowed).

import (
	"context"
	"fmt"
	"net/netip"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/pipeline"
	"repro/internal/quality"
	"repro/internal/update"
)

// shadowStream builds a deterministic update stream: 24 VPs × 48 prefixes,
// 3 updates per slot (announce, re-announce, withdraw), interleaved so a
// slot's updates are spread across the ingest order.
func shadowStream() []*update.Update {
	var us []*update.Update
	base := time.Date(2026, 3, 1, 0, 0, 0, 0, time.UTC)
	for round := 0; round < 3; round++ {
		for v := 0; v < 24; v++ {
			vp := fmt.Sprintf("vp%d", 65000+v)
			for p := 0; p < 48; p++ {
				pfx := netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(p), 0, 0}), 24)
				u := &update.Update{
					VP:     vp,
					Prefix: pfx,
					Time:   base.Add(time.Duration(round*1152+v*48+p) * time.Second),
				}
				if round == 2 {
					u.Withdraw = true
				} else {
					u.Path = []uint32{uint32(65000 + v), 3356, uint32(100 + p)}
				}
				us = append(us, u)
			}
		}
	}
	return us
}

// runShadowed pushes the stream through a fresh pipeline with the given
// shard count and returns, per selected slot key, how many updates the
// shadow sink saw.
func runShadowed(t *testing.T, sel quality.Selector, shards int, us []*update.Update) map[string]int {
	t.Helper()
	var mu sync.Mutex
	seen := make(map[string]int)
	fs := &pipeline.FilterStage{
		ShadowSelect: sel.SelectUpdate,
		ShadowSink: func(u *update.Update, kept bool) {
			mu.Lock()
			seen[u.VP+" "+u.Prefix.String()]++
			mu.Unlock()
		},
	}
	p := pipeline.New(pipeline.Config{
		Shards:    shards,
		QueueSize: 1024,
		BatchSize: 32,
		Overflow:  pipeline.Block,
		Name:      fmt.Sprintf("shadow%d", shards),
	}, fs)
	if err := p.Start(context.Background()); err != nil {
		t.Fatalf("Start: %v", err)
	}
	for _, u := range us {
		if !p.Ingest(u) {
			t.Fatalf("Ingest rejected an update under Block policy")
		}
	}
	p.Close()
	return seen
}

// TestShadowSelectionDeterministic: same seed + same stream ⇒ identical
// shadow selection across shard counts and across pipeline restarts.
func TestShadowSelectionDeterministic(t *testing.T) {
	sel := quality.Selector{Seed: 42, Denom: 8}
	us := shadowStream()

	oneShard := runShadowed(t, sel, 1, us)
	fourShards := runShadowed(t, sel, 4, us)
	restarted := runShadowed(t, sel, 4, us)

	if len(oneShard) == 0 {
		t.Fatal("selector at 1/8 picked no slots from a 1152-slot stream")
	}
	if !reflect.DeepEqual(oneShard, fourShards) {
		t.Errorf("shadow selection differs between 1 and 4 shards: %d vs %d slots",
			len(oneShard), len(fourShards))
	}
	if !reflect.DeepEqual(fourShards, restarted) {
		t.Errorf("shadow selection differs across restarts at the same shard count")
	}

	// Slot coherence: every selected slot contributed all 3 of its updates.
	for key, n := range oneShard {
		if n != 3 {
			t.Errorf("slot %s mirrored %d of 3 updates — slots must never be split", key, n)
		}
	}

	// The mirrored set matches the selector's own verdict exactly: no slot
	// shadowed that Selected rejects, none missing that it accepts.
	want := 0
	for v := 0; v < 24; v++ {
		vp := fmt.Sprintf("vp%d", 65000+v)
		for p := 0; p < 48; p++ {
			pfx := netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(p), 0, 0}), 24)
			if sel.Selected(vp, pfx) {
				want++
				if _, ok := oneShard[vp+" "+pfx.String()]; !ok {
					t.Errorf("slot (%s, %s) selected but never mirrored", vp, pfx)
				}
			}
		}
	}
	if want != len(oneShard) {
		t.Errorf("mirrored %d slots, selector accepts %d", len(oneShard), want)
	}
}

// TestShadowSeedChangesSelection: a different seed reshuffles which slots
// are shadowed (the lane samples by hash, not by slot position).
func TestShadowSeedChangesSelection(t *testing.T) {
	us := shadowStream()
	a := runShadowed(t, quality.Selector{Seed: 1, Denom: 8}, 2, us)
	b := runShadowed(t, quality.Selector{Seed: 2, Denom: 8}, 2, us)
	if reflect.DeepEqual(a, b) {
		t.Fatalf("seeds 1 and 2 selected identical slot sets (%d slots)", len(a))
	}
}
