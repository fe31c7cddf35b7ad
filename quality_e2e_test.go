package gill_test

// End-to-end exercise of the data-quality plane: a daemon collects over
// real TCP with the shadow lane and the completeness ledger wired, and the
// conservation law In = Archived + Filtered + Dropped + Lost + Queued must
// balance to zero residual — in a clean run and under injected archive
// faults. The shadow lane's ingest cost is the "shadow" row of
// TestOverheadGuard.

import (
	"context"
	"io"
	"net"
	"net/netip"
	"testing"
	"time"

	"repro/internal/bgp"
	"repro/internal/daemon"
	"repro/internal/faults"
	"repro/internal/filter"
	"repro/internal/metrics"
	"repro/internal/quality"
	"repro/internal/workload"
)

// dialQualityPeer connects a fake peer to the daemon over loopback TCP
// and returns the peer-side session.
func dialQualityPeer(t *testing.T, d *daemon.Daemon, peerAS uint32) *bgp.Session {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go func() {
		conn, err := ln.Accept()
		ln.Close()
		if err != nil {
			return
		}
		_ = d.ServeConn(ctx, conn)
	}()
	hctx, hcancel := context.WithTimeout(ctx, 10*time.Second)
	defer hcancel()
	sess, err := bgp.Dial(hctx, ln.Addr().String(), bgp.SpeakerConfig{
		LocalAS:  peerAS,
		RouterID: netip.AddrFrom4([4]byte{192, 0, 2, byte(peerAS)}),
		HoldTime: 60,
	})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() { sess.Close() })
	return sess
}

func waitForQuality(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition not reached")
}

// qualityFilters drops vp65001's 20 hottest prefixes so the run exercises
// the Filtered ledger bucket (the workload's prefixes are 32.x.y.0/24).
func qualityFilters() *filter.Set {
	fs := filter.NewSet(filter.GranVPPrefix)
	for i := 0; i < 20; i++ {
		p := netip.PrefixFrom(netip.AddrFrom4([4]byte{32, byte(i >> 8), byte(i), 0}), 24)
		fs.AddDropVPPrefix("vp65001", p)
	}
	return fs
}

// TestQualityLedgerBalancesE2E: a clean TCP collection run ends with a
// zero-residual completeness ledger, a working shadow lane, and the
// residual published on quality.unaccounted.
func TestQualityLedgerBalancesE2E(t *testing.T) {
	reg := metrics.NewRegistry()
	qp := quality.NewPlane(quality.Config{
		Selector: quality.Selector{Seed: 1, Denom: 4},
		Registry: reg,
	})
	d := daemon.New(daemon.Config{
		LocalAS:    65000,
		Filters:    qualityFilters(),
		RecordSink: discardSink,
		Registry:   reg,
		Quality:    qp,
	})
	peer := dialQualityPeer(t, d, 65001)

	const n = 400
	stream := workload.Stream(workload.StreamConfig{PeerAS: 65001, Seed: 3, Prefixes: 50}, n)
	for _, tu := range stream {
		if err := peer.Send(tu.Update); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	waitForQuality(t, func() bool { return d.Stats().Received >= n })
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	lc := d.LedgerCounts()
	if lc.In != n {
		t.Errorf("ledger In = %d, want %d", lc.In, n)
	}
	if lc.Unaccounted() != 0 {
		t.Errorf("ledger residual %d after drain, want 0: %+v", lc.Unaccounted(), lc)
	}
	if lc.Filtered == 0 {
		t.Error("filters matched nothing — the Filtered bucket is unexercised")
	}
	if lc.Archived == 0 {
		t.Error("nothing archived")
	}

	// The plane samples the same ledger and publishes the residual.
	r := qp.Audit()
	if r.Ledger == nil {
		t.Fatal("audit carried no ledger sample despite a wired daemon")
	}
	if r.Ledger.Unaccounted != 0 {
		t.Errorf("audited residual %d, want 0", r.Ledger.Unaccounted)
	}
	if r.ShadowObserved == 0 {
		t.Error("shadow lane at 1/4 saw nothing over a 50-prefix stream")
	}
	if r.ShadowObserved != r.ShadowKept+r.ShadowDiscarded {
		t.Errorf("shadow verdicts do not add up: %d observed, %d kept + %d discarded",
			r.ShadowObserved, r.ShadowKept, r.ShadowDiscarded)
	}
	if g := reg.Snapshot().Gauges["quality.unaccounted"]; g != 0 {
		t.Errorf("quality.unaccounted gauge = %d, want 0", g)
	}
}

// TestQualityLedgerBalancesUnderChaos: with write faults injected into
// the archive sink, updates land in Lost instead of Archived — and the
// ledger still balances exactly. Loss is accounted, never silent.
func TestQualityLedgerBalancesUnderChaos(t *testing.T) {
	reg := metrics.NewRegistry()
	qp := quality.NewPlane(quality.Config{
		Selector: quality.Selector{Seed: 1, Denom: 4},
		Registry: reg,
	})
	inj := faults.New(faults.Config{Seed: 7, ErrProb: 0.2, PartialProb: 0.1})
	w := inj.Writer(io.Discard)
	d := daemon.New(daemon.Config{
		LocalAS: 65000,
		Filters: qualityFilters(),
		// A record is stored when its write completes; a batch stops at
		// the first record that does not.
		RecordSink: func(recs [][]byte) (int, error) {
			for i, r := range recs {
				if _, err := w.Write(r); err != nil {
					return i, err
				}
			}
			return len(recs), nil
		},
		Registry: reg,
		Quality:  qp,
	})
	peer := dialQualityPeer(t, d, 65001)

	const n = 400
	stream := workload.Stream(workload.StreamConfig{PeerAS: 65001, Seed: 4, Prefixes: 50}, n)
	for _, tu := range stream {
		if err := peer.Send(tu.Update); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	waitForQuality(t, func() bool { return d.Stats().Received >= n })
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	lc := d.LedgerCounts()
	if lc.Lost == 0 {
		t.Error("20% injected write errors lost nothing — faults not reaching the archive path")
	}
	if lc.Unaccounted() != 0 {
		t.Errorf("ledger residual %d under chaos, want 0: %+v", lc.Unaccounted(), lc)
	}
	if lc.In != n {
		t.Errorf("ledger In = %d, want %d", lc.In, n)
	}
	if got := lc.Archived + lc.Filtered + lc.Dropped + lc.Lost + lc.Queued; got != n {
		t.Errorf("buckets sum to %d, want %d: %+v", got, n, lc)
	}
}
