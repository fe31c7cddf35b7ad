package orchestrator

import (
	"errors"
	"net/netip"
	"slices"
	"testing"
	"time"

	"repro/internal/filter"
	"repro/internal/metrics"
)

var t0 = time.Date(2023, 9, 1, 0, 0, 0, 0, time.UTC)

// fixedClock returns a controllable clock.
type fixedClock struct{ now time.Time }

func (c *fixedClock) Now() time.Time { return c.now }

func registry(owned map[string]uint32) OwnershipVerifier {
	return VerifierFunc(func(email string, asn uint32) bool {
		return owned[email] == asn
	})
}

func TestPeeringWorkflow(t *testing.T) {
	clk := &fixedClock{now: t0}
	o := New(registry(map[string]uint32{"noc@example.net": 65001}), clk.Now)

	req := PeeringRequest{ASN: 65001, Email: "noc@example.net", RouterIP: netip.MustParseAddr("192.0.2.9")}
	if err := o.SubmitPeering(req); err != nil {
		t.Fatalf("SubmitPeering: %v", err)
	}
	// Wrong sender: rejected.
	if _, err := o.ConfirmEmail(65001, "attacker@evil.example"); !errors.Is(err, ErrUnverified) {
		t.Fatalf("ConfirmEmail wrong sender: %v", err)
	}
	// Right sender: activated.
	p, err := o.ConfirmEmail(65001, "noc@example.net")
	if err != nil {
		t.Fatalf("ConfirmEmail: %v", err)
	}
	if !p.Confirmed || p.ASN != 65001 || !p.AddedAt.Equal(t0) {
		t.Errorf("peer = %+v", p)
	}
	if got := o.Peers(); len(got) != 1 {
		t.Errorf("Peers = %v", got)
	}
	// Duplicate submission rejected.
	if err := o.SubmitPeering(req); !errors.Is(err, ErrAlreadyPeered) {
		t.Errorf("duplicate submit: %v", err)
	}
}

func TestConfirmWithoutSubmit(t *testing.T) {
	o := New(nil, nil)
	if _, err := o.ConfirmEmail(99, "x@example.net"); !errors.Is(err, ErrNoSuchPeer) {
		t.Errorf("confirm without submit: %v", err)
	}
}

func TestRefreshScheduling(t *testing.T) {
	clk := &fixedClock{now: t0}
	o := New(nil, clk.Now)
	c1, c2 := o.Due()
	if !c1 || !c2 {
		t.Fatal("both components due initially")
	}
	o.LoadFilters(filter.NewSet(filter.GranVPPrefix), 1)
	o.LoadFilters(filter.NewSet(filter.GranVPPrefix), 2)
	c1, c2 = o.Due()
	if c1 || c2 {
		t.Fatal("nothing should be due right after refresh")
	}
	// ~16 days later (past the jittered boundary): component 1 due,
	// component 2 not.
	p1, p2 := o.RefreshPeriods()
	clk.now = t0.Add(p1)
	c1, c2 = o.Due()
	if !c1 || c2 {
		t.Errorf("at +%v: c1=%v c2=%v, want true/false", p1, c1, c2)
	}
	// ~One year later: both due.
	clk.now = t0.Add(p2)
	c1, c2 = o.Due()
	if !c1 || !c2 {
		t.Errorf("at +%v: c1=%v c2=%v, want true/true", p2, c1, c2)
	}
}

func TestFilterFanout(t *testing.T) {
	o := New(nil, nil)
	var got []*filter.Set
	// Regression: before any recompute has run there are no filters, and
	// the hook must NOT fire — the seed implementation fanned out the
	// initial placeholder set (effectively nothing) to every daemon.
	o.Subscribe(func(fs *filter.Set) { got = append(got, fs) })
	if len(got) != 0 {
		t.Fatalf("subscriber invoked before any refresh: got %d sets", len(got))
	}
	if o.Filters() != nil {
		t.Error("Filters() must be nil before the first refresh")
	}
	fs := filter.NewSet(filter.GranVPPrefix)
	fs.AddAnchor("vp1")
	o.LoadFilters(fs, 1)
	if len(got) != 1 || !slices.Contains(got[0].Anchors(), "vp1") {
		t.Fatalf("fanout failed: %d sets", len(got))
	}
	if o.Filters() != fs {
		t.Error("Filters() does not return the loaded set")
	}
	// A late subscriber receives the current set immediately.
	var late []*filter.Set
	o.Subscribe(func(fs *filter.Set) { late = append(late, fs) })
	if len(late) != 1 || late[0] != fs {
		t.Fatalf("late subscriber got %d sets", len(late))
	}
}

func TestStaleRecomputeRejected(t *testing.T) {
	o := New(nil, nil)
	// Two refreshes of component #1 interleave: R1 begins over an old
	// training window, R2 begins over a newer one. Whatever the commit
	// order, only R2's result may install.
	tok1 := o.BeginRefresh(1)
	tok2 := o.BeginRefresh(1)

	old := filter.NewSet(filter.GranVPPrefix)
	old.AddAnchor("old")
	fresh := filter.NewSet(filter.GranVPPrefix)
	fresh.AddAnchor("fresh")

	// R1 (overtaken) commits first: rejected, nothing installed.
	if err := o.CommitFilters(old, tok1); !errors.Is(err, ErrStaleRefresh) {
		t.Fatalf("stale commit: err = %v, want ErrStaleRefresh", err)
	}
	if o.Filters() != nil {
		t.Fatal("stale result was installed")
	}
	// R2 commits: accepted.
	if err := o.CommitFilters(fresh, tok2); err != nil {
		t.Fatalf("fresh commit: %v", err)
	}
	if got := o.Filters(); got == nil || !slices.Contains(got.Anchors(), "fresh") {
		t.Fatalf("Filters() = %v, want the fresh set", got)
	}
	// Replay with the reverse commit order: the newest-begun refresh wins
	// and the older one is rejected afterwards too.
	o2 := New(nil, nil)
	t1 := o2.BeginRefresh(1)
	t2 := o2.BeginRefresh(1)
	if err := o2.CommitFilters(fresh, t2); err != nil {
		t.Fatalf("newest commit: %v", err)
	}
	if err := o2.CommitFilters(old, t1); !errors.Is(err, ErrStaleRefresh) {
		t.Fatalf("late stale commit: err = %v, want ErrStaleRefresh", err)
	}
	if got := o2.Filters(); !slices.Contains(got.Anchors(), "fresh") {
		t.Error("late stale commit overwrote the fresher result")
	}
}

func TestDueSuppressedWhileRefreshInflight(t *testing.T) {
	clk := &fixedClock{now: t0}
	o := New(nil, clk.Now)
	if c1, c2 := o.Due(); !c1 || !c2 {
		t.Fatal("both components due initially")
	}
	// Launching a refresh de-arms Due for that component only, so a
	// schedule poller cannot start an overlapping recompute.
	tok := o.BeginRefresh(1)
	if c1, c2 := o.Due(); c1 || !c2 {
		t.Fatalf("during inflight refresh: c1=%v c2=%v, want false/true", c1, c2)
	}
	if err := o.CommitFilters(filter.NewSet(filter.GranVPPrefix), tok); err != nil {
		t.Fatalf("commit: %v", err)
	}
	if c1, _ := o.Due(); c1 {
		t.Error("component 1 due right after a successful refresh")
	}
}

// TestPanickingSubscriberContained: a hook that panics mid-fan-out must
// not abort the refresh, poison the other subscribers, or take the
// control plane down — it is counted and logged instead.
func TestPanickingSubscriberContained(t *testing.T) {
	o := New(nil, nil)
	reg := metrics.NewRegistry()
	o.Instrument(reg)

	var before, after int
	o.Subscribe(func(*filter.Set) { before++ })
	o.Subscribe(func(*filter.Set) { panic("subscriber exploded") })
	o.Subscribe(func(*filter.Set) { after++ })

	fs := filter.NewSet(filter.GranVPPrefix)
	fs.AddAnchor("vp1")
	o.LoadFilters(fs, 1) // must not panic out of the control plane

	if before != 1 || after != 1 {
		t.Fatalf("fan-out skipped healthy subscribers: before=%d after=%d", before, after)
	}
	if n := reg.Counter("orchestrator.hook_panics").Load(); n != 1 {
		t.Fatalf("hook_panics = %d, want 1", n)
	}

	// The next refresh still reaches everyone (the panicking hook keeps
	// panicking; the counter keeps counting).
	o.LoadFilters(fs, 1)
	if before != 2 || after != 2 {
		t.Fatalf("second fan-out skipped subscribers: before=%d after=%d", before, after)
	}
	if n := reg.Counter("orchestrator.hook_panics").Load(); n != 2 {
		t.Fatalf("hook_panics = %d, want 2", n)
	}

	// Subscribe's immediate-delivery call is contained the same way.
	o.Subscribe(func(*filter.Set) { panic("late subscriber exploded") })
	if n := reg.Counter("orchestrator.hook_panics").Load(); n != 3 {
		t.Fatalf("hook_panics after late subscribe = %d, want 3", n)
	}
}
