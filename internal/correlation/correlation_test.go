package correlation

import (
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"repro/internal/update"
)

var (
	p1 = netip.MustParsePrefix("16.0.0.0/24")
	p2 = netip.MustParsePrefix("16.0.1.0/24")
	t0 = time.Date(2023, 9, 1, 0, 0, 0, 0, time.UTC)
)

func mk(vp string, at time.Duration, p netip.Prefix, path ...uint32) *update.Update {
	return &update.Update{VP: vp, Time: t0.Add(at), Prefix: p, Path: path}
}

// fig10 reproduces the §17 worked example: four events on prefix p1
// observed by VP1 and VP2, events #2 and #4 repeating the same attributes.
func fig10() []*update.Update {
	T1, T2, T3, T4 := 0*time.Second, 10*time.Minute, 20*time.Minute, 30*time.Minute
	return []*update.Update{
		mk("VP1", T1, p1, 2, 1, 4),                   // U1
		mk("VP2", T1+10*time.Second, p1, 6, 2, 1, 4), // U2
		mk("VP1", T2, p1, 2, 4),                      // U3
		mk("VP2", T2+10*time.Second, p1, 6, 2, 4),    // U4
		mk("VP1", T3, p1, 2, 1, 4),                   // U5
		mk("VP2", T3+10*time.Second, p1, 6, 3, 1, 4), // U6
		mk("VP1", T4, p1, 2, 4),                      // U7
		mk("VP2", T4+10*time.Second, p1, 6, 2, 4),    // U8
	}
}

func TestBuildGroupsFig10(t *testing.T) {
	groups := BuildGroups(fig10(), update.Slack)
	if len(groups) != 3 {
		t.Fatalf("got %d groups, want 3 (G1, G2, G3)", len(groups))
	}
	// G2 (the restored-state attributes) appears twice.
	weights := map[int]int{}
	for _, g := range groups {
		weights[g.Weight]++
		if len(g.Members) != 2 {
			t.Errorf("group has %d members, want 2: %v", len(g.Members), g.Members)
		}
	}
	if weights[1] != 2 || weights[2] != 1 {
		t.Errorf("weights = %v, want two weight-1 groups and one weight-2", weights)
	}
}

func TestBuildGroupsWindowSplit(t *testing.T) {
	us := []*update.Update{
		mk("a", 0, p1, 1, 2),
		mk("b", 50*time.Second, p1, 3, 2),  // same occurrence (gap < 100s)
		mk("c", 200*time.Second, p1, 4, 2), // new occurrence
	}
	groups := BuildGroups(us, update.Slack)
	if len(groups) != 2 {
		t.Fatalf("got %d groups, want 2", len(groups))
	}
	if len(groups[0].Members) != 2 || len(groups[1].Members) != 1 {
		t.Errorf("member counts: %d, %d", len(groups[0].Members), len(groups[1].Members))
	}
}

func TestReconstitutionPowerFig10(t *testing.T) {
	pa := AnalyzePrefix(p1, fig10(), DefaultConfig())
	// VP2 alone reconstitutes everything (§17.2 worked example).
	if rp := pa.ReconstitutionPower(map[string]bool{"VP2": true}); rp != 1.0 {
		t.Errorf("RP(VP2) = %v, want 1.0", rp)
	}
	// VP1 alone cannot: its repeated attributes are ambiguous between G1
	// and G3, so one of VP2's updates is never reconstituted.
	if rp := pa.ReconstitutionPower(map[string]bool{"VP1": true}); rp >= 1.0 {
		t.Errorf("RP(VP1) = %v, want < 1.0", rp)
	}
	if rp := pa.ReconstitutionPower(map[string]bool{}); rp != 0 {
		t.Errorf("RP(∅) = %v, want 0", rp)
	}
}

func TestGreedyFig10PicksVP2(t *testing.T) {
	pa := AnalyzePrefix(p1, fig10(), DefaultConfig())
	retained, traj := pa.Greedy()
	if !retained["VP2"] {
		t.Fatalf("greedy retained %v, want VP2", retained)
	}
	if retained["VP1"] {
		t.Errorf("VP1 retained although VP2 already reconstitutes everything")
	}
	if len(traj) != 1 {
		t.Fatalf("trajectory %v, want a single step", traj)
	}
	if traj[0].KeptFraction != 0.5 || traj[0].RP != 1.0 {
		t.Errorf("trajectory[0] = %+v, want kept 0.5 RP 1.0", traj[0])
	}
}

func TestGreedyTrajectoryMonotone(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	var us []*update.Update
	paths := [][]uint32{{1, 2}, {3, 1, 2}, {4, 2}, {5, 3, 2}, {6, 2}}
	for i := 0; i < 300; i++ {
		vp := "vp" + string(rune('a'+r.Intn(8)))
		us = append(us, mk(vp, time.Duration(r.Intn(7200))*time.Second, p1, paths[r.Intn(len(paths))]...))
	}
	pa := AnalyzePrefix(p1, us, DefaultConfig())
	_, traj := pa.Greedy()
	if len(traj) == 0 {
		t.Fatal("empty trajectory")
	}
	for i := 1; i < len(traj); i++ {
		if traj[i].RP < traj[i-1].RP {
			t.Fatalf("RP decreased along greedy: %v", traj)
		}
		if traj[i].KeptFraction <= traj[i-1].KeptFraction {
			t.Fatalf("kept fraction not increasing: %v", traj)
		}
	}
	last := traj[len(traj)-1]
	if last.RP < DefaultConfig().StopRP && last.KeptFraction < 1.0 {
		t.Errorf("greedy stopped early: %+v", last)
	}
}

func TestRunRedundancyClassification(t *testing.T) {
	res := Run(fig10(), DefaultConfig())
	// VP2's updates retained, VP1's redundant.
	for _, u := range fig10() {
		red := res.IsRedundant(u)
		if u.VP == "VP2" && red {
			t.Errorf("VP2 update classified redundant: %+v", u)
		}
		if u.VP == "VP1" && !red {
			t.Errorf("VP1 update classified nonredundant: %+v", u)
		}
	}
	if res.KeptBeforeCross != 0.5 {
		t.Errorf("KeptBeforeCross = %v, want 0.5", res.KeptBeforeCross)
	}
}

func TestRunCrossPrefix(t *testing.T) {
	// p1 and p2 receive identical update sequences (the Fig 5 situation:
	// two prefixes of the same origin AS). Step 3 must drop one of them.
	var us []*update.Update
	for _, u := range fig10() {
		us = append(us, u)
		cp := *u
		cp.Prefix = p2
		us = append(us, &cp)
	}
	res := Run(us, DefaultConfig())
	kept1 := len(res.Retained[p1])
	kept2 := len(res.Retained[p2])
	if kept1+kept2 != 1 {
		t.Errorf("retained VP sets: p1=%d p2=%d, want exactly one subset across both", kept1, kept2)
	}
	if res.KeptAfterCross >= res.KeptBeforeCross {
		t.Errorf("cross-prefix step did not reduce kept fraction: %v → %v",
			res.KeptBeforeCross, res.KeptAfterCross)
	}
}

// TestRunSameAddressPrefixesDeterministic: 10.0.0.0/8 and 10.0.0.0/16
// share an address and carry identical update sequences, so the
// cross-prefix step keeps whichever comes first in prefix order. That
// order must not fall to map iteration: every run keeps the shorter
// prefix.
func TestRunSameAddressPrefixesDeterministic(t *testing.T) {
	short, long := netip.MustParsePrefix("10.0.0.0/8"), netip.MustParsePrefix("10.0.0.0/16")
	var us []*update.Update
	for _, u := range fig10() {
		for _, p := range []netip.Prefix{short, long} {
			cp := *u
			cp.Prefix = p
			us = append(us, &cp)
		}
	}
	for run := 0; run < 200; run++ {
		res := Run(us, DefaultConfig())
		if len(res.Retained[short]) != 1 || len(res.Retained[long]) != 0 {
			t.Fatalf("run %d: retained %v on %v and %v on %v; want the one subset on the shorter prefix",
				run, res.Retained[short], short, res.Retained[long], long)
		}
	}
}

func TestRunDistinctPrefixesNotCollapsed(t *testing.T) {
	// p2 sees a genuinely different sequence: both prefixes stay.
	var us []*update.Update
	us = append(us, fig10()...)
	us = append(us,
		mk("VP9", 0, p2, 9, 8, 7),
		mk("VP9", 20*time.Minute, p2, 9, 7),
	)
	res := Run(us, DefaultConfig())
	if len(res.Retained[p1]) == 0 || len(res.Retained[p2]) == 0 {
		t.Errorf("distinct prefixes wrongly collapsed: %v / %v",
			res.Retained[p1], res.Retained[p2])
	}
}

func TestIsRedundantUnknownPrefixAccepted(t *testing.T) {
	res := Run(fig10(), DefaultConfig())
	novel := mk("VPX", 0, netip.MustParsePrefix("16.9.9.0/24"), 1, 2, 3)
	if res.IsRedundant(novel) {
		t.Error("never-seen prefix must follow the accept-everything default")
	}
}

func TestWithdrawalsParticipate(t *testing.T) {
	us := []*update.Update{
		mk("a", 0, p1, 1, 2),
		{VP: "a", Time: t0.Add(10 * time.Minute), Prefix: p1, Withdraw: true},
		mk("b", 5*time.Second, p1, 3, 2),
		{VP: "b", Time: t0.Add(10*time.Minute + 5*time.Second), Prefix: p1, Withdraw: true},
	}
	res := Run(us, DefaultConfig())
	if len(res.Retained[p1]) == 0 {
		t.Fatal("nothing retained")
	}
	// One VP suffices to reconstitute both (announce+withdraw correlate).
	if len(res.Retained[p1]) != 1 {
		t.Errorf("retained %v, want a single VP", res.Retained[p1])
	}
}
