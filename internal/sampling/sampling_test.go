package sampling

import (
	"math/rand"
	"net/netip"
	"sort"
	"testing"
	"time"

	"repro/internal/update"
	"repro/internal/usecases"
)

var t0 = time.Date(2023, 9, 1, 0, 0, 0, 0, time.UTC)

func pfx(i int) netip.Prefix {
	return netip.PrefixFrom(netip.AddrFrom4([4]byte{16, byte(i >> 8), byte(i), 0}), 24)
}

// stream builds a deterministic multi-VP stream: nVPs vantage points, each
// with perVP updates over distinct prefixes; vp0 and vp1 duplicate each
// other, vp2+ see unique paths.
func stream(nVPs, perVP int) []*update.Update {
	var us []*update.Update
	for v := 0; v < nVPs; v++ {
		vp := "vp" + string(rune('a'+v))
		for i := 0; i < perVP; i++ {
			path := []uint32{uint32(v + 10), 2, uint32(100 + i)}
			if v == 1 {
				path = []uint32{uint32(10), 2, uint32(100 + i)} // clone of vp0
			}
			us = append(us, &update.Update{
				VP: vp, Time: t0.Add(time.Duration(i) * time.Minute),
				Prefix: pfx(i), Path: path,
			})
		}
	}
	sort.SliceStable(us, func(i, j int) bool { return us[i].Time.Before(us[j].Time) })
	return us
}

func TestTrimKeepsEarliest(t *testing.T) {
	us := stream(2, 10)
	got := trim(us, 5)
	if len(got) != 5 {
		t.Fatalf("trim kept %d", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].Time.Before(got[i-1].Time) {
			t.Fatal("trim result unsorted")
		}
	}
	if got[len(got)-1].Time.After(us[len(us)-1].Time) {
		t.Fatal("trim did not keep earliest")
	}
}

func TestRandomUpdatesBudget(t *testing.T) {
	s := RandomUpdates{Rand: rand.New(rand.NewSource(1))}
	us := stream(4, 25)
	got := s.Sample(us, 30)
	if len(got) != 30 {
		t.Fatalf("sampled %d, want 30", len(got))
	}
	// Under budget: everything returned.
	if got := s.Sample(us[:10], 30); len(got) != 10 {
		t.Errorf("under budget sampled %d", len(got))
	}
}

func TestRandomVPsWholeFeeds(t *testing.T) {
	s := RandomVPs{Rand: rand.New(rand.NewSource(2))}
	us := stream(5, 20)
	got := s.Sample(us, 40)
	if len(got) != 40 {
		t.Fatalf("sampled %d, want 40", len(got))
	}
	// The sample must consist of whole VP feeds (except possibly the last).
	counts := map[string]int{}
	for _, u := range got {
		counts[u.VP]++
	}
	whole := 0
	for _, c := range counts {
		if c == 20 {
			whole++
		}
	}
	if whole < 1 {
		t.Errorf("no whole feed in sample: %v", counts)
	}
}

func TestASDistanceSpreadsSelection(t *testing.T) {
	// Distance metric: vpa and vpb are adjacent (dist 1), vpc is far
	// (dist 10). After picking one of a/b, c must come next.
	dist := func(v1, v2 string) int {
		if (v1 == "vpc") != (v2 == "vpc") {
			return 10
		}
		return 1
	}
	s := ASDistance{Rand: rand.New(rand.NewSource(3)), Dist: dist}
	us := stream(3, 10)
	got := s.Sample(us, 20)
	counts := map[string]int{}
	for _, u := range got {
		counts[u.VP]++
	}
	if counts["vpc"] == 0 {
		t.Errorf("far VP not selected: %v", counts)
	}
}

func TestUnbiasedMatchesReference(t *testing.T) {
	// Categories: vpa,vpb,vpc in cat 0; vpd in cat 1. Reference 50/50:
	// removals should trim cat-0 VPs first.
	cat := func(vp string) int {
		if vp == "vpd" {
			return 1
		}
		return 0
	}
	s := Unbiased{Category: cat, Reference: []float64{0.5, 0.5}}
	us := stream(4, 10)
	got := s.Sample(us, 20)
	counts := map[string]int{}
	for _, u := range got {
		counts[u.VP]++
	}
	if counts["vpd"] == 0 {
		t.Errorf("minority-category VP removed: %v", counts)
	}
}

func TestDefSpecificAvoidsCloneVP(t *testing.T) {
	// vpb clones vpa: a redundancy-minimizing sampler given 2 feeds of
	// budget must pick two distinct views, not the clone pair.
	s := DefSpecific{Def: update.Def2}
	us := stream(4, 10)
	got := s.Sample(us, 20)
	counts := map[string]int{}
	for _, u := range got {
		counts[u.VP]++
	}
	if counts["vpa"] > 0 && counts["vpb"] > 0 {
		t.Errorf("selected both clones: %v", counts)
	}
}

func TestObjectiveSpecificMaximizesLinks(t *testing.T) {
	topoScore := func(sample []*update.Update) int {
		return len((usecases.TopoLinks{}).Keys(sample))
	}
	s := ObjectiveSpecific{Objective: "topo", Score: topoScore}
	us := stream(4, 10)
	got := s.Sample(us, 20)
	counts := map[string]int{}
	for _, u := range got {
		counts[u.VP]++
	}
	// The clone vpb adds no links; it must lose to unique views.
	if counts["vpa"] > 0 && counts["vpb"] > 0 {
		t.Errorf("objective sampler picked redundant clone: %v", counts)
	}
	if s.Name() != "specific-topo" {
		t.Errorf("Name = %q", s.Name())
	}
}

func TestFilteredSampler(t *testing.T) {
	us := stream(3, 10)
	f := Filtered{Label: "gill", Keep: func(u *update.Update) bool { return u.VP != "vpb" }}
	got := f.Sample(us, 0)
	for _, u := range got {
		if u.VP == "vpb" {
			t.Fatal("filtered VP leaked")
		}
	}
	if len(got) != 20 {
		t.Errorf("kept %d, want 20", len(got))
	}
}

func TestAnchorsOnly(t *testing.T) {
	us := stream(3, 5)
	s := AnchorsOnly([]string{"vpc"})
	got := s.Sample(us, 0)
	if len(got) != 5 {
		t.Fatalf("kept %d, want 5", len(got))
	}
	for _, u := range got {
		if u.VP != "vpc" {
			t.Fatal("non-anchor update leaked")
		}
	}
	if s.Name() != "gill-vp" {
		t.Errorf("Name = %q", s.Name())
	}
}

func TestSamplerNames(t *testing.T) {
	names := []string{
		RandomUpdates{}.Name(), RandomVPs{}.Name(), ASDistance{}.Name(),
		Unbiased{}.Name(), DefSpecific{Def: update.Def1}.Name(),
		DefSpecific{Def: update.Def2}.Name(), DefSpecific{Def: update.Def3}.Name(),
	}
	seen := map[string]bool{}
	for _, n := range names {
		if n == "" || seen[n] {
			t.Fatalf("duplicate or empty sampler name %q", n)
		}
		seen[n] = true
	}
}
