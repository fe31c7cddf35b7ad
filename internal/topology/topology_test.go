package topology

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAddLinkIndexes(t *testing.T) {
	topo := New()
	topo.AddLink(Link{A: 2, B: 1, Rel: C2P}) // 2 is customer of 1
	topo.AddLink(Link{A: 3, B: 4, Rel: P2P})
	if got := topo.Providers[2]; len(got) != 1 || got[0] != 1 {
		t.Errorf("Providers[2] = %v", got)
	}
	if got := topo.Customers[1]; len(got) != 1 || got[0] != 2 {
		t.Errorf("Customers[1] = %v", got)
	}
	if len(topo.Peers[3]) != 1 || len(topo.Peers[4]) != 1 {
		t.Errorf("peers not symmetric: %v %v", topo.Peers[3], topo.Peers[4])
	}
}

func TestAddLinkDeduplicates(t *testing.T) {
	topo := New()
	topo.AddLink(Link{A: 1, B: 2, Rel: P2P})
	topo.AddLink(Link{A: 2, B: 1, Rel: P2P}) // same canonical link
	topo.AddLink(Link{A: 1, B: 2, Rel: C2P}) // same pair, different rel: still dup
	if len(topo.Links) != 1 {
		t.Errorf("Links = %v, want 1 entry", topo.Links)
	}
}

func TestHasLink(t *testing.T) {
	topo := New()
	topo.AddLink(Link{A: 5, B: 9, Rel: C2P})
	if _, ok := topo.HasLink(9, 5); !ok {
		t.Error("HasLink must be orientation-agnostic")
	}
	if _, ok := topo.HasLink(5, 6); ok {
		t.Error("HasLink found a phantom link")
	}
}

func TestCustomerCone(t *testing.T) {
	// 1 ← 2 ← 3, 1 ← 4 (← means provider-of).
	topo := New()
	topo.AddLink(Link{A: 2, B: 1, Rel: C2P})
	topo.AddLink(Link{A: 3, B: 2, Rel: C2P})
	topo.AddLink(Link{A: 4, B: 1, Rel: C2P})
	cone := topo.CustomerCone(1)
	if len(cone) != 4 {
		t.Errorf("cone(1) = %v, want 4 ASes", cone)
	}
	if len(topo.CustomerCone(3)) != 1 {
		t.Errorf("cone(3) should be just itself")
	}
}

func TestGenerateBasicShape(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	topo := Generate(DefaultGenConfig(500), r)
	ases := topo.ASes()
	if len(ases) != 500 {
		t.Fatalf("generated %d ASes, want 500", len(ases))
	}
	avg := topo.AvgDegree()
	if avg < 3 || avg > 12 {
		t.Errorf("average degree %.2f far from target 6.1", avg)
	}
	if len(topo.Tier1s) != 3 {
		t.Errorf("Tier1s = %v, want 3", topo.Tier1s)
	}
	// Tier1 clique fully meshed with p2p.
	for i, a := range topo.Tier1s {
		for _, b := range topo.Tier1s[i+1:] {
			l, ok := topo.HasLink(a, b)
			if !ok || l.Rel != P2P {
				t.Errorf("Tier1s %d-%d not p2p-meshed", a, b)
			}
		}
	}
}

func TestGenerateConnected(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	topo := Generate(DefaultGenConfig(300), r)
	// BFS over all links from an arbitrary AS must reach everyone.
	ases := topo.ASes()
	adj := make(map[uint32][]uint32)
	for _, l := range topo.Links {
		adj[l.A] = append(adj[l.A], l.B)
		adj[l.B] = append(adj[l.B], l.A)
	}
	seen := map[uint32]bool{ases[0]: true}
	queue := []uint32{ases[0]}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, nb := range adj[cur] {
			if !seen[nb] {
				seen[nb] = true
				queue = append(queue, nb)
			}
		}
	}
	if len(seen) != len(ases) {
		t.Errorf("graph disconnected: reached %d of %d", len(seen), len(ases))
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(DefaultGenConfig(200), rand.New(rand.NewSource(7)))
	b := Generate(DefaultGenConfig(200), rand.New(rand.NewSource(7)))
	if len(a.Links) != len(b.Links) {
		t.Fatalf("link counts differ: %d vs %d", len(a.Links), len(b.Links))
	}
	for i := range a.Links {
		if a.Links[i] != b.Links[i] {
			t.Fatalf("links diverge at %d: %v vs %v", i, a.Links[i], b.Links[i])
		}
	}
}

func TestGenerateValleyFreeTiers(t *testing.T) {
	// Every c2p link must point from a deeper tier to a shallower one;
	// equivalently no AS may be its own (transitive) provider.
	r := rand.New(rand.NewSource(3))
	topo := Generate(DefaultGenConfig(400), r)
	// Detect provider cycles by DFS.
	state := make(map[uint32]int) // 0 unvisited, 1 in stack, 2 done
	var walk func(as uint32) bool
	walk = func(as uint32) bool {
		state[as] = 1
		for _, p := range topo.Providers[as] {
			switch state[p] {
			case 1:
				return false
			case 0:
				if !walk(p) {
					return false
				}
			}
		}
		state[as] = 2
		return true
	}
	for _, as := range topo.ASes() {
		if state[as] == 0 && !walk(as) {
			t.Fatal("provider cycle detected")
		}
	}
}

func TestPowerLawDegreeTail(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	degs := powerLawDegrees(5000, 2.1, 6.1, r)
	sum, maxDeg := 0, 0
	for _, d := range degs {
		sum += d
		if d > maxDeg {
			maxDeg = d
		}
	}
	mean := float64(sum) / float64(len(degs))
	if mean < 3 || mean > 12 {
		t.Errorf("mean degree %.2f out of range", mean)
	}
	if maxDeg < 50 {
		t.Errorf("max degree %d: distribution lacks a heavy tail", maxDeg)
	}
	if sum%2 != 0 {
		t.Error("stub count must be even")
	}
}

func TestAssignPrefixes(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	topo := Generate(DefaultGenConfig(300), r)
	seen := make(map[string]bool)
	count := 0
	for _, as := range topo.ASes() {
		ps := topo.Prefixes[as]
		if len(ps) == 0 {
			t.Fatalf("AS %d has no prefix", as)
		}
		for _, p := range ps {
			if seen[p.String()] {
				t.Fatalf("duplicate prefix %s", p)
			}
			seen[p.String()] = true
			count++
		}
	}
	if float64(count)/300 < 1.0 || float64(count)/300 > 5.0 {
		t.Errorf("prefix mean %.2f implausible", float64(count)/300)
	}
}

func TestPrefixFromIndexUnique(t *testing.T) {
	f := func(i, j uint16) bool {
		a, b := PrefixFromIndex(int(i)), PrefixFromIndex(int(j))
		return (i == j) == (a == b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCategorize(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	topo := Generate(DefaultGenConfig(800), r)
	cats := Categorize(topo)
	census := CategoryCensus(topo)
	if len(cats) != 800 {
		t.Fatalf("categorized %d ASes", len(cats))
	}
	// Tier1s always categorized Tier-1.
	for _, as := range topo.Tier1s {
		if cats[as] != CatTier1 {
			t.Errorf("Tier1 AS %d categorized %v", as, cats[as])
		}
	}
	// Stubs dominate, as on the real Internet (Table 5).
	if census[CatStub] < census[CatTransit2] {
		t.Errorf("census %v: stubs should dominate", census)
	}
	// Stub ASes must have no customers.
	for as, c := range cats {
		if c == CatStub && len(topo.Customers[as]) != 0 {
			t.Errorf("AS %d is Stub but has customers", as)
		}
	}
	// All five categories have a String.
	for c := CatStub; c <= CatTier1; c++ {
		if c.String() == "Unknown" {
			t.Errorf("category %d has no name", c)
		}
	}
}

func TestAvgDegreeNearTarget(t *testing.T) {
	// Across several seeds the generated average degree should hover near
	// the configured 6.1 (a loose band: the configuration model rejects
	// collisions).
	sum := 0.0
	for seed := int64(0); seed < 5; seed++ {
		topo := Generate(DefaultGenConfig(1000), rand.New(rand.NewSource(seed)))
		sum += topo.AvgDegree()
	}
	mean := sum / 5
	if mean < 4.0 || mean > 8.5 {
		t.Errorf("mean degree across seeds %.2f, want ≈6.1", mean)
	}
}
