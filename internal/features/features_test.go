package features

import (
	"math"
	"net/netip"
	"testing"

	"repro/internal/topology"
)

// triangle builds 1-2-3 fully meshed with unit weights, plus a pendant 4.
func triangle() *Graph {
	g := NewGraph()
	g.AddEdge(1, 2, 1)
	g.AddEdge(2, 3, 1)
	g.AddEdge(3, 1, 1)
	g.AddEdge(3, 4, 1)
	return g
}

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestAddPathWeights(t *testing.T) {
	g := NewGraph()
	g.AddPath([]uint32{1, 2, 3}, 1)
	g.AddPath([]uint32{1, 2, 4}, 2)
	if w := g.Weight(1, 2); !almost(w, 3) {
		t.Errorf("Weight(1,2) = %v, want 3", w)
	}
	if w := g.Weight(2, 1); !almost(w, 0) {
		t.Errorf("Weight(2,1) = %v, want 0 (directed)", w)
	}
	if w := g.Weight(2, 4); !almost(w, 2) {
		t.Errorf("Weight(2,4) = %v, want 2", w)
	}
}

func TestAddPathSkipsPrepends(t *testing.T) {
	g := NewGraph()
	g.AddPath([]uint32{1, 1, 2, 2, 3}, 1)
	if w := g.Weight(1, 1); w != 0 {
		t.Error("self edge from prepend")
	}
	if w := g.Weight(1, 2); !almost(w, 1) {
		t.Errorf("Weight(1,2) = %v", w)
	}
}

func TestTriangleFeatures(t *testing.T) {
	g := triangle()
	f3 := g.NodeFeatures(3)
	if f3[FeatTriangles] != 1 {
		t.Errorf("triangles(3) = %v, want 1", f3[FeatTriangles])
	}
	f4 := g.NodeFeatures(4)
	if f4[FeatTriangles] != 0 {
		t.Errorf("triangles(4) = %v, want 0", f4[FeatTriangles])
	}
	// Unit weights: distances are 1 per hop. Node 4: dists 1 (to 3), 2, 2.
	if !almost(f4[FeatEccentricity], 2) {
		t.Errorf("ecc(4) = %v, want 2", f4[FeatEccentricity])
	}
	if !almost(f4[FeatHarmonic], 1+0.5+0.5) {
		t.Errorf("harmonic(4) = %v, want 2", f4[FeatHarmonic])
	}
	if !almost(f4[FeatCloseness], 3.0/5.0) {
		t.Errorf("closeness(4) = %v, want 0.6", f4[FeatCloseness])
	}
	// Clustering: node 1 has neighbors {2,3} connected → C=1 (unit ŵ).
	f1 := g.NodeFeatures(1)
	if !almost(f1[FeatClustering], 1) {
		t.Errorf("clustering(1) = %v, want 1", f1[FeatClustering])
	}
	if !almost(f4[FeatClustering], 0) {
		t.Errorf("clustering(4) = %v, want 0 (degree 1)", f4[FeatClustering])
	}
}

func TestAvgNeighborDegree(t *testing.T) {
	g := triangle()
	// Node 4's only neighbor is 3 (degree 3) → 3.
	f := g.NodeFeatures(4)
	if !almost(f[FeatAvgNbrDegree], 3) {
		t.Errorf("avg nbr degree(4) = %v, want 3", f[FeatAvgNbrDegree])
	}
	// Weighted: give node 1 a heavy edge to 2 (deg 2) and light to 3 (deg 3).
	g2 := NewGraph()
	g2.AddEdge(1, 2, 10)
	g2.AddEdge(1, 3, 1)
	g2.AddEdge(3, 4, 1)
	got := g2.NodeFeatures(1)[FeatAvgNbrDegree]
	want := (10*1.0 + 1*2.0) / 11.0
	if !almost(got, want) {
		t.Errorf("weighted avg nbr degree = %v, want %v", got, want)
	}
}

func TestWeightedDistances(t *testing.T) {
	// Heavier edges are shorter (length 1/w): 1-2 w=4 (len .25),
	// 2-3 w=4 (len .25), direct 1-3 w=1 (len 1) → shortest 1→3 is via 2.
	g := NewGraph()
	g.AddEdge(1, 2, 4)
	g.AddEdge(2, 3, 4)
	g.AddEdge(1, 3, 1)
	f := g.NodeFeatures(1)
	if !almost(f[FeatEccentricity], 0.5) {
		t.Errorf("ecc(1) = %v, want 0.5 via the heavy path", f[FeatEccentricity])
	}
}

func TestPairFeatures(t *testing.T) {
	g := triangle()
	// N(1)={2,3}, N(2)={1,3}: intersection {3}, union {1,2,3}.
	pf := g.PairFeatures(1, 2)
	if !almost(pf[0], 1.0/3.0) {
		t.Errorf("jaccard = %v, want 1/3", pf[0])
	}
	wantAA := 1 / math.Log(3) // common neighbor 3 has degree 3
	if !almost(pf[1], wantAA) {
		t.Errorf("adamic-adar = %v, want %v", pf[1], wantAA)
	}
	if !almost(pf[2], 4) {
		t.Errorf("pref attachment = %v, want 4", pf[2])
	}
}

func TestMissingASGivesZeros(t *testing.T) {
	g := triangle()
	if f := g.NodeFeatures(99); f != [NumNodeFeatures]float64{} {
		t.Errorf("missing AS features = %v, want zeros", f)
	}
	if pf := g.PairFeatures(1, 99); pf != [NumPairFeatures]float64{} {
		t.Errorf("missing pair features = %v", pf)
	}
}

func TestFromRIB(t *testing.T) {
	rib := map[netip.Prefix][]uint32{
		topology.PrefixFromIndex(0): {1, 2, 3},
		topology.PrefixFromIndex(1): {1, 2, 4},
		topology.PrefixFromIndex(2): {1, 2, 3},
	}
	g := FromRIB(rib)
	if w := g.Weight(1, 2); !almost(w, 3) {
		t.Errorf("Weight(1,2) = %v, want 3", w)
	}
	if w := g.Weight(2, 3); !almost(w, 2) {
		t.Errorf("Weight(2,3) = %v, want 2", w)
	}
	if len(g.ids) != 4 {
		t.Errorf("nodes = %d, want 4", len(g.ids))
	}
}

func TestVectorDim(t *testing.T) {
	if VectorDim != 15 {
		t.Errorf("VectorDim = %d, the paper uses 15 features", VectorDim)
	}
}

func TestRemovePathInverse(t *testing.T) {
	// Adding then removing a path restores prior weights exactly.
	g := NewGraph()
	g.AddPath([]uint32{1, 2, 3}, 1)
	before := g.Weight(1, 2)
	g.AddPath([]uint32{1, 2, 4}, 1)
	g.RemovePath([]uint32{1, 2, 4}, 1)
	if got := g.Weight(1, 2); !almost(got, before) {
		t.Errorf("Weight(1,2) = %v, want %v", got, before)
	}
	if g.Weight(2, 4) != 0 {
		t.Errorf("edge 2-4 survived removal: %v", g.Weight(2, 4))
	}
	// Neighborhoods shrink accordingly.
	if !g.Has(4) {
		// Node ids persist (a VP once saw the AS), but with no edges the
		// features are zero.
		t.Log("node 4 forgotten entirely — acceptable alternative")
	}
	f := g.NodeFeatures(4)
	if f != [NumNodeFeatures]float64{} {
		t.Errorf("disconnected node features = %v, want zeros", f)
	}
}

func TestMaxWeightRecomputedAfterRemoval(t *testing.T) {
	g := NewGraph()
	g.AddEdge(1, 2, 10) // dominant edge
	g.AddEdge(2, 3, 1)
	g.AddEdge(3, 1, 1)
	heavy := g.NodeFeatures(1)[FeatClustering]
	g.RemoveEdge(1, 2, 10) // drop the dominant edge entirely
	g.AddEdge(1, 2, 1)     // re-add with unit weight: all ŵ = 1
	light := g.NodeFeatures(1)[FeatClustering]
	if light <= heavy {
		t.Errorf("clustering should rise once the normalizing max falls: %v vs %v", light, heavy)
	}
	if !almost(light, 1) {
		t.Errorf("uniform triangle clustering = %v, want 1", light)
	}
}

func TestRemoveEdgeNoops(t *testing.T) {
	g := triangle()
	g.RemoveEdge(99, 100, 1) // unknown nodes: no panic
	g.RemoveEdge(1, 2, 0)    // non-positive weight: ignored
	if w := g.Weight(1, 2); !almost(w, 1) {
		t.Errorf("Weight(1,2) = %v after no-op removals", w)
	}
}
