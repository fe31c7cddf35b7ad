// Package features builds the per-VP weighted directed AS graph G_v(t)
// from RIB snapshots and computes the 15 topological features of Table 6
// (§18.2) that GILL uses to quantify how differently two VPs observe the
// same BGP event.
package features

import (
	"container/heap"
	"net/netip"
)

// Graph is a weighted directed AS-level graph. Edge a→b with weight w
// means w routes in the source RIB traverse the AS link a→b in that
// direction. Distance-based features operate on the undirected projection
// (weights summed over both directions) with edge length 1/w, so heavily
// used links are "shorter".
type Graph struct {
	idx      map[uint32]int32
	ids      []uint32
	out      []map[int32]float64
	in       []map[int32]float64
	undir    []map[int32]float64
	maxW     float64
	maxDirty bool
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{idx: make(map[uint32]int32)}
}

func (g *Graph) node(as uint32) int32 {
	if i, ok := g.idx[as]; ok {
		return i
	}
	i := int32(len(g.ids))
	g.idx[as] = i
	g.ids = append(g.ids, as)
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	g.undir = append(g.undir, nil)
	return i
}

// AddEdge adds weight w to the directed edge a→b.
func (g *Graph) AddEdge(a, b uint32, w float64) {
	if a == b || w <= 0 {
		return
	}
	ia, ib := g.node(a), g.node(b)
	if g.out[ia] == nil {
		g.out[ia] = make(map[int32]float64)
	}
	if g.in[ib] == nil {
		g.in[ib] = make(map[int32]float64)
	}
	g.out[ia][ib] += w
	g.in[ib][ia] += w
	if g.undir[ia] == nil {
		g.undir[ia] = make(map[int32]float64)
	}
	if g.undir[ib] == nil {
		g.undir[ib] = make(map[int32]float64)
	}
	g.undir[ia][ib] += w
	g.undir[ib][ia] += w
	if g.undir[ia][ib] > g.maxW {
		g.maxW = g.undir[ia][ib]
	}
}

// AddPath walks an AS path, adding weight w to every directed link
// (skipping prepend repetitions).
func (g *Graph) AddPath(path []uint32, w float64) {
	for i := 0; i+1 < len(path); i++ {
		if path[i] == path[i+1] {
			continue
		}
		g.AddEdge(path[i], path[i+1], w)
	}
}

// RemoveEdge subtracts weight w from the directed edge a→b, deleting it
// when the weight reaches zero. Used when replaying update streams over a
// RIB-derived graph.
func (g *Graph) RemoveEdge(a, b uint32, w float64) {
	ia, okA := g.idx[a]
	ib, okB := g.idx[b]
	if !okA || !okB || w <= 0 {
		return
	}
	sub := func(m map[int32]float64, k int32) {
		if m == nil {
			return
		}
		m[k] -= w
		if m[k] <= 1e-12 {
			delete(m, k)
		}
	}
	sub(g.out[ia], ib)
	sub(g.in[ib], ia)
	sub(g.undir[ia], ib)
	sub(g.undir[ib], ia)
	g.maxDirty = true
}

// RemovePath subtracts weight w from every directed link of the path.
func (g *Graph) RemovePath(path []uint32, w float64) {
	for i := 0; i+1 < len(path); i++ {
		if path[i] == path[i+1] {
			continue
		}
		g.RemoveEdge(path[i], path[i+1], w)
	}
}

// maxWeight returns the maximum undirected edge weight, recomputing after
// removals.
func (g *Graph) maxWeight() float64 {
	if g.maxDirty {
		g.maxW = 0
		for i := range g.undir {
			for _, w := range g.undir[i] {
				if w > g.maxW {
					g.maxW = w
				}
			}
		}
		g.maxDirty = false
	}
	return g.maxW
}

// FromRIB builds the graph of a VP's RIB: one unit of weight per route.
func FromRIB(rib map[netip.Prefix][]uint32) *Graph {
	g := NewGraph()
	for _, path := range rib {
		g.AddPath(path, 1)
	}
	return g
}

// Has reports whether the AS appears in the graph.
func (g *Graph) Has(as uint32) bool {
	_, ok := g.idx[as]
	return ok
}

// Weight returns the directed edge weight a→b (0 when absent).
func (g *Graph) Weight(a, b uint32) float64 {
	ia, ok := g.idx[a]
	if !ok {
		return 0
	}
	ib, ok := g.idx[b]
	if !ok {
		return 0
	}
	return g.out[ia][ib]
}

// degree returns the undirected degree of node i.
func (g *Graph) degree(i int32) int { return len(g.undir[i]) }

// dijkstra computes weighted shortest distances (length 1/w) from src on
// the undirected projection. Unreachable nodes keep +Inf.
func (g *Graph) dijkstra(src int32) []float64 {
	const infDist = 1e18
	dist := make([]float64, len(g.ids))
	for i := range dist {
		dist[i] = infDist
	}
	dist[src] = 0
	pq := &distHeap{{src, 0}}
	for pq.Len() > 0 {
		it := heap.Pop(pq).(distItem)
		if it.d > dist[it.n] {
			continue
		}
		for nb, w := range g.undir[it.n] {
			nd := it.d + 1/w
			if nd < dist[nb] {
				dist[nb] = nd
				heap.Push(pq, distItem{nb, nd})
			}
		}
	}
	return dist
}

type distItem struct {
	n int32
	d float64
}

type distHeap []distItem

func (h distHeap) Len() int            { return len(h) }
func (h distHeap) Less(i, j int) bool  { return h[i].d < h[j].d }
func (h distHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x interface{}) { *h = append(*h, x.(distItem)) }
func (h *distHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
