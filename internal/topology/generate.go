package topology

import (
	"math"
	"math/rand"
	"sort"
)

// GenConfig parameterizes the artificial topology generator. The defaults
// (DefaultGenConfig) are the paper's: average node degree 6.1 matching the
// Beta index of the CAIDA AS-relationship dataset, and a power-law degree
// distribution with exponent 2.1 (§3.1).
type GenConfig struct {
	ASes         int
	AvgDegree    float64
	PowerLawExp  float64
	NumTier1     int
	AssignPrefix bool
}

// DefaultGenConfig returns the paper's generation parameters for n ASes.
func DefaultGenConfig(n int) GenConfig {
	return GenConfig{
		ASes:         n,
		AvgDegree:    6.1,
		PowerLawExp:  2.1,
		NumTier1:     3,
		AssignPrefix: true,
	}
}

// Generate builds an artificial AS topology following §3.1: a power-law
// degree sequence realized by a configuration-style model, the three
// highest-degree ASes fully meshed as Tier1s, tiers assigned by hop
// distance from the Tier1 mesh, p2p between same-tier neighbors and c2p
// otherwise, and heavy-tailed prefix counts.
func Generate(cfg GenConfig, r *rand.Rand) *Topology {
	n := cfg.ASes
	if n < 4 {
		n = 4
	}
	degrees := powerLawDegrees(n, cfg.PowerLawExp, cfg.AvgDegree, r)

	// ASNs 1..n; index i ↔ ASN i+1.
	// Configuration model: fill a stub list and pair stubs at random,
	// rejecting self-loops and duplicates.
	var stubs []int
	for i, d := range degrees {
		for j := 0; j < d; j++ {
			stubs = append(stubs, i)
		}
	}
	r.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })

	adj := make([]map[int]bool, n)
	for i := range adj {
		adj[i] = make(map[int]bool)
	}
	addEdge := func(a, b int) bool {
		if a == b || adj[a][b] {
			return false
		}
		adj[a][b], adj[b][a] = true, true
		return true
	}
	for i := 0; i+1 < len(stubs); i += 2 {
		addEdge(stubs[i], stubs[i+1])
	}

	// Connect stragglers: attach isolated or disconnected components to a
	// random high-degree node so the graph is connected (BGP simulation
	// requires global reachability).
	connectComponents(adj, r)

	// The three highest-degree nodes form the Tier1 clique.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		da, db := len(adj[order[a]]), len(adj[order[b]])
		if da != db {
			return da > db
		}
		return order[a] < order[b]
	})
	numT1 := cfg.NumTier1
	if numT1 < 1 {
		numT1 = 3
	}
	if numT1 > n {
		numT1 = n
	}
	tier1 := order[:numT1]
	for i := 0; i < len(tier1); i++ {
		for j := i + 1; j < len(tier1); j++ {
			addEdge(tier1[i], tier1[j])
		}
	}

	// Tier = BFS level from the Tier1 mesh.
	tier := bfsLevels(adj, tier1)

	t := New()
	for i := 0; i < n; i++ {
		nbs := sortedNeighbors(adj[i])
		for _, j := range nbs {
			if j < i {
				continue
			}
			a, b := uint32(i+1), uint32(j+1)
			switch {
			case tier[i] == tier[j]:
				t.AddLink(Link{A: a, B: b, Rel: P2P})
			case tier[i] > tier[j]:
				t.AddLink(Link{A: a, B: b, Rel: C2P}) // i is deeper → customer
			default:
				t.AddLink(Link{A: b, B: a, Rel: C2P})
			}
		}
	}
	for _, i := range tier1 {
		t.Tier1s = append(t.Tier1s, uint32(i+1))
	}
	sort.Slice(t.Tier1s, func(i, j int) bool { return t.Tier1s[i] < t.Tier1s[j] })
	if cfg.AssignPrefix {
		t.AssignPrefixes(r)
	}
	return t
}

// powerLawDegrees samples n degrees from a discrete power law with the
// given exponent, then rescales the minimum degree so the mean approaches
// avgDegree.
func powerLawDegrees(n int, exp, avgDegree float64, r *rand.Rand) []int {
	if exp <= 1 {
		exp = 2.1
	}
	// Sample a raw Pareto tail P(k) ∝ k^-exp with k_min = 1, truncated at
	// n-1, then rescale multiplicatively to hit the target mean: the
	// truncated power-law mean depends on n, so calibration by formula
	// alone drifts.
	maxDeg := float64(n - 1)
	raw := make([]float64, n)
	sum := 0.0
	for i := range raw {
		u := r.Float64()
		if u == 0 {
			u = 1e-12
		}
		d := 1 / math.Pow(u, 1/(exp-1))
		if d > maxDeg {
			d = maxDeg
		}
		raw[i] = d
		sum += d
	}
	// The configuration model drops colliding stubs (self-loops and
	// duplicate edges concentrate on hubs); overshoot slightly to
	// compensate.
	const collisionSlack = 1.12
	scale := avgDegree * collisionSlack * float64(n) / sum
	out := make([]int, n)
	total := 0
	for i, d := range raw {
		v := d * scale
		if v > maxDeg {
			v = maxDeg
		}
		out[i] = int(v + 0.5)
		if out[i] < 1 {
			out[i] = 1
		}
		total += out[i]
	}
	if total%2 == 1 {
		out[0]++
	}
	return out
}

// sortedNeighbors returns the keys of a neighbor set in ascending order,
// for deterministic iteration.
func sortedNeighbors(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// connectComponents joins all connected components by linking each
// secondary component's highest-degree node to a random node of the giant
// component.
func connectComponents(adj []map[int]bool, r *rand.Rand) {
	n := len(adj)
	comp := make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	var comps [][]int
	for i := 0; i < n; i++ {
		if comp[i] != -1 {
			continue
		}
		id := len(comps)
		var members []int
		queue := []int{i}
		comp[i] = id
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			members = append(members, cur)
			for _, nb := range sortedNeighbors(adj[cur]) {
				if comp[nb] == -1 {
					comp[nb] = id
					queue = append(queue, nb)
				}
			}
		}
		sort.Ints(members)
		comps = append(comps, members)
	}
	if len(comps) <= 1 {
		return
	}
	// Giant component = largest.
	giant := 0
	for i, c := range comps {
		if len(c) > len(comps[giant]) {
			giant = i
		}
	}
	for i, c := range comps {
		if i == giant {
			continue
		}
		best := c[0]
		for _, m := range c {
			if len(adj[m]) > len(adj[best]) || (len(adj[m]) == len(adj[best]) && m < best) {
				best = m
			}
		}
		target := comps[giant][r.Intn(len(comps[giant]))]
		adj[best][target], adj[target][best] = true, true
	}
}

// bfsLevels returns each node's hop distance from the given root set.
func bfsLevels(adj []map[int]bool, roots []int) []int {
	n := len(adj)
	level := make([]int, n)
	for i := range level {
		level[i] = -1
	}
	queue := make([]int, 0, n)
	for _, rt := range roots {
		level[rt] = 0
		queue = append(queue, rt)
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for nb := range adj[cur] {
			if level[nb] == -1 {
				level[nb] = level[cur] + 1
				queue = append(queue, nb)
			}
		}
	}
	for i := range level {
		if level[i] == -1 {
			level[i] = 1 // unreachable safety net; connectComponents prevents this
		}
	}
	return level
}
