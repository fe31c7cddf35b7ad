package features

import "math"

// Feature indexing per Table 6.
const (
	FeatCloseness      = 0
	FeatHarmonic       = 1
	FeatAvgNbrDegree   = 2
	FeatEccentricity   = 3
	FeatTriangles      = 4
	FeatClustering     = 5
	FeatJaccard        = 6
	FeatAdamicAdar     = 7
	FeatPrefAttachment = 8
)

// NumNodeFeatures is the count of node-based features (computed for both
// event ASes), NumPairFeatures the pair-based count; the event vector is
// 2*NumNodeFeatures + NumPairFeatures = 15-dimensional (§18.2).
const (
	NumNodeFeatures = 6
	NumPairFeatures = 3
	VectorDim       = 2*NumNodeFeatures + NumPairFeatures
)

// NodeFeatures computes the six node-based features of Table 6 for as.
// An AS absent from the graph yields all zeros.
func (g *Graph) NodeFeatures(as uint32) [NumNodeFeatures]float64 {
	var out [NumNodeFeatures]float64
	i, ok := g.idx[as]
	if !ok {
		return out
	}
	dist := g.dijkstra(i)
	var sum, harm, ecc float64
	reach := 0
	for j, d := range dist {
		if int32(j) == i || d >= 1e18 {
			continue
		}
		reach++
		sum += d
		harm += 1 / d
		if d > ecc {
			ecc = d
		}
	}
	if reach > 0 && sum > 0 {
		out[FeatCloseness] = float64(reach) / sum
	}
	out[FeatHarmonic] = harm
	out[FeatEccentricity] = ecc
	out[FeatAvgNbrDegree] = g.avgNeighborDegree(i)
	out[FeatTriangles] = float64(g.triangles(i))
	out[FeatClustering] = g.clustering(i)
	return out
}

// avgNeighborDegree is the weighted (Barrat) average neighbor degree:
// Σ_j w_ij k_j / Σ_j w_ij.
func (g *Graph) avgNeighborDegree(i int32) float64 {
	var num, den float64
	for nb, w := range g.undir[i] {
		num += w * float64(g.degree(nb))
		den += w
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// triangles counts unweighted triangles through node i on the undirected
// projection.
func (g *Graph) triangles(i int32) int {
	nbs := make([]int32, 0, len(g.undir[i]))
	for nb := range g.undir[i] {
		nbs = append(nbs, nb)
	}
	count := 0
	for a := 0; a < len(nbs); a++ {
		for b := a + 1; b < len(nbs); b++ {
			if _, ok := g.undir[nbs[a]][nbs[b]]; ok {
				count++
			}
		}
	}
	return count
}

// clustering is the weighted clustering coefficient of Onnela et al.
// (Saramäki et al. [54]): C(i) = 1/(k(k-1)) Σ (ŵ_ij ŵ_ih ŵ_jh)^(1/3)·2,
// with ŵ = w / max(w).
func (g *Graph) clustering(i int32) float64 {
	k := g.degree(i)
	maxW := g.maxWeight()
	if k < 2 || maxW == 0 {
		return 0
	}
	nbs := make([]int32, 0, k)
	for nb := range g.undir[i] {
		nbs = append(nbs, nb)
	}
	var sum float64
	for a := 0; a < len(nbs); a++ {
		for b := a + 1; b < len(nbs); b++ {
			wjh, ok := g.undir[nbs[a]][nbs[b]]
			if !ok {
				continue
			}
			wij := g.undir[i][nbs[a]]
			wih := g.undir[i][nbs[b]]
			sum += math.Cbrt(wij / maxW * wih / maxW * wjh / maxW)
		}
	}
	return 2 * sum / float64(k*(k-1))
}

// PairFeatures computes the three pair-based closeness metrics of Table 6
// for (a, b) on the undirected projection.
func (g *Graph) PairFeatures(a, b uint32) [NumPairFeatures]float64 {
	var out [NumPairFeatures]float64
	ia, okA := g.idx[a]
	ib, okB := g.idx[b]
	if !okA || !okB {
		return out
	}
	na, nb := g.undir[ia], g.undir[ib]
	inter := 0
	var aa float64
	for x := range na {
		if _, ok := nb[x]; ok {
			inter++
			if d := g.degree(x); d > 1 {
				aa += 1 / math.Log(float64(d))
			}
		}
	}
	union := len(na) + len(nb) - inter
	if union > 0 {
		out[FeatJaccard-FeatJaccard] = float64(inter) / float64(union)
	}
	out[FeatAdamicAdar-FeatJaccard] = aa
	out[FeatPrefAttachment-FeatJaccard] = float64(len(na) * len(nb))
	return out
}
