// Package simulate is a C-BGP-equivalent AS-level BGP simulator (§3.1,
// §11): every AS runs one router, routing policies follow the Gao-Rexford
// model, and the simulator produces the per-VP timestamped update streams
// and RIB snapshots GILL's algorithms consume.
//
// Route computation uses the standard three-phase algorithm implied by
// valley-free export: customer-learned routes propagate everywhere, peer-
// and provider-learned routes propagate only to customers, and every AS
// prefers customer over peer over provider routes, breaking ties on AS-path
// length and then next-hop ASN.
package simulate

import "math"

// RouteClass is the Gao-Rexford preference class of a route.
type RouteClass int8

// Route classes in decreasing preference.
const (
	ClassNone     RouteClass = 0 // unreachable
	ClassOrigin   RouteClass = 1
	ClassCustomer RouteClass = 2
	ClassPeer     RouteClass = 3
	ClassProvider RouteClass = 4
)

// Origin is one announcement source for a destination prefix. Tail is the
// AS-path material the announcer appends after itself: empty for a
// legitimate origin; for a Type-X forged-origin hijack the attacker's Tail
// holds the forged suffix ending with the victim ASN (X = len(Tail) is the
// attacker's position in the forged path).
type Origin struct {
	AS   uint32
	Tail []uint32
}

const inf = math.MaxInt16

// Routes holds the outcome of one route computation: for every AS (by
// simulator index), its best route toward the destination.
type Routes struct {
	sim *Sim
	// Class, Len, Next, Org are indexed by AS index. Next is the index of
	// the chosen next-hop AS (-1 at an origin or when unreachable). Org is
	// the index into the origins slice (-1 when unreachable).
	Class []RouteClass
	Len   []int16
	Next  []int32
	Org   []int8

	origins []Origin
}

// ComputeRoutes runs the three-phase Gao-Rexford computation for a
// destination announced by the given origins, honoring the simulator's
// currently failed links.
func (s *Sim) ComputeRoutes(origins []Origin) *Routes {
	n := len(s.ases)
	r := &Routes{
		sim:     s,
		Class:   make([]RouteClass, n),
		Len:     make([]int16, n),
		Next:    make([]int32, n),
		Org:     make([]int8, n),
		origins: origins,
	}
	for i := range r.Len {
		r.Len[i] = inf
		r.Next[i] = -1
		r.Org[i] = -1
	}

	// Phase 0: seed origins.
	for oi, o := range origins {
		i, ok := s.idx[o.AS]
		if !ok {
			continue
		}
		l := int16(len(o.Tail))
		if better(r, i, ClassOrigin, l, int8(oi)) {
			r.Class[i], r.Len[i], r.Next[i], r.Org[i] = ClassOrigin, l, -1, int8(oi)
		}
	}

	// Phase 1: customer routes climb provider edges via a bucket queue
	// (all edge weights are 1 but sources start at different lengths).
	maxLen := int16(n + 8)
	buckets := make([][]int32, maxLen+2)
	custLen := make([]int16, n)
	custNext := make([]int32, n)
	custOrg := make([]int8, n)
	for i := range custLen {
		custLen[i] = inf
		custNext[i] = -1
		custOrg[i] = -1
	}
	for i := 0; i < n; i++ {
		if r.Class[i] == ClassOrigin {
			custLen[i] = r.Len[i]
			custOrg[i] = r.Org[i]
			if custLen[i] <= maxLen {
				buckets[custLen[i]] = append(buckets[custLen[i]], int32(i))
			}
		}
	}
	for l := int16(0); l <= maxLen; l++ {
		for qi := 0; qi < len(buckets[l]); qi++ {
			u := buckets[l][qi]
			if custLen[u] != l {
				continue // stale entry
			}
			for _, p := range s.providers[u] {
				if s.linkFailed(u, p) {
					continue
				}
				nl := l + 1
				if nl < custLen[p] ||
					(nl == custLen[p] && betterHop(s, custNext[p], u, custOrg[p], custOrg[u])) {
					custLen[p] = nl
					custNext[p] = u
					custOrg[p] = custOrg[u]
					if nl <= maxLen {
						buckets[nl] = append(buckets[nl], p)
					}
				}
			}
		}
	}
	// Fold customer routes into the result (origins keep ClassOrigin).
	for i := 0; i < n; i++ {
		if r.Class[i] == ClassOrigin {
			continue
		}
		if custLen[i] < inf {
			r.Class[i], r.Len[i], r.Next[i], r.Org[i] = ClassCustomer, custLen[i], custNext[i], custOrg[i]
		}
	}

	// Phase 2: peer routes — one hop across a peer edge from any AS with a
	// customer-class route (or an origin).
	for i := 0; i < n; i++ {
		if r.Class[i] == ClassOrigin || r.Class[i] == ClassCustomer {
			continue
		}
		bestLen := int16(inf)
		bestNext := int32(-1)
		bestOrg := int8(-1)
		for _, w := range s.peers[i] {
			if s.linkFailed(int32(i), w) {
				continue
			}
			if custLen[w] >= inf {
				continue
			}
			nl := custLen[w] + 1
			if nl < bestLen || (nl == bestLen && betterHop(s, bestNext, w, bestOrg, custOrg[w])) {
				bestLen, bestNext, bestOrg = nl, w, custOrg[w]
			}
		}
		if bestNext >= 0 {
			r.Class[i], r.Len[i], r.Next[i], r.Org[i] = ClassPeer, bestLen, bestNext, bestOrg
		}
	}

	// Phase 3: provider routes descend customer edges in provider-DAG
	// topological order: an AS announces its best route (any class) to its
	// customers.
	for _, u := range s.topoOrder {
		if r.Class[u] != ClassNone {
			continue
		}
		bestLen := int16(inf)
		bestNext := int32(-1)
		bestOrg := int8(-1)
		for _, p := range s.providers[u] {
			if s.linkFailed(u, p) {
				continue
			}
			if r.Class[p] == ClassNone {
				continue
			}
			nl := r.Len[p] + 1
			if nl < bestLen || (nl == bestLen && betterHop(s, bestNext, p, bestOrg, r.Org[p])) {
				bestLen, bestNext, bestOrg = nl, p, r.Org[p]
			}
		}
		if bestNext >= 0 {
			r.Class[u], r.Len[u], r.Next[u], r.Org[u] = ClassProvider, bestLen, bestNext, bestOrg
		}
	}
	return r
}

// better reports whether the candidate (class, length, origin) beats the
// incumbent route at index i.
func better(r *Routes, i int32, c RouteClass, l int16, org int8) bool {
	if r.Class[i] == ClassNone {
		return true
	}
	if c != r.Class[i] {
		return c < r.Class[i]
	}
	if l != r.Len[i] {
		return l < r.Len[i]
	}
	return org < r.Org[i]
}

// betterHop breaks a length tie: prefer the lower next-hop ASN, then the
// lower origin index (so the legitimate origin wins exact ties against a
// hijacker).
func betterHop(s *Sim, incumbent, candidate int32, incOrg, candOrg int8) bool {
	if incumbent < 0 {
		return true
	}
	ai, ac := s.ases[incumbent], s.ases[candidate]
	if ai != ac {
		return ac < ai
	}
	return candOrg < incOrg
}

// OriginOf returns the origin spec chosen by as, or nil if unreachable.
func (r *Routes) OriginOf(as uint32) *Origin {
	i, ok := r.sim.idx[as]
	if !ok || r.Org[i] < 0 {
		return nil
	}
	return &r.origins[r.Org[i]]
}

// Path returns the full AS path from as to the destination, starting with
// as itself and ending with the announced tail (the claimed origin last).
// It returns nil when as has no route.
func (r *Routes) Path(as uint32) []uint32 {
	i, ok := r.sim.idx[as]
	if !ok || r.Class[i] == ClassNone {
		return nil
	}
	var path []uint32
	cur := int32(i)
	for {
		path = append(path, r.sim.ases[cur])
		if r.Next[cur] < 0 {
			break
		}
		cur = r.Next[cur]
		if len(path) > len(r.sim.ases)+4 {
			return nil // cycle safety net; must not happen
		}
	}
	if r.Org[i] >= 0 {
		path = append(path, r.origins[r.Org[i]].Tail...)
	}
	return path
}

// TreeEdges returns the set of undirected AS pairs used by at least one
// next-hop pointer in this route computation (the routing tree), used to
// find destinations affected by a link failure.
func (r *Routes) TreeEdges() map[[2]uint32]bool {
	out := make(map[[2]uint32]bool)
	for i := range r.Next {
		if r.Next[i] < 0 {
			continue
		}
		a, b := r.sim.ases[i], r.sim.ases[r.Next[i]]
		if a > b {
			a, b = b, a
		}
		out[[2]uint32{a, b}] = true
	}
	return out
}
