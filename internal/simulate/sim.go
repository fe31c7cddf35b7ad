package simulate

import (
	"fmt"
	"hash/fnv"
	"net/netip"
	"sort"

	"repro/internal/topology"
)

// Sim is the simulator state: a topology with index-based adjacency, the
// set of currently failed links, and per-prefix announcement overrides
// (hijacks, origin changes).
type Sim struct {
	topo *topology.Topology

	ases      []uint32
	idx       map[uint32]int32
	providers [][]int32 // providers[i]: indexes of i's providers
	customers [][]int32
	peers     [][]int32
	topoOrder []int32 // provider-DAG topological order (providers first)

	failed map[[2]uint32]bool

	// originOverride replaces the default single legitimate origin of a
	// prefix (hijack adds an origin; origin change substitutes one).
	originOverride map[netip.Prefix][]Origin

	prefixOwner map[netip.Prefix]uint32

	// routeCache caches route computations keyed by origin-set signature.
	routeCache map[string]*Routes

	seed uint64
}

// New builds a simulator over topo. The seed drives the deterministic
// timestamp jitter and community synthesis.
func New(topo *topology.Topology, seed int64) *Sim {
	ases := topo.ASes()
	s := &Sim{
		topo:           topo,
		ases:           ases,
		idx:            make(map[uint32]int32, len(ases)),
		failed:         make(map[[2]uint32]bool),
		originOverride: make(map[netip.Prefix][]Origin),
		prefixOwner:    topo.AllPrefixes(),
		routeCache:     make(map[string]*Routes),
		seed:           uint64(seed),
	}
	for i, as := range ases {
		s.idx[as] = int32(i)
	}
	n := len(ases)
	s.providers = make([][]int32, n)
	s.customers = make([][]int32, n)
	s.peers = make([][]int32, n)
	add := func(dst *[]int32, v int32) { *dst = append(*dst, v) }
	for _, as := range ases {
		i := s.idx[as]
		for _, p := range topo.Providers[as] {
			add(&s.providers[i], s.idx[p])
		}
		for _, c := range topo.Customers[as] {
			add(&s.customers[i], s.idx[c])
		}
		for _, p := range topo.Peers[as] {
			add(&s.peers[i], s.idx[p])
		}
		sort.Slice(s.providers[i], func(a, b int) bool { return s.providers[i][a] < s.providers[i][b] })
		sort.Slice(s.customers[i], func(a, b int) bool { return s.customers[i][a] < s.customers[i][b] })
		sort.Slice(s.peers[i], func(a, b int) bool { return s.peers[i][a] < s.peers[i][b] })
	}
	s.topoOrder = s.computeTopoOrder()
	return s
}

// Topology returns the underlying topology.
func (s *Sim) Topology() *topology.Topology { return s.topo }

// ASes returns all AS numbers, sorted.
func (s *Sim) ASes() []uint32 { return s.ases }

// computeTopoOrder Kahn-sorts the provider DAG so that every AS appears
// after all of its providers. Cycles (impossible in generated topologies)
// are broken arbitrarily and appended last.
func (s *Sim) computeTopoOrder() []int32 {
	n := len(s.ases)
	indeg := make([]int, n) // number of providers
	for i := 0; i < n; i++ {
		indeg[i] = len(s.providers[i])
	}
	queue := make([]int32, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			queue = append(queue, int32(i))
		}
	}
	order := make([]int32, 0, n)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		order = append(order, u)
		for _, c := range s.customers[u] {
			indeg[c]--
			if indeg[c] == 0 {
				queue = append(queue, c)
			}
		}
	}
	if len(order) < n {
		seen := make([]bool, n)
		for _, u := range order {
			seen[u] = true
		}
		for i := 0; i < n; i++ {
			if !seen[i] {
				order = append(order, int32(i))
			}
		}
	}
	return order
}

func linkKey(a, b uint32) [2]uint32 {
	if a > b {
		a, b = b, a
	}
	return [2]uint32{a, b}
}

func (s *Sim) linkFailed(i, j int32) bool {
	if len(s.failed) == 0 {
		return false
	}
	return s.failed[linkKey(s.ases[i], s.ases[j])]
}

// FailLink marks the undirected link a-b failed.
func (s *Sim) FailLink(a, b uint32) {
	s.failed[linkKey(a, b)] = true
	s.invalidateForLink(a, b)
}

// RestoreLink clears a failure.
func (s *Sim) RestoreLink(a, b uint32) {
	delete(s.failed, linkKey(a, b))
	s.invalidateForLink(a, b)
}

// FailedLinks returns the currently failed links.
func (s *Sim) FailedLinks() [][2]uint32 {
	out := make([][2]uint32, 0, len(s.failed))
	for k := range s.failed {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// invalidateForLink is called on link state changes. Cached routes are
// keyed by the failure-set signature, so stale entries can never be
// returned; this hook merely bounds cache growth.
func (s *Sim) invalidateForLink(a, b uint32) {
	if len(s.routeCache) > 4096 {
		s.routeCache = make(map[string]*Routes)
	}
}

// OriginsFor returns the current announcement set for prefix p.
func (s *Sim) OriginsFor(p netip.Prefix) []Origin {
	if o, ok := s.originOverride[p]; ok {
		return o
	}
	owner, ok := s.prefixOwner[p]
	if !ok {
		return nil
	}
	return []Origin{{AS: owner}}
}

// cacheKey builds the route-cache key for an origin set under the current
// failure state.
func (s *Sim) cacheKey(origins []Origin) string {
	k := ""
	for _, o := range origins {
		k += fmt.Sprintf("%d[", o.AS)
		for _, t := range o.Tail {
			k += fmt.Sprintf("%d,", t)
		}
		k += "]"
	}
	k += "/f:"
	for _, l := range s.FailedLinks() {
		k += fmt.Sprintf("%d-%d,", l[0], l[1])
	}
	return k
}

// RoutesFor returns (cached) routes for prefix p under the current state.
func (s *Sim) RoutesFor(p netip.Prefix) *Routes {
	origins := s.OriginsFor(p)
	if origins == nil {
		return nil
	}
	key := s.cacheKey(origins)
	if r, ok := s.routeCache[key]; ok {
		return r
	}
	r := s.ComputeRoutes(origins)
	s.routeCache[key] = r
	return r
}

// Hijack adds a forged-origin announcement for prefix p: attacker announces
// the path [attacker, tail...]. For a Type-X hijack, tail has X elements
// ending with the victim ASN.
func (s *Sim) Hijack(p netip.Prefix, attacker uint32, tail []uint32) {
	origins := append([]Origin(nil), s.OriginsFor(p)...)
	origins = append(origins, Origin{AS: attacker, Tail: tail})
	s.originOverride[p] = origins
}

// ChangeOrigin re-homes prefix p to a new origin AS.
func (s *Sim) ChangeOrigin(p netip.Prefix, newOrigin uint32) {
	s.originOverride[p] = []Origin{{AS: newOrigin}}
}

// ClearPrefix removes any hijack/origin override on p.
func (s *Sim) ClearPrefix(p netip.Prefix) {
	delete(s.originOverride, p)
}

// hash64 produces the deterministic jitter source.
func (s *Sim) hash64(parts ...uint64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	b[0] = byte(s.seed)
	b[1] = byte(s.seed >> 8)
	b[2] = byte(s.seed >> 16)
	b[3] = byte(s.seed >> 24)
	h.Write(b[:4])
	for _, p := range parts {
		for i := 0; i < 8; i++ {
			b[i] = byte(p >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}
