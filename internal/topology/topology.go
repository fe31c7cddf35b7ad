// Package topology builds and manipulates AS-level Internet topologies for
// GILL's simulations: a power-law generator matching the paper's
// statistical parameters (§3.1: average degree 6.1, power-law exponent
// 2.1, tiered Gao-Rexford relationship assignment), leaf pruning, prefix
// assignment following a heavy-tailed distribution, and the five AS
// categories of Table 5.
package topology

import (
	"math"
	"math/rand"
	"net/netip"
	"sort"
)

// Relationship between two adjacent ASes.
type Relationship int8

// Relationship values, matching the CAIDA serialization convention.
const (
	// C2P: the first AS is a customer of the second.
	C2P Relationship = -1
	// P2P: the two ASes are settlement-free peers.
	P2P Relationship = 0
)

// Link is an undirected AS adjacency with a business relationship. For C2P
// links, A is the customer and B the provider.
type Link struct {
	A, B uint32
	Rel  Relationship
}

// Canonical returns the link with a normalized orientation: P2P links are
// ordered A < B; C2P links keep customer first.
func (l Link) Canonical() Link {
	if l.Rel == P2P && l.A > l.B {
		l.A, l.B = l.B, l.A
	}
	return l
}

// Topology is an AS-level graph with relationships and originated prefixes.
type Topology struct {
	// Links holds every adjacency exactly once (canonical orientation).
	Links []Link
	// Providers, Customers and Peers index the adjacency per AS.
	Providers map[uint32][]uint32
	Customers map[uint32][]uint32
	Peers     map[uint32][]uint32
	// Prefixes maps each AS to the prefixes it originates.
	Prefixes map[uint32][]netip.Prefix
	// Tier1s is the set of top-level providers (fully meshed peers).
	Tier1s []uint32

	// linkIdx indexes Links by unordered AS pair for O(1) lookup.
	linkIdx map[[2]uint32]int
}

// New returns an empty topology.
func New() *Topology {
	return &Topology{
		Providers: make(map[uint32][]uint32),
		Customers: make(map[uint32][]uint32),
		Peers:     make(map[uint32][]uint32),
		Prefixes:  make(map[uint32][]netip.Prefix),
		linkIdx:   make(map[[2]uint32]int),
	}
}

func pairKey(a, b uint32) [2]uint32 {
	if a > b {
		a, b = b, a
	}
	return [2]uint32{a, b}
}

// AddLink inserts a link, updating the indexes. A second link between the
// same AS pair is ignored regardless of relationship.
func (t *Topology) AddLink(l Link) {
	l = l.Canonical()
	k := pairKey(l.A, l.B)
	if _, dup := t.linkIdx[k]; dup {
		return
	}
	t.linkIdx[k] = len(t.Links)
	t.Links = append(t.Links, l)
	switch l.Rel {
	case C2P:
		t.Customers[l.B] = append(t.Customers[l.B], l.A)
		t.Providers[l.A] = append(t.Providers[l.A], l.B)
	case P2P:
		t.Peers[l.A] = append(t.Peers[l.A], l.B)
		t.Peers[l.B] = append(t.Peers[l.B], l.A)
	}
}

// ASes returns every AS appearing in a link or owning a prefix, sorted.
func (t *Topology) ASes() []uint32 {
	set := make(map[uint32]bool)
	for _, l := range t.Links {
		set[l.A], set[l.B] = true, true
	}
	for as := range t.Prefixes {
		set[as] = true
	}
	out := make([]uint32, 0, len(set))
	for as := range set {
		out = append(out, as)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Degree returns the total number of neighbors of as.
func (t *Topology) Degree(as uint32) int {
	return len(t.Providers[as]) + len(t.Customers[as]) + len(t.Peers[as])
}

// Neighbors returns all neighbors of as (providers, customers, peers).
func (t *Topology) Neighbors(as uint32) []uint32 {
	out := make([]uint32, 0, t.Degree(as))
	out = append(out, t.Providers[as]...)
	out = append(out, t.Customers[as]...)
	out = append(out, t.Peers[as]...)
	return out
}

// AvgDegree returns the mean node degree (the Beta index ×2).
func (t *Topology) AvgDegree() float64 {
	n := len(t.ASes())
	if n == 0 {
		return 0
	}
	return 2 * float64(len(t.Links)) / float64(n)
}

// HasLink reports whether a link exists between a and b with any
// relationship, returning it.
func (t *Topology) HasLink(a, b uint32) (Link, bool) {
	if i, ok := t.linkIdx[pairKey(a, b)]; ok {
		return t.Links[i], true
	}
	return Link{}, false
}

// CustomerCone returns the set of ASes reachable from as by walking only
// provider→customer edges, including as itself (the ASRank customer cone).
func (t *Topology) CustomerCone(as uint32) map[uint32]bool {
	cone := map[uint32]bool{as: true}
	stack := []uint32{as}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, c := range t.Customers[cur] {
			if !cone[c] {
				cone[c] = true
				stack = append(stack, c)
			}
		}
	}
	return cone
}

// AllPrefixes returns every originated prefix with its origin AS.
func (t *Topology) AllPrefixes() map[netip.Prefix]uint32 {
	out := make(map[netip.Prefix]uint32)
	for as, ps := range t.Prefixes {
		for _, p := range ps {
			out[p] = as
		}
	}
	return out
}

// PrefixFromIndex returns the i-th synthetic /24 prefix, unique for
// i < 2^20, inside 16.0.0.0/4.
func PrefixFromIndex(i int) netip.Prefix {
	addr := uint32(16)<<24 + uint32(i)<<8
	var raw [4]byte
	raw[0], raw[1], raw[2], raw[3] = byte(addr>>24), byte(addr>>16), byte(addr>>8), byte(addr)
	p, _ := netip.AddrFrom4(raw).Prefix(24)
	return p
}

// AssignPrefixes gives every AS a number of prefixes drawn from a
// heavy-tailed (discrete Pareto) distribution, mirroring the real-Internet
// prefix-count distribution referenced in §3.1. The mean is ≈1.9 prefixes
// per AS with a long tail.
func (t *Topology) AssignPrefixes(r *rand.Rand) {
	idx := 0
	for _, as := range t.ASes() {
		n := 1 + int(pareto(r, 1.3, 0.9))
		if n > 64 {
			n = 64
		}
		for i := 0; i < n; i++ {
			t.Prefixes[as] = append(t.Prefixes[as], PrefixFromIndex(idx))
			idx++
		}
	}
}

// pareto samples a Pareto(alpha, xm) minus xm (so the minimum is 0).
func pareto(r *rand.Rand, alpha, xm float64) float64 {
	u := r.Float64()
	if u == 0 {
		u = 1e-12
	}
	return xm*(1/math.Pow(u, 1/alpha)) - xm
}
