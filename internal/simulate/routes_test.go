package simulate

import (
	"math/rand"
	"testing"

	"repro/internal/topology"
)

// testTopo builds a small hand-checked topology:
//
//	     1
//	   /   \
//	  2     3        2,3 customers of 1
//	 /|\     \
//	4 5 6     6      4,5 customers of 2; 6 customer of 2 AND 3
//	4--5  5--6       p2p links
func testTopo() *topology.Topology {
	t := topology.New()
	t.AddLink(topology.Link{A: 2, B: 1, Rel: topology.C2P})
	t.AddLink(topology.Link{A: 3, B: 1, Rel: topology.C2P})
	t.AddLink(topology.Link{A: 4, B: 2, Rel: topology.C2P})
	t.AddLink(topology.Link{A: 5, B: 2, Rel: topology.C2P})
	t.AddLink(topology.Link{A: 6, B: 2, Rel: topology.C2P})
	t.AddLink(topology.Link{A: 6, B: 3, Rel: topology.C2P})
	t.AddLink(topology.Link{A: 4, B: 5, Rel: topology.P2P})
	t.AddLink(topology.Link{A: 5, B: 6, Rel: topology.P2P})
	t.Prefixes[6] = append(t.Prefixes[6], topology.PrefixFromIndex(0))
	t.Prefixes[4] = append(t.Prefixes[4], topology.PrefixFromIndex(1))
	t.Tier1s = []uint32{1}
	return t
}

func pathEq(a []uint32, b ...uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestRoutesToOrigin6(t *testing.T) {
	s := New(testTopo(), 1)
	r := s.ComputeRoutes([]Origin{{AS: 6}})

	cases := []struct {
		as   uint32
		want []uint32
	}{
		{6, []uint32{6}},
		{3, []uint32{3, 6}},
		{2, []uint32{2, 6}},
		{1, []uint32{1, 2, 6}}, // tie 2 vs 3 broken on lower next-hop ASN
		{5, []uint32{5, 6}},    // peer route beats provider route
		{4, []uint32{4, 2, 6}}, // peer 5 must NOT export its peer route
	}
	for _, c := range cases {
		if got := r.Path(c.as); !pathEq(got, c.want...) {
			t.Errorf("Path(%d) = %v, want %v", c.as, got, c.want)
		}
	}
	// Class assertions.
	if r.Class[s.idx[5]] != ClassPeer {
		t.Errorf("AS5 class = %v, want peer", r.Class[s.idx[5]])
	}
	if r.Class[s.idx[4]] != ClassProvider {
		t.Errorf("AS4 class = %v, want provider", r.Class[s.idx[4]])
	}
	if r.Class[s.idx[1]] != ClassCustomer {
		t.Errorf("AS1 class = %v, want customer", r.Class[s.idx[1]])
	}
}

func TestRoutesUnderFailure(t *testing.T) {
	s := New(testTopo(), 1)
	s.FailLink(2, 6)
	r := s.ComputeRoutes([]Origin{{AS: 6}})
	if got := r.Path(2); !pathEq(got, 2, 1, 3, 6) {
		t.Errorf("Path(2) = %v, want [2 1 3 6]", got)
	}
	if got := r.Path(5); !pathEq(got, 5, 6) {
		t.Errorf("Path(5) = %v: peer route should survive the failure", got)
	}
	if got := r.Path(4); !pathEq(got, 4, 2, 1, 3, 6) {
		t.Errorf("Path(4) = %v", got)
	}
	s.RestoreLink(2, 6)
	r = s.ComputeRoutes([]Origin{{AS: 6}})
	if got := r.Path(2); !pathEq(got, 2, 6) {
		t.Errorf("after restore Path(2) = %v, want [2 6]", got)
	}
}

func TestRoutesDisconnection(t *testing.T) {
	s := New(testTopo(), 1)
	// Cut both of 6's provider links and its peer link: unreachable.
	s.FailLink(2, 6)
	s.FailLink(3, 6)
	s.FailLink(5, 6)
	r := s.ComputeRoutes([]Origin{{AS: 6}})
	for _, as := range []uint32{1, 2, 3, 4, 5} {
		if r.Path(as) != nil {
			t.Errorf("AS%d still reaches 6 after isolation: %v", as, r.Path(as))
		}
	}
	if r.Path(6) == nil {
		t.Error("origin must remain reachable to itself")
	}
}

func TestForgedOriginHijack(t *testing.T) {
	s := New(testTopo(), 1)
	// Attacker AS5 launches a Type-1 forged-origin hijack of AS6's prefix:
	// it announces [5, 6].
	r := s.ComputeRoutes([]Origin{{AS: 6}, {AS: 5, Tail: []uint32{6}}})

	// AS4 prefers the peer route through the attacker (len 2, peer) over
	// its legitimate provider route (len 2, provider).
	if got := r.Path(4); !pathEq(got, 4, 5, 6) {
		t.Errorf("Path(4) = %v, want hijacked [4 5 6]", got)
	}
	if o := r.OriginOf(4); o == nil || o.AS != 5 {
		t.Errorf("OriginOf(4) = %v, want attacker 5", o)
	}
	// AS2 keeps the legitimate customer route (shorter).
	if got := r.Path(2); !pathEq(got, 2, 6) {
		t.Errorf("Path(2) = %v, want legit [2 6]", got)
	}
	if o := r.OriginOf(2); o == nil || o.AS != 6 {
		t.Errorf("OriginOf(2) = %v, want victim 6", o)
	}
	// Every path still *ends* with the victim ASN — the hijack forges the
	// origin.
	for _, as := range []uint32{1, 2, 3, 4, 5} {
		p := r.Path(as)
		if len(p) == 0 || p[len(p)-1] != 6 {
			t.Errorf("Path(%d) = %v must end with the claimed origin 6", as, p)
		}
	}
}

func TestRouteInvariants(t *testing.T) {
	// Property check over a generated topology: Gao-Rexford invariants for
	// every AS and every destination.
	topo := topology.Generate(topology.DefaultGenConfig(150), rand.New(rand.NewSource(9)))
	s := New(topo, 2)
	isIn := func(list []int32, v int32) bool {
		for _, x := range list {
			if x == v {
				return true
			}
		}
		return false
	}
	for _, dest := range s.ases[:40] {
		r := s.ComputeRoutes([]Origin{{AS: dest}})
		for i := range s.ases {
			cl := r.Class[i]
			if cl == ClassNone {
				t.Fatalf("AS %d unreachable from %d in connected topology", s.ases[i], dest)
			}
			if cl == ClassOrigin {
				continue
			}
			nh := r.Next[i]
			if nh < 0 {
				t.Fatalf("AS %d class %v without next hop", s.ases[i], cl)
			}
			if r.Len[i] != r.Len[nh]+1 {
				t.Fatalf("AS %d len %d but next hop len %d", s.ases[i], r.Len[i], r.Len[nh])
			}
			nhClass := r.Class[nh]
			switch cl {
			case ClassCustomer:
				if !isIn(s.customers[i], nh) {
					t.Fatalf("customer-class route at %d via non-customer", s.ases[i])
				}
				if nhClass != ClassOrigin && nhClass != ClassCustomer {
					t.Fatalf("valley: customer route at %d via %v-class next hop", s.ases[i], nhClass)
				}
			case ClassPeer:
				if !isIn(s.peers[i], nh) {
					t.Fatalf("peer-class route at %d via non-peer", s.ases[i])
				}
				if nhClass != ClassOrigin && nhClass != ClassCustomer {
					t.Fatalf("valley: peer route at %d via %v-class next hop", s.ases[i], nhClass)
				}
			case ClassProvider:
				if !isIn(s.providers[i], nh) {
					t.Fatalf("provider-class route at %d via non-provider", s.ases[i])
				}
			}
		}
	}
}

func TestRoutePreferenceOrder(t *testing.T) {
	// An AS with a customer route must use it even when a shorter peer or
	// provider path exists. AS1 reaches 6 via customer chain even if we
	// give it a direct peer shortcut.
	topo := testTopo()
	topo.AddLink(topology.Link{A: 1, B: 6, Rel: topology.P2P})
	s := New(topo, 1)
	r := s.ComputeRoutes([]Origin{{AS: 6}})
	i := s.idx[1]
	if r.Class[i] != ClassCustomer {
		t.Fatalf("AS1 class = %v, want customer (preference over shorter peer)", r.Class[i])
	}
	if got := r.Path(1); !pathEq(got, 1, 2, 6) {
		t.Errorf("Path(1) = %v, want [1 2 6]", got)
	}
}

func TestTreeEdgesAndUsesLink(t *testing.T) {
	s := New(testTopo(), 1)
	r := s.ComputeRoutes([]Origin{{AS: 6}})
	edges := r.TreeEdges()
	if !edges[[2]uint32{2, 6}] {
		t.Errorf("TreeEdges missing 2-6: %v", edges)
	}
	if edges[[2]uint32{4, 5}] {
		t.Error("p2p link 4-5 is not on any best path to 6")
	}
}

func TestDeterministicRoutes(t *testing.T) {
	topo := topology.Generate(topology.DefaultGenConfig(200), rand.New(rand.NewSource(3)))
	a, b := New(topo, 5), New(topo, 5)
	ra := a.ComputeRoutes([]Origin{{AS: a.ases[10]}})
	rb := b.ComputeRoutes([]Origin{{AS: b.ases[10]}})
	for i := range a.ases {
		if ra.Next[i] != rb.Next[i] || ra.Len[i] != rb.Len[i] {
			t.Fatalf("nondeterministic route at index %d", i)
		}
	}
}
