package filter

import (
	"bytes"
	"math/rand"
	"net/netip"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/update"
)

// randUpdate builds a pseudo-random update from a seed.
func randUpdate(r *rand.Rand) *update.Update {
	path := make([]uint32, 1+r.Intn(4))
	for i := range path {
		path[i] = uint32(1 + r.Intn(30))
	}
	var comms []uint32
	for i := 0; i < r.Intn(3); i++ {
		comms = append(comms, uint32(r.Intn(100)))
	}
	return &update.Update{
		VP:     "vp" + string(rune('a'+r.Intn(6))),
		Time:   time.Unix(int64(r.Intn(1000)), 0),
		Prefix: netip.PrefixFrom(netip.AddrFrom4([4]byte{16, byte(r.Intn(4)), byte(r.Intn(8)), 0}), 24),
		Path:   path,
		Comms:  comms,
	}
}

// TestMarshalRoundTripProperty: for any generated filter set, the
// marshaled-then-unmarshaled set behaves identically on any update. A
// fixed seed list (one per granularity, plus a seed that once caught the
// path-key trailing-space bug) runs on every invocation besides the
// random draws.
func TestMarshalRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := Granularity(r.Intn(3))
		s := NewSet(g)
		for i := 0; i < r.Intn(20); i++ {
			s.AddDrop(randUpdate(r))
		}
		for i := 0; i < r.Intn(3); i++ {
			s.AddAnchor("vp" + string(rune('a'+r.Intn(6))))
		}
		var buf bytes.Buffer
		if err := s.Marshal(&buf); err != nil {
			return false
		}
		got, err := Unmarshal(&buf)
		if err != nil {
			return false
		}
		for i := 0; i < 50; i++ {
			u := randUpdate(r)
			if got.Keep(u) != s.Keep(u) {
				return false
			}
		}
		return true
	}
	for _, seed := range []int64{5, 2, 1, 4463250341576061720} { // granularity 0, 1, 2, 1
		if !f(seed) {
			t.Errorf("round trip differs for seed %d", seed)
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestAnchorDominanceProperty: an anchor's updates always pass, whatever
// drop rules exist.
func TestAnchorDominanceProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := NewSet(GranVPPrefix)
		for i := 0; i < 30; i++ {
			s.AddDrop(randUpdate(r))
		}
		s.AddAnchor("vpa")
		for i := 0; i < 30; i++ {
			u := randUpdate(r)
			u.VP = "vpa"
			if !s.Keep(u) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestCoarseSubsumesFineProperty: any update dropped by a fine-grained
// rule set is also dropped by the coarse set generated from the same
// training updates (coarse rules match a superset).
func TestCoarseSubsumesFineProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var training []*update.Update
		for i := 0; i < 20; i++ {
			training = append(training, randUpdate(r))
		}
		coarse := NewSet(GranVPPrefix)
		fine := NewSet(GranVPPrefixPathComm)
		for _, u := range training {
			coarse.AddDrop(u)
			fine.AddDrop(u)
		}
		for i := 0; i < 60; i++ {
			u := randUpdate(r)
			if !fine.Keep(u) && coarse.Keep(u) {
				return false // fine dropped something coarse kept
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
