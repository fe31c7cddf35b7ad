package filter

import (
	"bytes"
	"net/netip"
	"slices"
	"testing"
	"time"

	"repro/internal/correlation"
	"repro/internal/update"
)

var (
	p1 = netip.MustParsePrefix("16.0.0.0/24")
	p2 = netip.MustParsePrefix("16.0.1.0/24")
	t0 = time.Date(2023, 9, 1, 0, 0, 0, 0, time.UTC)
)

func u(vp string, p netip.Prefix, path []uint32, comms ...uint32) *update.Update {
	return &update.Update{VP: vp, Time: t0, Prefix: p, Path: path, Comms: comms}
}

func TestDefaultAcceptEverything(t *testing.T) {
	s := NewSet(GranVPPrefix)
	if !s.Keep(u("vpX", p1, []uint32{1, 2})) {
		t.Error("empty set must accept")
	}
	var zero Set
	if !zero.Keep(u("vpX", p1, []uint32{1, 2})) {
		t.Error("zero-value set must accept")
	}
}

func TestCoarseDropAndAnchorOverride(t *testing.T) {
	s := NewSet(GranVPPrefix)
	s.AddDropVPPrefix("vpA", p1)
	if s.Keep(u("vpA", p1, []uint32{1, 2})) {
		t.Error("drop rule ignored")
	}
	// Same VP, different prefix → kept.
	if !s.Keep(u("vpA", p2, []uint32{1, 2})) {
		t.Error("drop rule leaked to other prefix")
	}
	// Different VP, same prefix → kept.
	if !s.Keep(u("vpB", p1, []uint32{1, 2})) {
		t.Error("drop rule leaked to other VP")
	}
	// Anchor rule overrides the drop (Fig. 5b priority order).
	s.AddAnchor("vpA")
	if !s.Keep(u("vpA", p1, []uint32{1, 2})) {
		t.Error("anchor accept-all must override drop rules")
	}
}

func TestCoarseRulesMatchFutureUpdates(t *testing.T) {
	// The §7 argument: coarse rules match updates with never-seen paths.
	s := NewSet(GranVPPrefix)
	s.AddDrop(u("vpA", p1, []uint32{1, 2, 3}, 7))
	novel := u("vpA", p1, []uint32{9, 8, 7, 6}, 42) // same VP+prefix, new path
	if s.Keep(novel) {
		t.Error("coarse rule must match regardless of path/communities")
	}
}

func TestPathGranularity(t *testing.T) {
	s := NewSet(GranVPPrefixPath)
	s.AddDrop(u("vpA", p1, []uint32{1, 2, 3}, 7))
	if s.Keep(u("vpA", p1, []uint32{1, 2, 3}, 99)) {
		t.Error("asp rule should drop same path with different comms")
	}
	if !s.Keep(u("vpA", p1, []uint32{9, 8}, 7)) {
		t.Error("asp rule must not drop a different path")
	}
}

func TestPathCommGranularity(t *testing.T) {
	s := NewSet(GranVPPrefixPathComm)
	s.AddDrop(u("vpA", p1, []uint32{1, 2, 3}, 7, 8))
	if !s.Keep(u("vpA", p1, []uint32{1, 2, 3}, 7)) {
		t.Error("asp-comm rule must not drop different community sets")
	}
	if s.Keep(u("vpA", p1, []uint32{1, 2, 3}, 8, 7)) {
		t.Error("community order must not matter")
	}
}

func fig10Updates() []*update.Update {
	var us []*update.Update
	mk := func(vp string, at time.Duration, path ...uint32) *update.Update {
		return &update.Update{VP: vp, Time: t0.Add(at), Prefix: p1, Path: path}
	}
	T := func(i int) time.Duration { return time.Duration(i) * 10 * time.Minute }
	us = append(us,
		mk("VP1", T(0), 2, 1, 4), mk("VP2", T(0)+10*time.Second, 6, 2, 1, 4),
		mk("VP1", T(1), 2, 4), mk("VP2", T(1)+10*time.Second, 6, 2, 4),
		mk("VP1", T(2), 2, 1, 4), mk("VP2", T(2)+10*time.Second, 6, 3, 1, 4),
		mk("VP1", T(3), 2, 4), mk("VP2", T(3)+10*time.Second, 6, 2, 4),
	)
	return us
}

func TestGenerateFromCorrelation(t *testing.T) {
	res := correlation.Run(fig10Updates(), correlation.DefaultConfig())
	s := Generate(res, nil, GranVPPrefix)
	// VP1 redundant → dropped; VP2 retained → kept.
	if s.Keep(u("VP1", p1, []uint32{2, 1, 4})) {
		t.Error("redundant VP1 updates must be dropped")
	}
	if !s.Keep(u("VP2", p1, []uint32{6, 2, 1, 4})) {
		t.Error("retained VP2 updates must be kept")
	}
	// Accept-everything default: unknown prefix passes even for VP1.
	if !s.Keep(u("VP1", p2, []uint32{2, 1, 4})) {
		t.Error("unknown prefix must pass")
	}
	// Anchor overrides.
	s2 := Generate(res, []string{"VP1"}, GranVPPrefix)
	if !s2.Keep(u("VP1", p1, []uint32{2, 1, 4})) {
		t.Error("anchor VP1 must bypass drop rules")
	}
}

func TestGranularityGeneralization(t *testing.T) {
	// Train filters on one window, test on a later window whose redundant
	// updates have *new* AS paths: the coarse filter keeps matching, the
	// asp-comm filter matches nothing (the §7 87%/43%/0% shape).
	res := correlation.Run(fig10Updates(), correlation.DefaultConfig())
	coarse := Generate(res, nil, GranVPPrefix)
	aspcomm := Generate(res, nil, GranVPPrefixPathComm)

	future := []*update.Update{
		u("VP1", p1, []uint32{2, 9, 4}, 5), // new path, new comm
		u("VP1", p1, []uint32{2, 1, 8, 4}), // new path
		u("VP1", p1, []uint32{2, 4}),       // previously seen path
	}
	cf := coarse.MatchFraction(future)
	af := aspcomm.MatchFraction(future)
	if cf != 1.0 {
		t.Errorf("coarse match fraction = %v, want 1.0", cf)
	}
	if af >= cf {
		t.Errorf("asp-comm fraction %v should be below coarse %v", af, cf)
	}
}

func TestApply(t *testing.T) {
	s := NewSet(GranVPPrefix)
	s.AddDropVPPrefix("vpA", p1)
	in := []*update.Update{
		u("vpA", p1, []uint32{1}),
		u("vpB", p1, []uint32{1}),
		u("vpA", p2, []uint32{1}),
	}
	out := s.Apply(in)
	if len(out) != 2 {
		t.Fatalf("Apply kept %d, want 2", len(out))
	}
}

// TestMarshalRoundTrip: at every granularity, Unmarshal(Marshal(s))
// behaves as s and marshals back to the same bytes (the fleet's filter
// digest is taken over those bytes).
func TestMarshalRoundTrip(t *testing.T) {
	res := correlation.Run(fig10Updates(), correlation.DefaultConfig())
	for _, g := range []Granularity{GranVPPrefix, GranVPPrefixPath, GranVPPrefixPathComm} {
		t.Run(g.String(), func(t *testing.T) {
			s := Generate(res, []string{"VP2"}, g)
			if s.NumDrops() == 0 {
				t.Fatal("no drop rules generated; the round trip checks nothing")
			}
			var buf bytes.Buffer
			if err := s.Marshal(&buf); err != nil {
				t.Fatalf("Marshal: %v", err)
			}
			raw := append([]byte(nil), buf.Bytes()...)
			got, err := Unmarshal(&buf)
			if err != nil {
				t.Fatalf("Unmarshal: %v", err)
			}
			if got.Granularity != s.Granularity || got.NumDrops() != s.NumDrops() {
				t.Errorf("round trip mismatch: %d drops vs %d", got.NumDrops(), s.NumDrops())
			}
			if !slices.Contains(got.Anchors(), "VP2") {
				t.Error("anchor lost in round trip")
			}
			// Behavioral equivalence.
			for _, x := range fig10Updates() {
				if got.Keep(x) != s.Keep(x) {
					t.Fatalf("behavior differs after round trip for %+v", x)
				}
			}
			var again bytes.Buffer
			if err := got.Marshal(&again); err != nil {
				t.Fatalf("Marshal: %v", err)
			}
			if !bytes.Equal(again.Bytes(), raw) {
				t.Errorf("re-marshaled bytes differ:\n%s\nvs\n%s", again.Bytes(), raw)
			}
		})
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if _, err := Unmarshal(bytes.NewReader([]byte("nonsense line\n"))); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := Unmarshal(bytes.NewReader([]byte("granularity x\n"))); err == nil {
		t.Error("bad granularity accepted")
	}
}
