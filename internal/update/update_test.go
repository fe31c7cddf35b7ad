package update

import (
	"math/rand"
	"net/netip"
	"testing"
	"testing/quick"
	"time"
)

var (
	p1 = netip.MustParsePrefix("10.1.0.0/16")
	p2 = netip.MustParsePrefix("10.2.0.0/16")
	t0 = time.Date(2023, 9, 1, 0, 0, 0, 0, time.UTC)
)

func mk(vp string, at time.Duration, p netip.Prefix, path []uint32, comms ...uint32) *Update {
	return &Update{VP: vp, Time: t0.Add(at), Prefix: p, Path: path, Comms: comms}
}

func TestPathLinks(t *testing.T) {
	links := PathLinks([]uint32{6, 2, 1, 4})
	want := []Link{{6, 2}, {2, 1}, {1, 4}}
	if len(links) != len(want) {
		t.Fatalf("links = %v", links)
	}
	for i := range want {
		if links[i] != want[i] {
			t.Errorf("link[%d] = %v, want %v", i, links[i], want[i])
		}
	}
}

func TestPathLinksSkipsPrepending(t *testing.T) {
	links := PathLinks([]uint32{6, 6, 6, 2, 2, 1})
	want := []Link{{6, 2}, {2, 1}}
	if len(links) != 2 || links[0] != want[0] || links[1] != want[1] {
		t.Errorf("links = %v, want %v", links, want)
	}
}

func TestOrigin(t *testing.T) {
	u := mk("vp1", 0, p1, []uint32{6, 2, 1, 4})
	if u.Origin() != 4 {
		t.Errorf("Origin = %d, want 4", u.Origin())
	}
	if (&Update{}).Origin() != 0 {
		t.Error("empty path origin != 0")
	}
}

func TestAttrKeyStability(t *testing.T) {
	a := mk("vp1", 0, p1, []uint32{1, 2}, 10, 20)
	b := mk("vp1", time.Hour, p2, []uint32{1, 2}, 20, 10)
	if a.AttrKey() != b.AttrKey() {
		t.Error("AttrKey should ignore prefix/time and community order")
	}
	c := mk("vp2", 0, p1, []uint32{1, 2}, 10, 20)
	if a.AttrKey() == c.AttrKey() {
		t.Error("AttrKey must distinguish VPs")
	}
	d := mk("vp1", 0, p1, []uint32{2, 1}, 10, 20)
	if a.AttrKey() == d.AttrKey() {
		t.Error("AttrKey must distinguish path order")
	}
}

func TestAnnotate(t *testing.T) {
	u1 := mk("vp1", 0, p1, []uint32{6, 2, 4}, 100)
	u2 := mk("vp1", 50*time.Second, p1, []uint32{6, 2, 1, 4}, 200)
	us := []*Update{u2, u1} // out of order on purpose
	Annotate(us)
	// After sorting, u1 first (no previous), then u2 withdraws link 2-4.
	if len(u1.WdLinks) != 0 {
		t.Errorf("u1.WdLinks = %v, want empty", u1.WdLinks)
	}
	if len(u2.WdLinks) != 1 || u2.WdLinks[0] != (Link{2, 4}) {
		t.Errorf("u2.WdLinks = %v, want [2-4]", u2.WdLinks)
	}
	if len(u2.WdComms) != 1 || u2.WdComms[0] != 100 {
		t.Errorf("u2.WdComms = %v, want [100]", u2.WdComms)
	}
}

func TestAnnotateSeparatesVPsAndPrefixes(t *testing.T) {
	a := mk("vp1", 0, p1, []uint32{1, 2})
	b := mk("vp2", 10*time.Second, p1, []uint32{3, 4})
	c := mk("vp1", 20*time.Second, p2, []uint32{5, 6})
	Annotate([]*Update{a, b, c})
	for _, u := range []*Update{a, b, c} {
		if len(u.WdLinks) != 0 {
			t.Errorf("%s got WdLinks %v from unrelated history", u.VP, u.WdLinks)
		}
	}
}

func TestCondition1(t *testing.T) {
	a := mk("vp1", 0, p1, nil)
	b := mk("vp2", 99*time.Second, p1, nil)
	c := mk("vp2", 101*time.Second, p1, nil)
	d := mk("vp2", 0, p2, nil)
	if !Condition1(a, b) {
		t.Error("within slack, same prefix should satisfy cond 1")
	}
	if Condition1(a, c) {
		t.Error("outside slack should fail cond 1")
	}
	if Condition1(a, d) {
		t.Error("different prefix should fail cond 1")
	}
	if !Condition1(b, a) {
		t.Error("cond 1 must be symmetric in time")
	}
}

func TestCondition2Asymmetry(t *testing.T) {
	// u1's links {2-4} ⊂ u2's links {6-2, 2-4} but not vice versa.
	u1 := mk("vp1", 0, p1, []uint32{2, 4})
	u2 := mk("vp2", 0, p1, []uint32{6, 2, 4})
	if !Condition2(u1, u2) {
		t.Error("subset direction should hold")
	}
	if Condition2(u2, u1) {
		t.Error("superset direction should fail")
	}
}

func TestCondition2RespectsWithdrawnLinks(t *testing.T) {
	u1 := mk("vp1", 0, p1, []uint32{2, 4})
	u2 := mk("vp2", 0, p1, []uint32{6, 2, 4})
	// Withdraw 2-4 from u2's effective set: now u1 ⊄ u2.
	u2.WdLinks = []Link{{2, 4}}
	if Condition2(u1, u2) {
		t.Error("withdrawn link must not count as covered")
	}
	// Withdrawing 2-4 from u1 as well makes u1's effective set empty ⊆ anything.
	u1.WdLinks = []Link{{2, 4}}
	if !Condition2(u1, u2) {
		t.Error("empty effective set is a subset of any set")
	}
}

func TestCondition3(t *testing.T) {
	u1 := mk("vp1", 0, p1, nil, 10)
	u2 := mk("vp2", 0, p1, nil, 10, 20)
	if !Condition3(u1, u2) || Condition3(u2, u1) {
		t.Error("community subset relation wrong")
	}
}

func TestDefinitionsGraduallyStricter(t *testing.T) {
	// Construct pairs satisfying def1 but not def2, def2 but not def3.
	base := mk("vp1", 0, p1, []uint32{1, 2}, 10)
	onlyTime := mk("vp2", 10*time.Second, p1, []uint32{9, 8}, 10)
	pathToo := mk("vp2", 10*time.Second, p1, []uint32{3, 1, 2}, 99)
	all := mk("vp2", 10*time.Second, p1, []uint32{3, 1, 2}, 10, 20)

	if !RedundantWith(Def1, base, onlyTime) {
		t.Error("def1 should hold on time+prefix alone")
	}
	if RedundantWith(Def2, base, onlyTime) {
		t.Error("def2 must require link subset")
	}
	if !RedundantWith(Def2, base, pathToo) {
		t.Error("def2 should hold when links are a subset")
	}
	if RedundantWith(Def3, base, pathToo) {
		t.Error("def3 must require community subset")
	}
	if !RedundantWith(Def3, base, all) {
		t.Error("def3 should hold when all conditions hold")
	}
}

func TestRedundantWithSelfIsFalse(t *testing.T) {
	u := mk("vp1", 0, p1, []uint32{1, 2})
	if RedundantWith(Def1, u, u) {
		t.Error("an update is not redundant with itself")
	}
}

func TestMarkRedundant(t *testing.T) {
	a := mk("vp1", 0, p1, []uint32{1, 2})
	b := mk("vp2", 30*time.Second, p1, []uint32{1, 2})
	c := mk("vp3", 10*time.Minute, p1, []uint32{1, 2}) // isolated in time
	d := mk("vp4", 0, p2, []uint32{1, 2})              // isolated by prefix
	marks := MarkRedundant(Def1, []*Update{a, b, c, d})
	want := []bool{true, true, false, false}
	for i, m := range marks {
		if m != want[i] {
			t.Errorf("marks[%d] = %v, want %v", i, m, want[i])
		}
	}
}

func TestRedundantFractionStricterDefsNeverHigher(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	var us []*Update
	paths := [][]uint32{{1, 2, 3}, {4, 2, 3}, {5, 3}, {6, 1, 2, 3}}
	for i := 0; i < 400; i++ {
		p := p1
		if r.Intn(2) == 0 {
			p = p2
		}
		u := mk("vp"+string(rune('a'+r.Intn(6))), time.Duration(r.Intn(3600))*time.Second,
			p, paths[r.Intn(len(paths))], uint32(r.Intn(3)*10))
		us = append(us, u)
	}
	Annotate(us)
	f1 := RedundantFraction(Def1, us)
	f2 := RedundantFraction(Def2, us)
	f3 := RedundantFraction(Def3, us)
	if f1 < f2 || f2 < f3 {
		t.Errorf("fractions not monotone: %v %v %v", f1, f2, f3)
	}
	if f1 == 0 {
		t.Error("expected some redundancy in dense stream")
	}
}

func TestRedundantVPs(t *testing.T) {
	// vp1 and vp2 see identical streams; vp3 sees a disjoint prefix.
	var us []*Update
	p3 := netip.MustParsePrefix("10.3.0.0/16")
	for i := 0; i < 20; i++ {
		at := time.Duration(i) * 5 * time.Minute
		us = append(us,
			mk("vp1", at, p1, []uint32{1, 2}),
			mk("vp2", at+10*time.Second, p1, []uint32{1, 2}),
			mk("vp3", at, p3, []uint32{9, 8}),
		)
	}
	red := RedundantVPs(Def1, us)
	if !red["vp1"] || !red["vp2"] {
		t.Errorf("vp1/vp2 should be redundant: %v", red)
	}
	if red["vp3"] {
		t.Error("vp3 has unique view, must not be redundant")
	}
}

func TestCondition2SubsetProperty(t *testing.T) {
	// Property: if path1's link set is a subset of path2's, cond2 holds
	// (absent withdrawals).
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(6)
		path2 := make([]uint32, n)
		for i := range path2 {
			path2[i] = uint32(r.Intn(50) + 1)
		}
		// path1 = suffix of path2 → links subset.
		start := r.Intn(n - 1)
		path1 := path2[start:]
		u1 := &Update{VP: "a", Time: t0, Prefix: p1, Path: path1}
		u2 := &Update{VP: "b", Time: t0, Prefix: p1, Path: path2}
		return Condition2(u1, u2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMarkRedundantMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	var us []*Update
	for i := 0; i < 60; i++ {
		p := p1
		if r.Intn(3) == 0 {
			p = p2
		}
		us = append(us, mk("vp"+string(rune('a'+r.Intn(4))),
			time.Duration(r.Intn(600))*time.Second, p,
			[][]uint32{{1, 2}, {3, 1, 2}, {4, 5}}[r.Intn(3)], uint32(r.Intn(2))))
	}
	Annotate(us)
	for _, def := range []Definition{Def1, Def2, Def3} {
		fast := MarkRedundant(def, us)
		for i, u := range us {
			slow := false
			for j, v := range us {
				if i != j && RedundantWith(def, u, v) {
					slow = true
					break
				}
			}
			if fast[i] != slow {
				t.Fatalf("def %d: update %d fast=%v slow=%v", def, i, fast[i], slow)
			}
		}
	}
}
