package quality

import (
	"fmt"
	"net/netip"
	"testing"
	"time"

	"repro/internal/update"
)

func mkPrefix(i int) netip.Prefix {
	return netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), 0}), 24)
}

func mkUpdate(vp string, p netip.Prefix, path []uint32, at time.Time) *update.Update {
	return &update.Update{VP: vp, Prefix: p, Path: path, Time: at}
}

func TestParseFraction(t *testing.T) {
	cases := []struct {
		in    string
		want  uint64
		isErr bool
	}{
		{"1/64", 64, false},
		{"64", 64, false},
		{" 1/8 ", 8, false},
		{"all", 1, false},
		{"1", 1, false},
		{"1/1", 1, false},
		{"off", 0, false},
		{"0", 0, false},
		{"", 0, false},
		{"none", 0, false},
		{"OFF", 0, false},
		{"1/0", 0, true},
		{"banana", 0, true},
		{"-4", 0, true},
		{"1/-4", 0, true},
	}
	for _, tc := range cases {
		got, err := ParseFraction(tc.in)
		if tc.isErr {
			if err == nil {
				t.Errorf("ParseFraction(%q): want error, got %d", tc.in, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseFraction(%q): %v", tc.in, err)
			continue
		}
		if got != tc.want {
			t.Errorf("ParseFraction(%q) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestSelectorString(t *testing.T) {
	for _, tc := range []struct {
		denom uint64
		want  string
	}{{0, "off"}, {1, "all"}, {64, "1/64"}} {
		if got := (Selector{Denom: tc.denom}).String(); got != tc.want {
			t.Errorf("Denom %d String = %q, want %q", tc.denom, got, tc.want)
		}
	}
}

// TestSelectorDeterministic pins the shadow lane's core property: the
// selection is a pure function of (seed, VP, prefix) — identical across
// calls, selector copies ("restarts"), and unrelated to iteration order.
func TestSelectorDeterministic(t *testing.T) {
	s1 := Selector{Seed: 7, Denom: 16}
	s2 := Selector{Seed: 7, Denom: 16} // a fresh process with the same config
	diff := Selector{Seed: 8, Denom: 16}
	selected := 0
	differs := false
	for vp := 0; vp < 8; vp++ {
		for pi := 0; pi < 512; pi++ {
			v, p := fmt.Sprintf("vp%d", vp), mkPrefix(pi)
			a, b := s1.Selected(v, p), s2.Selected(v, p)
			if a != b {
				t.Fatalf("selection not deterministic for (%s,%s)", v, p)
			}
			if a {
				selected++
			}
			if a != diff.Selected(v, p) {
				differs = true
			}
		}
	}
	total := 8 * 512
	// Expected fraction 1/16 = 256 of 4096; allow wide slop, the hash is
	// not a perfect uniform sampler over tiny keyspaces.
	if selected < total/32 || selected > total/8 {
		t.Errorf("selected %d of %d slots at 1/16: outside [1/32, 1/8] sanity band", selected, total)
	}
	if !differs {
		t.Error("seed change never changed the selection — seed not folded into the hash")
	}
	if (Selector{Denom: 0}).Selected("vp1", mkPrefix(1)) {
		t.Error("Denom 0 must select nothing")
	}
	if !(Selector{Denom: 1}).Selected("vp1", mkPrefix(1)) {
		t.Error("Denom 1 must select everything")
	}
}

// TestSelectorSlotCoherence: every update of a selected (VP,prefix) slot
// is selected — selection never splits a slot.
func TestSelectorSlotCoherence(t *testing.T) {
	s := Selector{Seed: 3, Denom: 8}
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	for pi := 0; pi < 64; pi++ {
		p := mkPrefix(pi)
		want := s.Selected("vp1", p)
		for i := 0; i < 4; i++ {
			u := mkUpdate("vp1", p, []uint32{1, uint32(100 + i)}, base.Add(time.Duration(i)*time.Second))
			if s.SelectUpdate(u) != want {
				t.Fatalf("slot (vp1,%s) split: update %d disagrees with slot verdict", p, i)
			}
		}
	}
}

func TestLedgerUnaccounted(t *testing.T) {
	balanced := LedgerCounts{In: 100, Archived: 40, Filtered: 30, Dropped: 15, Lost: 10, Queued: 5}
	if r := balanced.Unaccounted(); r != 0 {
		t.Errorf("balanced ledger residual = %d, want 0", r)
	}
	missing := LedgerCounts{In: 100, Archived: 90}
	if r := missing.Unaccounted(); r != 10 {
		t.Errorf("missing-updates residual = %d, want 10", r)
	}
	double := LedgerCounts{In: 100, Archived: 100, Filtered: 5}
	if r := double.Unaccounted(); r != -5 {
		t.Errorf("double-count residual = %d, want -5", r)
	}
	rep := missing.Report()
	if rep.Unaccounted != 10 || rep.In != 100 {
		t.Errorf("Report mismatch: %+v", rep)
	}
}
