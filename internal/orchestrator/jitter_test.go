package orchestrator

import (
	"testing"
	"time"

	"repro/internal/filter"
)

// TestRefreshJitterStaysWithinBounds pins the ±5% envelope: across many
// refresh generations, every jittered period lands strictly inside
// [0.95·P, 1.05·P], the schedule actually varies (jitter is not a no-op),
// and replaying the same history reproduces the exact sequence.
func TestRefreshJitterStaysWithinBounds(t *testing.T) {
	lo1 := time.Duration(float64(Component1Period) * (1 - RefreshJitter))
	hi1 := time.Duration(float64(Component1Period) * (1 + RefreshJitter))
	lo2 := time.Duration(float64(Component2Period) * (1 - RefreshJitter))
	hi2 := time.Duration(float64(Component2Period) * (1 + RefreshJitter))

	o := New(nil, nil)
	distinct := map[time.Duration]bool{}
	var seq []time.Duration
	for gen := 0; gen < 50; gen++ {
		p1, p2 := o.RefreshPeriods()
		if p1 < lo1 || p1 > hi1 {
			t.Fatalf("gen %d: component1 period %v outside [%v, %v]", gen, p1, lo1, hi1)
		}
		if p2 < lo2 || p2 > hi2 {
			t.Fatalf("gen %d: component2 period %v outside [%v, %v]", gen, p2, lo2, hi2)
		}
		if p1 == Component1Period && p2 == Component2Period {
			t.Fatalf("gen %d: both periods exactly nominal — jitter not applied", gen)
		}
		distinct[p1] = true
		seq = append(seq, p1, p2)
		o.LoadFilters(filter.NewSet(filter.GranVPPrefix), 1)
		o.LoadFilters(filter.NewSet(filter.GranVPPrefix), 2)
	}
	if len(distinct) < 2 {
		t.Fatalf("component1 period constant across %d generations", len(seq)/2)
	}

	// Same history → identical schedule.
	r := New(nil, nil)
	for i := 0; i < len(seq); i += 2 {
		p1, p2 := r.RefreshPeriods()
		if p1 != seq[i] || p2 != seq[i+1] {
			t.Fatalf("gen %d: replay diverged: (%v, %v) != (%v, %v)", i/2, p1, p2, seq[i], seq[i+1])
		}
		r.LoadFilters(filter.NewSet(filter.GranVPPrefix), 1)
		r.LoadFilters(filter.NewSet(filter.GranVPPrefix), 2)
	}
}

// TestDueHonorsJitteredPeriod checks Due flips exactly at the jittered
// boundary, not the nominal one.
func TestDueHonorsJitteredPeriod(t *testing.T) {
	now := time.Unix(1700000000, 0)
	o := New(nil, func() time.Time { return now })
	o.LoadFilters(filter.NewSet(filter.GranVPPrefix), 1)
	o.LoadFilters(filter.NewSet(filter.GranVPPrefix), 2)

	p1, _ := o.RefreshPeriods()
	if p1 == Component1Period {
		t.Fatalf("jittered period equals nominal: zero offset?")
	}

	now = now.Add(p1 - time.Second)
	if c1, _ := o.Due(); c1 {
		t.Fatalf("component1 due 1s before its jittered period %v", p1)
	}
	now = now.Add(2 * time.Second)
	if c1, _ := o.Due(); !c1 {
		t.Fatalf("component1 not due 1s past its jittered period %v", p1)
	}
}
