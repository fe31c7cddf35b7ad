package gen

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/bgp"
	"repro/internal/update"
)

func TestSameSeedSameBytes(t *testing.T) {
	a, err := New(7, 3, 5000)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := New(7, 3, 5000)
	c, _ := New(8, 3, 5000)
	same := true
	for k := range a.Msgs {
		if !bytes.Equal(a.Msgs[k].Wire, b.Msgs[k].Wire) {
			t.Fatalf("message %d differs between two runs of seed 7", k)
		}
		same = same && bytes.Equal(a.Msgs[k].Wire, c.Msgs[k].Wire)
	}
	if same {
		t.Fatal("seeds 7 and 8 generated identical streams")
	}
}

func TestWireRoundTripAndTag(t *testing.T) {
	s, err := New(1, 2, 2000)
	if err != nil {
		t.Fatal(err)
	}
	withdrawals := 0
	for k, m := range s.Msgs {
		var u bgp.Update
		if err := bgp.UnmarshalUpdate(m.Wire, &u); err != nil {
			t.Fatalf("message %d: %v", k, err)
		}
		if m.Withdraw {
			withdrawals++
			if len(u.Withdrawn) != 1 || u.Withdrawn[0] != Prefix(m.Prefix) {
				t.Fatalf("message %d: withdrawn %v, want %v", k, u.Withdrawn, Prefix(m.Prefix))
			}
			continue
		}
		if len(u.NLRI) != 1 || u.NLRI[0] != Prefix(m.Prefix) {
			t.Fatalf("message %d: NLRI %v, want %v", k, u.NLRI, Prefix(m.Prefix))
		}
		a := u.NLRI[0].Addr().As4()
		if PrefixIndex(a[1], a[2]) != m.Prefix || !Within(m.Prefix%Groups).Contains(u.NLRI[0].Addr()) {
			t.Fatalf("message %d: prefix %v does not map back to index %d", k, u.NLRI[0], m.Prefix)
		}
		cs := u.Comms()
		if got := uint32(cs[len(cs)-1]); got != uint32(k) {
			t.Fatalf("message %d: tag %d", k, got)
		}
		SetTag(m.Wire, 0xfeedbeef)
		if err := bgp.UnmarshalUpdate(m.Wire, &u); err != nil {
			t.Fatal(err)
		}
		if cs = u.Comms(); uint32(cs[len(cs)-1]) != 0xfeedbeef {
			t.Fatalf("message %d: SetTag missed the tag: %v", k, cs)
		}
	}
	if withdrawals < 60 || withdrawals > 140 {
		t.Fatalf("%d withdrawals in 2000 messages, want about 5%%", withdrawals)
	}
}

func TestFiltersMatchKept(t *testing.T) {
	s, _ := New(3, 2, 1)
	fs := s.Filters()
	if got, want := fs.NumDrops(), 2*Prefixes*9/10; got != want {
		t.Fatalf("%d drop rules, want %d", got, want)
	}
	for vp := 0; vp < 2; vp++ {
		for p := 0; p < Prefixes; p += 7 {
			u := &update.Update{VP: VPName(vp), Prefix: Prefix(p)}
			if fs.Keep(u) != s.Kept(vp, p) {
				t.Fatalf("slot (%d,%d): filter keeps %v, Kept says %v", vp, p, fs.Keep(u), s.Kept(vp, p))
			}
		}
	}
}

// dispersion is the variance-to-mean ratio of per-100ms arrival counts.
func dispersion(at []time.Duration) float64 {
	bins := make([]float64, at[len(at)-1]/(100*time.Millisecond)+1)
	for _, t := range at {
		bins[t/(100*time.Millisecond)]++
	}
	var mean, vr float64
	for _, c := range bins {
		mean += c
	}
	mean /= float64(len(bins))
	for _, c := range bins {
		vr += (c - mean) * (c - mean)
	}
	return vr / float64(len(bins)) / mean
}

func TestSchedules(t *testing.T) {
	const n, rate = 200000, 10000.0
	steady, bursty := Poisson(5, n, rate), Bursty(5, n, rate)
	for name, at := range map[string][]time.Duration{"steady": steady, "burst": bursty} {
		if len(at) != n {
			t.Fatalf("%s: %d offsets, want %d", name, len(at), n)
		}
		for i := 1; i < n; i++ {
			if at[i] < at[i-1] {
				t.Fatalf("%s: offsets not sorted at %d", name, i)
			}
		}
		if got := float64(n) / at[n-1].Seconds(); got < rate*0.99 || got > rate*1.01 {
			t.Fatalf("%s: realised rate %.1f/s, want %.0f/s within 1%%", name, got, rate)
		}
	}
	ds, db := dispersion(steady), dispersion(bursty)
	if db < 10*ds {
		t.Fatalf("burst dispersion %.1f is under 10× steady's %.2f", db, ds)
	}
	if a, b := Bursty(5, n, rate), Bursty(6, n, rate); a[n/2] == bursty[n/2] && b[n/2] == bursty[n/2] {
		t.Fatal("seed does not change the burst schedule")
	}
}
