package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestMeanMedian(t *testing.T) {
	if Mean(nil) != 0 || Median(nil) != 0 {
		t.Error("empty inputs must give 0")
	}
	xs := []float64{1, 2, 3, 4, 100}
	if got := Mean(xs); got != 22 {
		t.Errorf("Mean = %v", got)
	}
	if got := Median(xs); got != 3 {
		t.Errorf("Median = %v", got)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{10, 20, 30, 40}
	if got := Percentile(xs, 0); got != 10 {
		t.Errorf("P0 = %v", got)
	}
	if got := Percentile(xs, 100); got != 40 {
		t.Errorf("P100 = %v", got)
	}
	if got := Percentile(xs, 50); got != 25 {
		t.Errorf("P50 = %v", got)
	}
	// Percentile must not mutate the input.
	ys := []float64{3, 1, 2}
	Percentile(ys, 50)
	if ys[0] != 3 {
		t.Error("Percentile mutated input")
	}
}

func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, a, b float64) bool {
		if len(raw) == 0 {
			return true
		}
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return true
			}
		}
		pa, pb := math.Abs(math.Mod(a, 100)), math.Abs(math.Mod(b, 100))
		if pa > pb {
			pa, pb = pb, pa
		}
		return Percentile(raw, pa) <= Percentile(raw, pb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestConfusion(t *testing.T) {
	c := Confusion{TP: 8, FN: 2, FP: 1, TN: 9}
	if c.TPR() != 0.8 {
		t.Errorf("TPR = %v", c.TPR())
	}
	if c.FPR() != 0.1 {
		t.Errorf("FPR = %v", c.FPR())
	}
	var zero Confusion
	if zero.TPR() != 0 || zero.FPR() != 0 {
		t.Error("zero confusion rates must be 0")
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{Header: []string{"name", "value"}}
	tb.Add("alpha", 1)
	tb.Add("b", 12.25)
	s := tb.String()
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 4 {
		t.Fatalf("table lines = %d:\n%s", len(lines), s)
	}
	if !strings.Contains(lines[0], "name") || !strings.Contains(lines[2], "alpha") {
		t.Errorf("table content wrong:\n%s", s)
	}
	if !strings.Contains(lines[3], "12.2") {
		t.Errorf("float formatting wrong:\n%s", s)
	}
}

func TestPctFormats(t *testing.T) {
	if Pct(0.5) != "50%" {
		t.Errorf("Pct = %q", Pct(0.5))
	}
	if Pct1(0.123) != "12.3%" {
		t.Errorf("Pct1 = %q", Pct1(0.123))
	}
}
