package vitals

import (
	"sort"
	"sync"
	"time"

	"repro/internal/archive"
	"repro/internal/metrics"
	"repro/internal/mrt"
)

// GapAuditor reconstructs per-VP archive coverage from the WAL segments.
// Records for a VP whose timestamps sit within MaxGap of each other
// extend the VP's covered range; a larger jump is a Gap — a time window
// in which the archive holds nothing from that VP even though it was
// peered. The daemon feeds the auditor online, segment by segment as the
// WAL seals them; gill-query -gaps replays a whole journal directory
// offline. Both paths go through ObserveView and SegmentDone, so online
// and offline reports agree exactly (MRT timestamps are second-resolution,
// which is what makes "exactly" testable against an injected outage
// window).
type GapAuditor struct {
	maxGap time.Duration
	gapSec *metrics.Counter

	mu       sync.Mutex
	vps      map[string]*vpCoverage
	segments int
	sealed   int
	torn     int
	records  uint64
}

type vpCoverage struct {
	first   time.Time
	last    time.Time
	covered time.Duration
	records uint64
	gaps    []Gap
}

// Gap is one per-VP archive hole.
type Gap struct {
	From    time.Time `json:"from"`
	To      time.Time `json:"to"`
	Seconds float64   `json:"seconds"`
}

// VPCoverage is one VP's archive-coverage summary.
type VPCoverage struct {
	VP    string    `json:"vp"`
	First time.Time `json:"first"`
	Last  time.Time `json:"last"`
	// CoveragePct is the covered share of [First,Last], in percent.
	CoveragePct float64 `json:"coverage_pct"`
	GapSeconds  float64 `json:"gap_seconds"`
	Gaps        []Gap   `json:"gaps,omitempty"`
	Records     uint64  `json:"records"`
}

// GapReport is the auditor's full output.
type GapReport struct {
	MaxGapMS        int64        `json:"max_gap_ms"`
	Segments        int          `json:"segments"`
	Sealed          int          `json:"sealed"`
	Torn            int          `json:"torn"`
	Records         uint64       `json:"records"`
	GapSecondsTotal float64      `json:"gap_seconds_total"`
	VPs             []VPCoverage `json:"vps"`
}

// NewGapAuditor builds an auditor. maxGap is the largest inter-record
// spacing still counted as continuous coverage (default 5m — below
// BGP's own keepalive-scale quiet periods would flag healthy idle VPs).
// The registry receives vitals.gap_seconds_total in whole seconds; nil
// uses a private registry.
func NewGapAuditor(maxGap time.Duration, reg *metrics.Registry) *GapAuditor {
	if maxGap <= 0 {
		maxGap = 5 * time.Minute
	}
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	return &GapAuditor{
		maxGap: maxGap,
		gapSec: reg.Counter("vitals.gap_seconds_total"),
		vps:    make(map[string]*vpCoverage),
	}
}

// Observe folds one (vp, timestamp) sample. Timestamps at or before the
// VP's newest seen are ignored — segments are replayed oldest-first and
// coverage never rewinds.
func (g *GapAuditor) Observe(vp string, ts time.Time) {
	if ts.IsZero() {
		return
	}
	g.mu.Lock()
	g.observeLocked(vp, ts)
	g.mu.Unlock()
}

func (g *GapAuditor) observeLocked(vp string, ts time.Time) {
	g.records++
	c := g.vps[vp]
	if c == nil {
		g.vps[vp] = &vpCoverage{first: ts, last: ts, records: 1}
		return
	}
	c.records++
	delta := ts.Sub(c.last)
	if delta <= 0 {
		return
	}
	if delta <= g.maxGap {
		c.covered += delta
	} else {
		c.gaps = append(c.gaps, Gap{From: c.last, To: ts, Seconds: delta.Seconds()})
		g.gapSec.Add(uint64(delta / time.Second))
	}
	c.last = ts
}

// ObserveView attributes one archived BGP4MP record to its VP. It is the
// per-record half of a segment scan: the daemon's segment follower hands
// it to the index's pass over a sealed segment, ScanSegment runs a pass of
// its own. Other record types never reach a view.
func (g *GapAuditor) ObserveView(v *mrt.UpdateView) {
	g.Observe(v.VP(), v.Time)
}

// SegmentDone is the per-segment half: it counts one scanned segment. A
// segment without a seal record counts as torn — its tail may have lost
// records to a crash, which the coverage math then reports as a gap if
// the loss exceeds maxGap.
func (g *GapAuditor) SegmentDone(sealed bool) {
	g.mu.Lock()
	g.segments++
	if sealed {
		g.sealed++
	} else {
		g.torn++
	}
	g.mu.Unlock()
}

// ScanSegment folds one WAL segment into the coverage state.
func (g *GapAuditor) ScanSegment(path string) error {
	var view mrt.UpdateView
	_, sealed, err := archive.ScanUpdates(path, &view, func(v *mrt.UpdateView) error {
		g.ObserveView(v)
		return nil
	})
	g.SegmentDone(sealed)
	return err
}

// AuditDir replays every segment in a journal directory, oldest first.
func (g *GapAuditor) AuditDir(dir string) error {
	segs, err := archive.ListSegments(dir)
	if err != nil {
		return err
	}
	sort.Strings(segs)
	for _, s := range segs {
		if err := g.ScanSegment(s); err != nil {
			return err
		}
	}
	return nil
}

// Report snapshots the coverage state.
func (g *GapAuditor) Report() GapReport {
	g.mu.Lock()
	defer g.mu.Unlock()
	rep := GapReport{
		MaxGapMS: g.maxGap.Milliseconds(),
		Segments: g.segments,
		Sealed:   g.sealed,
		Torn:     g.torn,
		Records:  g.records,
	}
	for vp, c := range g.vps {
		span := c.last.Sub(c.first)
		cov := VPCoverage{VP: vp, First: c.first, Last: c.last, CoveragePct: 100, Records: c.records}
		for _, gap := range c.gaps {
			cov.GapSeconds += gap.Seconds
		}
		cov.Gaps = append([]Gap(nil), c.gaps...)
		if span > 0 {
			cov.CoveragePct = 100 * float64(c.covered) / float64(span)
		}
		rep.GapSecondsTotal += cov.GapSeconds
		rep.VPs = append(rep.VPs, cov)
	}
	sort.Slice(rep.VPs, func(i, j int) bool { return rep.VPs[i].VP < rep.VPs[j].VP })
	return rep
}
