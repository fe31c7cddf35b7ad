package quality

// Drift detection: are the filters still describing the traffic they were
// trained on? The recompute engine fingerprints training updates with
// FNV-64a attribute digests (internal/correlation/digest.go); the shadow
// lane sees live updates for a stable subset of slots. Scoring the live
// fingerprints against the training baseline gives an attribute-novelty
// rate: the fraction of live shadow updates whose (VP, path, communities)
// combination the training window never observed for that prefix. "Most
// Valuable Points" (Alfroy et al.) shows VP value shifts over time — a
// rising novelty rate is exactly that shift, visible long before the next
// scheduled refresh, and past a threshold the plane raises an
// early-recompute signal.

import (
	"net/netip"

	"repro/internal/correlation"
	"repro/internal/update"
)

// DriftReport is one drift-scoring pass over the shadow buffer.
type DriftReport struct {
	// Score is the overall attribute-novelty rate in [0,1]: the fraction
	// of scored live updates whose attribute fingerprint is absent from
	// the baseline for their prefix.
	Score float64 `json:"score"`
	// PerBucket is the novelty rate per prefix hash bucket — coarse
	// localization: one hot bucket is a few prefixes churning, a uniform
	// rise is a systemic shift.
	PerBucket []float64 `json:"per_bucket"`
	// NovelUpdates / TotalUpdates are the score's numerator and
	// denominator (updates of baseline-known prefixes only).
	NovelUpdates int `json:"novel_updates"`
	TotalUpdates int `json:"total_updates"`
	// ChangedPrefixes counts baseline-known prefixes with ≥1 novel
	// update; ComparedPrefixes all baseline-known prefixes scored;
	// NewPrefixes live prefixes absent from the baseline entirely (not
	// in the score — a new prefix is not filter drift, the filters keep
	// everything for it).
	ChangedPrefixes  int `json:"changed_prefixes"`
	ComparedPrefixes int `json:"compared_prefixes"`
	NewPrefixes      int `json:"new_prefixes"`
	// Baseline says what the score was computed against: "training"
	// (digests from the orchestrator's last recompute), "self" (the
	// plane's own first observation window — a relative baseline used
	// when no training digests were provided), or "none" (nothing to
	// score against yet).
	Baseline string `json:"baseline"`
	// Crossed reports whether this pass crossed the drift threshold.
	Crossed bool `json:"crossed"`
}

// scoreDrift scores the live shadow observations in obs against the
// baseline. Buckets is the PerBucket fan-out; minUpdates the floor under
// which Crossed is never raised (a three-update sample crossing 35% is
// noise, not drift).
func scoreDrift(obs []shadowObs, b correlation.Baseline, kind string, threshold float64, buckets, minUpdates int) DriftReport {
	r := DriftReport{Baseline: kind, PerBucket: make([]float64, buckets)}
	if kind == "none" || len(obs) == 0 {
		return r
	}
	novelByBucket := make([]int, buckets)
	totalByBucket := make([]int, buckets)
	type pstat struct {
		known bool
		novel int
	}
	prefixes := make(map[netip.Prefix]*pstat)
	for _, o := range obs {
		ps := prefixes[o.u.Prefix]
		if ps == nil {
			_, known := b[o.u.Prefix]
			ps = &pstat{known: known}
			prefixes[o.u.Prefix] = ps
		}
		if !ps.known {
			continue
		}
		seen, _ := b.Contains(o.u)
		bk := prefixBucket(o.u.Prefix, buckets)
		totalByBucket[bk]++
		r.TotalUpdates++
		if !seen {
			novelByBucket[bk]++
			r.NovelUpdates++
			ps.novel++
		}
	}
	for _, ps := range prefixes {
		if !ps.known {
			r.NewPrefixes++
			continue
		}
		r.ComparedPrefixes++
		if ps.novel > 0 {
			r.ChangedPrefixes++
		}
	}
	if r.TotalUpdates > 0 {
		r.Score = float64(r.NovelUpdates) / float64(r.TotalUpdates)
	}
	for i := range r.PerBucket {
		if totalByBucket[i] > 0 {
			r.PerBucket[i] = float64(novelByBucket[i]) / float64(totalByBucket[i])
		}
	}
	r.Crossed = r.Score >= threshold && r.TotalUpdates >= minUpdates
	return r
}

// prefixBucket assigns a prefix to one of n stable hash buckets.
func prefixBucket(p netip.Prefix, n int) int {
	if n <= 1 {
		return 0
	}
	a := p.Addr().As16()
	h := fnvBytes(fnvOffset64, a[:])
	h = fnvBytes(h, []byte{byte(p.Bits())})
	return int(h % uint64(n))
}

// selfBaseline builds a relative baseline from the plane's own shadow
// observations: drift will then be scored against "what this daemon saw
// when its quality plane came up" rather than training time. Weaker than
// training digests, but it lets a daemon run the drift detector without
// any orchestrator handoff.
func selfBaseline(obs []shadowObs) correlation.Baseline {
	us := make([]*update.Update, len(obs))
	for i, o := range obs {
		us[i] = o.u
	}
	return correlation.NewBaseline(us)
}
