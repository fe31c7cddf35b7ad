package sampling

import (
	"repro/internal/update"
)

// DefSpecific is a redundancy-definition-based specific sampler (§5
// ingredient #1 discussion, benchmarked in §10): it greedily selects the
// VP that minimizes the proportion of redundant updates in the growing
// sample, under the given redundancy definition.
type DefSpecific struct {
	Def update.Definition
}

// Name implements Sampler.
func (s DefSpecific) Name() string {
	switch s.Def {
	case update.Def1:
		return "def1-specific"
	case update.Def2:
		return "def2-specific"
	default:
		return "def3-specific"
	}
}

// defSpecificEvalCap bounds the updates fed to each greedy redundancy
// evaluation: beyond a few thousand, the fraction estimate is stable and
// the exact computation would make the scheme quadratic in stream size.
const defSpecificEvalCap = 4000

// Sample implements Sampler.
func (s DefSpecific) Sample(us []*update.Update, budget int) []*update.Update {
	groups, vps := byVP(us)
	var selected []*update.Update
	var order []string
	chosen := make(map[string]bool)
	capped := func(cand []*update.Update) []*update.Update {
		if len(cand) <= defSpecificEvalCap {
			return cand
		}
		// Deterministic systematic sample preserving time structure.
		out := make([]*update.Update, 0, defSpecificEvalCap)
		step := float64(len(cand)) / float64(defSpecificEvalCap)
		for i := 0; i < defSpecificEvalCap; i++ {
			out = append(out, cand[int(float64(i)*step)])
		}
		return out
	}
	for len(selected) < budget && len(order) < len(vps) {
		best, bestFrac := "", 2.0
		for _, vp := range vps {
			if chosen[vp] {
				continue
			}
			cand := append(append([]*update.Update(nil), selected...), groups[vp]...)
			frac := update.RedundantFraction(s.Def, capped(cand))
			if frac < bestFrac || (frac == bestFrac && vp < best) {
				bestFrac, best = frac, vp
			}
		}
		if best == "" {
			break
		}
		chosen[best] = true
		order = append(order, best)
		selected = append(selected, groups[best]...)
	}
	return trim(selected, budget)
}

// ObjectiveSpecific is a use-case-based specific sampler (§10): it
// greedily selects the VP that best improves the trade-off between the
// objective's score and the volume of data processed. Score counts the
// use-case events recoverable from a sample (e.g. AS links discovered).
type ObjectiveSpecific struct {
	Objective string
	Score     func(sample []*update.Update) int
}

// Name implements Sampler.
func (s ObjectiveSpecific) Name() string { return "specific-" + s.Objective }

// Sample implements Sampler.
func (s ObjectiveSpecific) Sample(us []*update.Update, budget int) []*update.Update {
	groups, vps := byVP(us)
	var selected []*update.Update
	chosen := make(map[string]bool)
	curScore := 0
	for len(selected) < budget && len(chosen) < len(vps) {
		best, bestGain := "", -1
		bestScore := curScore
		for _, vp := range vps {
			if chosen[vp] {
				continue
			}
			cand := append(append([]*update.Update(nil), selected...), groups[vp]...)
			sc := s.Score(cand)
			gain := sc - curScore
			// Maximal objective gain; ties prefer the smaller feed (less
			// volume for the same information).
			if gain > bestGain ||
				(gain == bestGain && best != "" && len(groups[vp]) < len(groups[best])) {
				bestGain, best, bestScore = gain, vp, sc
			}
		}
		if best == "" {
			break
		}
		chosen[best] = true
		selected = append(selected, groups[best]...)
		curScore = bestScore
	}
	return trim(selected, budget)
}

// Filtered samples through a GILL filter set: it retains exactly the
// updates the filters keep. It implements GILL (filters from components
// #1+#2), GILL-upd (component #1 only), and GILL-vp (anchors only),
// depending on how the filter set was generated.
type Filtered struct {
	Label string
	Keep  func(u *update.Update) bool
}

// Name implements Sampler.
func (s Filtered) Name() string { return s.Label }

// Sample implements Sampler.
func (s Filtered) Sample(us []*update.Update, budget int) []*update.Update {
	var out []*update.Update
	for _, u := range us {
		if s.Keep(u) {
			out = append(out, u)
		}
	}
	return trim(out, budget)
}

// AnchorsOnly builds the GILL-vp sampler: all updates from the given VPs.
func AnchorsOnly(anchors []string) Filtered {
	set := make(map[string]bool, len(anchors))
	for _, vp := range anchors {
		set[vp] = true
	}
	return Filtered{Label: "gill-vp", Keep: func(u *update.Update) bool { return set[u.VP] }}
}
