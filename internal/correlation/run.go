package correlation

import (
	"net/netip"
	"slices"
	"sort"
	"sync"

	"repro/internal/update"
)

// Result is the outcome of Component #1 over a training window: per
// prefix, the set of VPs whose updates are retained (nonredundant). An
// update is redundant iff its (VP, prefix) pair is not retained — exactly
// the granularity at which GILL's filters match (§7).
type Result struct {
	// Retained[prefix][vp] marks nonredundant (VP, prefix) pairs.
	Retained map[netip.Prefix]map[string]bool
	// PerPrefix keeps each prefix's analysis for diagnostics.
	PerPrefix map[netip.Prefix]*PrefixAnalysis
	// KeptBeforeCross and KeptAfterCross are |α|/|β| before and after the
	// cross-prefix step (§6: ≈0.16 → ≈0.07 on RIS/RV data).
	KeptBeforeCross float64
	KeptAfterCross  float64
}

// IsRedundant classifies one update against the result.
func (r *Result) IsRedundant(u *update.Update) bool {
	vps, ok := r.Retained[u.Prefix]
	if !ok {
		return false // never-seen prefix: accept-everything default
	}
	return !vps[u.VP]
}

// Run executes Component #1 (§17.1–§17.3) over a training set of updates.
//
// The per-prefix work (AnalyzePrefix + Greedy) is embarrassingly parallel
// and fans across cfg.Workers goroutines; each prefix's outcome lands in a
// slot indexed by the sorted prefix order, and everything order-sensitive —
// the kept-fraction accumulation and the cross-prefix collapse — runs as a
// sequential merge over those slots. The result is therefore identical at
// any worker count. With cfg.Cache set, prefixes whose training slice
// digest is unchanged since the last refresh skip straight to their cached
// analysis.
func Run(us []*update.Update, cfg Config) *Result {
	byPrefix := make(map[netip.Prefix][]*update.Update)
	for _, u := range us {
		byPrefix[u.Prefix] = append(byPrefix[u.Prefix], u)
	}
	prefixes := make([]netip.Prefix, 0, len(byPrefix))
	for p := range byPrefix {
		prefixes = append(prefixes, p)
	}
	slices.SortFunc(prefixes, update.ComparePrefix)

	if cfg.Cache != nil {
		cfg.Cache.reconcile(cfg)
	}
	type slot struct {
		pa       *PrefixAnalysis
		retained map[string]bool
	}
	slots := make([]slot, len(prefixes))
	analyze := func(i int) {
		p := prefixes[i]
		ups := byPrefix[p]
		if cfg.Cache != nil {
			d := trainingDigest(ups)
			if pa, retained, ok := cfg.Cache.lookup(p, d); ok {
				slots[i] = slot{pa, retained}
				return
			}
			pa := AnalyzePrefix(p, ups, cfg)
			retained, _ := pa.Greedy()
			cfg.Cache.store(p, d, pa, retained)
			slots[i] = slot{pa, retained}
			return
		}
		pa := AnalyzePrefix(p, ups, cfg)
		retained, _ := pa.Greedy()
		slots[i] = slot{pa, retained}
	}
	workers := cfg.Workers
	if workers > len(prefixes) {
		workers = len(prefixes)
	}
	if workers <= 1 {
		for i := range prefixes {
			analyze(i)
		}
	} else {
		idx := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					analyze(i)
				}
			}()
		}
		for i := range prefixes {
			idx <- i
		}
		close(idx)
		wg.Wait()
	}

	// Sequential merge, in sorted prefix order.
	res := &Result{
		Retained:  make(map[netip.Prefix]map[string]bool),
		PerPrefix: make(map[netip.Prefix]*PrefixAnalysis),
	}
	total, keptBefore := 0, 0
	for i, p := range prefixes {
		res.Retained[p] = slots[i].retained
		res.PerPrefix[p] = slots[i].pa
		total += len(byPrefix[p])
		for vp := range slots[i].retained {
			keptBefore += len(slots[i].pa.ByVP[vp])
		}
	}
	if total > 0 {
		res.KeptBeforeCross = float64(keptBefore) / float64(total)
	}

	crossPrefix(res, prefixes, cfg)

	keptAfter := 0
	for p, pa := range res.PerPrefix {
		for vp := range res.Retained[p] {
			keptAfter += len(pa.ByVP[vp])
		}
	}
	if total > 0 {
		res.KeptAfterCross = float64(keptAfter) / float64(total)
	}
	return res
}

// crossPrefix implements §17.3: per-prefix retained subsets are split by
// VP; subsets with identical attributes (prefix excluded, 100 s slack on
// timestamps) across different prefixes are collapsed, keeping only the
// first prefix's subset.
//
// Subsets bucket on an order-independent FNV digest of their attribute
// multiset; within a bucket, timestamps compare with pairwise slack, so
// two updates within the window always match regardless of where a
// window-boundary falls between them. Claims are visited in sorted
// (prefix, VP) insertion order, keeping the collapse deterministic.
func crossPrefix(res *Result, prefixes []netip.Prefix, cfg Config) {
	type claim struct {
		prefix netip.Prefix
		items  []subsetItem
	}
	seen := make(map[subsetDigest][]claim)
	for _, p := range prefixes {
		pa := res.PerPrefix[p]
		vps := make([]string, 0, len(res.Retained[p]))
		for vp := range res.Retained[p] {
			vps = append(vps, vp)
		}
		sort.Strings(vps)
		for _, vp := range vps {
			d, items := canonicalSubset(pa.ByVP[vp])
			matched := false
			for _, c := range seen[d] {
				if slackEqual(c.items, items, cfg.Window) {
					if c.prefix != p {
						// Same update sequence already retained for another
						// prefix: this one is redundant.
						delete(res.Retained[p], vp)
					}
					matched = true
					break
				}
			}
			if !matched {
				seen[d] = append(seen[d], claim{prefix: p, items: items})
			}
		}
	}
}
