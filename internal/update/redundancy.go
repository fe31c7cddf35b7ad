package update

import (
	"net/netip"
	"sort"
)

// Definition selects one of the paper's three gradually stricter
// redundancy definitions (§4.2).
type Definition int

// Redundancy definitions.
const (
	// Def1 (prefix based): condition 1 only.
	Def1 Definition = 1
	// Def2 (prefix and AS-path based): conditions 1 and 2.
	Def2 Definition = 2
	// Def3 (prefix, AS-path and community based): conditions 1, 2 and 3.
	Def3 Definition = 3
)

// Condition1 reports whether |t1-t2| < Slack and p1 == p2.
func Condition1(u1, u2 *Update) bool {
	d := u1.Time.Sub(u2.Time)
	if d < 0 {
		d = -d
	}
	return d < Slack && u1.Prefix == u2.Prefix
}

// Condition2 reports whether L1\L1w ⊆ L2\L2w: the new links seen by u1 are
// contained in the new links seen by u2. The relation is asymmetric.
// The containment test walks the AS paths directly — link sets are path
// sized, so nested scans run allocation-free and faster than the maps
// they replaced on real-world path lengths.
func Condition2(u1, u2 *Update) bool {
	for i := 0; i+1 < len(u1.Path); i++ {
		if u1.Path[i] == u1.Path[i+1] {
			continue // prepending, not a link
		}
		l := Link{From: u1.Path[i], To: u1.Path[i+1]}
		if linksHas(u1.WdLinks, l) {
			continue // withdrawn, not effective in u1
		}
		if !pathHasLink(u2.Path, l) || linksHas(u2.WdLinks, l) {
			return false
		}
	}
	return true
}

// Condition3 reports whether C1\C1w ⊆ C2\C2w, the community analogue of
// Condition2.
func Condition3(u1, u2 *Update) bool {
	for _, c := range u1.Comms {
		if u32Has(u1.WdComms, c) {
			continue
		}
		if !u32Has(u2.Comms, c) || u32Has(u2.WdComms, c) {
			return false
		}
	}
	return true
}

// pathHasLink reports whether the directed link l appears in path.
func pathHasLink(path []uint32, l Link) bool {
	for i := 0; i+1 < len(path); i++ {
		if path[i] != path[i+1] && path[i] == l.From && path[i+1] == l.To {
			return true
		}
	}
	return false
}

// RedundantWith reports whether u1 is redundant with u2 under def. The
// relation is asymmetric for Def2 and Def3.
func RedundantWith(def Definition, u1, u2 *Update) bool {
	if u1 == u2 {
		return false
	}
	if !Condition1(u1, u2) {
		return false
	}
	if def >= Def2 && !Condition2(u1, u2) {
		return false
	}
	if def >= Def3 && !Condition3(u1, u2) {
		return false
	}
	return true
}

// MarkRedundant returns, for each update in us, whether it is redundant
// with at least one *other* update in us under def. The implementation
// groups by prefix and scans a sliding time window, so it is near-linear in
// practice.
func MarkRedundant(def Definition, us []*Update) []bool {
	idx := make(map[*Update]int, len(us))
	for i, u := range us {
		idx[u] = i
	}
	byPrefix := make(map[netip.Prefix][]*Update)
	for _, u := range us {
		byPrefix[u.Prefix] = append(byPrefix[u.Prefix], u)
	}
	out := make([]bool, len(us))
	for _, group := range byPrefix {
		sort.SliceStable(group, func(i, j int) bool { return group[i].Time.Before(group[j].Time) })
		for i, u := range group {
			if out[idx[u]] {
				continue
			}
			// Scan forward and backward within the slack window.
			if windowScan(def, u, group, i) {
				out[idx[u]] = true
			}
		}
	}
	return out
}

func windowScan(def Definition, u *Update, group []*Update, i int) bool {
	for j := i + 1; j < len(group); j++ {
		if group[j].Time.Sub(u.Time) >= Slack {
			break
		}
		if RedundantWith(def, u, group[j]) {
			return true
		}
	}
	for j := i - 1; j >= 0; j-- {
		if u.Time.Sub(group[j].Time) >= Slack {
			break
		}
		if RedundantWith(def, u, group[j]) {
			return true
		}
	}
	return false
}

// RedundantFraction returns the share of updates in us redundant with at
// least one other update under def (the §4.2 experiment: 97%/77%/70% for
// Defs 1/2/3 on RIS+RV data).
func RedundantFraction(def Definition, us []*Update) float64 {
	if len(us) == 0 {
		return 0
	}
	marks := MarkRedundant(def, us)
	n := 0
	for _, m := range marks {
		if m {
			n++
		}
	}
	return float64(n) / float64(len(us))
}

// VPRedundancyThreshold is the fraction of a VP's updates that must be
// redundant with another VP's updates for the VP itself to count as
// redundant (§4.2: ">90%").
const VPRedundancyThreshold = 0.9

// RedundantVPs returns the set of VPs that are redundant with at least one
// other VP in us under def: VP1 is redundant with VP2 if more than
// VPRedundancyThreshold of VP1's updates are redundant with at least one
// update from VP2.
func RedundantVPs(def Definition, us []*Update) map[string]bool {
	byVP := make(map[string][]*Update)
	for _, u := range us {
		byVP[u.VP] = append(byVP[u.VP], u)
	}
	vps := make([]string, 0, len(byVP))
	for vp := range byVP {
		vps = append(vps, vp)
	}
	sort.Strings(vps)

	// Pre-index every VP's updates by prefix, time-sorted, for window scans.
	type pkey struct {
		vp string
		p  netip.Prefix
	}
	byVPPrefix := make(map[pkey][]*Update)
	for _, u := range us {
		k := pkey{u.VP, u.Prefix}
		byVPPrefix[k] = append(byVPPrefix[k], u)
	}
	for _, g := range byVPPrefix {
		sort.SliceStable(g, func(i, j int) bool { return g[i].Time.Before(g[j].Time) })
	}

	redundantWithOther := func(v1, v2 string) bool {
		matched, total := 0, 0
		for _, u := range byVP[v1] {
			total++
			cand := byVPPrefix[pkey{v2, u.Prefix}]
			// Binary search the window start.
			lo := sort.Search(len(cand), func(i int) bool {
				return cand[i].Time.After(u.Time.Add(-Slack))
			})
			for j := lo; j < len(cand) && cand[j].Time.Sub(u.Time) < Slack; j++ {
				if RedundantWith(def, u, cand[j]) {
					matched++
					break
				}
			}
		}
		return total > 0 && float64(matched)/float64(total) > VPRedundancyThreshold
	}

	out := make(map[string]bool)
	for _, v1 := range vps {
		for _, v2 := range vps {
			if v1 == v2 {
				continue
			}
			if redundantWithOther(v1, v2) {
				out[v1] = true
				break
			}
		}
	}
	return out
}
