package simulate

import (
	"fmt"
	"net/netip"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/update"
)

// VPName renders the canonical vantage-point identifier for an AS.
func VPName(as uint32) string { return "vp" + strconv.FormatUint(uint64(as), 10) }

// VPAS parses a VPName back to its AS number, returning 0 on failure.
func VPAS(name string) uint32 {
	if !strings.HasPrefix(name, "vp") {
		return 0
	}
	v, err := strconv.ParseUint(name[2:], 10, 32)
	if err != nil {
		return 0
	}
	return uint32(v)
}

// EventKind enumerates the routing events the collector can replay.
type EventKind int

// Event kinds.
const (
	LinkFail EventKind = iota
	LinkRestore
	HijackStart
	HijackEnd
	OriginChange
	OriginRestore
	ActionCommunity
	CommunityChange
)

// Event is one routing event applied to the simulated Internet.
type Event struct {
	At   time.Time
	Kind EventKind

	// A, B are the endpoints for LinkFail / LinkRestore.
	A, B uint32
	// Prefix targets prefix-scoped events (hijack, origin change,
	// community events; empty prefix on community events means all
	// prefixes crossing AS).
	Prefix netip.Prefix
	// Attacker and Tail describe a forged-origin hijack: the attacker
	// announces [Attacker, Tail...]; len(Tail) is the hijack Type.
	Attacker uint32
	Tail     []uint32
	// NewOrigin re-homes Prefix for OriginChange.
	NewOrigin uint32
	// AS is the acting AS for community events.
	AS uint32
}

// CollectorConfig tunes update-stream synthesis.
type CollectorConfig struct {
	// PathExploration emits a short-lived transient path before the final
	// update on link failures for a share of (VP, destination) pairs,
	// reproducing BGP path exploration [39] (use case I). Value in [0,1].
	PathExploration float64
	// PerHopDelay is the simulated per-AS-hop propagation delay.
	PerHopDelay time.Duration
	// JitterMax bounds the deterministic per-update jitter.
	JitterMax time.Duration
}

// DefaultCollectorConfig returns delays producing convergence inside the
// paper's 100 s correlation window.
func DefaultCollectorConfig() CollectorConfig {
	return CollectorConfig{
		PathExploration: 0.25,
		PerHopDelay:     2 * time.Second,
		JitterMax:       15 * time.Second,
	}
}

// Collector materializes the view of a set of vantage points over the
// simulated Internet: it tracks each VP's best path for every prefix and
// converts routing events into the BGP update streams the VPs would
// export. Intended for topologies up to a few thousand ASes (it holds
// per-destination routing trees for failure impact analysis).
type Collector struct {
	sim *Sim
	cfg CollectorConfig
	vps []uint32 // sorted VP ASes

	// paths[prefix][vpAS] is the VP's current AS path.
	paths map[netip.Prefix]map[uint32][]uint32
	// destEdges[originAS] is the destination's current routing-tree edges;
	// edgeDests is the inverted index.
	destEdges map[uint32]map[[2]uint32]bool
	edgeDests map[[2]uint32]map[uint32]bool

	// prefixesByOrigin groups prefixes by their owning AS.
	prefixesByOrigin map[uint32][]netip.Prefix

	// actionOverlay holds active action communities per (AS, prefix).
	actionOverlay map[string]uint32
	// commEpoch counts community-change events per AS.
	commEpoch map[uint32]uint32

	// lastOldPaths records, for the most recent Apply, the pre-event path
	// of every (VP, prefix) whose route changed — the ground truth failure
	// localization consumes.
	lastOldPaths map[string]map[netip.Prefix][]uint32

	// pendingRestore remembers, per failed link, the destinations whose
	// trees used it at failure time: restoring the link affects exactly
	// those (single-failure semantics; overlapping failures fall back to
	// the union with current users).
	pendingRestore map[[2]uint32]map[uint32]bool

	seq uint64
}

// LastOldPaths returns the pre-event paths of the routes changed by the
// most recent Apply, keyed by VP name then prefix.
func (c *Collector) LastOldPaths() map[string]map[netip.Prefix][]uint32 {
	return c.lastOldPaths
}

// NewCollector computes the baseline routing state for every destination
// AS and returns a collector for the given VP ASes.
func NewCollector(s *Sim, vps []uint32, cfg CollectorConfig) *Collector {
	c := &Collector{
		sim:              s,
		cfg:              cfg,
		vps:              append([]uint32(nil), vps...),
		paths:            make(map[netip.Prefix]map[uint32][]uint32),
		destEdges:        make(map[uint32]map[[2]uint32]bool),
		edgeDests:        make(map[[2]uint32]map[uint32]bool),
		prefixesByOrigin: make(map[uint32][]netip.Prefix),
		actionOverlay:    make(map[string]uint32),
		commEpoch:        make(map[uint32]uint32),
		pendingRestore:   make(map[[2]uint32]map[uint32]bool),
	}
	sort.Slice(c.vps, func(i, j int) bool { return c.vps[i] < c.vps[j] })
	for p, as := range s.prefixOwner {
		c.prefixesByOrigin[as] = append(c.prefixesByOrigin[as], p)
	}
	for _, ps := range c.prefixesByOrigin {
		slices.SortFunc(ps, update.ComparePrefix)
	}
	for _, dest := range c.origins() {
		c.refreshDest(dest)
	}
	return c
}

// VPs returns the collector's vantage-point ASes.
func (c *Collector) VPs() []uint32 { return c.vps }

// Sim returns the underlying simulator.
func (c *Collector) Sim() *Sim { return c.sim }

// origins returns all ASes that originate at least one prefix, sorted.
func (c *Collector) origins() []uint32 {
	out := make([]uint32, 0, len(c.prefixesByOrigin))
	for as := range c.prefixesByOrigin {
		out = append(out, as)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// refreshDest recomputes the routing state for every prefix owned by dest,
// updating stored VP paths and the edge index. It returns the previous
// VP paths per prefix for diffing.
func (c *Collector) refreshDest(dest uint32) map[netip.Prefix]map[uint32][]uint32 {
	old := make(map[netip.Prefix]map[uint32][]uint32)
	prefixes := c.prefixesByOrigin[dest]
	if len(prefixes) == 0 {
		return old
	}
	var lastKey string
	var routes *Routes
	var lastPaths map[uint32][]uint32
	for _, p := range prefixes {
		r := c.sim.RoutesFor(p)
		key := c.sim.cacheKey(c.sim.OriginsFor(p))
		old[p] = c.paths[p]
		if key == lastKey && lastPaths != nil {
			// Prefixes of one origin share the route computation; share
			// the extracted per-VP paths too (path maps are replaced
			// wholesale on refresh, never mutated in place).
			c.paths[p] = lastPaths
			continue
		}
		vpPaths := make(map[uint32][]uint32, len(c.vps))
		for _, vp := range c.vps {
			if path := r.Path(vp); path != nil {
				vpPaths[vp] = path
			}
		}
		c.paths[p] = vpPaths
		routes = r
		lastKey = key
		lastPaths = vpPaths
	}
	// Index the tree of the (last) route computation; prefixes of one AS
	// share a tree unless individually overridden, which is precise enough
	// for failure impact analysis. The inverted index is updated by edge
	// *diff*: a failure rewires a handful of tree edges, so churning the
	// (large) per-edge destination sets wholesale would dominate runtime.
	oldEdges := c.destEdges[dest]
	newEdges := routes.TreeEdges()
	for e := range oldEdges {
		if !newEdges[e] {
			delete(c.edgeDests[e], dest)
		}
	}
	for e := range newEdges {
		if oldEdges[e] {
			continue
		}
		m := c.edgeDests[e]
		if m == nil {
			m = make(map[uint32]bool)
			c.edgeDests[e] = m
		}
		m[dest] = true
	}
	c.destEdges[dest] = newEdges
	return old
}

// RIB returns the VP's current best path for every reachable prefix.
func (c *Collector) RIB(vpAS uint32) map[netip.Prefix][]uint32 {
	out := make(map[netip.Prefix][]uint32)
	for p, byVP := range c.paths {
		if path, ok := byVP[vpAS]; ok {
			out[p] = path
		}
	}
	return out
}

// RIBUpdates renders a VP's full RIB as update records stamped at t, used
// to bootstrap analyses that need table dumps (use case III).
func (c *Collector) RIBUpdates(vpAS uint32, t time.Time) []*update.Update {
	var out []*update.Update
	for p, path := range c.RIB(vpAS) {
		out = append(out, &update.Update{
			VP:     VPName(vpAS),
			Time:   t,
			Prefix: p,
			Path:   path,
			Comms:  c.commsFor(vpAS, path, p, time.Time{}),
		})
	}
	slices.SortFunc(out, func(a, b *update.Update) int { return update.ComparePrefix(a.Prefix, b.Prefix) })
	return out
}

// commsFor applies overlays on top of the synthesized base communities.
// evTime scopes the ephemeral traffic-engineering tag: routes propagated by
// the same event share it, but the same route re-announced by a later
// event carries a fresh value — matching the real-world churn that makes
// community-matching filters useless for future updates (§7). A zero
// evTime (RIB snapshots) omits the tag, preserving the §18.2 observation
// that communities in the table strongly correlate with the AS path.
func (c *Collector) commsFor(vpAS uint32, path []uint32, p netip.Prefix, evTime time.Time) []uint32 {
	comms := c.sim.CommunitiesFor(path, p)
	if !evTime.IsZero() && len(path) > 0 {
		h := c.sim.hash64(prefixBits(p), uint64(evTime.UnixNano()))
		if h%10 < 8 { // most event-driven updates carry ephemeral TE state
			origin := path[len(path)-1]
			comms = append(comms, origin<<16|(700+uint32(h>>8)%64))
		}
	}
	for _, as := range path {
		if epoch := c.commEpoch[as]; epoch > 0 {
			comms = append(comms, as<<16|(commEpochBase+epoch%commEpochSpan))
		}
		if v, ok := c.actionOverlay[overlayKey(as, p)]; ok {
			comms = append(comms, v)
		}
	}
	sort.Slice(comms, func(i, j int) bool { return comms[i] < comms[j] })
	return dedupU32(comms)
}

func overlayKey(as uint32, p netip.Prefix) string {
	return fmt.Sprintf("%d/%s", as, p)
}

// Apply replays one event and returns the BGP updates the VPs observe,
// sorted by timestamp.
func (c *Collector) Apply(ev Event) []*update.Update {
	c.lastOldPaths = make(map[string]map[netip.Prefix][]uint32)
	var out []*update.Update
	switch ev.Kind {
	case LinkFail:
		affected := c.destsUsingLink(ev.A, ev.B)
		c.sim.FailLink(ev.A, ev.B)
		c.pendingRestore[linkKey(ev.A, ev.B)] = affected
		out = c.diffDests(ev, affected, true)
	case LinkRestore:
		// Restoring a link affects exactly the destinations that used it
		// when it failed (their routes revert), plus any current users
		// (possible only under overlapping failures).
		k := linkKey(ev.A, ev.B)
		affected := union(c.pendingRestore[k], c.destsUsingLink(ev.A, ev.B))
		delete(c.pendingRestore, k)
		c.sim.RestoreLink(ev.A, ev.B)
		out = c.diffDests(ev, affected, false)
	case HijackStart:
		c.sim.Hijack(ev.Prefix, ev.Attacker, ev.Tail)
		out = c.diffPrefix(ev, ev.Prefix)
	case HijackEnd, OriginRestore:
		c.sim.ClearPrefix(ev.Prefix)
		out = c.diffPrefix(ev, ev.Prefix)
	case OriginChange:
		c.sim.ChangeOrigin(ev.Prefix, ev.NewOrigin)
		out = c.diffPrefix(ev, ev.Prefix)
	case ActionCommunity:
		key := overlayKey(ev.AS, ev.Prefix)
		comm := ev.AS<<16 | (commActionBase + uint32(c.sim.hash64(uint64(ev.AS)))%100)
		if _, active := c.actionOverlay[key]; active {
			delete(c.actionOverlay, key)
		} else {
			c.actionOverlay[key] = comm
		}
		out = c.communityOnlyUpdates(ev, []netip.Prefix{ev.Prefix}, ev.AS, actionCommRadius)
	case CommunityChange:
		c.commEpoch[ev.AS]++
		prefixes := c.prefixesCrossing(ev.AS, ev.Prefix)
		out = c.communityOnlyUpdates(ev, prefixes, ev.AS, teCommRadius)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Time.Before(out[j].Time) })
	return out
}

func union(sets ...map[uint32]bool) map[uint32]bool {
	out := make(map[uint32]bool)
	for _, s := range sets {
		for k := range s {
			out[k] = true
		}
	}
	return out
}

// destsUsingLink returns destinations whose current routing tree crosses
// the undirected link a-b.
func (c *Collector) destsUsingLink(a, b uint32) map[uint32]bool {
	out := make(map[uint32]bool)
	for d := range c.edgeDests[linkKey(a, b)] {
		out[d] = true
	}
	return out
}

// diffDests refreshes the affected destinations and emits updates for
// every VP whose path changed. withExploration additionally synthesizes
// transient paths on failures.
func (c *Collector) diffDests(ev Event, affected map[uint32]bool, withExploration bool) []*update.Update {
	dests := make([]uint32, 0, len(affected))
	for d := range affected {
		dests = append(dests, d)
	}
	sort.Slice(dests, func(i, j int) bool { return dests[i] < dests[j] })
	var out []*update.Update
	for _, dest := range dests {
		old := c.refreshDest(dest)
		for _, p := range c.prefixesByOrigin[dest] {
			out = append(out, c.emitDiff(ev, p, old[p], withExploration)...)
		}
	}
	return out
}

// diffPrefix refreshes routing for a single prefix-scoped event.
func (c *Collector) diffPrefix(ev Event, p netip.Prefix) []*update.Update {
	owner := c.sim.prefixOwner[p]
	old := c.refreshDest(owner)
	return c.emitDiff(ev, p, old[p], false)
}

// emitDiff compares the stored (new) paths against oldPaths for prefix p
// and emits one update per changed VP.
func (c *Collector) emitDiff(ev Event, p netip.Prefix, oldPaths map[uint32][]uint32, withExploration bool) []*update.Update {
	var out []*update.Update
	newPaths := c.paths[p]
	for _, vp := range c.vps {
		oldPath := oldPaths[vp]
		newPath := newPaths[vp]
		if pathsEqual(oldPath, newPath) {
			continue
		}
		if oldPath != nil && c.lastOldPaths != nil {
			name := VPName(vp)
			m := c.lastOldPaths[name]
			if m == nil {
				m = make(map[netip.Prefix][]uint32)
				c.lastOldPaths[name] = m
			}
			m[p] = oldPath
		}
		c.seq++
		delay := c.delayFor(vp, p, newPath)
		if newPath == nil {
			out = append(out, &update.Update{
				VP: VPName(vp), Time: ev.At.Add(delay), Prefix: p, Withdraw: true,
			})
			continue
		}
		if withExploration && oldPath != nil && c.explores(vp, p) {
			// Transient path: the final path with one prepend on its
			// second hop — no fabricated links, visible < 5 minutes.
			if tp := transientOf(newPath); tp != nil {
				out = append(out, &update.Update{
					VP: VPName(vp), Time: ev.At.Add(delay / 2), Prefix: p,
					Path:  tp,
					Comms: c.commsFor(vp, tp, p, ev.At),
				})
			}
		}
		out = append(out, &update.Update{
			VP: VPName(vp), Time: ev.At.Add(delay), Prefix: p,
			Path:  newPath,
			Comms: c.commsFor(vp, newPath, p, ev.At),
		})
	}
	return out
}

// Community propagation radii: community churn is mostly visible near the
// AS that attaches it — remote ASes strip or ignore foreign communities
// [29], which is why unchanged-path updates and especially action
// communities are hard to observe (§10 use cases IV and V). A VP sees the
// event only if the acting AS is within the radius (in AS hops) of its
// path's head.
const (
	teCommRadius     = 2
	actionCommRadius = 3
)

// communityOnlyUpdates emits unchanged-path updates for every VP whose
// path to the given prefixes crosses actingAS within the given radius.
func (c *Collector) communityOnlyUpdates(ev Event, prefixes []netip.Prefix, actingAS uint32, radius int) []*update.Update {
	var out []*update.Update
	for _, p := range prefixes {
		for _, vp := range c.vps {
			path := c.paths[p][vp]
			if !pathWithin(path, actingAS, radius) {
				continue
			}
			c.seq++
			out = append(out, &update.Update{
				VP: VPName(vp), Time: ev.At.Add(c.delayFor(vp, p, path)), Prefix: p,
				Path:  path,
				Comms: c.commsFor(vp, path, p, ev.At),
			})
		}
	}
	return out
}

// prefixesCrossing returns prefixes whose path from at least one VP
// contains as; a non-zero filter prefix restricts to it.
func (c *Collector) prefixesCrossing(as uint32, filter netip.Prefix) []netip.Prefix {
	var out []netip.Prefix
	for p, byVP := range c.paths {
		if filter.IsValid() && p != filter {
			continue
		}
		for _, path := range byVP {
			if pathContains(path, as) {
				out = append(out, p)
				break
			}
		}
	}
	slices.SortFunc(out, update.ComparePrefix)
	return out
}

// delayFor computes the deterministic propagation delay of an update.
func (c *Collector) delayFor(vp uint32, p netip.Prefix, path []uint32) time.Duration {
	hops := len(path)
	if hops == 0 {
		hops = 4
	}
	base := time.Duration(hops) * c.cfg.PerHopDelay
	if c.cfg.JitterMax > 0 {
		j := c.sim.hash64(uint64(vp), prefixBits(p), c.seq)
		base += time.Duration(j % uint64(c.cfg.JitterMax))
	}
	return base
}

// explores decides deterministically whether this (VP, prefix) pair
// exhibits path exploration for the current event.
func (c *Collector) explores(vp uint32, p netip.Prefix) bool {
	if c.cfg.PathExploration <= 0 {
		return false
	}
	h := c.sim.hash64(uint64(vp), prefixBits(p), c.seq, 0xe)
	return float64(h%1000) < c.cfg.PathExploration*1000
}

// transientOf builds the transient (exploration) variant of a path by
// prepending its second AS once. Returns nil for paths too short.
func transientOf(path []uint32) []uint32 {
	if len(path) < 2 {
		return nil
	}
	out := make([]uint32, 0, len(path)+1)
	out = append(out, path[0], path[1])
	out = append(out, path[1:]...)
	return out
}

func pathsEqual(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func pathContains(path []uint32, as uint32) bool {
	for _, a := range path {
		if a == as {
			return true
		}
	}
	return false
}

// pathWithin reports whether as appears within the first radius+1 hops of
// the path.
func pathWithin(path []uint32, as uint32, radius int) bool {
	for i, a := range path {
		if i > radius {
			return false
		}
		if a == as {
			return true
		}
	}
	return false
}
