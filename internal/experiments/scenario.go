// Package experiments reproduces every table and figure of the paper's
// evaluation. Each experiment builds on a simulated mini-Internet scenario
// (the controlled-simulation methodology of §3.1/§11) and returns a
// structured, printable result; the bench harness at the repository root
// and cmd/gill-bench regenerate the paper artifacts from these runners.
package experiments

import (
	"math/rand"
	"net/netip"
	"slices"
	"time"

	"repro/internal/simulate"
	"repro/internal/topology"
	"repro/internal/update"
)

// T0 is the scenario epoch.
var T0 = time.Date(2023, 9, 1, 0, 0, 0, 0, time.UTC)

// ScenarioConfig sizes a simulated mini-Internet and its event schedule.
type ScenarioConfig struct {
	ASes int
	// VPs is the number of ASes hosting a vantage point (selected
	// uniformly at random; 0 = all ASes).
	VPs  int
	Seed int64
	// VPSeed pins the VP selection independently of the event seed
	// (0 = use Seed). Lets experiments replay fresh events over the same
	// deployment (Fig. 7, Fig. 8).
	VPSeed int64
	// PoolSeed pins the hot pools — the flappy links and unstable prefixes
	// that recurrent events draw from (0 = use Seed). Real BGP update
	// volume is dominated by a small recurring set of unstable elements;
	// the pools reproduce that heavy tail and give GILL's filters their
	// cross-window validity.
	PoolSeed int64

	// Event counts, interleaved over the scenario window.
	Failures      int // link fail + restore pairs
	Hijacks       int // Type-1 forged-origin hijacks
	Hijacks2      int // Type-2 forged-origin hijacks
	OriginChanges int
	ActionComms   int
	CommChanges   int

	// EventGap spaces consecutive events (default 30 min).
	EventGap time.Duration

	// Collector tunes update-stream synthesis.
	Collector simulate.CollectorConfig

	// Topo optionally reuses a pre-built topology.
	Topo *topology.Topology
}

// DefaultScenario returns a configuration sized for unit-scale runs.
func DefaultScenario(seed int64) ScenarioConfig {
	return ScenarioConfig{
		ASes: 300, VPs: 20, Seed: seed,
		Failures: 24, Hijacks: 8, Hijacks2: 4, OriginChanges: 10,
		ActionComms: 8, CommChanges: 8,
		EventGap:  30 * time.Minute,
		Collector: simulate.DefaultCollectorConfig(),
	}
}

// FailureCase is the ground truth of one link-failure event.
type FailureCase struct {
	A, B    uint32
	Rel     topology.Relationship
	At      time.Time
	Pre     map[string]map[netip.Prefix][]uint32
	Updates []*update.Update
}

// HijackCase is the ground truth of one forged-origin hijack.
type HijackCase struct {
	Prefix   netip.Prefix
	Attacker uint32
	Tail     []uint32
	Type     int
	At       time.Time
	Updates  []*update.Update
}

// Scenario is a built mini-Internet with its full update stream and
// per-event ground truth.
type Scenario struct {
	Config   ScenarioConfig
	Topo     *topology.Topology
	Sim      *simulate.Sim
	Coll     *simulate.Collector
	VPs      []uint32
	Baseline map[string]map[netip.Prefix][]uint32
	Updates  []*update.Update
	End      time.Time

	Failures []FailureCase
	Hijacks  []HijackCase
}

// BuildScenario generates the topology, deploys VPs, and replays the
// event schedule, capturing the VP update streams and ground truth.
func BuildScenario(cfg ScenarioConfig) *Scenario {
	r := rand.New(rand.NewSource(cfg.Seed))
	topo := cfg.Topo
	if topo == nil {
		topo = topology.Generate(topology.DefaultGenConfig(cfg.ASes), r)
	}
	sim := simulate.New(topo, cfg.Seed)
	ases := topo.ASes()

	nVPs := cfg.VPs
	if nVPs <= 0 || nVPs > len(ases) {
		nVPs = len(ases)
	}
	vpSeed := cfg.VPSeed
	if vpSeed == 0 {
		vpSeed = cfg.Seed
	}
	perm := rand.New(rand.NewSource(vpSeed ^ 0x5eed)).Perm(len(ases))
	vps := make([]uint32, nVPs)
	for i := 0; i < nVPs; i++ {
		vps[i] = ases[perm[i]]
	}
	if cfg.Collector == (simulate.CollectorConfig{}) {
		cfg.Collector = simulate.DefaultCollectorConfig()
	}
	coll := simulate.NewCollector(sim, vps, cfg.Collector)

	sc := &Scenario{
		Config: cfg, Topo: topo, Sim: sim, Coll: coll, VPs: vps,
		Baseline: make(map[string]map[netip.Prefix][]uint32),
	}
	for _, vp := range vps {
		sc.Baseline[simulate.VPName(vp)] = coll.RIB(vp)
	}

	gap := cfg.EventGap
	if gap == 0 {
		gap = 30 * time.Minute
	}
	prefixes := allPrefixes(topo)

	// Hot pools: a small recurring set of flappy links, unstable prefixes
	// and chatty ASes dominates the event schedule, as on the real
	// Internet. Events draw from the pools with repetition, giving the
	// correlation groups their weight and the filters their cross-window
	// validity.
	poolSeed := cfg.PoolSeed
	if poolSeed == 0 {
		poolSeed = cfg.Seed
	}
	pr := rand.New(rand.NewSource(poolSeed ^ 0x9001))
	hotLinks := poolOf(len(topo.Links), max(2, cfg.Failures/3), pr)
	nPrefixEvents := cfg.Hijacks + cfg.Hijacks2 + cfg.OriginChanges + cfg.ActionComms
	hotPrefixes := poolOf(len(prefixes), max(2, nPrefixEvents/3), pr)
	hotASes := poolOf(len(ases), max(2, (cfg.ActionComms+cfg.CommChanges)/2), pr)
	pickLink := func() topology.Link { return topo.Links[hotLinks[r.Intn(len(hotLinks))]] }
	pickPrefix := func() netip.Prefix { return prefixes[hotPrefixes[r.Intn(len(hotPrefixes))]] }
	pickAS := func() uint32 { return ases[hotASes[r.Intn(len(hotASes))]] }

	at := T0.Add(gap)
	apply := func(ev simulate.Event) []*update.Update {
		ups := coll.Apply(ev)
		sc.Updates = append(sc.Updates, ups...)
		return ups
	}

	// Interleave event kinds round-robin so every window mixes all kinds.
	type job func()
	var jobs []job
	for i := 0; i < cfg.Failures; i++ {
		jobs = append(jobs, func() {
			l := pickLink()
			t := at
			ups := apply(simulate.Event{At: t, Kind: simulate.LinkFail, A: l.A, B: l.B})
			sc.Failures = append(sc.Failures, FailureCase{
				A: l.A, B: l.B, Rel: l.Rel, At: t,
				Pre:     coll.LastOldPaths(),
				Updates: ups,
			})
			apply(simulate.Event{At: t.Add(gap / 2), Kind: simulate.LinkRestore, A: l.A, B: l.B})
		})
	}
	mkHijack := func(typeX int) job {
		return func() {
			p := pickPrefix()
			victim := topo.AllPrefixes()[p]
			attacker := ases[r.Intn(len(ases))]
			for attacker == victim {
				attacker = ases[r.Intn(len(ases))]
			}
			tail := []uint32{victim}
			if typeX == 2 {
				// Forge one plausible intermediate: a neighbor of the victim.
				nbrs := topo.Neighbors(victim)
				mid := victim
				if len(nbrs) > 0 {
					mid = nbrs[r.Intn(len(nbrs))]
				}
				tail = []uint32{mid, victim}
			}
			t := at
			ups := apply(simulate.Event{
				At: t, Kind: simulate.HijackStart, Prefix: p,
				Attacker: attacker, Tail: tail,
			})
			sc.Hijacks = append(sc.Hijacks, HijackCase{
				Prefix: p, Attacker: attacker, Tail: tail, Type: typeX, At: t,
				Updates: ups,
			})
			apply(simulate.Event{At: t.Add(gap / 2), Kind: simulate.HijackEnd, Prefix: p})
		}
	}
	for i := 0; i < cfg.Hijacks; i++ {
		jobs = append(jobs, mkHijack(1))
	}
	for i := 0; i < cfg.Hijacks2; i++ {
		jobs = append(jobs, mkHijack(2))
	}
	for i := 0; i < cfg.OriginChanges; i++ {
		jobs = append(jobs, func() {
			p := pickPrefix()
			newOrigin := pickAS()
			t := at
			apply(simulate.Event{At: t, Kind: simulate.OriginChange, Prefix: p, NewOrigin: newOrigin})
			apply(simulate.Event{At: t.Add(gap / 2), Kind: simulate.OriginRestore, Prefix: p})
		})
	}
	for i := 0; i < cfg.ActionComms; i++ {
		jobs = append(jobs, func() {
			p := pickPrefix()
			as := pickAS()
			apply(simulate.Event{At: at, Kind: simulate.ActionCommunity, AS: as, Prefix: p})
			apply(simulate.Event{At: at.Add(gap / 2), Kind: simulate.ActionCommunity, AS: as, Prefix: p})
		})
	}
	for i := 0; i < cfg.CommChanges; i++ {
		jobs = append(jobs, func() {
			as := pickAS()
			apply(simulate.Event{At: at, Kind: simulate.CommunityChange, AS: as})
		})
	}
	r.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	for _, j := range jobs {
		j()
		at = at.Add(gap)
	}
	sc.End = at
	update.Annotate(sc.Updates)
	return sc
}

// Split partitions the stream (and the ground-truth cases) at the given
// fraction of the scenario window, returning training and evaluation
// halves of the updates.
func (sc *Scenario) Split(frac float64) (train, eval []*update.Update, cut time.Time) {
	cut = T0.Add(time.Duration(frac * float64(sc.End.Sub(T0))))
	for _, u := range sc.Updates {
		if u.Time.Before(cut) {
			train = append(train, u)
		} else {
			eval = append(eval, u)
		}
	}
	return train, eval, cut
}

// EvalFailures returns the failure cases at or after cut.
func (sc *Scenario) EvalFailures(cut time.Time) []FailureCase {
	var out []FailureCase
	for _, f := range sc.Failures {
		if !f.At.Before(cut) {
			out = append(out, f)
		}
	}
	return out
}

// EvalHijacks returns the hijack cases at or after cut.
func (sc *Scenario) EvalHijacks(cut time.Time) []HijackCase {
	var out []HijackCase
	for _, h := range sc.Hijacks {
		if !h.At.Before(cut) {
			out = append(out, h)
		}
	}
	return out
}

// InSample reports which of the given event updates survive in a sample
// (pointer identity, as samplers subset the original stream).
func InSample(sample []*update.Update, eventUpdates []*update.Update) []*update.Update {
	in := make(map[*update.Update]bool, len(sample))
	for _, u := range sample {
		in[u] = true
	}
	var out []*update.Update
	for _, u := range eventUpdates {
		if in[u] {
			out = append(out, u)
		}
	}
	return out
}

// poolOf picks k distinct indexes out of n.
func poolOf(n, k int, r *rand.Rand) []int {
	if k > n {
		k = n
	}
	return r.Perm(n)[:k]
}

func allPrefixes(topo *topology.Topology) []netip.Prefix {
	m := topo.AllPrefixes()
	out := make([]netip.Prefix, 0, len(m))
	for p := range m {
		out = append(out, p)
	}
	// Deterministic order.
	slices.SortFunc(out, update.ComparePrefix)
	return out
}
