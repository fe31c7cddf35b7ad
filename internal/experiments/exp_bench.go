package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sampling"
	"repro/internal/simulate"
	"repro/internal/topology"
	"repro/internal/update"
	"repro/internal/usecases"
)

// Table2UseCases are the §10 use cases in paper order.
var Table2UseCases = []string{
	"transient-paths", "moas", "topology-mapping",
	"action-communities", "unchanged-path-updates",
}

// Table2Result reproduces Table 2: GILL and every baseline scored on the
// five use cases at an identical update budget.
type Table2Result struct {
	// Scores[useCase][sampler] is the detected fraction.
	Scores map[string]map[string]float64
	// Samplers in presentation order.
	Samplers []string
	Budget   int
	Stream   int
}

// String renders the benchmark table.
func (r Table2Result) String() string {
	hdr := append([]string{"use case"}, r.Samplers...)
	t := &metrics.Table{Header: hdr}
	for _, uc := range Table2UseCases {
		row := []interface{}{uc}
		for _, s := range r.Samplers {
			row = append(row, metrics.Pct(r.Scores[uc][s]))
		}
		t.Add(row...)
	}
	return fmt.Sprintf("Table 2 benchmark (budget %d of %d updates)\n%s", r.Budget, r.Stream, t)
}

// Score looks up one cell.
func (r Table2Result) Score(useCase, sampler string) float64 {
	return r.Scores[useCase][sampler]
}

// RunTable2 trains GILL on the first half of a scenario and benchmarks
// every sampling scheme on the second half at GILL's budget.
func RunTable2(cfg ScenarioConfig, eventsPerCell int) Table2Result {
	sc := BuildScenario(cfg)
	train, eval, _ := sc.Split(0.5)

	ccfg := core.DefaultConfig()
	ccfg.EventsPerCell = eventsPerCell
	model := core.Train(core.TrainingData{
		Updates:    train,
		Baseline:   sc.Baseline,
		Categories: topology.Categorize(sc.Topo),
		TotalVPs:   len(sc.VPs),
	}, ccfg, rand.New(rand.NewSource(cfg.Seed+1)))

	gillSample := model.Sampler().Sample(eval, 0)
	budget := len(gillSample)

	evs := usecases.All(simulate.IsActionCommunity)
	ground := make(map[string]map[string]bool, len(evs))
	for _, ev := range evs {
		ground[ev.Name()] = ev.Keys(eval)
	}

	// AS-hop distances between VPs for the AS-Dist baseline.
	dist := vpDistances(sc.Topo, sc.VPs)
	cats := topology.Categorize(sc.Topo)
	catIdx := func(vp string) int { return int(cats[simulate.VPAS(vp)]) - 1 }
	ref := make([]float64, topology.NumCategories)
	for _, c := range cats {
		ref[int(c)-1]++
	}
	for i := range ref {
		ref[i] /= float64(len(cats))
	}

	samplers := []sampling.Sampler{
		model.Sampler(),
		model.UpdSampler(),
		model.VPSampler(),
		sampling.RandomUpdates{Rand: rand.New(rand.NewSource(cfg.Seed + 2))},
		sampling.RandomVPs{Rand: rand.New(rand.NewSource(cfg.Seed + 3))},
		sampling.ASDistance{Rand: rand.New(rand.NewSource(cfg.Seed + 4)), Dist: dist},
		sampling.Unbiased{Category: catIdx, Reference: ref},
		sampling.DefSpecific{Def: update.Def1},
		sampling.DefSpecific{Def: update.Def2},
		sampling.DefSpecific{Def: update.Def3},
	}
	samplers = append(samplers,
		sampling.TransientSpecific{},
		sampling.MOASSpecific{},
		sampling.TopoSpecific{},
		sampling.ActionCommSpecific{IsAction: simulate.IsActionCommunity},
		sampling.UnchangedPathSpecific{},
	)

	res := Table2Result{
		Scores: make(map[string]map[string]float64),
		Budget: budget,
		Stream: len(eval),
	}
	for _, uc := range Table2UseCases {
		res.Scores[uc] = make(map[string]float64)
	}
	for _, s := range samplers {
		res.Samplers = append(res.Samplers, s.Name())
		sample := s.Sample(eval, budget)
		for _, ev := range evs {
			res.Scores[ev.Name()][s.Name()] = usecases.Score(ev, ground[ev.Name()], sample)
		}
	}
	return res
}

// vpDistances builds an AS-hop distance function between VP names via BFS
// over the undirected AS graph.
func vpDistances(topo *topology.Topology, vps []uint32) func(a, b string) int {
	adj := make(map[uint32][]uint32)
	for _, l := range topo.Links {
		adj[l.A] = append(adj[l.A], l.B)
		adj[l.B] = append(adj[l.B], l.A)
	}
	dist := make(map[uint32]map[uint32]int, len(vps))
	for _, src := range vps {
		d := map[uint32]int{src: 0}
		queue := []uint32{src}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for _, nb := range adj[cur] {
				if _, ok := d[nb]; !ok {
					d[nb] = d[cur] + 1
					queue = append(queue, nb)
				}
			}
		}
		dist[src] = d
	}
	return func(a, b string) int {
		da := dist[simulate.VPAS(a)]
		if da == nil {
			return 1 << 20
		}
		if d, ok := da[simulate.VPAS(b)]; ok {
			return d
		}
		return 1 << 20
	}
}
