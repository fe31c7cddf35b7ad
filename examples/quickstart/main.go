// Quickstart: build a mini Internet, collect BGP updates from a VP
// deployment, train GILL's sampling pipeline, and compare what the
// filters retain against the raw stream.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"math/rand"
	"net/netip"
	"time"

	"repro/internal/core"
	"repro/internal/simulate"
	"repro/internal/topology"
	"repro/internal/update"
	"repro/internal/usecases"
)

func main() {
	// 1. A 300-AS Internet with Gao-Rexford policies and heavy-tailed
	// prefix counts (the paper's §3.1 methodology).
	topo := topology.Generate(topology.DefaultGenConfig(300), rand.New(rand.NewSource(42)))
	fmt.Printf("generated %d ASes, %d links, %d prefixes\n",
		len(topo.ASes()), len(topo.Links), len(topo.AllPrefixes()))

	// 2. Deploy 15 vantage points and snapshot their baseline RIBs.
	sim := simulate.New(topo, 42)
	ases := topo.ASes()
	var vps []uint32
	for i := 0; i < 15; i++ {
		vps = append(vps, ases[i*len(ases)/15])
	}
	coll := simulate.NewCollector(sim, vps, simulate.DefaultCollectorConfig())
	baseline := make(map[string]map[netip.Prefix][]uint32)
	for _, vp := range vps {
		baseline[simulate.VPName(vp)] = coll.RIB(vp)
	}

	// 3. Replay a day of routing events: a few flappy links failing and
	// recovering.
	t0 := time.Date(2023, 9, 1, 0, 0, 0, 0, time.UTC)
	var stream []*update.Update
	flappy := []int{0, 7, 21}
	for hour := 0; hour < 12; hour++ {
		link := topo.Links[flappy[hour%len(flappy)]]
		at := t0.Add(time.Duration(hour) * time.Hour)
		stream = append(stream, coll.Apply(simulate.Event{
			At: at, Kind: simulate.LinkFail, A: link.A, B: link.B})...)
		stream = append(stream, coll.Apply(simulate.Event{
			At: at.Add(20 * time.Minute), Kind: simulate.LinkRestore, A: link.A, B: link.B})...)
	}
	update.Annotate(stream)
	fmt.Printf("collected %d updates from %d VPs\n", len(stream), len(vps))

	// 4. How redundant is the raw stream? (§4.2)
	for def := update.Def1; def <= update.Def3; def++ {
		fmt.Printf("  redundant under Def. %d: %.0f%%\n",
			def, 100*update.RedundantFraction(def, stream))
	}

	// 5. Train GILL: correlation groups + reconstitution power find
	// redundant updates; topological features pick anchor VPs; both
	// compile into coarse (VP, prefix) filters.
	cfg := core.DefaultConfig()
	cfg.EventsPerCell = 5
	model := core.Train(core.TrainingData{
		Updates:    stream,
		Baseline:   baseline,
		Categories: topology.Categorize(topo),
		TotalVPs:   len(vps),
	}, cfg, rand.New(rand.NewSource(42)))

	fmt.Printf("trained: %d drop rules, anchors = %v\n",
		model.Filters.NumDrops(), model.Anchors)
	fmt.Printf("filters retain %.0f%% of the stream\n",
		100*model.RetainedFraction(stream))

	// 6. The retained sample still supports the benchmark analyses.
	sample := model.Sampler().Sample(stream, 0)
	for _, ev := range usecases.All(simulate.IsActionCommunity) {
		ground := ev.Keys(stream)
		if len(ground) == 0 {
			continue
		}
		found := ev.Keys(sample)
		hit := 0
		for k := range ground {
			if found[k] {
				hit++
			}
		}
		fmt.Printf("  %-24s %d/%d events recoverable from the sample\n",
			ev.Name(), hit, len(ground))
	}
}
