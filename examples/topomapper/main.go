// Topomapper: infer the AS-level topology, business relationships, and
// customer cones from collected BGP paths, and validate against the
// simulation's ground truth — the §12 AS-relationship / ASRank
// replication as a standalone tool.
//
//	go run ./examples/topomapper
package main

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/relationships"
	"repro/internal/simulate"
	"repro/internal/topology"
)

func main() {
	topo := topology.Generate(topology.DefaultGenConfig(400), rand.New(rand.NewSource(11)))
	sim := simulate.New(topo, 11)
	ases := topo.ASes()

	// Collect best paths from a growing number of vantage points and show
	// how inference quality scales — the paper's core motivation.
	for _, nVPs := range []int{5, 20, 60} {
		var paths [][]uint32
		for d := 0; d < 120; d++ {
			dest := ases[d*len(ases)/120]
			routes := sim.ComputeRoutes([]simulate.Origin{{AS: dest}})
			for v := 0; v < nVPs; v++ {
				vp := ases[v*len(ases)/nVPs]
				if p := routes.Path(vp); len(p) >= 2 {
					paths = append(paths, p)
				}
			}
		}
		inf := relationships.Infer(paths)
		tpr, _ := inf.Validate(topo)

		// Link coverage.
		seen := 0
		for _, k := range inf.Pairs() {
			if _, ok := topo.HasLink(k[0], k[1]); ok {
				seen++
			}
		}
		fmt.Printf("%2d VPs: %4d paths → %3d relationships (%.0f%% of %d links), validation TPR %.0f%%\n",
			nVPs, len(paths), inf.Count(),
			100*float64(seen)/float64(len(topo.Links)), len(topo.Links), 100*tpr)

		if nVPs == 60 {
			// Customer cones: the ASRank CCS metric.
			ccs := inf.CustomerConeSizes()
			type entry struct {
				as   uint32
				size int
			}
			var top []entry
			for as, size := range ccs {
				top = append(top, entry{as, size})
			}
			sort.Slice(top, func(i, j int) bool {
				if top[i].size != top[j].size {
					return top[i].size > top[j].size
				}
				return top[i].as < top[j].as
			})
			fmt.Println("\nlargest inferred customer cones vs ground truth:")
			for _, e := range top[:5] {
				truth := len(topo.CustomerCone(e.as))
				cat := topology.Categorize(topo)[e.as]
				fmt.Printf("  AS%-6d inferred CCS %4d, true %4d  (%s)\n",
					e.as, e.size, truth, cat)
			}
		}
	}
}
