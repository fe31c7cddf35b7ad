// Hijackwatch: monitor a simulated Internet for forged-origin BGP hijacks
// using a DFOH-style detector fed by GILL-sampled data (the §12 case
// study). Forged-origin hijacks keep the victim as the path's origin, so
// origin validation cannot catch them; the detector flags new origin-
// adjacent AS links and scores their topological plausibility.
//
//	go run ./examples/hijackwatch
package main

import (
	"fmt"
	"math/rand"
	"net/netip"
	"slices"
	"time"

	"repro/internal/dfoh"
	"repro/internal/simulate"
	"repro/internal/topology"
	"repro/internal/update"
)

func main() {
	topo := topology.Generate(topology.DefaultGenConfig(250), rand.New(rand.NewSource(7)))
	sim := simulate.New(topo, 7)
	ases := topo.ASes()
	var vps []uint32
	for i := 0; i < 20; i++ {
		vps = append(vps, ases[i*len(ases)/20])
	}
	coll := simulate.NewCollector(sim, vps, simulate.DefaultCollectorConfig())

	// Train the detector on the stable baseline: every VP's current table.
	t0 := time.Date(2023, 9, 1, 0, 0, 0, 0, time.UTC)
	var baseline []*update.Update
	for _, vp := range vps {
		baseline = append(baseline, coll.RIBUpdates(vp, t0)...)
	}
	detector := dfoh.New(baseline)
	fmt.Printf("detector trained on %d baseline routes\n", len(baseline))

	// An attacker launches Type-1 hijacks against three victims.
	owners := topo.AllPrefixes()
	var victims []uint32
	count := 0
	var ps []netip.Prefix
	for p := range owners {
		ps = append(ps, p)
	}
	slices.SortFunc(ps, update.ComparePrefix)
	for _, p := range ps {
		victim := owners[p]
		if count >= 3 {
			break
		}
		attacker := ases[(count*37+91)%len(ases)]
		if attacker == victim {
			continue
		}
		count++
		victims = append(victims, victim)
		at := t0.Add(time.Duration(count) * time.Hour)
		updates := coll.Apply(simulate.Event{
			At: at, Kind: simulate.HijackStart, Prefix: p,
			Attacker: attacker, Tail: []uint32{victim},
		})
		fmt.Printf("\nhijack #%d: AS%d forges origin AS%d for %s (%d VP updates)\n",
			count, attacker, victim, p, len(updates))
		if len(updates) == 0 {
			fmt.Println("  invisible: the hijacked route reached no VP (the §3 coverage gap)")
			continue
		}
		for _, c := range detector.Sweep(updates) {
			verdict := "benign"
			if c.Suspicious {
				verdict = "SUSPICIOUS"
			}
			fmt.Printf("  new origin-adjacent link %d→%d score %.2f → %s (seen by %s)\n",
				c.From, c.To, c.Score, verdict, c.Update.VP)
		}
		coll.Apply(simulate.Event{At: at.Add(30 * time.Minute), Kind: simulate.HijackEnd, Prefix: p})
	}
	fmt.Printf("\nmonitored %d hijacks against victims %v\n", count, victims)
}
