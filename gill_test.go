package gill_test

import (
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/simulate"
	"repro/internal/topology"
	"repro/internal/update"
	"repro/internal/usecases"
)

// TestFacadeEndToEnd drives the sampling path end to end on the packages
// the examples use: generate a mini Internet, deploy VPs, replay events,
// train a model, sample, and run every use-case evaluator.
func TestFacadeEndToEnd(t *testing.T) {
	topo := topology.Generate(topology.DefaultGenConfig(120), rand.New(rand.NewSource(1)))
	sim := simulate.New(topo, 1)
	ases := topo.ASes()
	vps := []uint32{ases[3], ases[20], ases[40], ases[60], ases[80], ases[100]}
	coll := simulate.NewCollector(sim, vps, simulate.DefaultCollectorConfig())

	// Collect baseline RIBs.
	ribs := make(map[string]map[netip.Prefix][]uint32)
	for _, vp := range vps {
		ribs[simulate.VPName(vp)] = coll.RIB(vp)
	}

	// Replay a handful of failures on one link, repeatedly.
	t0 := time.Date(2023, 9, 1, 0, 0, 0, 0, time.UTC)
	var stream []*update.Update
	link := topo.Links[0]
	for i := 0; i < 6; i++ {
		at := t0.Add(time.Duration(i) * time.Hour)
		stream = append(stream, coll.Apply(simulate.Event{
			At: at, Kind: simulate.LinkFail, A: link.A, B: link.B,
		})...)
		stream = append(stream, coll.Apply(simulate.Event{
			At: at.Add(30 * time.Minute), Kind: simulate.LinkRestore, A: link.A, B: link.B,
		})...)
	}
	if len(stream) == 0 {
		t.Fatal("no updates collected")
	}
	update.Annotate(stream)

	// Redundancy definitions are monotone.
	f1 := update.RedundantFraction(update.Def1, stream)
	f3 := update.RedundantFraction(update.Def3, stream)
	if f1 < f3 {
		t.Errorf("Def1 %.2f < Def3 %.2f", f1, f3)
	}

	// Train and sample.
	cfg := core.DefaultConfig()
	cfg.EventsPerCell = 3
	model := core.Train(core.TrainingData{
		Updates:    stream,
		Baseline:   ribs,
		Categories: topology.Categorize(topo),
		TotalVPs:   len(vps),
	}, cfg, rand.New(rand.NewSource(7)))
	if model.Filters == nil {
		t.Fatal("no filters")
	}
	kept := model.RetainedFraction(stream)
	if kept <= 0 || kept > 1 {
		t.Errorf("retained fraction %v", kept)
	}
	sample := model.Sampler().Sample(stream, 0)
	if len(sample) == 0 {
		t.Error("empty sample")
	}
	for _, ev := range usecases.All(nil) {
		_ = ev.Keys(sample) // must not panic on any evaluator
	}
}
