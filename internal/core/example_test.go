package core_test

import (
	"fmt"
	"math/rand"
	"net/netip"
	"time"

	"repro/internal/core"
	"repro/internal/update"
)

// ExampleTrain trains the sampling pipeline on the Fig. 10 stream: VP2's
// updates reconstitute VP1's, so VP1 becomes redundant and one drop rule
// is compiled.
func ExampleTrain() {
	p := netip.MustParsePrefix("203.0.113.0/24")
	t0 := time.Date(2023, 9, 1, 0, 0, 0, 0, time.UTC)
	mk := func(vp string, at time.Duration, path ...uint32) *update.Update {
		return &update.Update{VP: vp, Time: t0.Add(at), Prefix: p, Path: path}
	}
	T := func(i int) time.Duration { return time.Duration(i) * 10 * time.Minute }
	stream := []*update.Update{
		mk("VP1", T(0), 2, 1, 4), mk("VP2", T(0)+10*time.Second, 6, 2, 1, 4),
		mk("VP1", T(1), 2, 4), mk("VP2", T(1)+10*time.Second, 6, 2, 4),
		mk("VP1", T(2), 2, 1, 4), mk("VP2", T(2)+10*time.Second, 6, 3, 1, 4),
		mk("VP1", T(3), 2, 4), mk("VP2", T(3)+10*time.Second, 6, 2, 4),
	}
	update.Annotate(stream)

	model := core.Train(core.TrainingData{Updates: stream}, core.DefaultConfig(), rand.New(rand.NewSource(1)))
	fmt.Println("drop rules:", model.Filters.NumDrops())
	fmt.Println("VP1 kept:", model.Keep(stream[0]))
	fmt.Println("VP2 kept:", model.Keep(stream[1]))
	// Output:
	// drop rules: 1
	// VP1 kept: false
	// VP2 kept: true
}
