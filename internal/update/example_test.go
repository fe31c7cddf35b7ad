package update_test

import (
	"fmt"
	"net/netip"
	"time"

	"repro/internal/update"
)

// ExampleRedundantFraction reproduces the paper's Fig. 10 worked example:
// two VPs observing the same four events produce mutually redundant
// updates under Definition 1.
func ExampleRedundantFraction() {
	p := netip.MustParsePrefix("203.0.113.0/24")
	t0 := time.Date(2023, 9, 1, 0, 0, 0, 0, time.UTC)
	mk := func(vp string, at time.Duration, path ...uint32) *update.Update {
		return &update.Update{VP: vp, Time: t0.Add(at), Prefix: p, Path: path}
	}
	stream := []*update.Update{
		mk("VP1", 0, 2, 1, 4),
		mk("VP2", 10*time.Second, 6, 2, 1, 4),
		mk("VP1", 10*time.Minute, 2, 4),
		mk("VP2", 10*time.Minute+10*time.Second, 6, 2, 4),
	}
	update.Annotate(stream)
	fmt.Printf("Def.1 redundant: %.0f%%\n", 100*update.RedundantFraction(update.Def1, stream))
	// Output:
	// Def.1 redundant: 100%
}
