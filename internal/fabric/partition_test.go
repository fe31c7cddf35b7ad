package fabric

// Partition tests: a faults.Gate severs the control plane between the
// coordinator and a collector — totally, not probabilistically. While the
// partition outlasts the lease, the shard must move to reachable
// collectors; when the partitioned collector comes back, it must rejoin
// cleanly and the deterministic rendezvous assignment must converge to
// exactly the pre-partition map.

import (
	"context"
	"net"
	"reflect"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/resilience"
)

func TestPartitionOutlastingLeaseMovesShardThenHeals(t *testing.T) {
	coord, addr := startCoordinator(t, CoordinatorConfig{LeaseTTL: 300 * time.Millisecond})
	coord.SetVPs([]string{"vp1", "vp2", "vp3", "vp4", "vp5", "vp6"})

	// c2 dials through a gate; c1 connects directly.
	gate := faults.NewGate()
	dial := gate.Dialer(func(ctx context.Context) (net.Conn, error) {
		var d net.Dialer
		return d.DialContext(ctx, "tcp", addr)
	})
	a1, cancel1 := startAgent(t, AgentConfig{ID: "c1", Coordinator: addr})
	defer cancel1()
	a2, cancel2 := startAgent(t, AgentConfig{
		ID:   "c2",
		Dial: dial,
		Backoff: resilience.Backoff{
			Base: 10 * time.Millisecond, Max: 50 * time.Millisecond,
		},
	})
	defer cancel2()

	waitFor(t, "both shards populated", func() bool {
		return len(a1.Status().VPs)+len(a2.Status().VPs) == 6 && len(a2.Status().VPs) > 0
	})
	before := coord.Assignment()

	// Sever c2's control link and let its lease lapse: the whole fleet's
	// VPs must land on c1.
	gate.Cut()
	waitFor(t, "partitioned shard reassigned to c1", func() bool {
		coord.Tick(time.Now())
		owners := coord.Assignment()
		for _, owner := range owners {
			if owner != "c1" {
				return false
			}
		}
		return len(owners) == 6
	})

	// Heal: c2's supervisor redials, re-registers, and the rendezvous
	// map — a pure function of the membership — returns to exactly the
	// pre-partition assignment.
	gate.Heal()
	waitFor(t, "post-heal assignment converges to the original", func() bool {
		return reflect.DeepEqual(coord.Assignment(), before) &&
			reflect.DeepEqual(sortedShard(a2), shardOf(before, "c2"))
	})
	if !a2.Connected() {
		t.Error("c2 not reconnected after heal")
	}
}

func sortedShard(a *Agent) []string {
	s := a.Status().VPs
	if len(s) == 0 {
		return nil
	}
	return s // Status().VPs is already a sorted copy
}

func shardOf(assignment map[string]string, id string) []string {
	var out []string
	for vp, owner := range assignment {
		if owner == id {
			out = append(out, vp)
		}
	}
	sortStrings(out)
	if len(out) == 0 {
		return nil
	}
	return out
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
