package experiments

import (
	"fmt"
)

// Scale selects the experiment sizing.
type Scale int

// Scales.
const (
	// Quick sizes experiments for CI (seconds per experiment).
	Quick Scale = iota
	// Full sizes experiments near the paper's simulation scale (minutes).
	Full
)

// Runner regenerates one paper artifact and returns its printable result.
type Runner struct {
	ID          string
	Description string
	Run         func(scale Scale) fmt.Stringer
}

// scenarioFor returns the shared scenario configuration at a scale.
func scenarioFor(scale Scale, seed int64) ScenarioConfig {
	cfg := DefaultScenario(seed)
	if scale == Full {
		cfg.ASes = 1000
		cfg.VPs = 100
		cfg.Failures, cfg.Hijacks, cfg.Hijacks2 = 60, 30, 15
		cfg.OriginChanges, cfg.ActionComms, cfg.CommChanges = 30, 30, 30
	}
	return cfg
}

func perCell(scale Scale) int {
	if scale == Full {
		return 50
	}
	return 4
}

// Registry lists every reproducible table and figure.
func Registry() []Runner {
	return []Runner{
		{"fig2", "VP growth vs flat coverage (Fig. 2)", func(Scale) fmt.Stringer { return RunFig2() }},
		{"fig3", "Update volume growth (Fig. 3)", func(Scale) fmt.Stringer { return RunFig3() }},
		{"fig4", "Coverage sweep: mapping, localization, hijacks (Fig. 4)", func(s Scale) fmt.Stringer {
			cfg := DefaultFig4()
			if s == Full {
				cfg.ASes, cfg.Failures, cfg.Hijacks = 1000, 60, 60
				cfg.Coverages = []float64{0.5, 1, 2, 5, 10, 15, 25, 50, 75, 100}
			}
			return RunFig4(cfg)
		}},
		{"sec3", "Public vs private collector visibility (§3.1)", func(s Scale) fmt.Stringer {
			if s == Full {
				return RunSec3Private(1000, 60, 40, 3)
			}
			return RunSec3Private(250, 15, 10, 3)
		}},
		{"sec4", "Update redundancy under Defs 1-3 (§4.2)", func(s Scale) fmt.Stringer {
			return RunSec4(scenarioFor(s, 4))
		}},
		{"fig6", "VP redundancy under Defs 1-3 (Fig. 6)", func(s Scale) fmt.Stringer {
			seeds := 5
			if s == Full {
				seeds = 30
			}
			return RunFig6(scenarioFor(s, 6), 0, seeds)
		}},
		{"sec6", "Component #1 retained fractions (§6)", func(s Scale) fmt.Stringer {
			return RunSec6(scenarioFor(s, 6))
		}},
		{"fig11", "Reconstitution power curve (Fig. 11)", func(s Scale) fmt.Stringer {
			return RunFig11(scenarioFor(s, 11), 10)
		}},
		{"sec7", "Filter granularity generalization (§7)", func(s Scale) fmt.Stringer {
			return RunSec7(scenarioFor(s, 7))
		}},
		{"fig7", "Filter decay over days (Fig. 7)", func(s Scale) fmt.Stringer {
			return RunFig7(scenarioFor(s, 77), []int{1, 2, 4, 8, 16, 32, 64, 128})
		}},
		{"fig8", "Redundancy score drift over months (Fig. 8)", func(s Scale) fmt.Stringer {
			return RunFig8(scenarioFor(s, 8), []int{6, 12, 24, 48, 66}, perCell(s))
		}},
		{"fig12", "Balanced vs random event selection (Fig. 12)", func(s Scale) fmt.Stringer {
			return RunFig12(scenarioFor(s, 12), perCell(s))
		}},
		{"table1", "Daemon load and loss (Table 1)", func(s Scale) fmt.Stringer {
			cfg := DefaultTable1()
			if s == Full {
				cfg.LivePeers, cfg.LiveBudget = 16, 2000
			}
			return RunTable1(cfg)
		}},
		{"table2", "Sampling benchmark, 5 use cases × 13 schemes (Table 2)", func(s Scale) fmt.Stringer {
			return RunTable2(scenarioFor(s, 2), perCell(s))
		}},
		{"table3", "Long-term impact across coverages (Table 3)", func(s Scale) fmt.Stringer {
			cfg := DefaultTable3()
			if s == Full {
				// Near-paper scale kept tool-friendly (≈10 min); the
				// paper's 500 training failures and 50 events per cell are
				// plain Table3Config knobs for longer runs.
				cfg.ASes, cfg.TrainFailures, cfg.EvalFailures, cfg.EvalHijacks = 1000, 150, 40, 40
				cfg.Coverages = []float64{2, 10, 25, 50, 100}
				cfg.EventsPerCell = 15
			}
			return RunTable3(cfg)
		}},
		{"table5", "AS category census (Table 5)", func(s Scale) fmt.Stringer {
			n := 800
			if s == Full {
				n = 6000
			}
			return RunTable5(n, 5)
		}},
		{"sec12a", "AS-relationship inference replication (§12)", func(s Scale) fmt.Stringer {
			return RunSec12a(scenarioFor(s, 121), perCell(s))
		}},
		{"sec12b", "Customer-cone replication (§12)", func(s Scale) fmt.Stringer {
			return RunSec12b(scenarioFor(s, 122), perCell(s))
		}},
		{"sec12c", "DFOH forged-origin hijack replication (§12)", func(s Scale) fmt.Stringer {
			return RunSec12c(scenarioFor(s, 123), perCell(s))
		}},
	}
}

// Lookup finds a runner by id.
func Lookup(id string) (Runner, bool) {
	for _, r := range Registry() {
		if r.ID == id {
			return r, true
		}
	}
	return Runner{}, false
}
