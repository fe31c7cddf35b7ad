GO ?= go

.PHONY: all build test race bench-e2e bench-profile bench-pipeline bench-recompute chaos obs-smoke quality-smoke serve-smoke bench-serve fabric-smoke bench-fabric obs-fleet-smoke vitals-smoke bench-codec fuzz-smoke bench-guard census loc verify

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# One pass of the pipeline throughput sweep (shards × batch); full numbers
# need a longer -benchtime, e.g. `go test -bench BenchmarkPipelineThroughput
# -benchtime 3000x .`
bench-pipeline:
	$(GO) test -run xxx -bench BenchmarkPipeline -benchtime 1x ./...

# bench-recompute exercises the parallel, incremental sampling-component
# recompute: the new correlation/anchors/orchestrator recompute tests under
# the race detector, a smoke pass of BenchmarkRecompute (asserts the
# marshaled filter output is byte-identical at every worker count and
# across warm-cache refreshes), then the env-gated speedup guard — on a
# ≥4-core machine the 4-worker refresh must beat 1 worker by ≥2×.
bench-recompute:
	$(GO) test -race -count=1 -run 'Parallel|Cache|CrossPrefix|Recompute|Stale|Fanout|Due|Scores' \
		./internal/correlation/ ./internal/anchors/ ./internal/orchestrator/
	$(GO) test -run xxx -bench BenchmarkRecompute -benchtime 1x .
	GILL_BENCH_GUARD=1 $(GO) test -run TestRecomputeSpeedupGuard -count=1 -v .

# chaos runs the fault-injection suite under the race detector: the
# seeded faults harness itself, crash/kill recovery of the archive
# journal, flaky-accept and silent-peer handling, and supervised stream
# reconnection — then races the daemon's per-VP state (concurrent
# sessions, a blocked RIB dump) twenty times over.
chaos:
	$(GO) test -race -count=1 ./internal/faults/ ./internal/resilience/
	$(GO) test -race -count=1 -run 'Fault|Chaos|Kill|Truncat|Flaky|Accept|Idle|Degraded|Reconnect' \
		./internal/archive/ ./internal/daemon/ ./internal/stream/
	$(GO) test -race -count=20 -run 'Stall|DumpRIB|MultiplePeers|Collects' ./internal/daemon/

# obs-smoke boots a real gill-daemon with -admin on an ephemeral loopback
# port, curls every operator endpoint (/metrics incl. histogram buckets,
# /statusz, /healthz, /readyz, /tracez, pprof), then runs the tracing row
# of the env-gated overhead guard: the flight-recorder-enabled pipeline
# must keep 95% of the untraced throughput (median of alternated pairs).
obs-smoke:
	sh scripts/obs_smoke.sh
	GILL_BENCH_GUARD=1 $(GO) test -run 'TestOverheadGuard/tracing' -count=1 -v .

# quality-smoke exercises the data-quality plane: the quality package and
# shadow-lane/drift tests under the race detector, the end-to-end
# completeness-ledger tests (clean and chaos runs both must balance to
# zero residual), then the shadow row of the env-gated overhead guard —
# the shadow lane at the default 1/64 fraction must keep 95% of shadow-off
# throughput.
quality-smoke:
	$(GO) test -race -count=1 ./internal/quality/
	$(GO) test -race -count=1 -run 'Shadow|Drift|NoteDrift' ./internal/pipeline/ ./internal/orchestrator/
	$(GO) test -race -count=1 -run 'TestQualityLedger' .
	GILL_BENCH_GUARD=1 $(GO) test -run 'TestOverheadGuard/shadow' -count=1 -v .

# serve-smoke is the serving-plane end-to-end: boot a real daemon with a
# WAL journal, attach a filtered NDJSON stream subscriber, feed it BGP
# traffic over two peerings, then assert filtered delivery, the /api
# query and RIB endpoints, the serving metrics, and an offline index
# rebuild that answers the same question from the raw segments.
serve-smoke:
	sh scripts/serve_smoke.sh

# bench-serve runs the streaming scale guards: 100K+ concurrent
# subscribers with slow-client eviction, rate-limit drops, and healthy
# delivery all asserted, plus the machine-readable BENCH_serve.json
# report (fan-out throughput, delivery latency percentiles, publish
# allocations). A benchmark smoke pass rides along.
bench-serve:
	$(GO) test -run xxx -bench BenchmarkStreamFanout -benchtime 1x .
	GILL_BENCH_GUARD=1 $(GO) test -run 'TestStreamScaleGuard|TestServeBenchReport' -count=1 -v .

# fabric-smoke is the federation end-to-end: boot gill-orchestrator with
# the fleet coordinator (-fabric-listen), confirm four peerings and load a
# filter file on its console, join two gill-daemon collectors, assert
# fleet-wide byte-identical filter installation (FNV digest over the exact
# marshaled bytes), SIGKILL one collector, require its whole VP shard on
# the survivor within two lease periods, and require the orchestrator to
# exit 0 within 2 s of SIGTERM. The in-process fleet chaos tests
# (collector kill + control-plane fault injection + network partition,
# all under the race detector) run first.
fabric-smoke:
	$(GO) test -race -count=1 ./internal/fabric/
	sh scripts/fabric_smoke.sh

# bench-fabric measures the fabric control plane — heartbeat RTT p50/p99
# through the framed TCP protocol, sustained heartbeat throughput, filter
# propagation latency, and kill-to-reassignment failover latency against
# the lease deadline — and writes the machine-readable BENCH_fabric.json.
bench-fabric:
	GILL_BENCH_GUARD=1 $(GO) test -run TestFabricBenchReport -count=1 -v .

# obs-fleet-smoke is the fleet-observability end-to-end: boot
# gill-orchestrator with the fleet coordinator (metrics federation + SLO
# engine on tight windows) and two gill-daemon collectors, assert
# /fleet/metrics rollups with per-collector rows, /fleetz scrape health,
# /fleet/tracez, and a full synthetic incident on /alertz — SIGKILL a
# collector, watch the availability burn-rate alert fire, restart it,
# watch the alert resolve, then SIGTERM the orchestrator and require a
# clean exit within 2 s.
# The in-process fleet observability tests (stitched multi-process trace,
# exact rollup sums, SLO fire/resolve under partition) run first under
# the race detector, followed by the env-gated federation overhead guard.
obs-fleet-smoke:
	$(GO) test -race -count=1 ./internal/telemetry/... ./internal/metrics/
	GILL_BENCH_GUARD=1 $(GO) test -run TestFederationOverheadGuard -count=1 -v ./internal/telemetry/fleet/
	sh scripts/obs_fleet_smoke.sh

# vitals-smoke is the VP-vitals end-to-end: the vitals package tests
# (state machine, EWMA anomaly detection, gap-auditor exactness) and the
# in-process fleet incident test under the race detector, then a real
# gill-daemon with two simulated VPs — one feed goes silent with its
# session up, /vitalz must walk it live → silent → live, and the offline
# gap auditor must find the injected outage in the WAL — and finally the
# vitals row of the env-gated overhead guard (vitals on must hold 95% of
# vitals-off ingest throughput).
vitals-smoke:
	$(GO) test -race -count=1 ./internal/vitals/
	$(GO) test -race -count=1 -run TestFleetVitalsIncidentEndToEnd ./internal/telemetry/fleet/
	sh scripts/vitals_smoke.sh
	GILL_BENCH_GUARD=1 $(GO) test -run 'TestOverheadGuard/vitals' -count=1 -v .

# bench-codec runs the codec hot-path benchmarks (decode into a reused
# Update, legacy eager decode, append-encode into a reused buffer, and
# the daemon's filter → archive → counter ingest stages) and
# writes the machine-readable BENCH_codec.json report (throughputs,
# allocs/op, and the pipeline's own e2e ingest latency p50/p99). The
# report test also pins the zero-alloc contract: decode into a reused
# Update must be allocation-free and encode at most two allocations per
# message. Set CPUPROFILE=<path> to also capture a pprof CPU profile of
# the benchmark pass (`make bench-codec CPUPROFILE=codec.pprof`, then
# `go tool pprof codec.pprof`).
bench-codec:
	$(GO) test -run xxx -bench 'BenchmarkCodec|BenchmarkIngestAllocs' \
		$(if $(CPUPROFILE),-benchtime 100000x -cpuprofile $(CPUPROFILE),-benchtime 1x) .
	GILL_BENCH_GUARD=1 $(GO) test -run TestCodecBenchReport -count=1 -v .

# fuzz-smoke runs each native fuzz target briefly against its checked-in
# seeds plus a short randomized burst: the BGP wire decoder (eager and
# lazy paths must agree, re-encoding must be a byte-stable fixed point),
# the MRT record parser, the /stream filter grammar (every accepted
# filter's String() must parse back to the same filter), the /stream
# line appender (byte-identical to encoding/json), the index log replay
# (arbitrary gillidx.json bytes never fail Open/Sync or invent a segment)
# and WAL segment recovery (arbitrary segment bytes repair to a sealed
# file holding exactly the records recovery delivered, idempotently).
# Longer campaigns: raise -fuzztime.
fuzz-smoke:
	$(GO) test -run xxx -fuzz FuzzUnmarshal -fuzztime 5s ./internal/bgp/
	$(GO) test -run xxx -fuzz FuzzReadRecord -fuzztime 5s ./internal/mrt/
	$(GO) test -run xxx -fuzz FuzzParseFilter -fuzztime 5s ./internal/stream/
	$(GO) test -run xxx -fuzz FuzzAppendEventJSON -fuzztime 5s ./internal/stream/
	$(GO) test -run xxx -fuzz FuzzIndexOpen -fuzztime 5s ./internal/index/
	$(GO) test -run xxx -fuzz FuzzRecoverSegment -fuzztime 5s ./internal/archive/

# bench-guard is the perf-trajectory gate: regenerate BENCH_fabric.json,
# BENCH_serve.json and BENCH_codec.json on this machine and fail if any
# guarded metric (throughputs may not drop, p99 latencies may not grow,
# codec allocs/op may not increase at all) regressed more than
# GILL_BENCH_MAX_REGRESS (default 25%) against the committed baselines.
# The working tree is left clean either way.
bench-guard:
	sh scripts/bench_guard.sh

# bench-e2e runs the wire-to-subscriber benchmark (BENCHMARK.json, bench/)
# the way the driver does — each workload timed and traced, against the
# real gill-daemon — and fails on a non-zero exit or a run whose ledger
# check says "correct":false. BENCH_SEED picks the input seed; the last
# line of every run (the contract's JSON) is printed. A run that used the
# closed loop's whole tag space (attempted = 200 000 tags/s × 35 s) gets a
# warning and its per-slice line: its goodput and CPU per update then
# read the idle tail of the run.
BENCH_SEED ?= 1
bench-e2e:
	@for w in steady burst saturate; do for tr in 0 1; do \
		echo "bench-e2e: $$w seed=$(BENCH_SEED) trace=$$tr"; \
		out=$$(bash bench/run.sh --workload $$w --seed $(BENCH_SEED) --seconds 35 --trace $$tr) || \
			{ echo "$$out"; echo "bench-e2e: FAIL: $$w trace=$$tr exited non-zero"; exit 1; }; \
		echo "$$out" | tail -n 1; \
		echo "$$out" | tail -n 1 | grep -q '"correct":true' || \
			{ echo "bench-e2e: FAIL: $$w trace=$$tr is not correct"; exit 1; }; \
		if echo "$$out" | tail -n 1 | grep -q '"attempted":7000000[,}]'; then \
			echo "bench-e2e: WARN: $$w used its whole tag space — goodput_upd_per_s and daemon_cpu_us_per_upd read the empty tail"; \
			echo "$$out" | grep 'by slice:' || true; \
		fi; \
	done; done

# bench-profile runs one workload of the wire-to-subscriber benchmark
# (bench/ untouched) and, mid-run, takes a 10 s CPU profile from the
# daemon's admin plane plus every daemon thread's voluntary and
# involuntary context switches over the same 10 s; it prints
# `go tool pprof -top -cum` and the switch table, and keeps both under
# .bench_profile/. Every hot-path claim cites the profile this makes.
WORKLOAD ?= saturate
bench-profile:
	WORKLOAD=$(WORKLOAD) BENCH_SEED=$(BENCH_SEED) GO=$(GO) sh scripts/bench_profile.sh

# census fails, naming each one, when a repro/internal/... package is not
# among the dependencies of any cmd/ binary: code no binary runs is dead
# weight, and this keeps it from quietly regrowing. CENSUS_TEST_ONLY names
# the packages that exist for tests alone (the fault-injection harness).
CENSUS_TEST_ONLY = repro/internal/faults
census:
	@deps="$$($(GO) list -deps ./cmd/...) $(CENSUS_TEST_ONLY)" && pkgs=$$($(GO) list ./internal/...) && \
	dead=$$(for p in $$pkgs; do echo "$$deps" | tr ' ' '\n' | grep -qxF "$$p" || echo "$$p"; done) && \
	if [ -n "$$dead" ]; then \
		echo "census: FAIL: no cmd/ binary reaches:"; echo "$$dead" | sed 's/^/  /'; exit 1; \
	fi; \
	echo "census: every internal package is reached from cmd/"

# loc prints the three line counts CHANGES.md reports a PR's LoC delta
# in: tracked non-test Go and test Go outside bench/ (the benchmark is
# frozen between PRs), and scripts/*.sh.
loc:
	@printf 'non-test Go: %d\ntest Go: %d\nscripts sh: %d\n' \
		$$(git ls-files '*.go' | grep -v '^bench/' | grep -v '_test\.go$$' | xargs cat | wc -l) \
		$$(git ls-files '*_test.go' | grep -v '^bench/' | xargs cat | wc -l) \
		$$(git ls-files 'scripts/*.sh' | xargs cat | wc -l)

# verify is the full pre-merge gate: vet, build, race-enabled tests, the
# fault-injection suite, smoke runs of the pipeline and recompute
# benchmarks, the observability smoke (admin endpoints + tracing
# overhead), the data-quality smoke (ledger conservation + shadow
# overhead), the serving-plane smoke (indexed queries + filtered
# streaming end to end), the federation smoke (fleet chaos tests plus
# the orchestrator-hosted coordinator + two-collector failover with
# byte-identical filter distribution), the fleet-observability smoke (federated metrics,
# stitched traces, and a live SLO incident), the vitals smoke (per-VP
# live → silent → live classification against a real daemon plus the
# offline archive-gap audit), the codec fuzz smoke (no
# decoder panics, lazy/eager agreement, encode fixed points), the
# census (every internal package is reached from a cmd/ binary), and the
# bench guard (no guarded benchmark metric may regress past the
# committed baselines; codec allocs/op may not increase at all).
verify:
	$(GO) vet ./...
	$(GO) build ./...
	$(MAKE) census
	$(GO) test -race ./...
	$(MAKE) chaos
	$(GO) test -run xxx -bench BenchmarkPipeline -benchtime 1x ./...
	$(MAKE) bench-recompute
	$(MAKE) obs-smoke
	$(MAKE) quality-smoke
	$(MAKE) serve-smoke
	$(MAKE) fabric-smoke
	$(MAKE) obs-fleet-smoke
	$(MAKE) vitals-smoke
	$(MAKE) fuzz-smoke
	$(MAKE) bench-guard
