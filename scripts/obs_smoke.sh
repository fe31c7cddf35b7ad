#!/bin/sh
# obs_smoke.sh — boot a real gill-daemon with the admin plane on an
# ephemeral loopback port and verify the operator endpoints end to end:
# /healthz, /readyz, /statusz, /tracez, /qualityz, and a well-formed
# /metrics exposition carrying the core pipeline series, the quality.*
# data-quality series, and the ldflags-stamped build_info gauge. Then the
# same admin-plane checks against gill-orchestrator.
#
# Run via `make obs-smoke` (which also runs the tracing-overhead guard).
set -eu

GO=${GO:-go}
dir=$(mktemp -d)
pid=""
opid=""
cleanup() {
	[ -n "$pid" ] && kill "$pid" 2>/dev/null || true
	[ -n "$pid" ] && wait "$pid" 2>/dev/null || true
	[ -n "$opid" ] && kill "$opid" 2>/dev/null || true
	[ -n "$opid" ] && wait "$opid" 2>/dev/null || true
	rm -rf "$dir"
}
trap cleanup EXIT INT TERM

# Stamp the build so the build_info check exercises the real ldflags path,
# not just the baked-in defaults.
LDFLAGS="-X repro/internal/telemetry.Version=smoke-test -X repro/internal/telemetry.GitSHA=0123abc"

echo "obs-smoke: building gill-daemon and gill-orchestrator"
$GO build -ldflags "$LDFLAGS" -o "$dir/gill-daemon" ./cmd/gill-daemon
$GO build -ldflags "$LDFLAGS" -o "$dir/gill-orchestrator" ./cmd/gill-orchestrator

"$dir/gill-daemon" -listen 127.0.0.1:0 -admin 127.0.0.1:0 -stats 0 \
	2>"$dir/daemon.log" &
pid=$!

# The daemon logs `admin_addr=127.0.0.1:PORT` (logfmt) once the admin
# plane is listening; poll for it rather than racing the startup.
addr=""
i=0
while [ $i -lt 50 ]; do
	addr=$(sed -n 's/.*admin_addr=\([0-9.:]*\).*/\1/p' "$dir/daemon.log" | head -n1)
	[ -n "$addr" ] && break
	if ! kill -0 "$pid" 2>/dev/null; then
		echo "obs-smoke: FAIL: daemon exited during startup" >&2
		cat "$dir/daemon.log" >&2
		exit 1
	fi
	i=$((i + 1))
	sleep 0.1
done
if [ -z "$addr" ]; then
	echo "obs-smoke: FAIL: admin plane never came up" >&2
	cat "$dir/daemon.log" >&2
	exit 1
fi
echo "obs-smoke: admin plane at $addr"

fail() {
	echo "obs-smoke: FAIL: $1" >&2
	exit 1
}

curl -fsS "http://$addr/healthz" | grep -q '^ok$' ||
	fail "/healthz did not answer ok"
# -f turns the 503 "not ready" answer into a curl failure, so a plain
# 200 is the readiness check; the body is the human-readable reason.
curl -fsS "http://$addr/readyz" >/dev/null ||
	fail "/readyz did not answer 200"
curl -fsS "http://$addr/statusz" >"$dir/statusz.json"
grep -q '"filter_generation"' "$dir/statusz.json" ||
	fail "/statusz missing filter_generation"
grep -q '"degraded"' "$dir/statusz.json" ||
	fail "/statusz missing degraded flag"
curl -fsS "http://$addr/tracez?n=10" | grep -q '"traces"' ||
	fail "/tracez missing traces array"
curl -fsS "http://$addr/debug/pprof/cmdline" >/dev/null ||
	fail "/debug/pprof not mounted"

curl -fsS "http://$addr/metrics" >"$dir/metrics.txt"
for series in \
	daemon_pipeline_in \
	daemon_pipeline_queue_wait_ns_bucket \
	daemon_pipeline_e2e_latency_ns_count \
	daemon_degraded \
	daemon_accept_retries; do
	grep -q "^$series" "$dir/metrics.txt" ||
		fail "/metrics missing series $series"
done
grep -q '^# TYPE daemon_pipeline_queue_wait_ns histogram' "$dir/metrics.txt" ||
	fail "/metrics missing histogram TYPE line"
grep -q 'le="+Inf"' "$dir/metrics.txt" ||
	fail "/metrics histogram missing +Inf terminal bucket"

# Data-quality plane: the quality.* catalogue must be registered from
# boot (not lazily on the first audit), and /qualityz must serve a fresh
# audit report.
for series in \
	quality_shadow_observed \
	quality_shadow_buffered \
	quality_rp_live_ppm \
	quality_drift_score_ppm \
	quality_unaccounted; do
	grep -q "^$series" "$dir/metrics.txt" ||
		fail "/metrics missing series $series"
done
grep -q '^build_info{' "$dir/metrics.txt" ||
	fail "/metrics missing build_info gauge"
grep -q 'version="smoke-test"' "$dir/metrics.txt" ||
	fail "build_info not carrying the ldflags-stamped version"
grep -q 'git_sha="0123abc"' "$dir/metrics.txt" ||
	fail "build_info not carrying the ldflags-stamped git sha"
curl -fsS "http://$addr/qualityz" >"$dir/qualityz.json"
grep -q '"shadow_fraction"' "$dir/qualityz.json" ||
	fail "/qualityz missing shadow_fraction"
grep -q '"ledger"' "$dir/qualityz.json" ||
	fail "/qualityz missing the completeness ledger"
grep -q '"unaccounted": 0' "$dir/qualityz.json" ||
	fail "/qualityz ledger residual nonzero on an idle daemon"
grep -q '"build"' "$dir/statusz.json" ||
	fail "/statusz missing build info"

kill "$pid"
wait "$pid" 2>/dev/null || true
pid=""
echo "obs-smoke: daemon PASS ($(wc -l <"$dir/metrics.txt") metric lines)"

# Same checks against the orchestrator's admin plane. Its stdin is the
# command console; EOF closes the console, not the process.
"$dir/gill-orchestrator" -admin 127.0.0.1:0 \
	</dev/null >"$dir/orch.out" 2>"$dir/orch.log" &
opid=$!
oaddr=""
i=0
while [ $i -lt 50 ]; do
	oaddr=$(sed -n 's/.*admin_addr=\([0-9.:]*\).*/\1/p' "$dir/orch.log" | head -n1)
	[ -n "$oaddr" ] && break
	if ! kill -0 "$opid" 2>/dev/null; then
		echo "obs-smoke: FAIL: orchestrator exited during startup" >&2
		cat "$dir/orch.log" >&2
		exit 1
	fi
	i=$((i + 1))
	sleep 0.1
done
[ -n "$oaddr" ] || fail "orchestrator admin plane never came up"
echo "obs-smoke: orchestrator admin plane at $oaddr"

curl -fsS "http://$oaddr/healthz" | grep -q '^ok$' ||
	fail "orchestrator /healthz did not answer ok"
curl -fsS "http://$oaddr/metrics" >"$dir/orch-metrics.txt"
for series in \
	quality_shadow_observed \
	quality_drift_score_ppm \
	recompute_drift_signals \
	recompute_last_drift_ppm; do
	grep -q "^$series" "$dir/orch-metrics.txt" ||
		fail "orchestrator /metrics missing series $series"
done
grep -q 'version="smoke-test"' "$dir/orch-metrics.txt" ||
	fail "orchestrator build_info not stamped"
curl -fsS "http://$oaddr/qualityz" | grep -q '"shadow_fraction": "all"' ||
	fail "orchestrator /qualityz not auditing the full replayed stream"
curl -fsS "http://$oaddr/statusz" | grep -q '"autorefresh"' ||
	fail "orchestrator /statusz missing the autorefresh state"

kill "$opid" 2>/dev/null || true
wait "$opid" 2>/dev/null || true
opid=""
echo "obs-smoke: PASS"
