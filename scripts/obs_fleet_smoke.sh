#!/bin/sh
# obs_fleet_smoke.sh — fleet observability end to end with real
# processes: boot gill-orchestrator hosting the fleet coordinator (metrics
# federation + SLO engine on tight windows; its console confirms the two
# peerings from a file on stdin) and two gill-daemon collectors, then
# assert the coordinator-side surfaces: /fleet/metrics carries both the
# rolled-up series and the per-collector labeled rows with
# fleet_collector_up markers, /fleetz joins lease state with scrape
# health, /fleet/tracez serves the stitched trace view, and /alertz runs
# a full synthetic incident — SIGKILL one collector (its lease outlives
# it, so the fleet keeps a stale row rather than dropping it), watch the
# availability SLO fire on both burn windows, restart the collector under
# the same fabric identity, and watch the alert resolve. Finally the
# orchestrator must exit 0 within 2 s of SIGTERM.
#
# Run via `make obs-fleet-smoke` (part of `make verify`).
set -eu

GO=${GO:-go}
dir=$(mktemp -d)
cpid=""
d1pid=""
d2pid=""
cleanup() {
	for p in "$cpid" "$d1pid" "$d2pid"; do
		[ -n "$p" ] && kill "$p" 2>/dev/null || true
	done
	for p in "$cpid" "$d1pid" "$d2pid"; do
		[ -n "$p" ] && wait "$p" 2>/dev/null || true
	done
	rm -rf "$dir"
}
trap cleanup EXIT INT TERM

fail() {
	echo "obs-fleet-smoke: FAIL: $1" >&2
	for f in coord.log coord.out d1.log d2.log; do
		[ -f "$dir/$f" ] && { echo "--- $f ---" >&2; tail -20 "$dir/$f" >&2; }
	done
	exit 1
}

# poll_log FILE KEY: extract `KEY=host:port` from a logfmt line, waiting
# for the process to print it.
poll_log() {
	file=$1 key=$2 ppid=$3
	i=0
	addr=""
	while [ $i -lt 100 ]; do
		addr=$(sed -n "s/.*$key=\([0-9.:]*\).*/\1/p" "$file" | head -n1)
		[ -n "$addr" ] && { echo "$addr"; return 0; }
		kill -0 "$ppid" 2>/dev/null || return 1
		i=$((i + 1))
		sleep 0.1
	done
	return 1
}

# term_within_2s PID: SIGTERM PID and return its exit status; a watchdog
# SIGKILLs it if it is still running 2 s later (status 137).
term_within_2s() {
	kill -TERM "$1"
	(
		sleep 2
		kill -KILL "$1" 2>/dev/null
	) &
	wd=$!
	rc=0
	wait "$1" || rc=$?
	kill "$wd" 2>/dev/null || true
	return $rc
}

echo "obs-fleet-smoke: building gill-orchestrator and gill-daemon"
$GO build -o "$dir/gill-orchestrator" ./cmd/gill-orchestrator
$GO build -o "$dir/gill-daemon" ./cmd/gill-daemon

# The console confirms two peerings — the fleet's VPs vp65001 and
# vp65002 — and reaches EOF; the orchestrator keeps serving.
cat >"$dir/console.txt" <<'EOF'
submit 65001 noc@as65001.example 192.0.2.1
confirm 65001 noc@as65001.example
submit 65002 noc@as65002.example 192.0.2.2
confirm 65002 noc@as65002.example
EOF

# A long lease keeps a SIGKILLed collector on the books (stale, never
# dropped) for the whole incident; tight scrape/SLO windows make the
# burn-rate alert fire and resolve within seconds (a collector renders
# stale 3 scrape intervals after its last good scrape).
"$dir/gill-orchestrator" \
	-fabric-listen 127.0.0.1:0 -admin 127.0.0.1:0 -fabric-lease 60s \
	-scrape-every 500ms -slo-short 2s -slo-long 6s \
	<"$dir/console.txt" >"$dir/coord.out" 2>"$dir/coord.log" &
cpid=$!

caddr=$(poll_log "$dir/coord.log" fabric_addr "$cpid") ||
	fail "coordinator control plane never came up"
aaddr=$(poll_log "$dir/coord.log" admin_addr "$cpid") ||
	fail "coordinator admin plane never came up"
echo "obs-fleet-smoke: coordinator control=$caddr admin=$aaddr"

start_daemon() { # id logfile
	"$dir/gill-daemon" -listen 127.0.0.1:0 -admin 127.0.0.1:0 -stats 0 \
		-coordinator "$caddr" -fabric-id "$1" \
		2>"$dir/$2" &
}

start_daemon c1 d1.log
d1pid=$!
start_daemon c2 d2.log
d2pid=$!
poll_log "$dir/d1.log" admin_addr "$d1pid" >/dev/null || fail "c1 admin never came up"
poll_log "$dir/d2.log" admin_addr "$d2pid" >/dev/null || fail "c2 admin never came up"

# Wait for both collectors to register AND be scraped fresh.
i=0
while [ $i -lt 100 ]; do
	curl -fsS "http://$aaddr/fleetz" >"$dir/fleetz.json" 2>/dev/null || true
	if [ "$(grep -c '"state": "fresh"' "$dir/fleetz.json" 2>/dev/null)" = "2" ]; then
		break
	fi
	i=$((i + 1))
	sleep 0.2
done
[ "$(grep -c '"state": "fresh"' "$dir/fleetz.json")" = "2" ] ||
	fail "both collectors never scraped fresh on /fleetz"
grep -q '"scrapes"' "$dir/fleetz.json" || fail "/fleetz missing scrape health rows"
echo "obs-fleet-smoke: both collectors fresh on /fleetz"

# /fleet/metrics: rolled-up series, per-collector labeled rows, and the
# up/staleness markers for every fleet member.
curl -fsS "http://$aaddr/fleet/metrics" >"$dir/fleet-metrics.txt" ||
	fail "/fleet/metrics not served"
for want in \
	'^daemon_pipeline_in ' \
	'^daemon_pipeline_in{collector="c1"}' \
	'^daemon_pipeline_in{collector="c2"}' \
	'^fleet_collector_up{collector="c1"} 1' \
	'^fleet_collector_up{collector="c2"} 1' \
	'^fleet_collector_scrape_age_seconds{collector="c1"}' \
	'^# TYPE daemon_pipeline_e2e_latency_ns histogram'; do
	grep -q "$want" "$dir/fleet-metrics.txt" ||
		fail "/fleet/metrics missing $want"
done
echo "obs-fleet-smoke: /fleet/metrics carries rollups and per-collector rows"

curl -fsS "http://$aaddr/fleet/tracez?n=5" | grep -q '"traces"' ||
	fail "/fleet/tracez missing traces array"

curl -fsS "http://$aaddr/alertz" >"$dir/alertz.json" || fail "/alertz not served"
grep -q '"collector-availability"' "$dir/alertz.json" ||
	fail "/alertz missing the availability objective"
grep -q '"firing": 0' "$dir/alertz.json" ||
	fail "/alertz firing on a healthy fleet"

# Synthetic incident: SIGKILL c1. The lease outlives the corpse, so the
# fleet must keep a stale row for it while the availability SLO burns.
echo "obs-fleet-smoke: killing c1 (lease stays live)"
kill -9 "$d1pid" 2>/dev/null || true
wait "$d1pid" 2>/dev/null || true
d1pid=""

i=0
fired=""
while [ $i -lt 150 ]; do
	curl -fsS "http://$aaddr/alertz" >"$dir/alertz.json" 2>/dev/null || true
	if grep -q '"name": "collector-availability"' "$dir/alertz.json" &&
		grep -A8 '"name": "collector-availability"' "$dir/alertz.json" | grep -q '"firing": true'; then
		fired=yes
		break
	fi
	i=$((i + 1))
	sleep 0.2
done
[ -n "$fired" ] || fail "availability SLO never fired after the kill"
echo "obs-fleet-smoke: availability alert FIRING"

# The dead collector must render stale — present, last-seen preserved —
# and its series must stay in the rollup.
curl -fsS "http://$aaddr/fleetz" >"$dir/fleetz.json"
grep -q '"state": "stale"' "$dir/fleetz.json" ||
	fail "killed collector not rendered stale on /fleetz"
curl -fsS "http://$aaddr/fleet/metrics" | grep -q '^fleet_collector_up{collector="c1"} 0' ||
	fail "killed collector lost its up=0 marker on /fleet/metrics"
curl -fsS "http://$aaddr/fleet/metrics" | grep -q '^daemon_pipeline_in{collector="c1"}' ||
	fail "killed collector's series dropped from the rollup"

# Heal: restart under the same fabric identity. The register frame
# carries the new admin address, scrapes go fresh, and the short burn
# window must resolve the alert.
echo "obs-fleet-smoke: restarting c1"
start_daemon c1 d1b.log
d1pid=$!
poll_log "$dir/d1b.log" admin_addr "$d1pid" >/dev/null || fail "restarted c1 admin never came up"

i=0
resolved=""
while [ $i -lt 150 ]; do
	curl -fsS "http://$aaddr/alertz" >"$dir/alertz.json" 2>/dev/null || true
	if grep -q '"firing": 0' "$dir/alertz.json"; then
		resolved=yes
		break
	fi
	i=$((i + 1))
	sleep 0.2
done
[ -n "$resolved" ] || fail "availability SLO never resolved after the restart"
echo "obs-fleet-smoke: alert RESOLVED after heal"

curl -fsS "http://$aaddr/fleetz" | grep -q '"state": "fresh"' ||
	fail "restarted collector never scraped fresh"

term_within_2s "$cpid" ||
	fail "orchestrator did not exit 0 within 2 s of SIGTERM (137: killed after 2 s)"
cpid=""

echo "obs-fleet-smoke: PASS"
