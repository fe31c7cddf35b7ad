#!/bin/sh
# vitals_smoke.sh — end-to-end smoke of the VP vitals plane: boot a real
# gill-daemon with a WAL journal and tight vitals windows, feed it two
# BGP peerings, then silence one feed while its session stays up. The
# /vitalz surface must walk that VP through live → silent → live as the
# feed stops and resumes, the vitals.* series must export on /metrics,
# and after shutdown the offline gap auditor (gill-query -gaps) must
# report the injected outage as an archive gap on the silent VP and a
# gapless record for the healthy one.
#
# Run via `make vitals-smoke`.
set -eu

GO=${GO:-go}
dir=$(mktemp -d)
pid=""
cleanup() {
	[ -n "$pid" ] && kill "$pid" 2>/dev/null || true
	[ -n "$pid" ] && wait "$pid" 2>/dev/null || true
	rm -rf "$dir"
}
trap cleanup EXIT INT TERM

fail() {
	echo "vitals-smoke: FAIL: $1" >&2
	[ -f "$dir/daemon.log" ] && tail -20 "$dir/daemon.log" >&2
	exit 1
}

echo "vitals-smoke: building gill-daemon, gill-query, smokefeed"
$GO build -o "$dir/gill-daemon" ./cmd/gill-daemon
$GO build -o "$dir/gill-query" ./cmd/gill-query
$GO build -o "$dir/smokefeed" ./scripts/smokefeed

# Tight vitals windows so the outage classifies within the run: evaluate
# every 200ms, a VP is silent after 1.5s without updates, and any archive
# hole over 2s is a coverage gap. Small segments roll the journal through
# frequent seals, which is what feeds the online gap auditor.
"$dir/gill-daemon" -listen 127.0.0.1:0 -admin 127.0.0.1:0 \
	-wal "$dir/wal" -wal-rotate 8 -stats 0 \
	-vitals-eval 200ms -vitals-silent-after 1500ms -vitals-max-gap 2s \
	2>"$dir/daemon.log" &
pid=$!

addr=""
bgp=""
i=0
while [ $i -lt 50 ]; do
	addr=$(sed -n 's/.*admin_addr=\([0-9.:]*\).*/\1/p' "$dir/daemon.log" | head -n1)
	bgp=$(sed -n 's/.* addr=\([0-9.:]*\).*/\1/p' "$dir/daemon.log" | head -n1)
	[ -n "$addr" ] && [ -n "$bgp" ] && break
	if ! kill -0 "$pid" 2>/dev/null; then
		echo "vitals-smoke: FAIL: daemon exited during startup" >&2
		cat "$dir/daemon.log" >&2
		exit 1
	fi
	i=$((i + 1))
	sleep 0.1
done
[ -n "$addr" ] || fail "admin plane never came up"
[ -n "$bgp" ] || fail "BGP listener never came up"
echo "vitals-smoke: admin plane at $addr, BGP at $bgp"

# vp_state polls /vitalz for one VP's current state (JSON flattened so
# the row's field order is greppable without a JSON tool).
vp_state() {
	curl -fsS "http://$addr/vitalz" 2>/dev/null | tr -d ' \n\t' |
		sed -n "s/.*\"vp\":\"$1\",\"state\":\"\([a-z]*\)\".*/\1/p"
}
wait_state() { # vp  want  tries  what
	i=0
	while [ $i -lt "$3" ]; do
		[ "$(vp_state "$1")" = "$2" ] && return 0
		i=$((i + 1))
		sleep 0.1
	done
	fail "$4 (last state: $(vp_state "$1"))"
}

# The feeder runs its own timeline in the background: both peers feed for
# 2s (40 rounds at 20/s), peer 2 goes silent for 4s with its session up,
# then resumes for 3s (60 rounds).
"$dir/smokefeed" -addr "$bgp" -rate 20 -pre 40 -outage 4s -post 60 \
	>"$dir/feed.log" 2>&1 &
fpid=$!

wait_state vp65002 live 40 "vp65002 never went live"
wait_state vp65001 live 10 "vp65001 never went live"
echo "vitals-smoke: both VPs live"

# The outage: the feed stops but the session does not. Silent must arrive
# within the 1.5s silent-after window plus one evaluation tick.
wait_state vp65002 silent 60 "vp65002 never classified silent during the outage"
[ "$(vp_state vp65001)" = "live" ] ||
	fail "vp65001 lost liveness while only vp65002 was silent"
echo "vitals-smoke: vp65002 silent while its session stayed up, vp65001 unharmed"

# The resume: first update flips the VP straight back to live.
wait_state vp65002 live 60 "vp65002 never recovered after the feed resumed"
echo "vitals-smoke: vp65002 recovered"

wait "$fpid" || fail "smokefeed failed: $(cat "$dir/feed.log")"

# The aggregate vitals series must export on /metrics, and the per-VP
# drill-down rows on /vitalz?format=prom.
curl -fsS "http://$addr/metrics" >"$dir/metrics.txt"
for series in \
	vitals_vps \
	vitals_transitions \
	vitals_observed \
	vitals_vp_age_ms \
	vitals_coverage_good_total \
	vitals_coverage_events_total \
	vitals_gap_seconds_total; do
	grep -q "^$series" "$dir/metrics.txt" ||
		fail "/metrics missing series $series"
done
curl -fsS "http://$addr/vitalz?format=prom" >"$dir/vitalz.prom"
grep -q 'vitals_vp_state{vp="vp65002",state="live"} 1' "$dir/vitalz.prom" ||
	fail "/vitalz?format=prom missing the vp65002 live row"

# The online auditor is fed by the segment follower as the WAL seals
# segments; once the follower has caught up it must already charge
# vp65002 a gap.
follower_idle() {
	curl -fsS "http://$addr/metrics" >"$dir/lag.txt" 2>/dev/null &&
		grep -q '^index_follower_lag_segments 0$' "$dir/lag.txt"
}
i=0
while [ $i -lt 50 ]; do
	follower_idle && break
	i=$((i + 1))
	sleep 0.1
done
follower_idle || fail "segment follower never caught up"
curl -fsS "http://$addr/vitalz" | tr -d ' \n\t' >"$dir/vitalz.json"
grep -q '"gap_seconds_total":[1-9]' "$dir/vitalz.json" ||
	fail "online gap auditor never recorded the outage"

kill -INT "$pid"
wait "$pid" 2>/dev/null || true
pid=""

# Offline: replay the journal through the gap auditor. The injected 4s
# outage must surface as a >=3s gap on vp65002 and vp65001 must be
# gapless end to end.
"$dir/gill-query" -wal "$dir/wal" -gaps -gap-min 2s >"$dir/gaps.txt" ||
	fail "gill-query -gaps failed"
grep -E '^vp65002 .* gaps [1-9]' "$dir/gaps.txt" >/dev/null ||
	fail "offline audit shows no gap on vp65002: $(cat "$dir/gaps.txt")"
grep -E '^vp65001 .* gaps 0 \(0s\)' "$dir/gaps.txt" >/dev/null ||
	fail "offline audit charges the healthy vp65001 a gap: $(cat "$dir/gaps.txt")"
gap=$(sed -n 's/^  gap .*(\([0-9]*\)s)$/\1/p' "$dir/gaps.txt" | head -n1)
[ -n "$gap" ] && [ "$gap" -ge 3 ] ||
	fail "vp65002 gap is ${gap:-absent}s, want >= 3s for a 4s outage"
echo "vitals-smoke: offline audit found the ${gap}s archive gap on vp65002, vp65001 gapless"

echo "vitals-smoke: PASS"
