#!/bin/sh
# fabric_smoke.sh — end-to-end smoke of the federated collector fabric:
# boot gill-orchestrator hosting the fleet coordinator, feed its console
# four peerings (submit + confirm) and a filter file from a file on stdin,
# join two gill-daemon collectors to the fleet, verify the assignment
# covers every VP and both collectors installed byte-identical filter
# sets, then SIGKILL one collector and assert its entire VP shard is
# rebalanced onto the survivor within two lease periods — with the
# survivor's filter generation (and FNV digest of the exact filter bytes)
# unchanged. The orchestrator must outlive its console's EOF and exit 0
# within 2 s of SIGTERM.
#
# Run via `make fabric-smoke`.
set -eu

GO=${GO:-go}
dir=$(mktemp -d)
coordpid=""
pid1=""
pid2=""
cleanup() {
	for p in "$coordpid" "$pid1" "$pid2"; do
		[ -n "$p" ] && kill "$p" 2>/dev/null || true
	done
	for p in "$coordpid" "$pid1" "$pid2"; do
		[ -n "$p" ] && wait "$p" 2>/dev/null || true
	done
	rm -rf "$dir"
}
trap cleanup EXIT INT TERM

fail() {
	echo "fabric-smoke: FAIL: $1" >&2
	for log in coord.log console.out d1.log d2.log; do
		if [ -f "$dir/$log" ]; then
			echo "--- $log ---" >&2
			tail -10 "$dir/$log" >&2
		fi
	done
	exit 1
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

echo "fabric-smoke: building gill-orchestrator, gill-daemon"
$GO build -o "$dir/gill-orchestrator" ./cmd/gill-orchestrator
$GO build -o "$dir/gill-daemon" ./cmd/gill-daemon

# The filter set distributed to the fleet (Marshal text format).
cat >"$dir/fleet.filters" <<'EOF'
granularity 0
accept-all vp65001
drop vp65002|192.0.2.0/24
drop vp65003|198.51.100.0/24
EOF

# The console script: four confirmed peerings are the fleet's VPs
# (vp65001..vp65004), then the filter file is installed and pushed. The
# console reaches EOF right after; the orchestrator keeps serving.
for as in 65001 65002 65003 65004; do
	echo "submit $as noc@as$as.example 192.0.2.$((as - 65000))"
	echo "confirm $as noc@as$as.example"
done >"$dir/console.txt"
echo "filters $dir/fleet.filters" >>"$dir/console.txt"

# A short lease so failover is quick; the 2-lease failover deadline below
# scales with this.
lease_ms=1000
"$dir/gill-orchestrator" -fabric-listen 127.0.0.1:0 -admin 127.0.0.1:0 \
	-fabric-lease "${lease_ms}ms" \
	<"$dir/console.txt" >"$dir/console.out" 2>"$dir/coord.log" &
coordpid=$!

grab() { # grab <logfile> <key>
	sed -n "s/.*$2=\([0-9.:]*\).*/\1/p" "$dir/$1" | head -n1
}
ctrl=""
cadmin=""
i=0
while [ $i -lt 50 ]; do
	ctrl=$(grab coord.log "fabric_addr")
	cadmin=$(grab coord.log "admin_addr")
	[ -n "$ctrl" ] && [ -n "$cadmin" ] && break
	kill -0 "$coordpid" 2>/dev/null || fail "orchestrator exited during startup"
	i=$((i + 1))
	sleep 0.1
done
[ -n "$ctrl" ] || fail "coordinator control plane never came up"
[ -n "$cadmin" ] || fail "coordinator admin plane never came up"
echo "fabric-smoke: coordinator control at $ctrl, admin at $cadmin"

"$dir/gill-daemon" -listen 127.0.0.1:0 -admin 127.0.0.1:0 -stats 0 \
	-coordinator "$ctrl" -fabric-id c1 2>"$dir/d1.log" &
pid1=$!
"$dir/gill-daemon" -listen 127.0.0.1:0 -admin 127.0.0.1:0 -stats 0 \
	-coordinator "$ctrl" -fabric-id c2 2>"$dir/d2.log" &
pid2=$!

# The admin plane indents its JSON; strip whitespace so the grep
# patterns below can assume compact key:value form.
fleetz() { curl -fsS "http://$cadmin/fleetz" | tr -d ' \n\t'; }

# Both collectors join, every VP is assigned, and both report the fleet's
# filter generation installed.
i=0
while [ $i -lt 100 ]; do
	f=$(fleetz || true)
	if echo "$f" | grep -q '"id":"c1"' && echo "$f" | grep -q '"id":"c2"' &&
		echo "$f" | grep -q '"vps":4,' && ! echo "$f" | grep -q '"unassigned"'; then
		installs=$(echo "$f" | grep -o '"installed_filter_gen":1' | wc -l)
		[ "$installs" -eq 2 ] && break
	fi
	i=$((i + 1))
	sleep 0.1
done
f=$(fleetz)
echo "$f" | grep -q '"id":"c1"' || fail "c1 never joined the fleet"
echo "$f" | grep -q '"id":"c2"' || fail "c2 never joined the fleet"
echo "$f" | grep -q '"vps":4,' || fail "the fleet does not hold the four confirmed peers as VPs"
echo "$f" | grep -q '"unassigned"' && fail "VPs left unassigned with two live collectors" || true
[ "$(echo "$f" | grep -o '"installed_filter_gen":1' | wc -l)" -eq 2 ] ||
	fail "filter generation 1 not installed fleet-wide"

# Each collector advertises the BGP address its listener bound (the
# -listen flag says port 0), the one its log reports.
for c in c1 c2; do
	row=$(echo "$f" | tr '{' '\n' | grep "\"id\":\"$c\"")
	bgp=$(grab "d${c#c}.log" " addr")
	echo "$row" | grep -q '"addr":"[0-9.]*:[1-9][0-9]*"' ||
		fail "$c advertises no resolved BGP address: $row"
	echo "$row" | grep -q "\"addr\":\"$bgp\"" ||
		fail "$c advertises a BGP address other than its listener's $bgp: $row"
done

# Byte-identity witness: the fleet digest and both collectors' digests
# must agree (the sum is FNV-64a over the exact marshaled filter bytes).
fleetsum=$(echo "$f" | sed -n 's/.*"filter_sum":"\([0-9a-f]*\)".*/\1/p' | head -n1)
[ -n "$fleetsum" ] || fail "no fleet filter_sum in /fleetz"
[ "$(echo "$f" | grep -o "\"installed_filter_sum\":\"$fleetsum\"" | wc -l)" -eq 2 ] ||
	fail "collector filter digests diverge from the fleet digest $fleetsum"
echo "fabric-smoke: both collectors installed filter digest $fleetsum"

# The daemon side agrees: each collector's own /fleetz reports the same
# digest through its fabric agent.
d1admin=$(grab d1.log "admin_addr")
d2admin=$(grab d2.log "admin_addr")
[ -n "$d1admin" ] || fail "d1 admin plane never came up"
[ -n "$d2admin" ] || fail "d2 admin plane never came up"
curl -fsS "http://$d1admin/fleetz" | tr -d ' \n\t' | grep -q "\"filter_sum\":\"$fleetsum\"" ||
	fail "c1's agent digest differs from the fleet digest"
curl -fsS "http://$d2admin/fleetz" | tr -d ' \n\t' | grep -q "\"filter_sum\":\"$fleetsum\"" ||
	fail "c2's agent digest differs from the fleet digest"

# SIGKILL collector c1 — no goodbye, no FIN on the heartbeat path — and
# require its whole shard on c2 within two lease periods (plus scheduling
# slack for the smoke environment).
c1vps=$(echo "$f" | tr '{' '\n' | grep '"id":"c1"' | grep -o 'vp6500[0-9]' | sort -u)
[ -n "$c1vps" ] || fail "c1 owned no VPs pre-kill; harness degenerate"
echo "fabric-smoke: killing c1 (owned: $(echo "$c1vps" | tr '\n' ' '))"
kill -9 "$pid1"
wait "$pid1" 2>/dev/null || true
pid1=""

deadline_ms=$((2 * lease_ms))
start=$(date +%s%N 2>/dev/null || echo 0)
i=0
moved=""
while [ $i -lt $((deadline_ms / 50 + 40)) ]; do
	f=$(fleetz || true)
	if [ -n "$f" ]; then
		moved=yes
		c2line=$(echo "$f" | tr '{' '\n' | grep '"id":"c2"' || true)
		for vp in $c1vps; do
			case "$c2line" in
			*"$vp"*) ;;
			*) moved="" ;;
			esac
		done
		[ -n "$moved" ] && break
	fi
	i=$((i + 1))
	sleep 0.05
done
[ -n "$moved" ] || fail "c1's shard not fully reassigned to c2 within the failover deadline"
if [ "$start" != 0 ]; then
	elapsed_ms=$((($(date +%s%N) - start) / 1000000))
	echo "fabric-smoke: failover completed in ${elapsed_ms}ms (deadline ${deadline_ms}ms + slack)"
fi

# The survivor's filter installation is untouched by the rebalance.
f=$(fleetz)
echo "$f" | grep -q "\"installed_filter_sum\":\"$fleetsum\"" ||
	fail "survivor lost the installed filter digest across failover"
curl -fsS "http://$d2admin/fleetz" | tr -d ' \n\t' | grep -q "\"filter_sum\":\"$fleetsum\"" ||
	fail "survivor agent digest changed across failover"
curl -fsS "http://$cadmin/statusz" | grep -q '"fleet"' ||
	fail "/statusz missing the fleet section"

term_within_2s "$coordpid" ||
	fail "orchestrator did not exit 0 within 2 s of SIGTERM (137: killed after 2 s)"
coordpid=""

echo "fabric-smoke: PASS"
