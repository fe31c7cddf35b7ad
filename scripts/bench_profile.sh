#!/bin/sh
# bench_profile.sh — profile the daemon under one benchmark workload: run
# bench/run.sh untouched, and once its daemon has settled into the measured
# window take a 10 s CPU profile from the daemon's admin plane
# (/debug/pprof/profile) and the voluntary / involuntary context switches
# every daemon thread made over the same 10 s (from
# /proc/<pid>/task/*/status). Prints `go tool pprof -top -cum`, the
# per-thread switch table and the run's JSON verdict; everything is kept
# in PROFILE_DIR (default .bench_profile/<workload>-<seed>).
#
# Run via `make bench-profile WORKLOAD=saturate BENCH_SEED=N`.
set -eu

GO=${GO:-go}
workload=${WORKLOAD:-saturate}
seed=${BENCH_SEED:-1}
dir=${PROFILE_DIR:-.bench_profile/$workload-$seed}
mkdir -p "$dir"
daemon="$PWD/bench/out/gill-daemon"

bash bench/run.sh --workload "$workload" --seed "$seed" --seconds 35 --trace 0 \
	>"$dir/run.out" 2>"$dir/run.log" </dev/null &
run=$!
trap 'kill "$run" 2>/dev/null || true' INT TERM

fail() {
	echo "bench-profile: FAIL: $1" >&2
	tail -5 "$dir/run.log" >&2
	exit 1
}

# The harness starts a daemon five times to time set-up and keeps the
# last; that one has settled once the same pid has lived for 3 s.
pid=""
alive=0
while [ $alive -lt 15 ]; do
	kill -0 "$run" 2>/dev/null || fail "bench/run.sh exited before the measured window"
	now=$(pgrep -n -f "^$daemon " || true)
	if [ -n "$now" ] && [ "$now" = "$pid" ]; then
		alive=$((alive + 1))
	else
		pid=$now
		alive=0
	fi
	sleep 0.2
done
admin=$(tr '\0' '\n' <"/proc/$pid/cmdline" | sed -n '/^-admin$/{n;p;}')
[ -n "$admin" ] || fail "daemon $pid has no -admin address"

# switches prints "tid name voluntary involuntary" for every daemon thread.
switches() {
	for st in /proc/"$pid"/task/*/status; do
		awk -v tid="$(basename "$(dirname "$st")")" '
			/^Name:/ { name = $2 }
			/^voluntary_ctxt_switches:/ { v = $2 }
			/^nonvoluntary_ctxt_switches:/ { n = $2 }
			END { print tid, name, v, n }' "$st" 2>/dev/null || true
	done | sort -k1,1
}

echo "bench-profile: $workload seed=$seed, daemon $pid, admin $admin: 10 s CPU profile"
switches >"$dir/switches.before"
curl -fsS -o "$dir/cpu.pprof" "http://$admin/debug/pprof/profile?seconds=10" ||
	fail "could not take the CPU profile"
switches >"$dir/switches.after"

wait "$run" || fail "bench/run.sh exited non-zero"
trap - INT TERM

$GO tool pprof -top -cum "$dir/cpu.pprof" 2>/dev/null | head -45
echo
echo "context switches over the profile, per thread (tid name voluntary involuntary):"
join "$dir/switches.before" "$dir/switches.after" | awk '
	{ dv = $6 - $3; dn = $7 - $4; v += dv; n += dn
	  printf "%8s %-16s %9d %9d\n", $1, $2, dv, dn }
	END { printf "%8s %-16s %9d %9d\n", "total", "all-threads", v, n }' |
	sort -k3,3nr
echo
tail -n 1 "$dir/run.out"
echo "bench-profile: kept in $dir"
