#!/bin/sh
# serve_smoke.sh — end-to-end smoke of the serving plane: boot a real
# gill-daemon with a WAL journal and the admin plane; attach the real
# gill-tail binary as a filtered /stream subscriber; feed it BGP updates
# over two peering sessions (one announcing the subscribed prefix, one a
# decoy); then assert the subscriber received only its prefix, the /api
# query endpoints reconstruct state, the serving metrics are exported,
# and — after killing the daemon — the offline index rebuild answers the
# same RIB query from the raw segments and the journal exports as a
# gzip-compressed MRT file.
#
# Run via `make serve-smoke`.
set -eu

GO=${GO:-go}
dir=$(mktemp -d)
pid=""
cpid=""
cleanup() {
	[ -n "$cpid" ] && kill "$cpid" 2>/dev/null || true
	[ -n "$pid" ] && kill "$pid" 2>/dev/null || true
	[ -n "$pid" ] && wait "$pid" 2>/dev/null || true
	rm -rf "$dir"
}
trap cleanup EXIT INT TERM

fail() {
	echo "serve-smoke: FAIL: $1" >&2
	[ -f "$dir/daemon.log" ] && tail -20 "$dir/daemon.log" >&2
	exit 1
}

echo "serve-smoke: building gill-daemon, gill-tail, gill-query, smokefeed"
$GO build -o "$dir/gill-daemon" ./cmd/gill-daemon
$GO build -o "$dir/gill-tail" ./cmd/gill-tail
$GO build -o "$dir/gill-query" ./cmd/gill-query
$GO build -o "$dir/smokefeed" ./scripts/smokefeed

# Tiny segments (4 records each) so the feeder rolls the journal through
# many sealed segments and the seal-time index path gets exercised.
"$dir/gill-daemon" -listen 127.0.0.1:0 -admin 127.0.0.1:0 \
	-wal "$dir/wal" -wal-rotate 4 -stats 0 2>"$dir/daemon.log" &
pid=$!

# The daemon logs its addresses in logfmt; poll rather than race startup.
addr=""
bgp=""
i=0
while [ $i -lt 50 ]; do
	addr=$(sed -n 's/.*admin_addr=\([0-9.:]*\).*/\1/p' "$dir/daemon.log" | head -n1)
	bgp=$(sed -n 's/.* addr=\([0-9.:]*\).*/\1/p' "$dir/daemon.log" | head -n1)
	[ -n "$addr" ] && [ -n "$bgp" ] && break
	if ! kill -0 "$pid" 2>/dev/null; then
		echo "serve-smoke: FAIL: daemon exited during startup" >&2
		cat "$dir/daemon.log" >&2
		exit 1
	fi
	i=$((i + 1))
	sleep 0.1
done
[ -n "$addr" ] || fail "admin plane never came up"
[ -n "$bgp" ] || fail "BGP listener never came up"
echo "serve-smoke: admin plane at $addr, BGP at $bgp"

# Attach a filtered stream subscriber before any traffic flows.
"$dir/gill-tail" -addr "$addr" -json -prefix 203.0.113.0/24 \
	>"$dir/stream.ndjson" 2>"$dir/tail.log" </dev/null &
cpid=$!
i=0
while [ $i -lt 50 ]; do
	curl -fsS "http://$addr/statusz" | grep -q '"stream_subscribers": 1' && break
	i=$((i + 1))
	sleep 0.1
done
curl -fsS "http://$addr/statusz" | grep -q '"stream_subscribers": 1' ||
	fail "stream subscriber never attached: $(cat "$dir/tail.log")"

# Feed: 24 announcements of the subscribed prefix from peer 1, 24 of the
# decoy prefix from peer 2 — 48 records through 4-record WAL segments.
"$dir/smokefeed" -addr "$bgp" -pre 24 || fail "smokefeed failed"

# The subscriber must have received its prefix and never the decoy.
i=0
while [ $i -lt 50 ]; do
	n=$(grep -c '"prefix":"203.0.113.0/24"' "$dir/stream.ndjson" 2>/dev/null || true)
	[ "${n:-0}" -ge 24 ] && break
	i=$((i + 1))
	sleep 0.1
done
n=$(grep -c '"prefix":"203.0.113.0/24"' "$dir/stream.ndjson" || true)
[ "${n:-0}" -ge 24 ] || fail "filtered stream delivered $n of 24 expected updates"
grep -q '198.51.100.0/24' "$dir/stream.ndjson" &&
	fail "filtered stream leaked the decoy prefix" || true
echo "serve-smoke: stream delivered $n filtered updates, decoy suppressed"

# Sealed segments are indexed by the daemon's segment follower, behind the
# collection path: wait until it has caught up, so that what follows
# exercises the indexed read path and not the scan-everything fallback.
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
sealed=$(sed -n 's/^index_sealed_segments \([0-9]*\)$/\1/p' "$dir/lag.txt")
[ "${sealed:-0}" -ge 11 ] || fail "follower indexed ${sealed:-0} sealed segments, want >= 11"

# Query plane over HTTP: index inventory and RIB reconstruction.
"$dir/gill-query" -http "$addr" -stats >"$dir/stats.txt" ||
	fail "gill-query -http -stats failed"
grep -q 'records 48' "$dir/stats.txt" ||
	fail "index inventory wrong: $(cat "$dir/stats.txt")"
"$dir/gill-query" -http "$addr" -rib -at now >"$dir/rib.txt" ||
	fail "gill-query -http -rib failed"
grep -q '203.0.113.0/24' "$dir/rib.txt" || fail "RIB missing the announced prefix"
grep -q '198.51.100.0/24' "$dir/rib.txt" || fail "RIB missing the decoy prefix"
[ "$("$dir/gill-query" -http "$addr" -rib -at now -prefix 203.0.113.0/24 -count)" = "1" ] ||
	fail "RIB prefix filter did not reduce to one route"
[ "$("$dir/gill-query" -http "$addr" -count -vp vp65002)" = "24" ] ||
	fail "range query by VP did not count peer 2's updates"

# Serving metrics and status: the new series must be exported.
curl -fsS "http://$addr/metrics" >"$dir/metrics.txt"
for series in \
	stream_published \
	stream_subscribers \
	stream_delivered \
	index_segments \
	index_records \
	index_follower_lag_segments \
	index_add_segment_ns_count \
	archive_seal_ns_count \
	archive_wal_fsync_ns_count \
	archive_wal_append_ns_count \
	archive_wal_batch_records_count \
	archive_wal_fsync_errors; do
	grep -q "^$series" "$dir/metrics.txt" ||
		fail "/metrics missing series $series"
done
curl -fsS "http://$addr/statusz" >"$dir/statusz.json"
grep -q '"serving"' "$dir/statusz.json" || fail "/statusz missing serving section"
grep -q '"filter_generation"' "$dir/statusz.json" ||
	fail "/statusz lost the daemon payload keys"
curl -fsS "http://$addr/api/index" | grep -q '"segments"' ||
	fail "/api/index not serving the inventory"

kill -INT "$pid"
wait "$pid" 2>/dev/null || true
pid=""
kill "$cpid" 2>/dev/null || true
cpid=""

# Offline: rebuild the index from the raw segments and re-answer the
# same question without the daemon.
at=$(date -u -d "+1 hour" +%Y-%m-%dT%H:%M:%SZ 2>/dev/null ||
	date -u -v+1H +%Y-%m-%dT%H:%M:%SZ)
"$dir/gill-query" -wal "$dir/wal" -rebuild >"$dir/offline-stats.txt" ||
	fail "offline index rebuild failed"
grep -q 'records 48' "$dir/offline-stats.txt" ||
	fail "offline rebuild lost records: $(cat "$dir/offline-stats.txt")"
[ "$("$dir/gill-query" -wal "$dir/wal" -rib -at "$at" -prefix 203.0.113.0/24 -count)" = "1" ] ||
	fail "offline RIB reconstruction diverged"
[ "$("$dir/gill-query" -wal "$dir/wal" -vp vp65001 -count)" = "24" ] ||
	fail "offline range query by VP diverged"

# MRT files are exports of the journal: all 48 records, one gzip stream.
"$dir/gill-query" -wal "$dir/wal" -mrt "$dir/u.mrt.gz" >"$dir/export.txt" ||
	fail "gill-query -mrt export failed"
grep -q '^48 records exported' "$dir/export.txt" ||
	fail "export wrote the wrong record count: $(cat "$dir/export.txt")"
[ -s "$dir/u.mrt.gz" ] || fail "MRT export is empty"
gzip -t "$dir/u.mrt.gz" || fail "MRT export is not a valid gzip stream"

echo "serve-smoke: PASS"
