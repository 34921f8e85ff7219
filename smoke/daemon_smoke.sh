#!/usr/bin/env bash
# The daemon smoke check (dune build @daemon-smoke):
#
#   1. start anafaultd on a throwaway Unix socket,
#   2. submit the demo campaign on 2 domains through `anafault --remote`
#      and diff its CSV against the serial in-process reference
#      (full.csv),
#   3. submit the identical campaign again and require a cache hit:
#      the client must announce it and the daemon's counters must show
#      exactly one cache hit with no additional simulation work,
#   4. shut the daemon down over the socket and require a clean exit.
#
# The socket lives under mktemp -d, NOT the _build tree: sun_path caps
# Unix-socket paths at ~108 characters and sandbox build paths blow
# straight through that.
set -eu

anafaultd=$(realpath "$1")
anafault=$(realpath "$2")
circuit=$(realpath "$3")
faults=$(realpath "$4")
reference=$(realpath "$5")

tmp=$(mktemp -d)
daemon_pid=
cleanup() {
  [ -n "$daemon_pid" ] && kill "$daemon_pid" 2>/dev/null || true
  rm -rf "$tmp"
}
trap cleanup EXIT

socket="$tmp/d.sock"

"$anafaultd" --socket "$socket" --work-dir "$tmp/work" >"$tmp/daemon.log" 2>&1 &
daemon_pid=$!

submit() {
  "$anafault" "$circuit" --faults "$faults" --observe 11 --limit 6 \
    --domains 2 --remote "$socket" --csv "$1"
}

# Wait for the daemon to bind rather than sleeping a fixed time.
for _ in $(seq 100); do
  [ -S "$socket" ] && break
  sleep 0.05
done
[ -S "$socket" ] || { echo "daemon never bound $socket" >&2; exit 1; }

submit "$tmp/first.csv" >"$tmp/first.out" 2>&1

submit "$tmp/second.csv" >"$tmp/second.out" 2>&1
grep -q "served from the result cache" "$tmp/second.out" \
  || { echo "second submission missed the cache:" >&2; cat "$tmp/second.out" >&2; exit 1; }

"$anafault" --remote-stats "$socket" >"$tmp/stats.json"
grep -q '"cache_hits":1' "$tmp/stats.json" \
  || { echo "expected one cache hit: $(cat "$tmp/stats.json")" >&2; exit 1; }
grep -q '"jobs":1' "$tmp/stats.json" \
  || { echo "expected one job: $(cat "$tmp/stats.json")" >&2; exit 1; }
grep -q '"faults_simulated":6' "$tmp/stats.json" \
  || { echo "cache hit must cost zero simulation: $(cat "$tmp/stats.json")" >&2; exit 1; }

"$anafault" --remote-shutdown "$socket" >/dev/null
wait "$daemon_pid"
daemon_pid=

# The daemon's (2-domain, then cached) answers must match the serial
# in-process reference byte for byte.
diff -u "$reference" "$tmp/first.csv"
diff -u "$tmp/first.csv" "$tmp/second.csv"
echo "daemon smoke ok"
