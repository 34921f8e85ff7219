#!/usr/bin/env bash
# The restart smoke check (dune build @restart-smoke): a crash sweep
# over the daemon's in-process failpoint sites.  Each leg, in a fresh
# work directory:
#
#   1. start anafaultd with one site armed to crash (a hard Unix._exit,
#      nothing flushed),
#   2. submit the demo campaign: the daemon must die with the
#      failpoint's exit status 70, the client must report the lost
#      connection and fail, and the queue WAL must hold the job exactly
#      when the crash came after the WAL append,
#   3. restart the daemon over the same work directory with no
#      failpoints and resubmit: the CSV must match the serial reference
#      byte for byte, and the counters must show what recovered it -
#      the WAL replays the job, and the campaign journal restores the
#      faults it completed:
#
#        site                 replayed  faults_simulated
#        queue.append         0         6  never acknowledged; the
#                                          resubmission runs it all
#        queue.appended       1         6
#        job.run              1         6
#        parsim.session.0     1         6
#        journal.record@3     1         4  2 faults were journalled
#        cache.store          1         0  the journal is complete
#
# The journal.record leg then pushes a second, distinct campaign
# through the restarted daemon (4 + 5 = 9 simulated faults, where a
# from-scratch rerun of both would cost 11) and requires its
# resubmission to hit the cache.
#
# The socket lives under mktemp -d, NOT the _build tree: sun_path caps
# Unix-socket paths at ~108 characters and sandbox build paths blow
# straight through that.
set -eu

anafaultd=$(realpath "$1")
anafault=$(realpath "$2")
circuit=$(realpath "$3")
faults=$(realpath "$4")
reference6=$(realpath "$5")
reference5=$(realpath "$6")

tmp=$(mktemp -d)
daemon_pid=
cleanup() {
  [ -n "$daemon_pid" ] && kill "$daemon_pid" 2>/dev/null || true
  rm -rf "$tmp"
}
trap cleanup EXIT

socket="$tmp/d.sock"

wait_for_socket() {
  for _ in $(seq 100); do
    [ -S "$socket" ] && return 0
    sleep 0.05
  done
  echo "daemon never bound $socket" >&2
  exit 1
}

submit() { # submit LIMIT CSV [extra flags...]
  local limit=$1 csv=$2
  shift 2
  "$anafault" "$circuit" --faults "$faults" --observe 11 --limit "$limit" \
    --remote "$socket" --csv "$csv" "$@"
}

require_stat() { # require_stat STATS_FILE KEY VALUE WHAT
  grep -q "\"$2\":$3[,}]" "$1" \
    || { echo "$4: expected $2 = $3: $(cat "$1")" >&2; exit 1; }
}

# crash_leg SITE SPEC REPLAYED SIMULATED: run one leg of the sweep and
# leave the restarted daemon running for the caller to shut down.
crash_leg() {
  local site=$1 spec=$2 replayed=$3 simulated=$4
  local work="$tmp/work-$site" log="$tmp/$site"

  # --- First life: the daemon dies at the armed site. ---------------
  ANAFAULT_FAILPOINTS="$spec" \
    "$anafaultd" --socket "$socket" --work-dir "$work" >"$log.daemon1" 2>&1 &
  daemon_pid=$!
  wait_for_socket

  if submit 6 "$log.lost.csv" --remote-retries 0 >"$log.lost.out" 2>&1; then
    echo "$site: the submission survived a daemon crash:" >&2
    cat "$log.lost.out" >&2
    exit 1
  fi

  local status=0
  wait "$daemon_pid" || status=$?
  daemon_pid=
  [ "$status" -eq 70 ] \
    || { echo "$site: expected the failpoint's _exit 70, got $status" >&2
         cat "$log.daemon1" >&2; exit 1; }
  local pushes
  pushes=$(grep -c '"op":"push"' "$work/queue.wal" || true)
  [ "$pushes" -eq "$replayed" ] \
    || { echo "$site: expected $replayed WAL push(es) after the crash, found $pushes" >&2
         exit 1; }

  # --- Second life: same work dir, no failpoints. -------------------
  # The crashed daemon left its socket file behind.
  rm -f "$socket"
  "$anafaultd" --socket "$socket" --work-dir "$work" >"$log.daemon2" 2>&1 &
  daemon_pid=$!
  wait_for_socket

  # The resubmission coalesces with the replayed job, finds its cache
  # entry, or (nothing replayed) runs afresh - in every case the answer
  # matches the uninterrupted reference.
  submit 6 "$log.csv" >"$log.out" 2>&1
  diff -u "$reference6" "$log.csv"

  "$anafault" --remote-stats "$socket" >"$log.stats"
  require_stat "$log.stats" replayed "$replayed" "$site"
  require_stat "$log.stats" faults_simulated "$simulated" "$site"
}

shutdown_daemon() {
  "$anafault" --remote-shutdown "$socket" >/dev/null
  wait "$daemon_pid"
  daemon_pid=
}

crash_leg queue.append queue.append=crash 0 6; shutdown_daemon
crash_leg queue.appended queue.appended=crash 1 6; shutdown_daemon
crash_leg job.run job.run=crash 1 6; shutdown_daemon
crash_leg parsim.session.0 parsim.session.0=crash 1 6; shutdown_daemon
crash_leg cache.store cache.store=crash 1 0; shutdown_daemon

# --- The journal leg: dies journalling fault 3 of 6. ------------------
crash_leg journal.record "journal.record=crash@3" 1 4

# A second, distinct campaign exercises the restarted daemon end to end.
submit 5 "$tmp/other.csv" >"$tmp/other.out" 2>&1
diff -u "$reference5" "$tmp/other.csv"

"$anafault" --remote-stats "$socket" >"$tmp/stats.json"
# 2 of the 6 faults were journalled before the crash, so the restart
# simulates only 4; the distinct 5-fault campaign adds 5.
require_stat "$tmp/stats.json" faults_simulated 9 "journal.record"

submit 5 "$tmp/other2.csv" >"$tmp/other2.out" 2>&1
grep -q "served from the result cache" "$tmp/other2.out" \
  || { echo "resubmission missed the cache:" >&2; cat "$tmp/other2.out" >&2
       exit 1; }
diff -u "$tmp/other.csv" "$tmp/other2.csv"

shutdown_daemon
echo "restart smoke ok"
