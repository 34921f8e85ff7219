#!/usr/bin/env bash
# Staged-pipeline smoke check (dune build @lift-smoke):
#
#   1. synthesize a 4x4 delay-cell array (64 devices) and a variant
#      with one cell's interior strap nudged by 500 nm;
#   2. run the tiled+parallel pipeline cold (fills the stage cache),
#      then warm - the second run must be a 100% cache hit with
#      byte-identical output;
#   3. re-extract the nudged variant over the same cache - exactly one
#      tile per stage (connectivity, sites, critical area) may
#      recompute, the counters prove it, and the ranked list must
#      change;
#   4. diff the incremental answer against a cold serial (untiled,
#      uncached) extraction of the same variant, byte for byte;
#   5. diff the base answer against the committed expected list
#      (second argument), so a change that moves the serial and staged
#      paths together is caught too.
set -euo pipefail

LIFT="$1"
EXPECTED="$2"

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# Sum of the per-stage counters in a --stats JSON file.
computed() { grep -o '"computed": *[0-9]*' "$1" | grep -o '[0-9]*$' | awk '{s+=$1} END {print s+0}'; }
cached()   { grep -o '"cached": *[0-9]*'   "$1" | grep -o '[0-9]*$' | awk '{s+=$1} END {print s+0}'; }

"$LIFT" synth --rows 4 --cols 4 -o "$work/base.cif" 2>/dev/null
"$LIFT" synth --rows 4 --cols 4 --nudge 2,2 -o "$work/edited.cif" 2>/dev/null

tile=40000  # one tile per delay cell (Layout_synth.cell_pitch_nm)

# Cold tiled+parallel run fills the stage cache.
"$LIFT" extract "$work/base.cif" --tile $tile --domains 2 \
    --cache "$work/stages" --stats "$work/cold.json" -o "$work/base.flt" 2>/dev/null
if [ "$(cached "$work/cold.json")" -ne 0 ]; then
    echo "FAIL: cold run claimed cache hits: $(cat "$work/cold.json")"; exit 1
fi

# Warm re-run: every tile of every stage served from the cache.
"$LIFT" extract "$work/base.cif" --tile $tile --domains 2 \
    --cache "$work/stages" --stats "$work/warm.json" -o "$work/warm.flt" 2>/dev/null
if [ "$(computed "$work/warm.json")" -ne 0 ]; then
    echo "FAIL: warm run recomputed tiles: $(cat "$work/warm.json")"; exit 1
fi
cmp "$work/base.flt" "$work/warm.flt"
if ! cmp "$EXPECTED" "$work/base.flt"; then
    echo "FAIL: the 4x4 ranked list differs from $(basename "$EXPECTED")"; exit 1
fi

# One-cell edit: exactly one dirty tile per stage recomputes.
"$LIFT" extract "$work/edited.cif" --tile $tile --domains 2 \
    --cache "$work/stages" --stats "$work/incr.json" -o "$work/incr.flt" 2>/dev/null
if [ "$(computed "$work/incr.json")" -ne 3 ]; then
    echo "FAIL: expected 1 dirty tile in each of 3 stages: $(cat "$work/incr.json")"
    exit 1
fi

# The nudge moved a real bridge site: the ranked list must change...
if cmp -s "$work/base.flt" "$work/incr.flt"; then
    echo "FAIL: the edit did not change the ranked fault list"; exit 1
fi

# ...and the incremental answer must equal a cold serial (untiled,
# uncached) extraction of the edited layout, byte for byte.
"$LIFT" extract "$work/edited.cif" --tile 0 -o "$work/serial.flt" 2>/dev/null
cmp "$work/serial.flt" "$work/incr.flt"

echo "lift smoke ok: $(cached "$work/warm.json") cached stage tiles warm," \
     "$(computed "$work/incr.json") recomputed after the edit"
