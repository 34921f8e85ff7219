#!/bin/sh
# Benchmark entry point, run from the repository root:
#
#   sh bench/perf/perf.sh --workload W --seed N --seconds S --trace 0|1
#
# Builds the benchmark and the anafaultd daemon from source (the shared
# dune cache is disabled so the build writes only under _build), then
# runs one workload.  The last line of standard output is the result
# object; see bench/perf/README.md.
set -eu
dune build --root . --cache=disabled --display=quiet \
  ./bench/perf/perf.exe ./bin/anafaultd_main.exe >&2
exec ./_build/default/bench/perf/perf.exe bench "$@"
