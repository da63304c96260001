#!/bin/sh
# Build mtd and the benchmark from this checkout's sources, then run one
# benchmark invocation.  Run from the repository root; every argument is
# passed to `ycsb_bench run`, e.g.
#
#   sh bench/ycsb/run.sh --workload ycsb-e --seed 3 --seconds 12 --trace 0
#
# Build output goes to stderr, so the last line of stdout is the result.
# The dune cache is off so that the build writes only under _build/.
set -eu
export DUNE_CACHE=disabled
dune build --root . ./bin/mtd.exe ./bench/ycsb/ycsb_bench.exe 1>&2
exec ./_build/default/bench/ycsb/ycsb_bench.exe run --mtd ./_build/default/bin/mtd.exe "$@"
