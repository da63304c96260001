#!/bin/sh
# Fails if the test suites, the benches that write data dirs, or a short
# soak leave one of their data dirs behind in the temp dir.  `dune
# runtest` hands every action a private TMPDIR and deletes it, so this
# runs the built executables directly against a fresh TMPDIR.  The
# benches run from a scratch working directory so their BENCH_*.json
# output does not touch the checkout.
#
# Run from the repository root after `dune build @all`:
#
#   sh test/tmpleak.sh
set -eu
B=$(pwd)/_build/default
TMPDIR=$(mktemp -d)
WORK=$(mktemp -d)
export TMPDIR
trap 'rm -rf "$TMPDIR" "$WORK"' EXIT
cd "$WORK"
"$B/test/test_main.exe" > /dev/null
"$B/test/mvcc/test_mvcc.exe" > /dev/null
"$B/test/shard/test_shard.exe" > /dev/null
"$B/test/repl/test_repl.exe" > /dev/null
"$B/bench/main.exe" fig13 sys-relevance ckpt repl --smoke > /dev/null
"$B/bin/soak.exe" --seconds 1 > /dev/null
left=$(cd "$TMPDIR" && ls -d mtkv* mtree* mvccrec* mvccrestart* recprop* \
  obsrv* mtsrv* shard-boot* repl-test* ckptbench* replbench* f13* sysrel* \
  soak* 2>/dev/null || true)
if [ -n "$left" ]; then
  echo "data dirs left in the temp dir:"
  echo "$left"
  exit 1
fi
echo "no data dirs left in the temp dir"
