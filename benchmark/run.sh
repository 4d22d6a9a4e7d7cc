#!/usr/bin/env bash
# Build the benchmark and the ftagg server from source, then run the
# benchmark with the given arguments, from the root of the repository:
#
#   bash benchmark/run.sh --workload scale-agg --seed 1 --seconds 15 --trace 0
#   bash benchmark/run.sh run --seed 1 --out results.jsonl
#   bash benchmark/run.sh compare parent.jsonl change.jsonl
#
# Build output goes to stderr, so the last line on stdout stays the
# benchmark's own.  The dune cache is off: the build reads and writes
# only inside the repository.
#
# The benchmark, and the server it spawns, are pinned to one CPU (the
# first this shell may use).  Left to the scheduler, whether the load
# loop and the server shared a CPU changed service-cached's throughput by
# 1.4x from one run to the next.
set -euo pipefail
cd "$(dirname "$0")/.."
dune build --root . --cache=disabled ./benchmark/main.exe ./bin/ftagg_cli.exe 1>&2
bench=./_build/default/benchmark/main.exe
if command -v taskset > /dev/null; then
  cpu=$(taskset -cp $$ | sed 's/.*: *//; s/[-,].*//')
  exec taskset -c "$cpu" "$bench" "$@"
fi
exec "$bench" "$@"
