#!/usr/bin/env bash
# Build the benchmark and chaoscheck from source, then run one benchmark
# run. Arguments go to main.exe unchanged:
#   bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 24 --trace 0
# Run from the repository root. Build output goes to stderr, so the last
# line of stdout is the result object.
set -euo pipefail
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "perfbench: run from the repository root (no sources here)" >&2
  exit 3
fi
export DUNE_CACHE=disabled
dune build --root . ./perfbench/main.exe ./bin/chaoscheck.exe 1>&2
# The load generator (this process) runs on processor 0 and chaind on 1,
# so the two never share a processor; main.exe is told how many there are
# before the pinning hides them.
PERFBENCH_CPUS=$(nproc)
export PERFBENCH_CPUS
if [ "$PERFBENCH_CPUS" -ge 2 ] && [ -x /usr/bin/taskset ]; then
  exec /usr/bin/taskset -c 0 ./_build/default/perfbench/main.exe "$@"
fi
exec ./_build/default/perfbench/main.exe "$@"
