#!/bin/sh
# Local CI: full build, the test suite, then every smoke run (smoke.sh,
# which `dune build @ci` also runs).
set -eux

cd "$(dirname "$0")"

dune build
dune runtest
sh ./smoke.sh _build/default/bin/chaoscheck.exe _build/default/bench/main.exe
