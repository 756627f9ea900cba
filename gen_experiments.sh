#!/bin/sh
# Regenerate EXPERIMENTS.md: the hand-written commentary in
# doc/EXPERIMENTS.head.md followed by the Markdown rendering of every
# experiment report at the seed scale. CI regenerates into a temp file and
# fails if the committed copy differs (see smoke.sh).
#
# Usage: ./gen_experiments.sh [output-file [chaoscheck]]
#   output-file defaults to EXPERIMENTS.md; without an already built
#   chaoscheck executable (an absolute path), it is built with dune first.
set -eu

cd "$(dirname "$0")"
out="${1:-EXPERIMENTS.md}"
chaoscheck="${2:-}"

if [ -z "$chaoscheck" ]; then
  dune build bin/chaoscheck.exe
  chaoscheck=_build/default/bin/chaoscheck.exe
fi

{
  cat doc/EXPERIMENTS.head.md
  echo
  "$chaoscheck" reproduce --scale 0.002 --jobs 2 --format md
} > "$out"
