#!/usr/bin/env bash
# Builds the benchmark together with the binaries it drives, then runs
# one workload:
#
#   bash perfbench/run.sh --workload tables|serve|sweep --seed N \
#       --seconds S --trace 0|1
#
# Run it from the repository root.  Build output goes to stderr; the
# last line on stdout is the JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
# No shared dune cache: the build reads and writes only this checkout.
DUNE_CACHE=disabled dune build --root . ./perfbench/main.exe ./bin/tables.exe ./bin/qdp.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
