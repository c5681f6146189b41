#!/usr/bin/env bash
# Build the benchmark (and the slx CLI it drives) from this checkout,
# then measure one workload:
#   bash bench/e2e/run.sh --workload W --seed S --seconds N --trace 0|1
# The dune cache is off so that the build writes nothing outside the
# checkout.  Build output goes to stderr; the result line is the last
# line of stdout.
set -euo pipefail
cd "$(dirname "$0")/../.."
export DUNE_CACHE=disabled
dune build --root . --display quiet bench/e2e/main.exe 1>&2
exec ./_build/default/bench/e2e/main.exe run "$@"
