#!/usr/bin/env bash
# Build the benchmark from source and run it from the repository root.
# Arguments pass through: --workload NAME --seed N --seconds S --trace 0|1
set -euo pipefail
cd "$(dirname "$0")/.."
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/perfbench.exe >&2
exec ./_build/default/perfbench/perfbench.exe "$@"
