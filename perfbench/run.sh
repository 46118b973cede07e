#!/usr/bin/env bash
# Build the benchmark from this checkout's sources and run it.
#   bash perfbench/run.sh --workload W --seed N --seconds S --trace 0|1
# Run from the repository root.  Exits non-zero, printing no result, when
# the sources are missing or do not build.
set -euo pipefail
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "run.sh: run from the root of a dqep checkout" >&2
  exit 2
fi
# Keep every build artefact inside the checkout.
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/main.exe >&2
exec ./_build/default/perfbench/main.exe "$@"
