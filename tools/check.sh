#!/usr/bin/env bash
# Repo-wide check driver: sanitizer builds, labeled test subsets, clang-tidy.
#
#   tools/check.sh              # plain + address/undefined/thread sanitizers
#   tools/check.sh --fast       # plain build + full test suite only
#   JOBS=8 tools/check.sh       # override build/test parallelism
#
# Each sanitizer preset (-DSLIMPIPE_SANITIZE=address|undefined|thread, see
# the top-level CMakeLists) gets its own build tree under build-<name>/ and
# runs the ctest label subsets most likely to surface that bug class:
#
#   address    faults, mem, ir, sim, dist, telemetry  (lifetime/overflow in
#                                   the fault machinery, arena tracking, the
#                                   schedule IR, the simulator core's flat
#                                   op/CSR tables, the multi-process socket
#                                   runtime and the flight-recorder/telemetry
#                                   ring + wire paths)
#   undefined  faults, mem, ir, sim, dist, telemetry  (integer/shift UB in
#                                   the same layers)
#   thread     threads, dist, telemetry  (the threaded runtime tests; the
#                                   dist supervisor forks single-threaded
#                                   workers from the pool-owning parent —
#                                   exactly the fork/lock interaction TSan
#                                   should watch — and the telemetry
#                                   overhead gate runs both substrates)
#
# clang-tidy, when installed, runs over src/ir and src/analysis with the
# plain tree's compile database; when absent the pass is skipped with a
# warning (the container may not ship it).

set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${JOBS:-$(nproc)}"
FAST=0
if [[ "${1:-}" == "--fast" ]]; then
  FAST=1
elif [[ -n "${1:-}" ]]; then
  echo "usage: tools/check.sh [--fast]" >&2
  exit 2
fi

build_tree() {
  local dir="$1"
  shift
  cmake -B "$dir" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo "$@"
  cmake --build "$dir" -j "$JOBS"
}

echo "== plain build + full test suite =="
build_tree build -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
ctest --test-dir build --output-on-failure -j "$JOBS"

if [[ "$FAST" -eq 0 ]]; then
  for san in address undefined thread; do
    echo "== ${san} sanitizer build =="
    build_tree "build-${san}" -DSLIMPIPE_SANITIZE="${san}"
    if [[ "$san" == "thread" ]]; then
      labels="threads|dist|telemetry|elastic"
    else
      labels="faults|mem|ir|sim|dist|telemetry|elastic"
    fi
    echo "== ${san} sanitizer tests (-L '${labels}') =="
    ctest --test-dir "build-${san}" --output-on-failure -j "$JOBS" \
      -L "$labels"
  done
fi

if command -v clang-tidy >/dev/null 2>&1; then
  echo "== clang-tidy (src/ir, src/analysis) =="
  clang-tidy -p build src/ir/*.cpp src/analysis/*.cpp
else
  echo "warning: clang-tidy not installed; skipping the tidy pass" >&2
fi

echo "check.sh: all requested checks passed"
