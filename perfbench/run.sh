#!/usr/bin/env bash
# Builds the benchmark program from this checkout's sources and runs one
# workload:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from the root of the checkout. Build output goes to stderr, so the
# program's JSON result stays the last line of stdout.
#
# The build is keyed on the content of the sources, not their timestamps: a
# checkout whose files carry mtimes ahead of the clock would otherwise make
# ninja give up ("manifest still dirty") and make rebuild on every run. The
# first run builds; later runs with unchanged sources skip the build step.
set -euo pipefail

root="$(pwd)"
src="$root/perfbench"
build="$root/.bench_build/perfbench"
stamp="$build/sources.sha256"

if [[ ! -f "$src/CMakeLists.txt" || ! -f "$root/src/CMakeLists.txt" ]]; then
  echo "perfbench: run from the checkout root; library sources not found" >&2
  exit 3
fi

fingerprint() {
  find src perfbench -type f \( -name '*.cc' -o -name '*.h' -o -name '*.inc' \
    -o -name 'CMakeLists.txt' \) -print0 | LC_ALL=C sort -z |
    xargs -0 sha256sum | sha256sum | cut -d' ' -f1
}

# Exit 4, so a failed build is not read as a failed output check (exit 1).
build_failed() {
  echo "perfbench: build failed" >&2
  exit 4
}

want="$(fingerprint)"
if [[ ! -x "$build/perfbench" || ! -f "$stamp" || "$(cat "$stamp")" != "$want" ]]; then
  # cmake refuses a cache made for another source directory or generator
  # (such as an earlier ninja build of this tree), so start over.
  if [[ -f "$build/CMakeCache.txt" ]] &&
     ! { grep -qxF "CMAKE_HOME_DIRECTORY:INTERNAL=$src" "$build/CMakeCache.txt" &&
         grep -qxF "CMAKE_GENERATOR:INTERNAL=Unix Makefiles" "$build/CMakeCache.txt"; }; then
    rm -rf "$build"
  fi
  # Keep the compiler's temporary files inside the checkout too.
  mkdir -p "$build/tmp"
  rm -f "$stamp"
  TMPDIR="$build/tmp" cmake -S "$src" -B "$build" -G "Unix Makefiles" \
    -DCMAKE_BUILD_TYPE=Release >&2 || build_failed
  TMPDIR="$build/tmp" cmake --build "$build" \
    --parallel "$(nproc 2>/dev/null || echo 2)" >&2 || build_failed
  echo "$want" > "$stamp"
fi

exec "$build/perfbench" "$@"
