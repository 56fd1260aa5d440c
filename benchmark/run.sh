#!/usr/bin/env bash
# Builds the benchmark from source into <checkout>/.bench_build and runs it.
# Everything the build writes (Go build cache, link temporaries, the binary)
# stays inside the checkout; the benchmark's own scratch files go there too.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
export PRISM_BENCH_SCRATCH="$build/tmp" PRISM_BENCH_OUT="$here/out"
PRISM_BENCH_COMMIT="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
export PRISM_BENCH_COMMIT
(cd "$here" && go build -o "$build/prism-benchmark" .) >&2
exec "$build/prism-benchmark" "$@"
