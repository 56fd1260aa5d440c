#!/usr/bin/env bash
# Static analysis gate: gofmt, go vet, plus prismvet, the repo's own analyzer suite
# (internal/analysis) that machine-checks the concurrency and durability
# conventions — *Locked call discipline, Acquire/Release and epoch pairing,
# WAL-after-slab ordering, copy-on-write publication, shadowed-error drops.
#
# Usage: scripts/lint.sh [-json]
#   -json   emit prismvet diagnostics as a JSON array on stdout (go vet
#           output still goes to stderr in its own format)
set -euo pipefail
cd "$(dirname "$0")/.."

JSON=""
for arg in "$@"; do
  case "$arg" in
    -json|--json) JSON="-json" ;;
    *) echo "usage: scripts/lint.sh [-json]" >&2; exit 2 ;;
  esac
done

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
  echo "gofmt -l names files that need formatting:" >&2
  echo "$unformatted" >&2
  exit 1
fi
go vet ./...
# shellcheck disable=SC2086
go run ./cmd/prismvet $JSON
