#!/usr/bin/env bash
# Paired comparison of the repo benchmark between a git revision and the
# working tree.
#
# Usage: scripts/benchpair.sh REV N WORKLOAD [SECONDS]
#
# REV is exported (git archive, no network) into a temporary directory that
# is removed on exit; the working tree is used as it stands. Each tree's
# benchmark/run.sh builds its own binary from its own sources on first use.
# The script then runs N interleaved pairs with seeds 1..N, alternating which
# side runs first, each run being
#
#   benchmark/run.sh --workload WORKLOAD --seed i --seconds SECONDS --trace 0
#
# (SECONDS defaults to 15), and keeps the last line of each run's output,
# printing it as "base|change SEED LINE" as the run completes. For every end-to-end metric BENCHMARK.json declares that the runs report,
# it prints one row: both medians with their quartiles, the pairs the
# working tree won, whether its median lies outside the revision's
# interquartile range, and whether it is worse than the revision's median by
# more than the metric's bound. It exits non-zero if any run fails, or lacks
# "correct":true and "failed":0. Temporary files go under $TMPDIR (/tmp when
# unset).
set -euo pipefail

if [ $# -lt 3 ] || [ $# -gt 4 ]; then
  echo "usage: scripts/benchpair.sh REV N WORKLOAD [SECONDS]" >&2
  exit 2
fi
rev=$1 pairs=$2 workload=$3 seconds=${4:-15}
case "$pairs" in
  '' | *[!0-9]* | 0) echo "benchpair: N must be a positive integer, got '$pairs'" >&2; exit 2 ;;
esac
root="$(cd "$(dirname "$0")/.." && pwd)"

tmp="$(mktemp -d "${TMPDIR:-/tmp}/benchpair.XXXXXX")"
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/base"
git -C "$root" archive "$rev" | tar -x -C "$tmp/base"

# run SIDE TREE SEED prints "SIDE SEED <last output line>" and appends it to
# $tmp/lines.
bad=0
run() {
  local side=$1 tree=$2 seed=$3 last
  if ! bash "$tree/benchmark/run.sh" --workload "$workload" --seed "$seed" \
    --seconds "$seconds" --trace 0 >"$tmp/out" 2>"$tmp/err"; then
    echo "benchpair: $side seed $seed failed:" >&2
    cat "$tmp/err" >&2
    bad=1
    return
  fi
  last="$(tail -n 1 "$tmp/out")"
  case "$last" in
    *'"correct":true,'*'"failed":0,'*) ;;
    *) echo "benchpair: $side seed $seed is not correct with 0 failed: $last" >&2; bad=1 ;;
  esac
  echo "$side $seed $last" | tee -a "$tmp/lines"
}

for ((i = 1; i <= pairs; i++)); do
  if ((i % 2)); then
    run base "$tmp/base" "$i"
    run change "$root" "$i"
  else
    run change "$root" "$i"
    run base "$tmp/base" "$i"
  fi
done

echo "workload $workload: $rev (base) vs working tree (change), $pairs pairs, ${seconds}s"
awk -v pairs="$pairs" '
  # BENCHMARK.json: the end_to_end entries, one per line.
  FNR == NR {
    if ($0 ~ /"end_to_end"/) { inE2E = 1; next }
    if (inE2E && $0 ~ /^[ \t]*\]/) { inE2E = 0 }
    if (inE2E && match($0, /"name": *"[^"]*"/)) {
      name = substr($0, RSTART, RLENGTH); sub(/^"name": *"/, "", name); sub(/"$/, "", name)
      better[name] = ($0 ~ /"better": *"higher"/) ? "higher" : "lower"
      bound[name] = 0
      if (match($0, /"bound": *[0-9.eE+-]+/)) {
        b = substr($0, RSTART, RLENGTH); sub(/^"bound": */, "", b); bound[name] = b + 0
      }
      order[++nm] = name
    }
    next
  }
  # Run lines: side, seed, then the JSON result.
  {
    side = $1; seed = $2
    for (k = 1; k <= nm; k++) {
      m = order[k]
      if (match($0, "\"" m "\":\\{\"value\":[-0-9.eE+]+")) {
        v = substr($0, RSTART, RLENGTH); sub(/.*"value":/, "", v)
        val[side, m, seed] = v + 0; seen[m] = 1
      }
    }
  }
  function sortvals(side, m, a,    i, j, n, t) {
    n = 0
    for (i = 1; i <= pairs; i++) if ((side, m, i) in val) a[++n] = val[side, m, i]
    for (i = 2; i <= n; i++) for (j = i; j > 1 && a[j-1] > a[j]; j--) { t = a[j]; a[j] = a[j-1]; a[j-1] = t }
    return n
  }
  function q(a, n, p,    x, lo) {
    if (n == 0) return 0
    x = (n - 1) * p; lo = int(x)
    return (lo + 1 < n + 0) ? a[lo+1] + (x - lo) * (a[lo+2] - a[lo+1]) : a[n]
  }
  END {
    printf "%-22s %-44s %-44s %5s %11s %16s\n", "metric", "base median [q1, q3]", "change median [q1, q3]", "won", "outside_iqr", "worse_than_bound"
    for (k = 1; k <= nm; k++) {
      m = order[k]
      if (!(m in seen)) continue
      nb = sortvals("base", m, B); nc = sortvals("change", m, C)
      bm = q(B, nb, .5); b1 = q(B, nb, .25); b3 = q(B, nb, .75)
      cm = q(C, nc, .5); c1 = q(C, nc, .25); c3 = q(C, nc, .75)
      won = 0; both = 0
      for (i = 1; i <= pairs; i++) {
        if (!(("base", m, i) in val) || !(("change", m, i) in val)) continue
        both++
        if (better[m] == "higher" ? val["change", m, i] > val["base", m, i] : val["change", m, i] < val["base", m, i]) won++
      }
      outside = (cm < b1 || cm > b3) ? "yes" : "no"
      worse = (better[m] == "higher" ? cm < bm * (1 - bound[m]) : cm > bm * (1 + bound[m])) ? "yes" : "no"
      printf "%-22s %-44s %-44s %5s %11s %16s\n", m,
        sprintf("%.9g [%.9g, %.9g]", bm, b1, b3), sprintf("%.9g [%.9g, %.9g]", cm, c1, c3),
        won "/" both, outside, worse
    }
  }
' "$root/BENCHMARK.json" "$tmp/lines"
exit "$bad"
