#!/bin/sh
# Alternating-order perfbench pairs: a base revision against the
# working tree, on one workload.  Run order alone moves wall_s and
# setup_s by several per cent on a small host, so the base runs first
# in the odd pairs and the working tree first in the even ones.  Each
# run is `perfbench/run.sh --seconds 45 --trace 0 --seed 3`; the
# script prints, for every end-to-end metric of BENCHMARK.json, the
# median and interquartile range of each side, the change of the
# medians and in how many pairs the working tree did better.  A run
# that does not read "correct": true, "failed": 0 is reported.
#
#   sh tools/bench_pairs.sh BASE WORKLOAD [PAIRS]   (from the repository root)
#   make bench-pairs BASE=<ref> WORKLOAD=<name> PAIRS=<n>
#
# BASE is exported with `git archive` into a fresh directory under
# $TMPDIR (default /tmp), built there and removed at exit.  PAIRS
# defaults to 8.  Not part of ci.

set -eu

if [ $# -lt 2 ] || [ $# -gt 3 ] || [ -z "$1" ] || [ -z "$2" ]; then
  echo "usage: sh tools/bench_pairs.sh BASE WORKLOAD [PAIRS]" >&2
  exit 2
fi
base=$1
workload=$2
pairs=${3:-8}
case $pairs in
  '' | *[!0-9]* | 0) echo "bench_pairs: PAIRS must be a positive integer" >&2; exit 2 ;;
esac
if ! git rev-parse --verify --quiet "$base^{commit}" > /dev/null; then
  echo "bench_pairs: unknown revision $base" >&2
  exit 2
fi

dir=$(mktemp -d "${TMPDIR:-/tmp}/bench-pairs.XXXXXX")
trap 'rm -rf "$dir"' EXIT INT TERM
mkdir "$dir/base"
git archive "$base" | tar -x -C "$dir/base"
here=$(pwd)

# One run of one side, its last stdout line (perfbench's JSON) kept.
run() {
  if [ "$1" = base ]; then root=$dir/base; else root=$here; fi
  (cd "$root" && bash perfbench/run.sh --workload "$workload" --seed 3 --seconds 45 --trace 0 2> /dev/null) \
    | tail -n 1 > "$dir/$1.$2.json"
}

i=1
while [ "$i" -le "$pairs" ]; do
  if [ $((i % 2)) -eq 1 ]; then run base "$i"; run change "$i"; else run change "$i"; run base "$i"; fi
  echo "pair $i of $pairs done" >&2
  i=$((i + 1))
done

for side in base change; do
  for f in "$dir"/$side.*.json; do
    if ! grep -q '"correct": true, "attempted": [0-9]*, "failed": 0,' "$f"; then
      echo "$side run $(basename "$f" .json | cut -d. -f2) is not correct with 0 failed"
    fi
  done
done

# The value of metric $1 in each run of side $2, in pair order.
values() {
  i=1
  while [ "$i" -le "$pairs" ]; do
    sed -n "s/.*\"$1\": {\"value\": \([^,}]*\).*/\1/p" "$dir/$2.$i.json"
    i=$((i + 1))
  done
}

# Median and quartiles of numbers on stdin (linear interpolation
# between order statistics).
quartiles() {
  sort -g | awk '
    { v[NR] = $1 }
    function q(p,   x, lo) { x = 1 + (NR - 1) * p; lo = int(x); return v[lo] + (x - lo) * (v[lo + 1] - v[lo]) }
    END { if (NR == 0) print "nan nan nan"; else { v[NR + 1] = v[NR]; printf "%.6g %.6g %.6g\n", q(0.25), q(0.5), q(0.75) } }'
}

echo "$workload: $pairs pairs, base $base against the working tree (--seconds 45 --trace 0 --seed 3)"
printf '%-20s %-6s %21s %21s %8s %7s\n' metric better "base median (IQR)" "change median (IQR)" delta better
grep '"bound"' BENCHMARK.json \
  | sed 's/.*"name": "\([^"]*\)".*"better": "\([a-z]*\)".*/\1 \2/' \
  | while read -r metric better; do
      set -- $(values "$metric" base | quartiles) $(values "$metric" change | quartiles)
      values "$metric" change > "$dir/change.$metric"
      wins=$(values "$metric" base | paste - "$dir/change.$metric" \
        | awk -v better="$better" '($1 != "" && $2 != "") && ((better == "lower" && $2 < $1) || (better == "higher" && $2 > $1)) { n++ } END { print n + 0 }')
      awk -v m="$metric" -v b="$better" -v q1="$1" -v md="$2" -v q3="$3" -v c1="$4" -v cm="$5" -v c3="$6" \
        -v wins="$wins" -v pairs="$pairs" 'BEGIN {
          iqr = q3 - q1; ciqr = c3 - c1
          printf "%-20s %-6s %12.4g (%5.1f%%) %12.4g (%5.1f%%) %+7.1f%% %5d/%d\n",
            m, b, md, (md != 0 ? 100 * iqr / md : 0), cm, (cm != 0 ? 100 * ciqr / cm : 0),
            (md != 0 ? 100 * (cm - md) / md : 0), wins, pairs }'
    done
