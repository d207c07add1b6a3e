#!/bin/sh
# Net line delta of the working tree against a base revision: lines
# added and removed under lib/, under test/ and everywhere else, from
# `git diff --numstat BASE` plus every untracked, unignored file
# (counted as added).  ISSUE.md and CHANGES.md are left out; binary
# files count no lines.
#
#   sh tools/line_delta.sh BASE      (from the repository root)
#   make line-delta BASE=<ref>

if [ $# -ne 1 ] || [ -z "$1" ]; then
  echo "usage: sh tools/line_delta.sh BASE" >&2
  exit 2
fi
if ! git rev-parse --verify --quiet "$1^{commit}" > /dev/null; then
  echo "line_delta: unknown revision $1" >&2
  exit 2
fi
{
  git diff --numstat --no-renames "$1" --
  git ls-files --others --exclude-standard | while IFS= read -r f; do
    if [ -f "$f" ]; then printf '%s\t0\t%s\n' "$(wc -l < "$f" | tr -d ' ')" "$f"; fi
  done
} | awk -F'\t' '
  $3 == "ISSUE.md" || $3 == "CHANGES.md" || $1 == "-" { next }
  {
    g = ($3 ~ /^lib\//) ? 1 : ($3 ~ /^test\//) ? 2 : 3
    add[g] += $1; del[g] += $2
  }
  END {
    name[1] = "lib/"; name[2] = "test/"; name[3] = "other"
    for (g = 1; g <= 3; g++)
      printf "%-6s +%d -%d (%+d)\n", name[g], add[g], del[g], add[g] - del[g]
  }'
