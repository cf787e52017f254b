#!/bin/sh
# Run every mutant in test/mutants/ through tier-1 and check that it dies.
#
# Usage: scripts/mutants.sh [PATCH...]
#
# Each test/mutants/*.patch is a small unified diff against lib/ that breaks
# one correctness claim; its header names the claim and the tests expected
# to kill it. For each patch (all of them when none is named) the script
# copies the checkout it lives in to a temporary directory, applies the
# patch there, runs `dune build && dune runtest`, and prints the tests that
# fail. A mutant is killed when at least one failing test is not a golden
# (a comparison against recorded output): a golden-only kill shows that
# behaviour changed, not that a bug was caught, so it counts as surviving.
#
# QCheck properties run at QCHECK_SEED (default 1), so a kill is
# reproducible, and Alcotest prints test names untruncated. Exits 1 if a
# patch no longer applies, a mutant does not build, or a mutant survives;
# 0 when every mutant is killed. Each mutant builds from scratch and runs
# all of tier-1, so the twelve take about three minutes.
set -eu

root=$(cd "$(dirname "$0")/.." && pwd)
if [ $# -eq 0 ]; then
  set -- "$root"/test/mutants/*.patch
fi
QCHECK_SEED=${QCHECK_SEED:-1}
ALCOTEST_COLUMNS=200
export QCHECK_SEED ALCOTEST_COLUMNS

work=$(mktemp -d "${TMPDIR:-/tmp}/repdir-mutants.XXXXXX")
trap 'rm -rf "$work"' EXIT INT TERM

# The golden tests, as "suite|group|" prefixes of a failure line below.
goldens='^nemesis\|golden\||^nemesis\|schedules\||^harness\|golden\|(figure 14|figure 15|messages|batching|space and traffic)$'

status=0
for patch in "$@"; do
  name=$(basename "$patch" .patch)
  copy=$work/$name
  mkdir -p "$copy"
  tar -C "$root" --exclude=./_build --exclude=./.git --exclude=./.perfbench -cf - . |
    tar -C "$copy" -xf -
  if ! patch -s -p1 -d "$copy" --dry-run <"$patch" >/dev/null 2>&1; then
    echo "$name: DOES NOT APPLY"
    status=1
    continue
  fi
  patch -s -p1 -d "$copy" <"$patch"
  if ! (cd "$copy" && dune build --root . 2>"$copy/build.log"); then
    echo "$name: DOES NOT BUILD"
    sed 's/^/  /' "$copy/build.log" | head -20
    status=1
    continue
  fi
  (cd "$copy" && dune runtest --root . >"$copy/test.log" 2>&1) || true
  # One "suite|group|test" line per failing test, from Alcotest's report,
  # which marks the first failure of each test binary with a leading ">".
  # Its columns ([FAIL], group, index, test) are separated by runs of two or
  # more spaces; a group or test name may hold single spaces.
  sed 's/\x1b\[[0-9;]*m//g' "$copy/test.log" |
    awk '/^Testing `/ { suite = $2; gsub(/[`'"'"'.]/, "", suite) }
         /^>? *\[FAIL\]/ {
           sub(/^>? */, "")
           n = split($0, col, /  +/)
           line = col[4]
           for (i = 5; i <= n; i++) line = line "  " col[i]
           sub(/\.$/, "", line)
           print suite "|" col[2] "|" line
         }' >"$copy/failed"
  killers=$(grep -Ev "$goldens" "$copy/failed" || true)
  if [ -n "$killers" ]; then
    echo "$name: killed by $(echo "$killers" | wc -l) non-golden test(s)"
  else
    echo "$name: SURVIVED"
    status=1
  fi
  sed 's/^/  /' "$copy/failed"
  rm -rf "$copy"
done
exit $status
