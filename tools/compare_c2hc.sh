#!/usr/bin/env bash
# Byte-identity check between two c2hc binaries, for changes that must not
# move any output (a faster solver, a refactor of a shared stage).
#
#   tools/compare_c2hc.sh PARENT_C2HC CHANGE_C2HC
#
# Runs both binaries over the same matrix of invocations and compares
# stdout, stderr and the exit code of each:
#   * every workload x every flow, with --ir and with --no-sim --verilog=-;
#   * every workload with --flow=all --cosim --jobs=1, and with --analyze as
#     text and as json;
#   * every tests/fixtures/*.uc and docs/examples/*.uc with --flow=all,
#     --flow=all --cosim --jobs=1, and --analyze as text and as json; a file
#     whose comments name an `--args=...` runs with those arguments.
# Each side of an invocation runs under `timeout`, killed after `limit`
# (60) seconds; a side that is killed prints `TIMEOUT: c2hc <args> (parent)` or
# `(change)`, and the invocation counts as a difference, even when both
# sides time out.
# Run it from anywhere; paths are resolved against the repository root.
# Prints each differing invocation with the first lines of its diff, then
# a summary; exits 0 when every invocation matched, 1 otherwise, 2 on bad
# usage.
set -u

limit=60

if [ $# -ne 2 ] || [ ! -x "$1" ] || [ ! -x "$2" ]; then
  echo "usage: $0 PARENT_C2HC CHANGE_C2HC" >&2
  exit 2
fi
parent=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
change=$(cd "$(dirname "$2")" && pwd)/$(basename "$2")
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root" || exit 2
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

runs=0
diffs=0
compare() {
  timeout "$limit" "$parent" "$@" >"$work/parent.out" 2>"$work/parent.err"
  local parentExit=$?
  timeout "$limit" "$change" "$@" >"$work/change.out" 2>"$work/change.err"
  local changeExit=$?
  runs=$((runs + 1))
  if [ "$parentExit" = 124 ] || [ "$changeExit" = 124 ]; then
    diffs=$((diffs + 1))
    [ "$parentExit" = 124 ] && echo "TIMEOUT: c2hc $* (parent)"
    [ "$changeExit" = 124 ] && echo "TIMEOUT: c2hc $* (change)"
    return
  fi
  if [ "$parentExit" = "$changeExit" ] &&
    cmp -s "$work/parent.out" "$work/change.out" &&
    cmp -s "$work/parent.err" "$work/change.err"; then
    return
  fi
  diffs=$((diffs + 1))
  echo "DIFF: c2hc $* (exit $parentExit -> $changeExit)"
  diff "$work/parent.out" "$work/change.out" | head -n 8
  diff "$work/parent.err" "$work/change.err" | head -n 8
}

flows=$("$change" 2>&1 | sed -n 's/^flows: //p')
workloads=$("$change" --list-workloads)
if [ -z "$flows" ] || [ -z "$workloads" ]; then
  echo "cannot list the flows or workloads of $change" >&2
  exit 2
fi

for w in $workloads; do
  for f in $flows; do
    compare --workload="$w" --flow="$f" --ir
    compare --workload="$w" --flow="$f" --no-sim --verilog=-
  done
  compare --workload="$w" --flow=all --cosim --jobs=1
  compare --workload="$w" --analyze
  compare --workload="$w" --analyze --diag-format=json
done

for file in tests/fixtures/*.uc docs/examples/*.uc; do
  args=$(grep -o -- '--args=[-0-9,]*' "$file" | head -n 1)
  compare "$file" --flow=all $args
  compare "$file" --flow=all --cosim --jobs=1 $args
  compare "$file" --analyze $args
  compare "$file" --analyze --diag-format=json $args
done

echo "$runs invocations, $diffs with differences"
[ "$diffs" -eq 0 ]
