#!/usr/bin/env bash
# Byte-identity check for the paper-figure drivers across two build trees.
#
#   tools/diff_bench_quick.sh PARENT_BUILD CHANGE_BUILD
#
# Runs every bench_* driver (bench_micro aside) at --quick in both trees,
# plain and at --threads=2 --shards=2, and compares stdout and exit status.
# Prints one line per run and a unified diff for each mismatch; exits 0 when
# every run matches, 1 otherwise, 2 on bad usage. Build both trees in the
# same configuration first (e.g. Release).
set -u

if [ $# -ne 2 ]; then
  echo "usage: $0 PARENT_BUILD CHANGE_BUILD" >&2
  exit 2
fi
parent_dir=$1/bench
change_dir=$2/bench
for dir in "$parent_dir" "$change_dir"; do
  if [ ! -d "$dir" ]; then
    echo "$0: no bench directory at $dir" >&2
    exit 2
  fi
done

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

status=0
runs=0
for change_exe in "$change_dir"/bench_*; do
  name=$(basename "$change_exe")
  if [ "$name" = bench_micro ] || [ ! -f "$change_exe" ] || [ ! -x "$change_exe" ]; then
    continue
  fi
  parent_exe=$parent_dir/$name
  if [ ! -x "$parent_exe" ]; then
    echo "MISSING  $name (not built in $1)"
    status=1
    continue
  fi
  for args in "" "--threads=2 --shards=2"; do
    # shellcheck disable=SC2086  # $args is a list of flags
    "$parent_exe" --quick $args >"$out/parent" 2>/dev/null
    parent_rc=$?
    # shellcheck disable=SC2086
    "$change_exe" --quick $args >"$out/change" 2>/dev/null
    change_rc=$?
    runs=$((runs + 1))
    label="$name --quick${args:+ $args}"
    if [ "$parent_rc" -ne "$change_rc" ]; then
      echo "DIFFERS  $label (exit $parent_rc -> $change_rc)"
      status=1
    elif ! cmp -s "$out/parent" "$out/change"; then
      echo "DIFFERS  $label"
      diff -u "$out/parent" "$out/change" | head -40
      status=1
    else
      echo "same     $label"
    fi
  done
done

if [ "$runs" -eq 0 ]; then
  echo "$0: no bench_* drivers found in $change_dir" >&2
  exit 2
fi
exit $status
