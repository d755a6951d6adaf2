#!/usr/bin/env bash
# Fast smoke for the CLI's config schema: every pipeline flag goes through
# the one key table in src/api/config.cpp, so a flag spelling and its enum
# aliases must run the same experiment, and a misspelt flag or value must
# stop the run (exit 2, culprit named on stderr) instead of silently running
# a different one.
#
# usage: cli_flags_smoke.sh <path-to-shedmon_cli>
set -euo pipefail

CLI=$(readlink -f "${1:?usage: cli_flags_smoke.sh <path-to-shedmon_cli>}")
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
cd "$WORK"

"$CLI" generate --preset cesca1 --duration 2 --seed 7 --out t.smt >/dev/null

# Four queries at K=0.8: a load where eq_srates and mmfs_pkt allocate
# differently, so "the strategy flag was ignored" cannot pass unnoticed.
run() { "$CLI" run t.smt --k 0.8 --queries counter,flows,application,top-k "$@" >/dev/null; }
run --strategy eq_srates --csv eq_srates.csv
run --strategy eq --csv eq.csv
run --strategy mmfs_pkt --csv mmfs_pkt.csv
cmp -s eq_srates.csv eq.csv || {
  echo "FAIL: --strategy eq_srates and --strategy eq differ"; exit 1; }
if cmp -s eq_srates.csv mmfs_pkt.csv; then
  echo "FAIL: --strategy eq_srates ran the mmfs_pkt strategy"; exit 1
fi

# Boolean flags take a value only as --flag=value: the trace stays positional.
"$CLI" run --custom t.smt >/dev/null || {
  echo "FAIL: 'run --custom t.smt' did not read t.smt as the trace"; exit 1; }

expect_rejected() {
  local flag=$1
  shift
  local status=0
  "$@" >/dev/null 2>err.txt || status=$?
  [ "$status" -eq 2 ] || {
    echo "FAIL: '$*' exited $status, want 2"; cat err.txt; exit 1; }
  grep -q -- "$flag" err.txt || {
    echo "FAIL: '$*' did not name $flag on stderr"; cat err.txt; exit 1; }
}
expect_rejected --strategy "$CLI" run t.smt --strategy typo
expect_rejected --shedder "$CLI" run t.smt --shedder bogus
expect_rejected --ingest-policy "$CLI" run t.smt --ingest-cap 10 --ingest-policy dropp-oldest
# A capped open bin cannot block: the pushing thread is the one that closes it.
expect_rejected --ingest-policy "$CLI" run t.smt --ingest-cap 10 --ingest-policy block
expect_rejected --oracle "$CLI" run t.smt --oracle measurd
expect_rejected --thread "$CLI" run t.smt --thread 4
expect_rejected --k "$CLI" run t.smt --k 0.5x
expect_rejected --overflow "$CLI" capture --listen-udp 0 --capacity 5e6 --overflow x
# The slot pool is derived from --queue and the source count.
expect_rejected --slots "$CLI" capture --listen-udp 0 --capacity 5e6 --slots 8

echo "cli flags smoke: OK"
