#!/usr/bin/env bash
# Experiments gate: runs silver-experiments and byte-diffs its stdout,
# the deterministic EXPERIMENTS.md report, against the committed
# reports/experiments.json.  Fails when the program exits non-zero (a
# run disagreed with its specification, or the 3+L timing relation
# broke) or when any count moved; if a move is intended, re-baseline
# with the command printed below.  The wall-clock ratios go to stderr.
# On a host without a native JIT the report has no "jit" table;
# silver-experiments then exits 77 and so does this script, which
# ctest reports as a skip.
#
# usage: gate.sh <path-to-silver-experiments> <path-to-experiments.json>
set -u

EXPERIMENTS="$1"
WANT="$2"
GOT="$(mktemp)"
trap 'rm -f "$GOT"' EXIT

"$EXPERIMENTS" > "$GOT"
STATUS=$?
if [ "$STATUS" -eq 77 ]; then
  echo "experiments-report: SKIP: no native JIT on this host"
  exit 77
fi
if [ "$STATUS" -ne 0 ]; then
  echo "experiments-report: silver-experiments failed"
  exit 1
fi
if ! diff -u "$WANT" "$GOT"; then
  echo "experiments-report: the report drifted from $WANT."
  echo "  If intended: silver-experiments > reports/experiments.json"
  exit 1
fi
echo "experiments-report: the committed report matches"
