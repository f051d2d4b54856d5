#!/usr/bin/env bash
# Experiments gate: runs silver-experiments and byte-diffs its stdout,
# the deterministic EXPERIMENTS.md report, against the committed
# reports/experiments.json.  Fails when the program exits non-zero (a
# run disagreed with its specification, or the 3+L timing relation
# broke) or when any count moved; if a move is intended, re-baseline
# with the command printed below.  The wall-clock ratios go to stderr.
#
# usage: gate.sh <path-to-silver-experiments> <path-to-experiments.json>
set -u

EXPERIMENTS="$1"
WANT="$2"
GOT="$(mktemp)"
trap 'rm -f "$GOT"' EXIT

if ! "$EXPERIMENTS" > "$GOT"; then
  echo "experiments-report: silver-experiments failed"
  exit 1
fi
if ! diff -u "$WANT" "$GOT"; then
  echo "experiments-report: the report drifted from $WANT."
  echo "  If intended: silver-experiments > reports/experiments.json"
  exit 1
fi
echo "experiments-report: the committed report matches"
