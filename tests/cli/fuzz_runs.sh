#!/usr/bin/env bash
# silver-fuzz takes every run by its name in --levels: a short campaign
# over machine, rtl, jit and verilog-compiled must agree (exit 0) and
# print one throughput line per run, the added interpreted references
# (isa, verilog) included.
#
#   fuzz_runs.sh SILVER_FUZZ
set -u
FUZZ=$1

out=$("$FUZZ" --seed=1 --max-cases=50 --shrink=0 --jobs=1 \
  --levels=machine,rtl,jit,verilog-compiled 2>&1)
status=$?
if [ $status -ne 0 ]; then
  echo "FAIL: silver-fuzz exited $status" >&2
  echo "$out" >&2
  exit 1
fi
# machine prints as its level name, machine-sem.
for name in machine-sem isa rtl verilog jit verilog-compiled; do
  n=$(grep -c "^  $name: [0-9]* instrs" <<<"$out")
  if [ "$n" -ne 1 ]; then
    echo "FAIL: $n throughput lines for $name" >&2
    echo "$out" >&2
    exit 1
  fi
done
echo "ok: every run agreed and reported its throughput"
