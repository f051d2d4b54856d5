#!/usr/bin/env bash
# The Silver core's compiled simulator is linked into silverc: running
# hello at the verilog level on it needs no host compiler and touches no
# artifact cache, and reports exactly what the interpreter reports.
#
#   compiled_without_host_compiler.sh SILVERC
set -u
SILVERC=$1
ARGS=(--level=verilog --builtin=hello --json)

want=$("$SILVERC" "${ARGS[@]}" --hdl=interp 2>/dev/null)
if [ $? -ne 0 ] || [ -z "$want" ]; then
  echo "FAIL: silverc --hdl=interp did not run hello" >&2
  exit 1
fi

errfile=$(mktemp)
cache=$(mktemp -d)
trap 'rm -rf "$errfile" "$cache"' EXIT

got=$(SILVER_HDL_CXX=/no/such/compiler \
      "$SILVERC" "${ARGS[@]}" --hdl=compiled 2>"$errfile")
rc=$?
if [ $rc -ne 0 ] || [ -s "$errfile" ] || [ "$got" != "$want" ]; then
  echo "FAIL: without a host compiler, --hdl=compiled exited $rc" >&2
  echo "  stderr: $(cat "$errfile")" >&2
  echo "  got:  $got" >&2
  echo "  want: $want" >&2
  exit 1
fi

got=$(SILVER_HDL_CACHE=$cache "$SILVERC" "${ARGS[@]}" --hdl=compiled 2>/dev/null)
if [ $? -ne 0 ] || [ "$got" != "$want" ]; then
  echo "FAIL: --hdl=compiled printed '$got'" >&2
  exit 1
fi
if [ -n "$(ls -A "$cache")" ]; then
  echo "FAIL: --hdl=compiled wrote to the artifact cache: $(ls -A "$cache")" >&2
  exit 1
fi
echo "ok: the compiled core runs without a host compiler or a cache"
