#!/usr/bin/env bash
# jit is an execution backend, not a Figure-1 level: silverc rejects it
# as a --level value with its usage text, while --level=isa with
# --backend=jit runs.
#
#   level_spelling.sh SILVERC
set -u
SILVERC=$1
BACKEND=jit

err=$("$SILVERC" --builtin=hello "--level=$BACKEND" 2>&1 >/dev/null)
if [ $? -eq 0 ]; then
  echo "FAIL: silverc accepted --level=$BACKEND" >&2
  exit 1
fi
case $err in
  *"usage: silverc"*) ;;
  *) echo "FAIL: silverc --level=$BACKEND printed no usage text: $err" >&2
     exit 1 ;;
esac

out=$("$SILVERC" --builtin=hello --level=isa "--backend=$BACKEND" 2>/dev/null)
if [ $? -ne 0 ] || [ "$out" != "Hello, world!" ]; then
  echo "FAIL: silverc --level=isa --backend=$BACKEND printed '$out'" >&2
  exit 1
fi
echo "ok: $BACKEND is rejected as a level and runs as a backend"
