#!/bin/sh
# Golden check for the op commands of `folearn_cli` (learn, mc, types,
# game, plan's parameter checks, and pulse reading a dump): stdout and
# exit code are pinned byte for byte, stderr on every line that carries
# no timing.  A row that exits 125 (an uncaught exception) always fails.
#
#   ops_golden.sh BINARY DIR [--update]
#
# Each DIR/*.expected file is one row of the matrix.  Its first line is
# the invocation, `$ ARGS` (shell-quoted, without the binary); the rest
# is the rendering below, which the check reproduces and compares:
#
#   $ ARGS
#   exit CODE
#   --- stdout
#   ...
#   --- stderr
#   ...           (lines with an `N.NNN s` timing field dropped)
#
# With --update the files are rewritten from the current binary instead
# of compared (review the diff before committing it).

bin=$1
dir=$2
mode=$3
fail=0

if [ -z "$bin" ] || [ -z "$dir" ]; then
    echo "usage: ops_golden.sh BINARY DIR [--update]" >&2
    exit 2
fi

out=$(mktemp) err=$(mktemp) got=$(mktemp)
trap 'rm -f "$out" "$err" "$got"' EXIT

for f in "$dir"/*.expected; do
    args=$(sed -n '1s/^\$ //p' "$f")
    if [ -z "$args" ]; then
        echo "FAIL (first line is not '\$ ARGS'): $f" >&2
        fail=1
        continue
    fi
    eval "set -- $args"
    "$bin" "$@" >"$out" 2>"$err"
    code=$?
    if [ "$code" = 125 ]; then
        # cmdliner's exit for an uncaught exception: never a golden result
        echo "FAIL (uncaught exception, exit 125): $f" >&2
        sed 's/^/    /' "$err" >&2
        fail=1
        continue
    fi
    {
        printf '$ %s\nexit %d\n--- stdout\n' "$args" "$code"
        cat "$out"
        printf -- '--- stderr\n'
        grep -v -E '[0-9]+\.[0-9]+ s[,)]' "$err"
    } >"$got"
    if [ "$mode" = "--update" ]; then
        cp "$got" "$f"
        echo "updated: $f"
    elif cmp -s "$got" "$f"; then
        echo "ok: $f"
    else
        echo "FAIL (output differs from $f):" >&2
        diff "$f" "$got" | sed 's/^/    /' >&2
        fail=1
    fi
done

exit $fail
