#!/bin/sh
# One op surface: `call OP` takes exactly the flags of the local `OP`,
# and `submit` those of `learn`, apart from two fixed sets.  The local
# commands alone control their run (domains, precheck, checkpoints,
# trace, stats, live telemetry); the client commands alone connect.
# The option names are read from `--help=plain`.
#
#   op_surface.sh BINARY

bin=$1
fail=0

if [ -z "$bin" ]; then
    echo "usage: op_surface.sh BINARY" >&2
    exit 2
fi

run_control='-j --jobs --no-precheck --checkpoint --checkpoint-every
--checkpoint-interval --resume --trace --stats --stats-json --metrics-addr
--fdr'
connection='--connect --tenant --retries --backoff --rpc-timeout'

# the option names of a command's --help=plain, one a line, sorted,
# without the names of the set given as $1
options() {
    drop=$1
    shift
    "$bin" "$@" --help=plain |
        sed -n 's/^       \(-.*\)$/\1/p' |
        grep -oE '(^|, )--?[A-Za-z0-9][A-Za-z0-9-]*' |
        sed 's/^, //' |
        grep -vxF -e "$(printf '%s\n' $drop)" |
        sort -u
}

check() {
    local_cmd=$1
    remote=$2
    want=$(options "$run_control" $local_cmd)
    got=$(options "$connection" $remote)
    if [ -z "$want" ]; then
        echo "FAIL (no options read from $local_cmd --help=plain)" >&2
        fail=1
    elif [ "$want" != "$got" ]; then
        echo "FAIL ($remote and $local_cmd take different flags):" >&2
        echo "    $local_cmd:" $want >&2
        echo "    $remote:" $got >&2
        fail=1
    else
        echo "ok: $remote takes the flags of $local_cmd"
    fi
}

for op in learn mc types game; do
    check "$op" "call $op"
done
check learn submit
exit $fail
