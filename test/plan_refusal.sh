#!/bin/sh
# `plan --strict` refuses a budget with the very message `learn` prints
# when its admission precheck refuses the same run: the two judge one
# query under one rule.
#
#   plan_refusal.sh BINARY

bin=$1
fail=0

if [ -z "$bin" ]; then
    echo "usage: plan_refusal.sh BINARY" >&2
    exit 2
fi

check() {
    plan_msg=$("$bin" plan --strict "$@" 2>&1 >/dev/null |
        sed -n 's/^folearn plan: //p')
    learn_msg=$("$bin" learn "$@" 2>&1 >/dev/null |
        sed -n 's/^folearn learn: refused: //p')
    if [ -z "$plan_msg" ]; then
        echo "FAIL (plan --strict admitted the budget): $*" >&2
        fail=1
    elif [ "$plan_msg" != "$learn_msg" ]; then
        echo "FAIL (messages differ): $*" >&2
        echo "    plan:  $plan_msg" >&2
        echo "    learn: $learn_msg" >&2
        fail=1
    else
        echo "ok: $*"
    fi
}

t='exists y. E(x1,y)'
check --solver brute -k 1 -l 1 -q 2 -g path:6 -t "$t" --fuel 1
check --solver brute -k 1 -l 1 -q 2 -g path:6 -t "$t" --max-table 3
check --solver local -k 1 -l 1 -q 1 -g path:12 -t "$t" --fuel 10
check --solver nd -k 1 -l 0 -q 1 -g path:12 -t "$t" --fuel 1 --timeout 5
exit $fail
