#!/usr/bin/env bash
# Flake finder for the root integration tests.
#
#   scripts/soak.sh N [BINARY...]
#
# Builds the root package's integration tests once, in the debug profile
# that `cargo test` uses, then runs each test binary (every one under
# tests/, or only the named ones, e.g. `offload_conservation`) N times in
# turn. Prints one line per binary with its failure count, and for each
# failing run the first panic location and message. Each failing run's
# full output is kept under target/soak/. Exits 1 if any run failed.
#
# Not a scripts/check.sh step: N runs of every binary take minutes.
set -euo pipefail

cd "$(dirname "$0")/.."

if [ $# -lt 1 ] || ! [ "$1" -ge 1 ] 2>/dev/null; then
    echo "usage: $0 N [BINARY...]" >&2
    exit 2
fi
n=$1
shift

# `cargo test --no-run` names each test executable on stderr as
#   Executable tests/NAME.rs (target/debug/deps/NAME-HASH)
bins=$(cargo test --tests --no-run 2>&1 |
    sed -n 's/^ *Executable tests\/\([a-z0-9_]*\)\.rs (\(.*\))$/\1 \2/p')
if [ -z "$bins" ]; then
    echo "no integration-test binaries found" >&2
    exit 2
fi

logs=target/soak
mkdir -p "$logs"
any_failed=0
while read -r name path; do
    if [ $# -gt 0 ] && ! printf '%s\n' "$@" | grep -qx "$name"; then
        continue
    fi
    failed=0
    failures=""
    for i in $(seq 1 "$n"); do
        log="$logs/$name.$i.log"
        if "$path" -q >"$log" 2>&1; then
            rm -f "$log"
        else
            failed=$((failed + 1))
            # The panic line names the location; the line after it
            # carries the message.
            panic=$(grep -m1 -A1 "panicked at" "$log" | tr '\n' ' ' | cut -c1-200 || true)
            failures="$failures      run $i: ${panic:-no panic line (see $log)}"$'\n'
        fi
    done
    printf '%-24s %d/%d runs failed\n' "$name" "$failed" "$n"
    printf '%s' "$failures"
    [ "$failed" -eq 0 ] || any_failed=1
done <<<"$bins"
exit "$any_failed"
