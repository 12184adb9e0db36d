#!/usr/bin/env bash
# The benchmark's one command.
#
#   benchmark/run.sh [--seed N] [--quick] [--runs R]
#       builds wcbench, runs the five workloads untraced, each once traced,
#       the isolated probes, checks correctness, prints every metric as
#       `workload/name value unit` and writes benchmark/out/results.json.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run of one workload (what BENCHMARK.json's command reaches);
#       the last line of standard output is the result object.
#
# Run from the root of the repository. Touches nothing outside benchmark/
# and the cargo target directory ($CARGO_TARGET_DIR, default
# benchmark/target).
set -euo pipefail

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
# The engine reads WIRECAP_* to attach samplers and scrape endpoints; the
# benchmark measures the engine without them.
for var in $(compgen -e | grep '^WIRECAP_' || true); do unset "$var"; done

# Build output goes to stderr: standard output belongs to the results.
cargo build --release --offline --manifest-path benchmark/Cargo.toml >&2
bin="$CARGO_TARGET_DIR/release/wcbench"

for arg in "$@"; do
    if [ "$arg" = "--workload" ]; then
        exec "$bin" run "$@"
    fi
done
exec "$bin" suite "$@"
