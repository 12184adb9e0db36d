#!/usr/bin/env sh
# Tier-1 gate, run from anywhere: formatting, lints, docs, the test suite,
# the benchmark contract (benchmark/ builds, passes its tests, runs every
# BENCHMARK.json workload correct and loss-free), the release-mode
# conservation suites, the small figure runs (fig_scaling and fig_latency
# gate their own ratios), and the live telemetry surfaces.
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
if cargo fmt --version >/dev/null 2>&1; then
    cargo fmt --check
else
    echo "    rustfmt not installed; skipping"
fi

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
if cargo clippy --version >/dev/null 2>&1; then
    cargo clippy --workspace --all-targets -- -D warnings
    echo "==> cargo clippy -p wirecap -p shmring -- -D clippy::undocumented_unsafe_blocks"
    # Every unsafe block and unsafe impl in the two crates that own the
    # engine's unsafe code carries a SAFETY comment.
    cargo clippy -p wirecap -p shmring -- -D clippy::undocumented_unsafe_blocks
else
    echo "    clippy not installed; skipping"
fi

echo "==> cargo doc --workspace --no-deps (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> snapshot schema golden test"
cargo test -q --test snapshot_schema

echo "==> benchmark contract (wcbench builds, its tests pass, all five workloads run correct)"
# What the pipeline does to every PR, at two seconds a workload: build
# benchmark/ offline against this checkout, run its own tests, then one
# untraced run of each BENCHMARK.json workload through benchmark/run.sh.
# Each must end in a result line with "correct":true and "failed":0 — an
# engine change that breaks a public item wcbench reaches, loses a
# packet, or unbalances the ledger fails here, not after the push. The
# one number gated is the idle hand-off's (DESIGN.md section 4.7):
# paced300k lat_p50_us is ~2 us with it and ~108 us (half a chunk fill
# time) without, so >= 25 us means the rule stopped firing. paced300k's
# own noise guard ("machine too noisy": the open-loop generator ran
# > 5 ms late 8 times over) is the VM's fault, not the change's: retried
# once, then reported as skipped.
cargo build --release --offline --manifest-path benchmark/Cargo.toml
cargo test -q --offline --manifest-path benchmark/Cargo.toml
bench_err=target/check-benchmark.err
bench_run() {
    bash benchmark/run.sh --workload "$1" --seed 1 --seconds 2 --trace 0 2>"$bench_err" | tail -n 1
}
bench_ok() {
    case "$1" in
        '{"correct":true,'*'"failed":0,'*) return 0 ;;
        *) return 1 ;;
    esac
}
bench_noisy() {
    [ "$1" = paced300k ] && grep -q "machine too noisy" "$bench_err"
}
for w in wire64 wire1518 paced300k pool_skew buddy_skew; do
    result=$(bench_run "$w")
    if ! bench_ok "$result" && bench_noisy "$w"; then
        echo "    $w: machine too noisy, retrying once"
        result=$(bench_run "$w")
    fi
    if ! bench_ok "$result"; then
        if bench_noisy "$w"; then
            echo "    $w: SKIPPED (machine too noisy twice)"
            continue
        fi
        echo "FAIL: benchmark/run.sh --workload $w did not end in a correct, loss-free result line" >&2
        echo "      last line: $result" >&2
        tail -n 5 "$bench_err" >&2
        exit 1
    fi
    mpps=$(printf '%s' "$result" | sed -n 's/.*"delivered_mpps":{"value":\([0-9.eE+-]*\).*/\1/p')
    p50=$(printf '%s' "$result" | sed -n 's/.*"lat_p50_us":{"value":\([0-9.eE+-]*\).*/\1/p')
    printf '    %-10s correct, failed=0, delivered_mpps=%.3f lat_p50_us=%.2f\n' "$w" "$mpps" "$p50"
    if [ "$w" = paced300k ] && ! awk -v p50="$p50" 'BEGIN { exit !(p50 < 25) }'; then
        echo "FAIL: paced300k lat_p50_us $p50 >= 25: idle hand-off is not sealing at the consumer's pace" >&2
        exit 1
    fi
done

echo "==> release-mode conservation suites"
# The first two iterate over both backends (nicsim, shmring) and label
# failures by backend name; claim_interleavings is the exhaustive
# two-thread model of the claim CAS protocol.
for t in engine_conformance offload_conservation claim_interleavings \
    steal_conservation flow_conservation; do
    cargo test -q --release --test "$t"
done

echo "==> small figure runs (scratch output; results/ is not clobbered)"
# Each asserts conservation at every point. fig_scaling exits non-zero
# unless pool_speedup and hotq_speedup are >= 1.5, fig_latency unless
# saturated p99.9 at the largest pool >= at the smallest (tail_reduction
# >= 1); fig_flows checks exact top-16.
cargo run -q --release -p bench --bin fig_scaling -- --small --out target/check-scaling
cargo run -q --release -p bench --bin fig_flows -- --small --out target/check-flows
cargo run -q --release -p bench --bin fig_latency -- --small --out target/check-latency

echo "==> capture-to-disk smoke (conservation + rotation + degradation)"
cargo test -q --test capture_to_disk

echo "==> scrape endpoint (live run)"
# Both ends of the env contract: endpoint live during a threaded capture
# run, and an engine without the variable running its capture threads only.
cargo test -q --test telemetry_endpoint

echo "==> /trace.json is valid Chrome trace-event JSON"
# telemetry_endpoint leaves a fully span-sampled run's /trace.json body at
# target/check-trace.json. Validate it as what chrome://tracing / Perfetto
# load: a JSON array of event objects, each carrying ph/ts/pid/tid.
if [ ! -f target/check-trace.json ]; then
    echo "FAIL: telemetry_endpoint did not leave target/check-trace.json" >&2
    exit 1
fi
if command -v python3 >/dev/null 2>&1; then
    python3 - <<'EOF'
import json
with open("target/check-trace.json") as f:
    events = json.load(f)
assert isinstance(events, list), "trace must be an array"
assert events, "trace must not be empty"
for e in events:
    assert isinstance(e, dict), f"non-object event: {e!r}"
    for key in ("ph", "ts", "pid", "tid"):
        assert key in e, f"event missing {key}: {e!r}"
assert any(e["ph"] == "X" for e in events), "no complete (span) events"
print(f"    {len(events)} trace events, all carrying ph/ts/pid/tid")
EOF
else
    # No python3: structural spot checks only.
    head -c1 target/check-trace.json | grep -q '\[' || {
        echo "FAIL: trace.json is not a JSON array" >&2; exit 1; }
    for key in '"ph"' '"ts"' '"pid"' '"tid"'; do
        grep -q "$key" target/check-trace.json || {
            echo "FAIL: trace.json has no $key fields" >&2; exit 1; }
    done
    echo "    trace.json structural checks passed (python3 unavailable)"
fi

echo "==> quickstart example smoke run"
cargo run -q --release --example quickstart >/dev/null

echo "==> all checks passed"
