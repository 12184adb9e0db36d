#!/usr/bin/env sh
# Tier-1 gate: formatting, lints, the full test suite, the benchmark
# contract (benchmark/ builds, passes its tests, and runs every
# BENCHMARK.json workload correct and loss-free), and a short run of the
# hot-path benchmark (which must produce BENCH_hotpath.json).
# Run from anywhere; everything executes at the repository root.
#
# BENCH_hotpath.json schema (written by `cargo bench -p bench --bench
# hotpath`; every entry named here is gated below):
#   results[]        per-M pipeline rates: seed_pps, batched_pps,
#                    speedup, plus telemetry/latency/span/disk-writer
#                    overheads (each with a `_raw` companion; the gates
#                    read the clamped value)
#   consumer_pool    pooled vs per-queue delivery (pool_speedup)
#   single_hot_queue claim-mode worker scaling on one queue
#                    (hotq_speedup)
#   backend_dispatch mono vs dyn queue calls
#                    (backend_dispatch_overhead)
#   flow_tracking    per-chunk flow analytics (flow_tracking_overhead)
#   latency_slo      tail-latency SLO pair (DESIGN.md section 4.16):
#                    Throughput vs CacheResident p50/p99/p99.9 at the
#                    same configured pool under saturating load; gated
#                    cache_resident_p999_ns <= throughput_p999_ns
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

echo "==> hot-path benchmark (quick mode)"
rm -f BENCH_hotpath.json
CRITERION_QUICK=1 cargo bench -p bench --bench hotpath
if [ ! -f BENCH_hotpath.json ]; then
    echo "FAIL: benchmark did not produce BENCH_hotpath.json" >&2
    exit 1
fi

echo "==> latency-stamping overhead budget (<= 5% at every M)"
# Seal stamps amortize per NIC poll batch and delivery stamps per
# consumer drain call (one lazy clock read each), so the budget holds
# at every chunk size — including the small-M entries where a
# per-chunk stamp used to cost the most.
awk '
    /"m":/            { m = $2 + 0 }
    /"latency_overhead":/ { sub(/,$/, "", $2); ov[m] = $2 + 0; ms[m] = 1 }
    END {
        n = 0; bad = 0
        for (m in ms) {
            n++
            printf "    m=%d latency_overhead=%.2f%%\n", m, ov[m] * 100
            if (ov[m] > 0.05) {
                printf "FAIL: latency stamping overhead %.2f%% > 5%% at m=%d\n", ov[m] * 100, m
                bad = 1
            }
        }
        if (n == 0) { print "FAIL: no latency_overhead entries"; exit 1 }
        if (bad) exit 1
    }
' BENCH_hotpath.json

echo "==> span-tracing overhead budget (<= 3% at the largest M)"
# 1-in-N lifecycle spans (stamp bookkeeping, per-stage histograms, the
# mutex-guarded span ring) are measured against the latency-stamped
# baseline at the benchmark's largest M, the paper's operating range;
# smaller M entries are recorded in the JSON for inspection.
awk '
    /"m":/            { m = $2 + 0 }
    /"span_tracing_overhead":/ { sub(/,$/, "", $2); ov[m] = $2 + 0; if (m > max_m) max_m = m }
    END {
        if (max_m == 0) { print "FAIL: no span_tracing_overhead entries"; exit 1 }
        printf "    m=%d span_tracing_overhead=%.2f%%\n", max_m, ov[max_m] * 100
        if (ov[max_m] > 0.03) {
            printf "FAIL: span tracing overhead %.2f%% > 3%% at m=%d\n", ov[max_m] * 100, max_m
            exit 1
        }
    }
' BENCH_hotpath.json

echo "==> disk-writer encode overhead budget (<= 30% at m=1, <= 50% at the largest M)"
# The capdisk writer encodes pcapng through a precomputed EPB header
# template into cursor-addressed batch storage (pure slice stores, no
# per-packet Vec bookkeeping). At m=1 the stamped baseline does
# comparable per-packet work, so the encode's instruction cost shows
# directly and is gated tight. At large M the baseline runs at memory
# speed without ever reading payload bytes, while the encode must
# stream every payload through the batch buffer — the ratio floors
# near 40% on pure memory traffic (see EXPERIMENTS.md, known
# deviations), so the large-M ceiling only guards against regressing
# back toward the old field-by-field encoder.
awk '
    /"m":/               { m = $2 + 0 }
    /"disk_writer_overhead":/ {
        sub(/,$/, "", $2); ov[m] = $2 + 0
        if (m > max_m) max_m = m
        if (min_m == 0 || m < min_m) min_m = m
    }
    END {
        if (max_m == 0) { print "FAIL: no disk_writer_overhead entries"; exit 1 }
        printf "    m=%d disk_writer_overhead=%.2f%%  m=%d disk_writer_overhead=%.2f%%\n", \
            min_m, ov[min_m] * 100, max_m, ov[max_m] * 100
        if (ov[min_m] > 0.30) {
            printf "FAIL: disk writer encode overhead %.2f%% > 30%% at m=%d\n", ov[min_m] * 100, min_m
            exit 1
        }
        if (ov[max_m] > 0.50) {
            printf "FAIL: disk writer encode overhead %.2f%% > 50%% at m=%d\n", ov[max_m] * 100, max_m
            exit 1
        }
    }
' BENCH_hotpath.json

echo "==> consumer pool speedup gate (>= 1.5x single consumer at 4q/4w)"
# The work-stealing pool must beat a single consumer on the same
# skewed workload by overlapping the blocking per-chunk I/O stage
# (DESIGN.md section 4.11). Conservation is asserted inside the bench.
awk '
    /"pool_speedup":/ { sub(/,$/, "", $2); speedup = $2 + 0; seen = 1 }
    END {
        if (!seen) { print "FAIL: no pool_speedup entry in BENCH_hotpath.json"; exit 1 }
        printf "    pool_speedup=%.2fx\n", speedup
        if (speedup < 1.5) {
            printf "FAIL: consumer pool speedup %.2fx < 1.5x\n", speedup
            exit 1
        }
    }
' BENCH_hotpath.json

echo "==> single-hot-queue speedup gate (>= 1.5x, 1q/4w vs 1q/1w, claim mode)"
# Work stealing republishes every chunk of a hot queue through the
# owning worker's deque; the COREC-style concurrent claim mode drains
# it with no middleman and must scale with the worker count
# (DESIGN.md section 4.12). Conservation is asserted in the bench.
awk '
    /"hotq_speedup":/ { sub(/,$/, "", $2); speedup = $2 + 0; seen = 1 }
    END {
        if (!seen) { print "FAIL: no hotq_speedup entry in BENCH_hotpath.json"; exit 1 }
        printf "    hotq_speedup=%.2fx\n", speedup
        if (speedup < 1.5) {
            printf "FAIL: single-hot-queue speedup %.2fx < 1.5x\n", speedup
            exit 1
        }
    }
' BENCH_hotpath.json

echo "==> backend dispatch overhead budget (<= 2%, mono vs dyn trait calls)"
# The engine reaches its queues through Arc<dyn BackendQueue> (the
# CaptureBackend abstraction, DESIGN.md section 4.13). The dynamic
# dispatch plus per-frame callback indirection must stay within 2% of
# the monomorphized nicsim path, or the trait boundary has grown a
# real per-packet cost.
awk '
    /"backend_dispatch_overhead":/ { sub(/,$/, "", $2); ov = $2 + 0; seen = 1 }
    END {
        if (!seen) { print "FAIL: no backend_dispatch_overhead entry in BENCH_hotpath.json"; exit 1 }
        printf "    backend_dispatch_overhead=%.2f%%\n", ov * 100
        if (ov > 0.02) {
            printf "FAIL: backend dispatch overhead %.2f%% > 2%%\n", ov * 100
            exit 1
        }
    }
' BENCH_hotpath.json

echo "==> flow-tracking overhead budget (<= 10% at 1M flows)"
# The per-chunk flow-analytics stage (two-pass batched ingest into a
# pre-warmed million-entry set-associative table, top-K offers, and the
# telemetry delta flush) is measured against the BPF-filtering consumer
# it rides beside. The baseline applies the filter x=10 times — a
# deliberately *light* application load, an order of magnitude below
# the paper's heavy x=300 setting (Figs. 9-10) — so the gate holds even
# when the consumer does little work, not only when its own cost
# dwarfs the flow stage (DESIGN.md section 4.15).
awk '
    /"flow_tracking_overhead":/ { sub(/,$/, "", $2); ov = $2 + 0; seen = 1 }
    END {
        if (!seen) { print "FAIL: no flow_tracking_overhead entry in BENCH_hotpath.json"; exit 1 }
        printf "    flow_tracking_overhead=%.2f%%\n", ov * 100
        if (ov > 0.10) {
            printf "FAIL: flow tracking overhead %.2f%% > 10%%\n", ov * 100
            exit 1
        }
    }
' BENCH_hotpath.json

echo "==> tail-latency SLO gate (cache-resident p99.9 <= throughput p99.9)"
# The cache-resident fast path (DESIGN.md section 4.16) exists to buy
# tail latency: at the same configured pool under saturating load, the
# LLC-sized pool with fast recycling must not show a worse p99.9 than
# the throughput-tuned pool whose backlog runs R chunks deep.
awk '
    /"throughput_p999_ns":/ { sub(/,$/, "", $2); thr = $2 + 0; seen_t = 1 }
    /"cache_resident_p999_ns":/ { sub(/,$/, "", $2); cache = $2 + 0; seen_c = 1 }
    END {
        if (!seen_t || !seen_c) { print "FAIL: no latency_slo p99.9 entries in BENCH_hotpath.json"; exit 1 }
        printf "    throughput p99.9=%dus  cache_resident p99.9=%dus\n", thr / 1000, cache / 1000
        if (cache > thr) {
            printf "FAIL: cache-resident p99.9 %dus exceeds throughput p99.9 %dus\n", cache / 1000, thr / 1000
            exit 1
        }
    }
' BENCH_hotpath.json

echo "==> BENCH_hotpath.json gated-entry completeness"
# Every key a gate above reads must be present: a refactor that drops
# one from the benchmark output must fail here, not silently skip its
# gate on the next edit.
for key in latency_overhead span_tracing_overhead disk_writer_overhead pool_speedup hotq_speedup backend_dispatch_overhead flow_tracking_overhead latency_slo throughput_p999_ns cache_resident_p999_ns; do
    if ! grep -q "\"$key\":" BENCH_hotpath.json; then
        echo "FAIL: BENCH_hotpath.json is missing gated entry \"$key\"" >&2
        exit 1
    fi
done
echo "    all gated keys present"

echo "==> backend conformance suite (nicsim + shmring, release)"
# Both CaptureBackend implementations must pass the identical
# conservation, zero-allocation, and teardown contracts — the suites
# iterate over [nicsim, shmring] internally and label failures by
# backend name.
cargo test -q --release --test engine_conformance
cargo test -q --release --test offload_conservation

echo "==> claim CAS protocol: exhaustive two-thread interleavings"
cargo test -q --release --test claim_interleavings

echo "==> in-order claim conservation (reorder buffer + forced stop)"
cargo test -q --release --test inorder_conservation

echo "==> work-stealing conservation smoke (two-thread steal + forced stop)"
cargo test -q --release --test steal_conservation

echo "==> flow-count conservation (eviction pressure, forced stop, both claim modes)"
cargo test -q --release --test flow_conservation

echo "==> multi-core delivery scaling point (2 workers, small)"
# Writes to a scratch directory so the full-scale results/ artifacts
# referenced by EXPERIMENTS.md are not clobbered by the smoke run.
cargo run -q --release -p bench --bin fig_scaling -- --small --out target/check-scaling

echo "==> online flow analytics point (2k flows, 2 workers, small)"
# Conservation and (eviction-free) exact top-16 are asserted inside
# the binary at every point.
cargo run -q --release -p bench --bin fig_flows -- --small --out target/check-flows

echo "==> tail-latency sweep point (pool size x load x tuning, small)"
# Conservation is asserted inside the binary at every point; the
# headline pair (largest pool, saturating load) is echoed in the
# table title.
cargo run -q --release -p bench --bin fig_latency -- --small --out target/check-latency

echo "==> capture-to-disk smoke (conservation + rotation + degradation)"
cargo test -q --test capture_to_disk

echo "==> scrape endpoint + sampler escape hatch (live run)"
# Covers both ends of the env contract: endpoint live during a real
# threaded capture run, and engines still building/running with the
# sampler disabled (WIRECAP_TELEMETRY_SAMPLE_MS=0).
cargo test -q --test telemetry_endpoint

echo "==> /trace.json is valid Chrome trace-event JSON"
# The telemetry_endpoint test scrapes a fully span-sampled live run and
# leaves the /trace.json body at target/check-trace.json. Validate it
# as what chrome://tracing / Perfetto load: a JSON array of event
# objects, each carrying ph/ts/pid/tid.
if [ ! -f target/check-trace.json ]; then
    echo "FAIL: telemetry_endpoint did not leave target/check-trace.json" >&2
    exit 1
fi
if command -v python3 >/dev/null 2>&1; then
    python3 - <<'EOF'
import json, sys
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

echo "==> escape hatch: figure harness runs with the sampler disabled"
WIRECAP_TELEMETRY_SAMPLE_MS=0 WIRECAP_TELEMETRY_LISTEN= \
    cargo run -q --release --example quickstart >/dev/null

echo "==> all checks passed"
