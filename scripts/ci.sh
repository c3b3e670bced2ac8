#!/usr/bin/env bash
# Full local CI gate. Everything here must pass on a machine with no
# network access — the workspace has no registry dependencies, and the
# seeded test suite replaces the (feature-gated) proptest suites.
#
# Usage: scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

# Unsafe inventory: every crate denies or forbids `unsafe`, and these are
# the reviewed exceptions, one site per file: the counting allocator the
# zero-alloc tests install, the reader's UTF-8 watermark conversion and
# the SSE2 scan kernel. Any other site fails here until it is reviewed
# and listed.
echo "==> unsafe inventory"
expected_unsafe="crates/bench/src/count_alloc.rs
crates/sax/src/reader/input.rs
crates/sax/src/scan.rs"
found_unsafe="$(grep -rn 'allow(unsafe_code)' crates/ | cut -d: -f1 | sort)"
if [ "$found_unsafe" != "$expected_unsafe" ]; then
    echo "unreviewed unsafe sites; expected one in each of:" >&2
    echo "$expected_unsafe" >&2
    grep -rn 'allow(unsafe_code)' crates/ >&2
    exit 1
fi

echo "==> cargo doc (broken doc links are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> offline guard: the workspace must build with no network"
cargo build --offline --workspace

echo "==> tier-1 verify: release build + tests"
cargo build --release
cargo test -q

echo "==> full workspace tests"
cargo test -q --workspace

# perfbench/ is a workspace of its own, so the workspace tests never
# compile it; its self-tests pin the API it drives.
echo "==> perfbench self-tests"
cargo test --release --manifest-path perfbench/Cargo.toml

# Time-bounded seeded fuzz over the release binary: same fixed seed every
# run, so a red stage is reproducible with
#   target/release/testkit-fuzz --seed 0x7716.. --cases N
# Scale with FUZZ_CASES (0 skips the stage); shrunk reproductions of any
# failure land in tests/corpus/ ready to commit.
FUZZ_CASES="${FUZZ_CASES:-2000}"
cargo build --release -p twigm-testkit
if [ "$FUZZ_CASES" -gt 0 ]; then
    echo "==> fuzz smoke: $FUZZ_CASES seeded cases (FUZZ_CASES to scale)"
    target/release/testkit-fuzz --seed 0x77163E57 --cases "$FUZZ_CASES" \
        --corpus-dir tests/corpus
fi

echo "==> corpus replay: shrunk past failures stay fixed"
target/release/testkit-fuzz --replay tests/corpus

# Observability smoke: drive the CLI with every telemetry flag on a
# Figure-2-style query, then schema-check the artifacts with the
# testkit validators, and hold the observer layer to its zero-cost
# claim (traced NoopObserver driver within 2% of the plain hot path,
# min-of-repeats aggregated over the bench query corpus). Scale the
# bench with OBS_SMOKE_SCALE; set OBS_SMOKE=0 to skip the stage.
OBS_SMOKE="${OBS_SMOKE:-1}"
if [ "$OBS_SMOKE" != 0 ]; then
    echo "==> obs smoke: stats/trace schemas + observer ablation gate"
    cargo build --release -p twigm-cli -p twigm-bench
    obs_tmp="$(mktemp -d)"
    trap 'rm -rf "$obs_tmp"' EXIT
    printf '<r><a><a><b/><c/></a><c/></a><a/></r>' > "$obs_tmp/doc.xml"
    target/release/twigm --stats=json --progress \
        --trace "$obs_tmp/trace.json" -c '//a[b]//c' "$obs_tmp/doc.xml" \
        > "$obs_tmp/out.txt" 2> "$obs_tmp/stats.json"
    grep -q '^1$' "$obs_tmp/out.txt"
    target/release/twigm --trace "$obs_tmp/trace.jsonl" '//a[b]//c' \
        "$obs_tmp/doc.xml" > /dev/null
    target/release/testkit-fuzz --validate-stats "$obs_tmp/stats.json"
    # Standing -q queries ride the same serial loop, telemetry included.
    target/release/twigm --progress --stats=json -q '//a[b]' -q '//c' \
        "$obs_tmp/doc.xml" > "$obs_tmp/multi.txt" 2> "$obs_tmp/multi.json"
    test "$(wc -l < "$obs_tmp/multi.txt")" -eq 3
    target/release/testkit-fuzz --validate-stats "$obs_tmp/multi.json"
    target/release/testkit-fuzz --validate-trace "$obs_tmp/trace.json"
    target/release/testkit-fuzz --validate-trace "$obs_tmp/trace.jsonl"
    OBS_ABLATION_GATE=2 target/release/ablation_observer \
        --scale "${OBS_SMOKE_SCALE:-0.05}" --repeats 9
fi

# Stream smoke: a result leaves the process as soon as it is decided.
# The document stays open for two more seconds after `<r><a/>`, and the
# standing query's line must reach a one-second read before that, for a
# descendant query and for a rooted one alike.
echo "==> stream smoke: results leave before end of input"
cargo build --release -p twigm-cli
for queries in "//a //b" "/r/a //zz"; do
    set -- $queries
    first="$( (printf '<r><a/>'; sleep 2; printf '</r>') \
        | target/release/twigm -q "$1" -q "$2" \
        | { IFS= read -r -t 1 line && printf '%s' "$line"; } )" || true
    if [ "$first" != "$(printf 'Q0\t1')" ]; then
        echo "stream smoke: -q $1 -q $2 gave no result line within 1 s of its deciding bytes" >&2
        exit 1
    fi
done

# Scanner smoke: the SWAR/SSE2 scan paths must agree with the scalar
# reference on real Figure-5 data (the ablation asserts this before
# timing) and hold their perf claim (text+terminator microbench >= 2x,
# measurable e2e win on at least one dataset, min-of-repeats). Scale
# with SCAN_SMOKE_SCALE; set SCAN_SMOKE=0 to skip the stage.
SCAN_SMOKE="${SCAN_SMOKE:-1}"
if [ "$SCAN_SMOKE" != 0 ]; then
    echo "==> scan smoke: scalar-vs-SWAR differential + ablation gate"
    cargo build --release -p twigm-bench
    SCAN_ABLATION_GATE=2 target/release/ablation_scanner \
        --scale "${SCAN_SMOKE_SCALE:-0.05}" --repeats 7 \
        --json target/BENCH_scanner.json
fi

# Pipeline smoke: the batched producer/consumer driver, the prefilter,
# and the sharded union must reproduce the serial results exactly on
# real Figure-5 data (the ablation asserts this before timing), and on
# a multi-core host the best pipelined/sharded configuration must show
# a real e2e win. The JSON lands at the repo root as the committed
# BENCH_pipeline.json snapshot, so the default scale matches the
# committed run (0.25, same as the figures). Scale with
# PIPE_SMOKE_SCALE; set PIPE_SMOKE=0 to skip the stage.
PIPE_SMOKE="${PIPE_SMOKE:-1}"
if [ "$PIPE_SMOKE" != 0 ]; then
    echo "==> pipeline smoke: serial-vs-pipelined differential + ablation gate"
    cargo build --release -p twigm-bench
    PIPELINE_ABLATION_GATE=1.3 target/release/ablation_pipeline \
        --scale "${PIPE_SMOKE_SCALE:-0.25}" --repeats 5 \
        --json target/BENCH_pipeline.json
    cp target/BENCH_pipeline.json BENCH_pipeline.json
fi

echo "CI green."
