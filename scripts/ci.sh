#!/usr/bin/env sh
# Tier-1 verification gate for the Muffin workspace.
#
# The workspace is hermetic (zero external crates), so everything here must
# pass from a cold, air-gapped checkout with no registry access. Run from
# the repository root:
#
#   sh scripts/ci.sh
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo build --release --offline"
cargo build --release --offline

echo "==> matmul kernel symbols start on 64-byte boundaries"
# `.cargo/config.toml` aligns every function to 64 bytes because the 1-row
# serving path ran 30-40% slower when `Matrix::matmul_into` started at 48
# (mod 64). Every `muffin_tensor::matrix` matmul symbol in the release
# binary must sit at an address = 0 (mod 64): its last hex digit is 0 and
# the one before it 0, 4, 8 or c. Finding no such symbol fails too (say,
# with `nm` missing or the kernels renamed).
nm -C target/release/muffin | grep 'muffin_tensor::matrix::.*matmul' \
    >target/ci-matmul-symbols.txt || true
if [ ! -s target/ci-matmul-symbols.txt ]; then
    echo "ERROR: nm -C target/release/muffin lists no muffin_tensor::matrix matmul symbol" >&2
    exit 1
fi
if grep -v -E '^[0-9a-f]*[048c]0 ' target/ci-matmul-symbols.txt >&2; then
    echo "ERROR: the matmul symbols above do not start on a 64-byte boundary" >&2
    exit 1
fi

echo "==> every tanh runs muffin_tensor::tanh_in_place (no libm tanh under crates/*/src)"
# The kernel has the bits of glibc's tanhf on every input, so results do
# not depend on the host's libm; one `.tanh()` or `f32::tanh` call would
# make them depend on it again. Comments may name them, and the one
# comparison with f32::tanh is crates/tensor/tests/tanh_exactness.rs.
if grep -rnE '\.tanh\(|f32::tanh' crates/*/src \
    | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' >&2; then
    echo "ERROR: the calls above bypass muffin_tensor::tanh_in_place" >&2
    exit 1
fi

echo "==> cargo test --no-run --offline (no compiler warnings)"
# A deletion must not leave dead imports or items behind: any warning in
# the test build fails the gate. Cargo replays the warnings of units it
# does not rebuild, so a warm build is checked too.
if ! cargo test --no-run --offline 2>target/ci-test-build.log; then
    cat target/ci-test-build.log >&2
    exit 1
fi
if grep '^warning:' target/ci-test-build.log >&2; then
    echo "ERROR: the test build printed compiler warnings" >&2
    exit 1
fi

echo "==> cargo test -q --offline"
cargo test -q --offline

if command -v rustfmt >/dev/null 2>&1; then
    echo "==> cargo fmt --check"
    cargo fmt --check || {
        echo "formatting drift detected (non-fatal for tier-1)" >&2
    }
else
    echo "==> rustfmt not installed, skipping format check"
fi

echo "==> kernel equivalence + stride awareness (register-panel matmul vs naive oracle)"
cargo test -q --offline -p muffin-tensor \
    --test kernel_equivalence --test stride_awareness

echo "==> tanh kernel vs f32::tanh on all 2^32 inputs (release, one sign half per thread)"
cargo test -q --release --offline -p muffin-tensor --test tanh_exactness -- --ignored

echo "==> serial vs parallel search equivalence"
cargo test -q --offline -p muffin-integration-tests --test parallel_equivalence

echo "==> golden snapshot + trace determinism"
cargo test -q --offline -p muffin-integration-tests \
    --test golden_snapshot --test trace_determinism

echo "==> checkpoint/resume and extension to a larger budget"
cargo test -q --offline -p muffin-integration-tests --test checkpoint_resume
cargo test -q --offline -p muffin-cli --test cli_process

echo "==> pool lifecycle: content-addressed ids + growth e2e (stale resume rejected)"
cargo test -q --offline -p muffin-models --test identity_props
cargo test -q --offline -p muffin-cli --test cli_process pool_lifecycle

echo "==> pool gc --dry-run smoke (never rewrites the pool)"
# A tiny end-to-end: train a 2-model pool, search 2 episodes, then ask gc
# what it would drop. The dry run must exit 0 and leave the pool file
# byte-identical.
mkdir -p target/muffin-pool-smoke
cargo run -q --release --offline -p muffin-cli -- generate \
    --samples 300 --seed 3 --out target/muffin-pool-smoke/data.json
cargo run -q --release --offline -p muffin-cli -- train-pool \
    --data target/muffin-pool-smoke/data.json \
    --archs ResNet-18,DenseNet121 --epochs 2 \
    --out target/muffin-pool-smoke/pool.json
cargo run -q --release --offline -p muffin-cli -- search \
    --data target/muffin-pool-smoke/data.json \
    --pool target/muffin-pool-smoke/pool.json \
    --attrs age,site --episodes 2 \
    --out target/muffin-pool-smoke/outcome.json
cp target/muffin-pool-smoke/pool.json target/muffin-pool-smoke/pool.before.json
cargo run -q --release --offline -p muffin-cli -- pool gc \
    --pool target/muffin-pool-smoke/pool.json \
    --outcome target/muffin-pool-smoke/outcome.json --dry-run
cmp target/muffin-pool-smoke/pool.json target/muffin-pool-smoke/pool.before.json

echo "==> body-output cache equivalence"
cargo test -q --offline -p muffin-integration-tests --test body_cache_equivalence

echo "==> golden + determinism suites built for the x86-64 baseline (SSE2)"
# `.cargo/config.toml` builds for the host CPU and claims that vector
# width changes no float. A RUSTFLAGS variable replaces that config, so
# this step rebuilds the suites that pin outcome bytes for the x86-64
# baseline, keeping the function alignment, in a target directory of
# their own, and runs them: the claim is held by a test.
if [ "$(uname -m)" = x86_64 ]; then
    RUSTFLAGS="-C target-cpu=x86-64 -C llvm-args=-align-all-functions=6" \
        CARGO_TARGET_DIR=target/x86-64-baseline \
        cargo test -q --offline -p muffin-integration-tests \
        --test golden_snapshot --test trace_determinism --test parallel_equivalence \
        --test body_cache_equivalence --test checkpoint_resume
else
    echo "not an x86-64 host ($(uname -m)): no x86-64 baseline build"
fi

echo "==> serving: batching equivalence, load shedding, trace stability"
cargo test -q --offline -p muffin-serve

echo "==> serving: a 1-row request allocates at most 12 times on a consensus row, 17 on a disputed one"
# The step above runs it in the test profile; this runs it in the release
# profile the server ships in, where the optimiser may change the count.
cargo test -q --release --offline -p muffin-serve --test request_allocations

echo "==> serve loadgen smoke (fixed seed, bounded duration) + regression gate"
# A short closed-loop run against the demo fused model: must exit 0, write
# a bench-shaped report, and stay within the (generous, CI-noise-tolerant)
# regression threshold against the committed pr7 baseline.
mkdir -p target/muffin-loadgen-smoke
cargo run -q --release --offline -p muffin-cli -- loadgen \
    --seed 21 --clients 4 --requests 50 \
    --out target/muffin-loadgen-smoke/serve.json
sh scripts/bench-compare.sh --fail-above 400 \
    results/bench/pr7-baseline target/muffin-loadgen-smoke

echo "==> bench smoke (3 samples per bench)"
# Absolute path: `cargo bench` runs each bench with the package dir as
# CWD, so a relative MUFFIN_BENCH_OUT would land in crates/bench/.
MUFFIN_BENCH_SAMPLES=3 MUFFIN_BENCH_OUT="$PWD/target/muffin-bench-smoke" \
    cargo bench --offline -p muffin-bench

echo "==> scenario registry + handbook coverage"
cargo test -q --offline -p muffin-data --lib scenario::
cargo test -q --offline -p muffin-data --test scenario_docs

echo "==> scenario × reward matrix smoke (2x2 grid, deterministic report)"
# A tiny grid over two builtin scenarios and two reward shapes: must exit
# 0 and write the deterministic report pair plus a bench-shaped timing
# file that scripts/bench-compare.sh can diff against a saved baseline.
mkdir -p target/muffin-matrix-smoke
cargo run -q --release --offline -p muffin-cli -- matrix \
    --scenarios german-credit,edu-grades --rewards paper,intersect \
    --samples 400 --episodes 2 --epochs 2 \
    --out-dir target/muffin-matrix-smoke \
    --bench-out target/muffin-matrix-smoke/matrix.json.bench
test -s target/muffin-matrix-smoke/matrix.json
test -s target/muffin-matrix-smoke/matrix.md

echo "==> repo benchmark: build, unit tests, serve-fused smoke (untraced + traced), traced search-cold smoke"
# e2e-bench builds against the workspace crates by path, so a public-API
# change that breaks it fails here, not only in the benchmark pipeline.
# Each run must exit 0 (every correctness check passed), and each traced
# run's two replicas must have verified the trace they re-derive.
# serve-fused trains 8-epoch heads; search-cold trains the paper's
# 60-epoch heads, so its head replica re-derives a full-length fit.
bench() {
    subcommand=$1
    shift
    CARGO_TARGET_DIR=.bench_build cargo "$subcommand" --release --offline --quiet \
        --manifest-path e2e-bench/Cargo.toml "$@"
}
bench build
bench test
mkdir -p target/e2e-bench-smoke
for trace in 0 1; do
    bench run -- --workload serve-fused --seed 1 --seconds 1 --trace "$trace" \
        > "target/e2e-bench-smoke/serve-fused-trace$trace.txt"
done
bench run -- --workload search-cold --seed 1 --seconds 1 --trace 1 \
    > target/e2e-bench-smoke/search-cold-trace1.txt
for run in serve-fused-trace1 search-cold-trace1; do
    for flag in nn.replica_verified controller.replay_verified; do
        tail -n 1 "target/e2e-bench-smoke/$run.txt" \
            | grep -q "\"$flag\": {\"value\": 1," || {
            echo "ERROR: $flag did not read 1 in the $run benchmark smoke" >&2
            exit 1
        }
    done
done

echo "==> documentation link check"
sh scripts/check-doc-links.sh

echo "==> rustdoc (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline

echo "==> hermeticity: no external crates in any manifest"
# Anchor to dependency-declaration lines ("<crate> = ..." or
# "<crate> = { ... }") so comments, descriptions, or in-repo crate names
# that merely *contain* a banned word (e.g. muffin-random) cannot trip the
# gate. The known serde/rand/proptest/criterion ecosystems are matched as
# whole crate names.
banned='serde|serde_json|serde_derive|rand|rand_core|rand_chacha|rand_distr|proptest|criterion'
if grep -rnE "^[[:space:]]*(${banned})[[:space:]]*=" --include=Cargo.toml \
    Cargo.toml crates tests examples; then
    echo "ERROR: external dependency reference found in a manifest" >&2
    exit 1
fi

echo "ci: all checks passed"
