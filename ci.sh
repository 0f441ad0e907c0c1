#!/usr/bin/env bash
# The one CI definition: the GitHub workflow runs `./ci.sh` (full mode)
# and uploads the artifacts it leaves.
#   ./ci.sh          # every check: fmt, clippy, doc, release build
#                    # and tests, sanitized suite, smoke runs, paper tables
#                    # and their exact counter gate against the parent commit
#   ./ci.sh quick    # skip the release build, test in debug only
set -euo pipefail
cd "$(dirname "$0")"

mode="${1:-full}"

# The release test run and the sanitized suite keep their output here
# (`tee` under pipefail: a failing suite still fails CI), so the workflow
# can upload a failure's error text.
rm -rf target/ci
mkdir -p target/ci

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc (deny warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "== no Ordering::Relaxed outside crates/gpu-sim/ (published pointers need acquire/release) =="
relaxed=$(grep -rn --include='*.rs' --exclude-dir=target --exclude-dir=.git 'Ordering::Relaxed' . | grep -v '^\./crates/gpu-sim/' || true)
if [ -n "$relaxed" ]; then
    echo "Ordering::Relaxed outside crates/gpu-sim/:" >&2
    echo "$relaxed" >&2
    exit 1
fi

if [ "$mode" = "quick" ]; then
    echo "== end-to-end benchmark build (own workspace; consumes the public read API) =="
    cargo build --offline --manifest-path dgbench/Cargo.toml
    echo "== cargo test (debug) =="
    cargo test --workspace -q
    echo "== sanitizer fixture suite (debug, shadow-memory checks on) =="
    cargo test -q --features sanitize --test sanitizer
    echo "== core unit tests under the sanitizer (debug; flush certificates and revokes under racecheck) =="
    cargo test -q -p slabgraph --features gpu-sim/sanitize
    echo "== slab-hash tests under the sanitizer (debug; group walks and their racing claims) =="
    cargo test -q -p slab-hash --features gpu-sim/sanitize
    echo "== churn workload smoke run (debug, incl. mixed readers-vs-writers) =="
    cargo run -q -p bench --bin churn -- --rounds 2 --ops 512 --readers 2
    echo "== chaos churn smoke run (debug, seeded kill/revive) =="
    cargo run -q -p bench --bin churn -- --scale 4096 --rounds 5 --ops 256 --shards 4 --sessions 4 --seed 41 --chaos
    echo "== profiled churn replay (debug) =="
    cargo run -q -p bench --bin profile -- --scale 4096 --rounds 2 --ops 512 | tee /tmp/profile.out
    grep -q "trace OK:" /tmp/profile.out   # span count == launch count, trace parsed back
    test -s target/profile/churn.trace.json
    echo "== causal op-trace query (debug; slowest ops, merged router report) =="
    cargo run -q -p bench --bin trace-query -- --scale 4096 --rounds 2 --ops 256 --slowest 3 | tee /tmp/trace-query.out
    grep -q "trace OK:" /tmp/trace-query.out
    echo "== recovery-overhead and tombstone-ablation harnesses (debug) =="
    cargo run -q -p bench --bin fault_recovery
    cargo run -q -p bench --bin ablation_tombstones
    echo "== example smoke runs (debug; BFS and TC through the backend trait, structure shootout) =="
    cargo run -q --example contact_network
    cargo run -q --example streaming_triangles
    cargo run -q --example structure_shootout
else
    echo "== cargo build --release =="
    cargo build --workspace --release
    echo "== cargo test (release) =="
    cargo test --workspace --release -q 2>&1 | tee target/ci/test-release.log
    echo "== bounded-memory quickstart smoke run =="
    cargo run --release -q --example quickstart
    echo "== example smoke runs (BFS and TC through the backend trait, structure shootout) =="
    cargo run --release -q --example contact_network
    cargo run --release -q --example streaming_triangles
    cargo run --release -q --example structure_shootout
    echo "== churn workload smoke run =="
    cargo run --release -q -p bench --bin churn -- --rounds 2 --ops 512
    echo "== profiled churn replay (trace export + span/launch accounting) =="
    cargo run --release -q -p bench --bin profile -- --scale 4096 | tee /tmp/profile.out
    grep -q "trace OK:" /tmp/profile.out   # span count == launch count, trace parsed back
    test -s target/profile/churn.trace.json
    echo "== causal op-trace query (slowest ops, merged router report) =="
    cargo run --release -q -p bench --bin trace-query -- --scale 4096 --rounds 2 --ops 256 --slowest 3 | tee /tmp/trace-query.out
    grep -q "trace OK:" /tmp/trace-query.out
    echo "== recovery-overhead and tombstone-ablation harnesses =="
    cargo run --release -q -p bench --bin fault_recovery
    cargo run --release -q -p bench --bin ablation_tombstones
    echo "== paper tables (every experiment incl. the TC tables' triangle-count asserts; the committed BENCH_tables.json must be current) =="
    cargo run --release -q -p bench --bin run_all
    git diff --exit-code -- BENCH_tables.json
    echo "== bench gate (BENCH_tables.json counters vs HEAD^1's, exact; bench-accept.txt holds the accepted rises) =="
    if git cat-file -e HEAD^1:BENCH_tables.json 2>/dev/null; then
        git show HEAD^1:BENCH_tables.json > target/ci/parent-tables.json
        cargo run --release -q --bin bench-gate -- target/ci/parent-tables.json BENCH_tables.json bench-accept.txt
    else
        echo "BENCH_tables.json: no parent commit to compare with; bench gate skipped"
    fi
    echo "== sanitized test suite (racecheck/memcheck/initcheck on every device) =="
    cargo test --workspace --release -q --features dynamic-graphs-gpu/sanitize 2>&1 | tee target/ci/test-sanitized.log
    echo "== sanitized chaos churn smoke run (4 shards, seeded kill/revive; zero findings + clean post-rebuild validate asserted in-run) =="
    cargo run --release -q -p bench --features sanitize --bin churn -- --scale 4096 --rounds 5 --ops 256 --shards 4 --sessions 4 --seed 41 --chaos
    echo "== sanitized churn smoke run (small scale: shadow tracking is ~50x; mixed readers-vs-writers with oracle byte-equality asserted in-run) =="
    cargo run --release -q -p bench --features sanitize --bin churn -- --scale 4096 --rounds 2 --ops 512 --readers 4
    echo "== sanitized sharded churn smoke runs (1 and 4 shards; cross-backend hit parity asserted in-run) =="
    cargo run --release -q -p bench --features sanitize --bin churn -- --scale 4096 --rounds 2 --ops 512 --shards 1 --sessions 2
    cargo run --release -q -p bench --features sanitize --bin churn -- --scale 4096 --rounds 2 --ops 512 --shards 4 --sessions 4
    echo "== end-to-end benchmark self-tests (own workspace; tiny runs of every workload) =="
    cargo test --release --offline --manifest-path dgbench/Cargo.toml
fi

# Best-effort native ThreadSanitizer pass over the simulator's own
# synchronization (needs a nightly toolchain and network-fetched std
# sources; skipped — never failed — when either is unavailable).
echo "== native thread-sanitizer job (best effort) =="
if command -v rustup >/dev/null 2>&1 && rustup toolchain list 2>/dev/null | grep -q '^nightly'; then
    if RUSTFLAGS="-Zsanitizer=thread" cargo +nightly test -q -p gpu-sim --lib 2>/dev/null; then
        echo "TSan: ok"
    else
        echo "TSan: nightly toolchain cannot run the job here (offline or unsupported target); skipping"
    fi
else
    echo "TSan: no nightly toolchain installed; skipping"
fi

echo "CI OK"
