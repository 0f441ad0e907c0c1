#!/usr/bin/env bash
# The one CI definition: the GitHub workflow runs `./ci.sh` (full mode)
# and uploads the artifacts it leaves.
#   ./ci.sh          # every check: fmt, clippy, lint ratchet, release build
#                    # and tests, sanitized suite, smoke runs, bench gate
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

echo "== lint-kernels (static effect/protocol checks, lint-allow.txt ratchet) =="
cargo run -q --bin lint-kernels -- .
test -s target/lint/report.json
# The allowlist may only shrink, rule by rule, relative to the parent
# commit (HEAD^1: the base branch for a PR's merge commit, the previous
# commit on a push; the workflow checks out two commits for it).
if git cat-file -e HEAD^1:lint-allow.txt 2>/dev/null; then
    grown=$({ git show HEAD^1:lint-allow.txt | sed 's/^/parent /'; sed 's/^/current /' lint-allow.txt; } |
        awk '$2 ~ /^R[0-9]+:/ { split($2, f, ":"); n[$1, f[1]]++; ids[f[1]] }
             END { for (r in ids) if (n["current", r] > n["parent", r])
                       printf "%s: %d entries vs %d at HEAD^1\n", r, n["current", r], n["parent", r] }')
    if [ -n "$grown" ]; then
        echo "lint-allow.txt grew:" >&2
        echo "$grown" >&2
        exit 1
    fi
else
    echo "lint-allow.txt: no parent commit to compare with; shrink check skipped"
fi

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
    echo "== churn workload smoke run (debug, incl. mixed readers-vs-writers) =="
    cargo run -q -p bench --bin churn -- --rounds 2 --ops 512 --readers 2
    test -s BENCH_churn.json
    echo "== chaos churn smoke run (debug, seeded kill/revive) =="
    cargo run -q -p bench --bin churn -- --scale 4096 --rounds 5 --ops 256 --shards 4 --sessions 4 --seed 41 --chaos
    test -s BENCH_chaos.json
    echo "== bench regression gate (fresh artifacts vs benchmarks/baselines, incl. perturbation self-test) =="
    cargo run -q --bin bench-gate -- --selftest BENCH_churn.json BENCH_chaos.json
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
    test -s BENCH_churn.json
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
    echo "== sanitized test suite (racecheck/memcheck/initcheck on every device) =="
    cargo test --workspace --release -q --features dynamic-graphs-gpu/sanitize 2>&1 | tee target/ci/test-sanitized.log
    echo "== sanitized chaos churn smoke run (4 shards, seeded kill/revive; zero findings + clean post-rebuild validate asserted in-run) =="
    cargo run --release -q -p bench --features sanitize --bin churn -- --scale 4096 --rounds 5 --ops 256 --shards 4 --sessions 4 --seed 41 --chaos
    test -s BENCH_chaos.json
    echo "== bench regression gate (fresh artifacts vs benchmarks/baselines, incl. perturbation self-test) =="
    cargo run --release -q --bin bench-gate -- --selftest BENCH_churn.json BENCH_chaos.json
    # The small-scale smokes below overwrite BENCH_churn.json, so they run
    # after the gate has compared the default-scale artifact.
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
