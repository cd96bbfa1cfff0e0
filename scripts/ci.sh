#!/usr/bin/env sh
# Tier-1 verification gate. Hermetic by construction: the workspace has
# zero external dependencies (see README "Hermetic build & testing"), so
# everything below must succeed with no network access at all —
# `--offline` turns any accidental registry dependency into a hard error.
#
# Usage: scripts/ci.sh
set -eu

cd "$(dirname "$0")/.."

# Formatting: the workspace and the standalone benchmark package must
# both be in rustfmt's default style.
echo "==> cargo fmt --check"
cargo fmt --all -- --check
cargo fmt --manifest-path ede-benchmark/Cargo.toml -- --check

# Every `pub fn`, `pub const`, `pub static`, `pub type` and `pub trait`
# under crates/*/src must be named in some other file; an item only its
# own file uses is deleted or made private (see the script header for
# the allowlist rules).
echo "==> unused pub item scan"
scripts/unused_pub.sh

echo "==> cargo build --release --offline"
cargo build --workspace --release --offline

# EDE_JOBS=2 exercises the parallel fan-out (figure sweeps and campaign
# scans) even on single-core runners; every output is
# bit-identical to a sequential run by the pool's determinism contract
# (see DESIGN.md "Parallel execution").
echo "==> cargo test --offline (EDE_JOBS=2)"
EDE_JOBS=2 cargo test --workspace -q --offline

# The benchmark package is a standalone Cargo package outside the
# workspace; it compiles against the library's public API, so build and
# test it here to catch API drift.
echo "==> cargo test ede-benchmark (standalone package)"
cargo test --offline --release --manifest-path ede-benchmark/Cargo.toml

# The benchmark at its full sizes: every workload, untraced and traced,
# must exit 0. A run fails when a unit fails its check, when a sample's
# digest drifts, or (traced) when the benchmark's own loop takes more
# than 5 % of the traced wall; the package tests above reach those gates
# only at their small test sizes.
echo "==> ede-benchmark smoke (every workload at full sizes, --trace 0 and 1; traced crash-sweep also at seed 7)"
for workload in fig9 crash-sweep fuzz corrupt; do
    for trace in 0 1; do
        cargo run --offline --release -q --manifest-path ede-benchmark/Cargo.toml \
            --bin ede-benchmark -- --workload "$workload" --seconds 0 --trace "$trace" \
            > /dev/null
    done
done
# The traced crash-sweep once more on a second input (seed 7): a faster
# crash check shrinks the traced wall, so its 5 % harness gate is the
# one a crash-check speedup presses hardest.
cargo run --offline --release -q --manifest-path ede-benchmark/Cargo.toml \
    --bin ede-benchmark -- --workload crash-sweep --seed 7 --seconds 0 --trace 1 \
    > /dev/null

# Lint when the toolchain ships clippy (optional component; skipped
# silently where absent so the gate stays runnable on minimal installs).
if cargo clippy --version >/dev/null 2>&1; then
    echo "==> cargo clippy -D warnings"
    cargo clippy --workspace --all-targets --offline -- -D warnings
else
    echo "==> clippy not installed; skipping lint"
fi

# Rustdoc: every intra-doc link must resolve, and public documentation
# must not link to private items.
echo "==> cargo doc -D warnings"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace

# Conformance fuzz smoke: a fixed-seed differential run of the pipeline
# against the golden in-order model on every crash-safe configuration.
# Small enough for every push; the nightly job runs the same command with
# a much larger budget (see .github/workflows/ci.yml).
echo "==> fuzz smoke (seed 0, 200 cases, 2 workers)"
cargo run --release --offline -q -p ede-check --bin ede-sim -- \
    fuzz --seed 0 --cases 200 --jobs 2

# Parallel determinism spot check: the fuzz verdict on stdout must be
# byte-identical however many workers scanned the case range.
echo "==> fuzz determinism (--jobs 1 vs --jobs 4)"
out_dir=$(mktemp -d)
cargo run --release --offline -q -p ede-check --bin ede-sim -- \
    fuzz --seed 7 --cases 100 --jobs 1 2>/dev/null > "$out_dir/jobs1.out"
cargo run --release --offline -q -p ede-check --bin ede-sim -- \
    fuzz --seed 7 --cases 100 --jobs 4 2>/dev/null > "$out_dir/jobs4.out"
diff "$out_dir/jobs1.out" "$out_dir/jobs4.out"

# Crash safety under every protocol: the `protocols` bin runs the undo,
# redo and CoW update kernels on all five configurations and checks every
# crash image of each run with the recovery its writer recorded. B, IQ
# and WB must be crash-safe (✓) in all three columns, and U, which
# orders no persist, must fail (✗) in all three. SU is not asserted: no
# timing run shows it unsafe; only `explore --tx` does (the explore --tx
# smoke below asserts that).
echo "==> protocols (EDE_OPS=60): B/IQ/WB crash-safe and U unsafe under undo, redo and CoW"
EDE_OPS=60 cargo run --release --offline -q -p ede-bench --bin protocols \
    2>/dev/null > "$out_dir/protocols.out"
for arch in B IQ WB; do
    grep -Eq "^  $arch +[0-9]+/[0-9]+/✓ +[0-9]+/[0-9]+/✓ +[0-9]+/[0-9]+/✓$" \
        "$out_dir/protocols.out" \
        || { echo "protocols: $arch is not crash-safe under every protocol" >&2; exit 1; }
done
grep -Eq "^  U +[0-9]+/[0-9]+/✗ +[0-9]+/[0-9]+/✗ +[0-9]+/[0-9]+/✗$" \
    "$out_dir/protocols.out" \
    || { echo "protocols: U is crash-safe under some protocol" >&2; exit 1; }

# Fault-injection smoke: the nine pipeline and memory-system faults
# against B/IQ/WB at a small per-cell budget. Exit 0 asserts every fault
# was detected (axioms, crash checker, or watchdog) or provably
# tolerated — a silent corruption fails the campaign. The nightly job
# runs the same sweep with a bigger budget (see .github/workflows/ci.yml);
# at-rest media damage is the corrupt campaign's (corrupt-nightly there).
echo "==> inject smoke (seed 1, 2 cases/cell, 2 workers)"
cargo run --release --offline -q -p ede-check --bin ede-sim -- \
    inject --seed 1 --cases 2 --jobs 2 2>/dev/null > "$out_dir/inject.json"
grep -q '"covered": true' "$out_dir/inject.json"

# And the same determinism contract for the inject matrix.
echo "==> inject determinism (--jobs 1 vs --jobs 4)"
cargo run --release --offline -q -p ede-check --bin ede-sim -- \
    inject --seed 1 --cases 2 --jobs 1 2>/dev/null > "$out_dir/inject_j1.json"
cargo run --release --offline -q -p ede-check --bin ede-sim -- \
    inject --seed 1 --cases 2 --jobs 4 2>/dev/null > "$out_dir/inject_j4.json"
diff "$out_dir/inject_j1.json" "$out_dir/inject_j4.json"
diff "$out_dir/inject.json" "$out_dir/inject_j1.json"

# Explore smoke: the bounded-exhaustive model checker proves one litmus
# idiom per crash-safe architecture (every admissible persist-order
# crash state enumerated and oracle-checked), and the ede.explore.v1
# coverage ledger must be byte-identical however many workers ran the
# search. The nightly job explores the full catalog at a deep budget
# (see .github/workflows/ci.yml).
echo "==> explore smoke (one idiom per arch, ledger determinism)"
for cell in "hazard B" "join IQ" "two_update WB"; do
    set -- $cell
    name=$1; arch=$2
    cargo run --release --offline -q -p ede-check --bin ede-sim -- \
        explore --litmus "$name" --arch "$arch" --jobs 1 \
        2>/dev/null > "$out_dir/explore_j1.json"
    cargo run --release --offline -q -p ede-check --bin ede-sim -- \
        explore --litmus "$name" --arch "$arch" --jobs 4 \
        2>/dev/null > "$out_dir/explore_j4.json"
    diff "$out_dir/explore_j1.json" "$out_dir/explore_j4.json"
    grep -q '"verdicts": {"proved": 1, "counterexample": 0, "budget-exhausted": 0}' \
        "$out_dir/explore_j1.json"
done

# And the explorer's self-test: under a seeded ordering fault the same
# idiom must produce a shrunk counterexample, exiting 2.
echo "==> explore fault self-test (hazard under drop-edeps)"
if cargo run --release --offline -q -p ede-check --bin ede-sim -- \
    explore --litmus hazard --arch WB --fault drop-edeps \
    2>/dev/null > "$out_dir/explore_cx.json"; then
    echo "explore failed to find the seeded counterexample" >&2
    exit 1
fi
grep -q '"verdict": "counterexample"' "$out_dir/explore_cx.json"

# Transactional explore smoke: two undo-logged transaction programs,
# every crash state enumerated and recovered. B, IQ and WB must prove
# all six cells (exit 0) with a ledger byte-identical across worker
# counts; SU and U must each yield a counterexample in both cells
# (exit 2), which is how SU's missing persist order is shown at all.
echo "==> explore --tx smoke (B/IQ/WB proved, SU and U counterexamples)"
for jobs in 1 4; do
    cargo run --release --offline -q -p ede-check --bin ede-sim -- \
        explore --tx 2 --seed 0 --arch B,IQ,WB --jobs "$jobs" \
        2>/dev/null > "$out_dir/explore_tx_j$jobs.json"
done
diff "$out_dir/explore_tx_j1.json" "$out_dir/explore_tx_j4.json"
grep -q '"verdicts": {"proved": 6, "counterexample": 0, "budget-exhausted": 0}' \
    "$out_dir/explore_tx_j1.json"
for arch in SU U; do
    set +e
    cargo run --release --offline -q -p ede-check --bin ede-sim -- \
        explore --tx 2 --seed 0 --arch "$arch" \
        2>/dev/null > "$out_dir/explore_tx_$arch.json"
    rc=$?
    set -e
    [ "$rc" -eq 2 ] || { echo "explore --tx on $arch exited $rc, want 2" >&2; exit 1; }
    grep -q '"verdicts": {"proved": 0, "counterexample": 2, "budget-exhausted": 0}' \
        "$out_dir/explore_tx_$arch.json"
done

# Corruption-campaign smoke: one corruption kind per crash-safe
# architecture through the recovery triage engine (exit 0 asserts the
# triage contract: no panic, no silent wrong image, every damaged
# region accounted for), plus the jobs-determinism diff on the full
# triage matrix and the panic-quarantine self-test. The nightly job
# runs the full kind × arch sweep at a deep case budget (see
# .github/workflows/ci.yml).
echo "==> corrupt smoke (one kind per arch, matrix determinism)"
for cell in "torn-word B" "wipe-zero IQ" "sector-tear WB"; do
    set -- $cell
    kind=$1; arch=$2
    cargo run --release --offline -q -p ede-check --bin ede-sim -- \
        corrupt --seed 2 --cases 3 --kind "$kind" --arch "$arch" --jobs 2 \
        2>/dev/null > "$out_dir/corrupt_cell.json"
    grep -q '"contract_holds": true' "$out_dir/corrupt_cell.json"
done
cargo run --release --offline -q -p ede-check --bin ede-sim -- \
    corrupt --seed 2 --cases 2 --jobs 1 2>/dev/null > "$out_dir/corrupt_j1.json"
cargo run --release --offline -q -p ede-check --bin ede-sim -- \
    corrupt --seed 2 --cases 2 --jobs 4 2>/dev/null > "$out_dir/corrupt_j4.json"
diff "$out_dir/corrupt_j1.json" "$out_dir/corrupt_j4.json"
set +e
cargo run --release --offline -q -p ede-check --bin ede-sim -- \
    corrupt --seed 2 --cases 2 --self-test-panic 3 \
    2>/dev/null > "$out_dir/corrupt_q.out"
rc=$?
set -e
[ "$rc" -eq 2 ] || { echo "corrupt self-test-panic exited $rc, want 2" >&2; exit 1; }
grep -q 'quarantined' "$out_dir/corrupt_q.out"

# Observability smoke: trace one litmus program on EDE hardware, then
# re-validate the emitted ede.metrics.v1 document with the in-repo shape
# checker (schema tag, exhaustive stall taxonomy, busy + causes == total
# == cycles on every stage).
echo "==> trace smoke (hazard on WB) + validate-metrics"
cargo run --release --offline -q -p ede-check --bin ede-sim -- \
    trace --litmus hazard --arch WB --quiet \
    --metrics "$out_dir/trace_metrics.json" --chrome "$out_dir/trace_chrome.json"
cargo run --release --offline -q -p ede-check --bin ede-sim -- \
    validate-metrics "$out_dir/trace_metrics.json"

# Campaign metrics must be byte-identical however many workers the scan
# used: fuzz's registry comes from a sequential replay by construction,
# and inject's and corrupt's fold per-cell registries together with
# `merge_prefixed`.
echo "==> metrics determinism (--jobs 1 vs --jobs 4)"
for run in "fuzz --seed 7 --cases 40" "inject --seed 1 --cases 2" \
        "corrupt --seed 2 --cases 2"; do
    set -- $run
    for jobs in 1 4; do
        cargo run --release --offline -q -p ede-check --bin ede-sim -- \
            "$@" --jobs "$jobs" --metrics "$out_dir/metrics_$1_j$jobs.json" \
            2>/dev/null > /dev/null
    done
    diff "$out_dir/metrics_$1_j1.json" "$out_dir/metrics_$1_j4.json"
done

# Fast-forward differential smoke: the quiescence-aware kernel (on by
# default) must be observably invisible — one litmus program per arch,
# traced with and without --no-fast-forward, diffed byte-for-byte on
# both the metrics document and the chrome timeline. The full contract
# (all observables, generated programs, fault campaigns) lives in
# tests/fastforward_differential.rs; this is the end-to-end spot check.
echo "==> fast-forward differential smoke (fast vs --no-fast-forward)"
for cell in "hazard WB" "two_update IQ" "fenced_update B"; do
    set -- $cell
    name=$1; arch=$2
    cargo run --release --offline -q -p ede-check --bin ede-sim -- \
        trace --litmus "$name" --arch "$arch" --quiet \
        --metrics "$out_dir/ff_fast.json" --chrome "$out_dir/ff_fast_chrome.json"
    cargo run --release --offline -q -p ede-check --bin ede-sim -- \
        trace --litmus "$name" --arch "$arch" --quiet --no-fast-forward \
        --metrics "$out_dir/ff_ref.json" --chrome "$out_dir/ff_ref_chrome.json"
    diff "$out_dir/ff_fast.json" "$out_dir/ff_ref.json"
    diff "$out_dir/ff_fast_chrome.json" "$out_dir/ff_ref_chrome.json"
done

# Resilient-campaign smoke: interrupt a fuzz run (and a corrupt run)
# mid-flight with the --stop-after hook (exit 3, checkpoint flushed),
# resume it on a different worker count, and require the resumed stdout
# to be byte-identical to a run that never stopped. The interrupted fuzz
# run uses one worker, where --stop-after stops at an exact case count
# (with more, another worker's in-flight case may also finish); the
# --jobs 4 resume still checks worker-count independence. Then the
# panic-quarantine self-test: a deliberately panicking case must be
# quarantined (exit 2 under the default zero budget, exit 0 once
# budgeted) instead of aborting the campaign. See DESIGN.md "Resilient campaigns".
echo "==> resilience smoke (interrupt + resume, panic quarantine)"
cargo run --release --offline -q -p ede-check --bin ede-sim -- \
    fuzz --seed 5 --cases 60 --jobs 2 2>/dev/null > "$out_dir/resil_clean.out"
set +e
cargo run --release --offline -q -p ede-check --bin ede-sim -- \
    fuzz --seed 5 --cases 60 --jobs 1 \
    --checkpoint "$out_dir/resil_cp.json" --checkpoint-every 1 --stop-after 15 \
    2>/dev/null > "$out_dir/resil_int.out"
rc=$?
set -e
[ "$rc" -eq 3 ] || { echo "interrupted run exited $rc, want 3" >&2; exit 1; }
grep -q 'INTERRUPTED: 15 of 60 case(s) done' "$out_dir/resil_int.out"
cargo run --release --offline -q -p ede-check --bin ede-sim -- \
    fuzz --seed 5 --cases 60 --jobs 4 --resume "$out_dir/resil_cp.json" \
    2>/dev/null > "$out_dir/resil_res.out"
diff "$out_dir/resil_clean.out" "$out_dir/resil_res.out"
# The same interrupt + resume contract for a cell campaign, the path
# inject, explore and corrupt share: stop corrupt after 5 of its 21
# cells, resume on another worker count, and require the clean matrix
# printed by the determinism check above.
set +e
cargo run --release --offline -q -p ede-check --bin ede-sim -- \
    corrupt --seed 2 --cases 2 --jobs 2 \
    --checkpoint "$out_dir/resil_corrupt_cp.json" --checkpoint-every 1 --stop-after 5 \
    2>/dev/null > "$out_dir/resil_corrupt_int.out"
rc=$?
set -e
[ "$rc" -eq 3 ] || { echo "interrupted corrupt run exited $rc, want 3" >&2; exit 1; }
grep -q 'INTERRUPTED: ' "$out_dir/resil_corrupt_int.out"
cargo run --release --offline -q -p ede-check --bin ede-sim -- \
    corrupt --seed 2 --cases 2 --jobs 4 --resume "$out_dir/resil_corrupt_cp.json" \
    2>/dev/null > "$out_dir/resil_corrupt_res.json"
diff "$out_dir/corrupt_j1.json" "$out_dir/resil_corrupt_res.json"
# The wall-clock deadline: four million fuzz cases take hours, so a
# one-second budget must interrupt the run (exit 3) and leave a
# checkpoint that a resumed run under the same budget accepts before it
# is interrupted again. Both runs must stay bounded by their workers,
# not by the planned case count: the binary runs directly (not under
# `cargo run`) so `getrusage` sees it alone, its peak RSS must stay
# under 32 MB and it must exit within 0.5 s of the budget.
ede_sim="${CARGO_TARGET_DIR:-target}/release/ede-sim"
# peak_run OUT CMD...: runs CMD with stdout in OUT, prints the child's
# peak RSS in kB and its wall seconds, and exits with the child's code.
peak_run() {
    python3 -c '
import resource, subprocess, sys, time
start = time.monotonic()
with open(sys.argv[1], "w") as out:
    rc = subprocess.call(sys.argv[2:], stdout=out, stderr=subprocess.DEVNULL)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss, round(time.monotonic() - start, 3))
sys.exit(rc)' "$@"
}
# deadline_leg NAME FLAG: the deadline run, with FLAG (--checkpoint or
# --resume) naming the one checkpoint both legs share.
deadline_leg() {
    set +e
    peak=$(peak_run "$out_dir/resil_$1.out" "$ede_sim" \
        fuzz --seed 5 --cases 4000000 --jobs 2 --max-wall-secs 1 \
        "$2" "$out_dir/resil_wall_cp.json")
    rc=$?
    set -e
    [ "$rc" -eq 3 ] || { echo "deadline run ($1) exited $rc, want 3" >&2; exit 1; }
    grep -q 'INTERRUPTED: ' "$out_dir/resil_$1.out"
    set -- "$1" $peak
    echo "    deadline run ($1): peak RSS $2 kB, exit after $3 s"
    [ "$2" -le 32768 ] || { echo "deadline run ($1) peaked at $2 kB, over 32 MB" >&2; exit 1; }
    awk "BEGIN { exit !($3 <= 1.5) }" \
        || { echo "deadline run ($1) took $3 s, over 1.5 s" >&2; exit 1; }
}
deadline_leg wall --checkpoint
deadline_leg wall_res --resume
set +e
cargo run --release --offline -q -p ede-check --bin ede-sim -- \
    fuzz --seed 5 --cases 30 --jobs 2 --self-test-panic 7 \
    2>/dev/null > "$out_dir/resil_q.out"
rc=$?
set -e
[ "$rc" -eq 2 ] || { echo "quarantine self-test exited $rc, want 2" >&2; exit 1; }
grep -q 'quarantined case 7: deliberate harness panic at case 7' "$out_dir/resil_q.out"
cargo run --release --offline -q -p ede-check --bin ede-sim -- \
    fuzz --seed 5 --cases 30 --jobs 2 --self-test-panic 7 --max-quarantined 1 \
    2>/dev/null > /dev/null

# Zero-overhead guard. The tracer is Option-gated: an untraced core
# allocates no ring and pushes no events (asserted by unit test
# `untraced_core_buffers_nothing`, and `tracing_does_not_change_metrics`
# pins that attaching one changes no result). As a coarse wall-clock
# backstop, the standard fuzz smoke above — which runs untraced — must
# finish inside a generous absolute budget; a tracer accidentally wired
# into the untraced path would blow it.
echo "==> zero-overhead guard (untraced fuzz smoke under 120s)"
start=$(date +%s)
cargo run --release --offline -q -p ede-check --bin ede-sim -- \
    fuzz --seed 3 --cases 100 --jobs 2 2>/dev/null > /dev/null
elapsed=$(( $(date +%s) - start ))
echo "    untraced fuzz smoke: ${elapsed}s"
[ "$elapsed" -le 120 ]
rm -rf "$out_dir"

echo "==> OK"
