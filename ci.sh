#!/usr/bin/env bash
# Repo gate: formatting, lints, build, tests, and the gradient audit.
# Run from the workspace root; exits nonzero on the first failure.
set -euo pipefail

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test --workspace -q"
# Every workspace member's unit and integration tests, not just the
# root package's.
cargo test --workspace -q

echo "==> fault-injection suite (NaN rollback, kill+resume, corrupt checkpoints)"
# Every recovery path of the training runner, driven by the
# deterministic FaultPlan harness (tests/recovery.rs).
cargo test -q --test recovery

echo "==> resume-determinism smoke (20 steps straight vs 10 + kill + resume)"
# The headline fault-tolerance contract: a killed-and-resumed attack
# run finishes bitwise-identical to an uninterrupted one.
cargo test --release -q --test recovery -- --ignored

echo "==> supervisor fault matrix (panic / stall / NaN / corrupt checkpoint / tier drift)"
# The PR 8 containment contract: 4 concurrent supervised jobs on
# per-job Runtimes, one sabotaged per fault kind — the sabotaged job is
# classified (retried+recovered, deadline-exceeded, or demoted to the
# reference tier) and its three siblings finish bitwise-identical to
# their solo runs.
cargo test --release -q --test supervisor

echo "==> runtime singleton gate (no process-global mutable state outside runtime.rs)"
# The instance-scoped Runtime is the only place rd-tensor may keep
# process-global mutable statics (the default-runtime shim). Anything
# else reintroduces cross-job coupling and breaks quarantine isolation.
leaks=$(grep -rnE '^(pub )?static ' crates/tensor/src | grep -v 'runtime.rs' || true)
if [ -n "$leaks" ]; then
    echo "process-global static outside crates/tensor/src/runtime.rs:" >&2
    echo "$leaks" >&2
    exit 1
fi

echo "==> inference equivalence (compiled plan vs tape, 1 and 4 threads)"
# The PR 4 contract: the grad-free compiled path is bitwise-identical
# to forward_frozen on random weights/inputs at any thread count, and
# batched execution equals per-sample execution.
cargo test --release -q -p rd-detector --test infer

echo "==> tier equivalence (f32x8 fast tier vs scalar reference, certificate gate)"
# The PR 7 contract at test granularity: per-kernel proptests hold the
# SIMD kernels within the certified ulp bound of the scalar oracle, the
# runtime dispatcher falls back cleanly without AVX2/FMA, and the
# end-to-end detector test checks observed logit divergence against the
# static rd-analysis certificate with zero decoded-detection drift.
cargo test --release -q -p rd-tensor simd
cargo test --release -q -p rd-detector --test tier
# Same end-to-end gate with the portable (scalar-unrolled) backend
# forced, so the non-AVX2 path stays correct on hosts that have AVX2.
RD_NO_SIMD=1 cargo test --release -q -p rd-detector --test tier

echo "==> render fast-path equivalence (cached FrameRenderer vs fresh path, both backends)"
# The PR 10 contract at test granularity: property-tested bitwise
# identity (frames and RNG draw counts) between the pose-keyed cached
# renderer and the fresh per-frame path over arbitrary poses, decal
# counts, channels and mono/RGB decals — on the SIMD gather backend and
# with the portable backend forced.
cargo test --release -q -p road-decals --test render_fastpath
RD_NO_SIMD=1 cargo test --release -q -p road-decals --test render_fastpath

echo "==> substrate bench smoke (profiler + parallel fan-out + determinism + tiers)"
# Fails loudly if the profiler or worker pool stop compiling/working:
# the binary asserts profiler coverage and bitwise 1-vs-4-thread
# equality before writing its report. The eval section re-checks the
# tape-vs-compiled bitwise gate on rendered frames.
cargo run --release -q -p rd-bench --bin bench_substrate -- --quick --out target/BENCH_pr2_smoke.json --eval-out target/BENCH_pr4_smoke.json --train-out target/BENCH_pr5_smoke.json --tier-out target/BENCH_pr7_smoke.json --stream-out target/BENCH_pr9_smoke.json --render-out target/BENCH_pr10_smoke.json
test -s target/BENCH_pr2_smoke.json || { echo "bench_substrate wrote no report" >&2; exit 1; }
test -s target/BENCH_pr4_smoke.json || { echo "bench_substrate wrote no eval report" >&2; exit 1; }
# The training section enforces this PR's contracts before writing its
# report: compiled-vs-tape bitwise identity for a full attack run and a
# detector fine-tune, plus 1-vs-N-thread determinism of the compiled
# step, all inside one process.
test -s target/BENCH_pr5_smoke.json || { echo "bench_substrate wrote no training report" >&2; exit 1; }
# The tier section gates the fast tier's observed divergence against
# the static certificate and requires zero mAP/PWC/CWC drift vs the
# scalar reference (the 1.5x speedup floor applies to full runs only —
# quick runs are too short to hard-gate wall clock).
test -s target/BENCH_pr7_smoke.json || { echo "bench_substrate wrote no tier report" >&2; exit 1; }
# The streaming section is itself a hard gate: it errors out (and so
# fails this script) unless the streamed evaluator is bitwise-identical
# to the buffered oracle (per-frame detections, 1 and N threads, both
# tiers), peak live frames stay within one chunk pair, the arena
# high-water mark is invariant in drive length (bounded-memory smoke),
# and the fleet driver accounts for every drive.
test -s target/BENCH_pr9_smoke.json || { echo "bench_substrate wrote no streaming report" >&2; exit 1; }
# The render section gates the fast path three ways bitwise (frozen
# seed renderer == fresh per-frame path == cached FrameRenderer, cold
# and warm), checks the render/{world,decals,capture} profile paths,
# and re-runs the streamed-vs-buffered gate on a noise-bearing capture
# channel (the pr9 gate uses the noiseless digital channel). The 2x
# serial render speedup floor applies to full runs only.
test -s target/BENCH_pr10_smoke.json || { echo "bench_substrate wrote no render report" >&2; exit 1; }

echo "==> compiled training step equivalence (TrainPlan vs tape, 1 and 4 threads)"
# The PR 5 contract at test granularity: full training runs through the
# compiled plan retrace the tape bitwise (losses, gradients, updated
# parameters including BN running stats) at 1 and 4 threads.
cargo test --release -q -p rd-detector --test train_compiled

echo "==> grad audit (every op's backward vs central differences)"
cargo run --release -q -p rd-analysis --bin grad_audit

echo "==> plan audit (static analyzer over every compiled plan + ulp-bound certificates)"
# Hard gate: the dataflow-IR lints (liveness, alias, fan-out race,
# fusion legality, param coverage, col-budget) must be clean on every
# plan TinyYolo/Generator/Discriminator compile, and every inference
# plan must certify a finite f32x8/FMA logit bound. The mutation tests
# prove each lint fires at the exact op path of a deliberately
# corrupted plan, and the bounds soundness tests check observed
# divergence (scalar and simulated-f32x8/FMA) against the certificates.
cargo test --release -q -p rd-analysis --test plan_analyzer
cargo run --release -q -p rd-bench --bin plan_audit -- --out target/PLAN_AUDIT.json
test -s target/PLAN_AUDIT.json || { echo "plan_audit wrote no report" >&2; exit 1; }

echo "==> perf trajectory (steps/sec, frames/sec and plan-IR coverage across PR benches)"
# Strict on purpose: a malformed BENCH_*.json or a missing headline
# means a bench regressed silently, and that must fail the gate.
scripts/perf_trajectory.sh

echo "ci.sh: all checks passed"
