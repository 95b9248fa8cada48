//! Gates on the streaming evaluation pipeline (PR 9): the streamed path
//! must be bitwise-identical to the buffered reference oracle at any
//! thread count, on either execution tier and on a noiseless or a
//! noise-bearing capture channel; its live-frame memory must be bounded
//! by one chunk pair regardless of drive length, and the fleet driver
//! must account for every drive.

use std::time::Duration;

use rd_scene::{CameraRig, ObjectClass, PhysicalChannel, RotationSetting, Speed};
use rd_tensor::{parallel, Runtime, RuntimeConfig, Tier};
use rd_vision::shapes::{mask, Shape};
use rd_vision::Plane;

use road_decals::attack::{deploy, Deployment};
use road_decals::decal::Decal;
use road_decals::eval::{evaluate_challenge_traced, Challenge, EvalConfig, EvalMode};
use road_decals::experiments::{prepare_environment, Environment, Scale};
use road_decals::scenario::AttackScenario;
use road_decals::stream::{eval_fleet, evaluate_streamed, FleetConfig, BATCH_FRAMES};
use road_decals::supervisor::JobOutcome;

fn setup() -> (Environment, AttackScenario, Deployment) {
    let env = prepare_environment(Scale::Smoke, 42);
    let scenario = AttackScenario::parking_lot(CameraRig::smoke(), 4, 60, 16, 42);
    let d = Decal::mono(
        &Plane::new(16, 16, 0.03),
        mask(Shape::Star, 16),
        Shape::Star,
    );
    let decals = deploy(&d, &scenario);
    (env, scenario, decals)
}

/// A config whose rotation drive spans two full chunks plus a partial
/// one (40 = 2×16 + 8), over two runs — exercises chunk-boundary and
/// final-partial-chunk handling on both paths.
fn chunky_cfg(seed: u64) -> EvalConfig {
    EvalConfig {
        rotation_frames: 40,
        runs: 2,
        ..EvalConfig::smoke(seed)
    }
}

#[test]
fn streamed_matches_buffered_bitwise_across_tiers_and_threads() {
    let (env, scenario, decals) = setup();
    // the digital channel draws no capture noise; the simulated one puts
    // the blur/noise kernels and the pre-sampled draw streams on the path
    let channels = [
        ("digital", PhysicalChannel::digital()),
        ("simulated", PhysicalChannel::simulated()),
    ];
    for (label, channel) in channels {
        let cfg = EvalConfig {
            channel,
            ..chunky_cfg(7)
        };
        for tier in [Tier::Reference, Tier::Fast] {
            for threads in [1usize, 4] {
                let rt = Runtime::new(RuntimeConfig {
                    threads,
                    tier,
                    profiling: false,
                });
                let eval = |mode| {
                    rt.enter(|| {
                        evaluate_challenge_traced(
                            &scenario,
                            &decals,
                            &env.detector,
                            &env.params,
                            ObjectClass::Bicycle,
                            Challenge::Rotation(RotationSetting::Slight),
                            &cfg,
                            mode,
                        )
                    })
                };
                let (s_out, s_trace) = eval(EvalMode::Streamed);
                let (b_out, b_trace) = eval(EvalMode::Buffered);
                let ctx = format!("{label} channel, tier {tier:?}, {threads} threads");
                assert_eq!(
                    s_out.cell.pwc.to_bits(),
                    b_out.cell.pwc.to_bits(),
                    "PWC drifted ({ctx})"
                );
                assert_eq!(s_out.cell.cwc, b_out.cell.cwc, "CWC drifted ({ctx})");
                assert_eq!(
                    s_out.victim_detected.to_bits(),
                    b_out.victim_detected.to_bits(),
                    "victim rate drifted ({ctx})"
                );
                assert_eq!(s_out.frames_per_run, b_out.frames_per_run, "{ctx}");
                assert_eq!(
                    s_trace, b_trace,
                    "per-frame detections drifted between streamed and buffered ({ctx})"
                );
            }
        }
    }
}

#[test]
fn streamed_matches_buffered_on_approach_challenge() {
    // approach videos have data-dependent length (not a multiple of the
    // chunk size) and per-frame motion blur noise draws
    let (env, scenario, decals) = setup();
    let cfg = EvalConfig {
        runs: 2,
        ..EvalConfig::smoke(3)
    };
    let eval = |mode| {
        evaluate_challenge_traced(
            &scenario,
            &decals,
            &env.detector,
            &env.params,
            ObjectClass::Bicycle,
            Challenge::Speed(Speed::Slow),
            &cfg,
            mode,
        )
    };
    let (s_out, s_trace) = eval(EvalMode::Streamed);
    let (b_out, b_trace) = eval(EvalMode::Buffered);
    assert_eq!(s_out.cell.pwc.to_bits(), b_out.cell.pwc.to_bits());
    assert_eq!(
        s_out.victim_detected.to_bits(),
        b_out.victim_detected.to_bits()
    );
    assert_eq!(s_trace, b_trace);
}

#[test]
fn peak_live_frames_bounded_by_one_chunk_pair() {
    let (env, scenario, decals) = setup();
    let drive = |rotation_frames| {
        let cfg = EvalConfig {
            rotation_frames,
            ..EvalConfig::smoke(5)
        };
        evaluate_streamed(
            &scenario,
            &decals,
            &env.detector,
            &env.params,
            ObjectClass::Bicycle,
            Challenge::Rotation(RotationSetting::Fix),
            &cfg,
        )
        .stats
    };
    let short = drive(8);
    let long = drive(6 * BATCH_FRAMES);
    assert_eq!(short.frames, 8);
    assert_eq!(long.frames, 6 * BATCH_FRAMES);
    assert!(long.chunks > short.chunks);
    // the memory bound: a 12x longer drive must not hold more frames
    // live than the double buffer allows
    assert!(
        long.peak_live_frames <= 2 * BATCH_FRAMES,
        "peak live frames {} exceeds one chunk pair",
        long.peak_live_frames
    );
    assert!(short.peak_live_frames <= 2 * BATCH_FRAMES);
}

#[test]
fn arena_high_water_does_not_scale_with_drive_length() {
    let (env, scenario, decals) = setup();
    let high_water = |rotation_frames| {
        // fresh runtime per measurement: the mark is per-runtime state
        let rt = Runtime::new(RuntimeConfig::default());
        let cfg = EvalConfig {
            rotation_frames,
            ..EvalConfig::smoke(5)
        };
        rt.enter(|| {
            evaluate_streamed(
                &scenario,
                &decals,
                &env.detector,
                &env.params,
                ObjectClass::Bicycle,
                Challenge::Rotation(RotationSetting::Fix),
                &cfg,
            );
        });
        rt.arena_high_water()
    };
    // The drive's arena budget, stage by stage, in f32 elements. The
    // rendezvous channel lets the producer run at most one chunk ahead
    // of the consumer, so the budget holds for every interleaving of
    // the two, whatever the drive length.
    let (h, w) = scenario.rig.image_hw;
    let frame = 3 * h * w;
    let chunk = BATCH_FRAMES * frame;
    // producer: the chunk it is rendering (or holding at the
    // rendezvous), plus one RGB scratch plane per render in flight —
    // the camera warp, decal compositing and capture blur each borrow
    // at most `frame` elements and return them before the next step.
    // The digital channel samples no capture noise.
    let renders = Runtime::new(RuntimeConfig::default())
        .enter(parallel::max_threads)
        .min(parallel::groups_for(BATCH_FRAMES));
    let producer = chunk + renders * frame;
    // consumer: its chunk's frames until they are batched, then the
    // batch, the inference plan's buffers for each worker group (every
    // slot plus the largest conv's columns) and the two head outputs.
    let meta = env.detector.infer_plan(&env.params).meta();
    let cols = meta
        .ops
        .iter()
        .filter_map(|op| op.conv.map(|g| g.cin * g.kh * g.kw * g.ho * g.wo))
        .max()
        .unwrap_or(0);
    let per_group = meta.slots.iter().map(|s| s.len).sum::<usize>() + cols;
    let head_len: usize = meta.outputs.iter().map(|&o| meta.slots[o].len).sum();
    let heads = BATCH_FRAMES * head_len;
    let infer = parallel::groups_for(BATCH_FRAMES) * per_group + heads;
    let consumer = chunk + chunk.max(infer);
    let budget = producer + consumer;
    // frame buffers are arena-backed (FrameRenderer), so the pipeline's
    // steady state — one chunk rendering while another is inferred —
    // first appears at two chunks; a 6-chunk drive must fit the same
    // budget (anything retained per chunk would add a chunk's worth)
    for chunks in [2, 6] {
        let mark = high_water(chunks * BATCH_FRAMES);
        assert!(
            mark <= budget,
            "{chunks}-chunk drive: arena high water {mark} exceeds the per-stage budget {budget}"
        );
    }
}

#[test]
fn fleet_accounts_for_every_drive() {
    let (env, scenario, decals) = setup();
    let cfg = EvalConfig::smoke(9);
    let fleet = FleetConfig::new(5, 2);
    let report = eval_fleet(
        &scenario,
        &decals,
        &env.detector,
        &env.params,
        ObjectClass::Bicycle,
        Challenge::Rotation(RotationSetting::Fix),
        &cfg,
        &fleet,
    );
    assert!(report.finished(), "jobs: {:?}", report.jobs);
    assert_eq!(report.drives, 5);
    assert_eq!(report.drives_finished, 5);
    assert_eq!(report.jobs.len(), 2);
    assert_eq!(
        report.frames,
        5 * cfg.rotation_frames as u64,
        "every drive's frames must be scored exactly once"
    );
}

#[test]
fn fleet_deadline_cancels_cleanly() {
    let (env, scenario, decals) = setup();
    let cfg = EvalConfig::smoke(9);
    let fleet = FleetConfig {
        deadline: Some(Duration::ZERO),
        ..FleetConfig::new(4, 2)
    };
    let report = eval_fleet(
        &scenario,
        &decals,
        &env.detector,
        &env.params,
        ObjectClass::Bicycle,
        Challenge::Rotation(RotationSetting::Fix),
        &cfg,
        &fleet,
    );
    assert!(!report.finished());
    for job in &report.jobs {
        assert_eq!(
            job.outcome,
            JobOutcome::DeadlineExceeded,
            "an expired deadline must classify as a deadline, not a crash"
        );
    }
    assert_eq!(report.drives_finished, 0);
}
