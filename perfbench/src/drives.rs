//! Drives: the challenge cycle, per-drive configurations, the bitwise
//! oracle check, and the traced serial replay that times each stage of a
//! drive through the program's public calls.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use rd_detector::{postprocess_into, DecodeBuffers, Detection, TinyYolo};
use rd_scene::{CaptureDraws, GtBox, ObjectClass, Speed};
use rd_tensor::{ParamSet, Runtime};
use rd_vision::Image;
use road_decals::eval::CONFIRM_WINDOW;
use road_decals::metrics::{CellAccumulator, OutcomeAccumulator};
use road_decals::{
    evaluate_challenge, evaluate_streamed, AttackScenario, Challenge, ChallengeOutcome, Decal,
    Deployment, EvalConfig, EvalMode, FrameRenderer, StreamStats, BATCH_FRAMES,
};

/// The per-run RNG stride of the evaluator (`road_decals::eval`): run `r`
/// of a config seeded `s` draws from `s ^ (r + 1) · RUN_STRIDE`.
const RUN_STRIDE: u64 = 0x9e37_79b9_7f4a_7c15;

/// Everything a drive needs besides its challenge and configuration.
pub struct Fixture<'a> {
    pub scenario: &'a AttackScenario,
    pub decals: &'a Deployment,
    pub model: &'a TinyYolo,
    pub params: &'a ParamSet,
    pub target: ObjectClass,
}

/// The eight Table I challenges, in table order; drives cycle through
/// them.
pub fn cycle() -> Vec<Challenge> {
    Challenge::table_columns()
}

/// One drive: a single run of a Table I cell on the real-world channel,
/// its seed mixed from the workload seed and the drive index.
pub fn drive_cfg(seed: u64, index: u64) -> EvalConfig {
    EvalConfig {
        runs: 1,
        seed: seed ^ index.wrapping_add(1).wrapping_mul(0xd1b5_4a32_d192_ed03),
        ..EvalConfig::real_world(seed)
    }
}

/// Run `run` of a multi-run `cfg` as a single-run drive: the config whose
/// only run draws exactly the random stream run `run` of `cfg` draws.
pub fn run_as_drive(cfg: &EvalConfig, run: usize) -> EvalConfig {
    EvalConfig {
        runs: 1,
        seed: cfg.seed ^ (run as u64 + 1).wrapping_mul(RUN_STRIDE) ^ RUN_STRIDE,
        ..*cfg
    }
}

/// Bitwise equality of two outcomes (`f32` compared by bits).
pub fn same_outcome(a: &ChallengeOutcome, b: &ChallengeOutcome) -> bool {
    a.cell.pwc.to_bits() == b.cell.pwc.to_bits()
        && a.cell.cwc == b.cell.cwc
        && a.frames_per_run == b.frames_per_run
        && a.victim_detected.to_bits() == b.victim_detected.to_bits()
}

/// One drive through `evaluate_challenge` on `rt`.
pub fn drive(rt: &Runtime, fx: &Fixture<'_>, ch: Challenge, cfg: &EvalConfig) -> ChallengeOutcome {
    rt.enter(|| {
        evaluate_challenge(
            fx.scenario,
            fx.decals,
            fx.model,
            fx.params,
            fx.target,
            ch,
            cfg,
        )
    })
}

/// One drive through `evaluate_streamed` on `rt`, with its stream stats.
pub fn streamed(
    rt: &Runtime,
    fx: &Fixture<'_>,
    ch: Challenge,
    cfg: &EvalConfig,
) -> (ChallengeOutcome, StreamStats) {
    let ev = rt.enter(|| {
        evaluate_streamed(
            fx.scenario,
            fx.decals,
            fx.model,
            fx.params,
            fx.target,
            ch,
            cfg,
        )
    });
    (ev.outcome, ev.stats)
}

/// Result of the streamed-vs-buffered oracle check on one drive.
pub struct OracleCheck {
    pub streamed: ChallengeOutcome,
    pub bitwise_equal: bool,
    pub peak_live_ok: bool,
}

/// Re-runs one drive streamed and through the `EvalMode::Buffered`
/// oracle on `rt`; the two must agree bit for bit, and the stream must
/// keep at most two chunks of frames alive.
pub fn oracle_check(
    rt: &Runtime,
    fx: &Fixture<'_>,
    ch: Challenge,
    cfg: &EvalConfig,
) -> OracleCheck {
    let (streamed_out, stats) = streamed(rt, fx, ch, cfg);
    let buffered_cfg = EvalConfig {
        mode: EvalMode::Buffered,
        ..*cfg
    };
    let buffered = drive(rt, fx, ch, &buffered_cfg);
    OracleCheck {
        streamed: streamed_out,
        bitwise_equal: same_outcome(&streamed_out, &buffered),
        peak_live_ok: stats.peak_live_frames <= 2 * BATCH_FRAMES,
    }
}

/// Stage times of a serial replay, summed over every replayed drive.
#[derive(Debug, Default, Clone)]
pub struct ReplayLedger {
    /// Wall time of the whole replay.
    pub wall: f64,
    /// `Decal::print`, `Challenge::poses` and `CaptureModel::sample_draws`.
    pub scene: f64,
    /// `FrameRenderer::render`.
    pub render: f64,
    /// `Image::batch_to_tensor`.
    pub batch: f64,
    /// `TinyYolo::infer`.
    pub infer: f64,
    /// `postprocess_into`.
    pub decode: f64,
    /// Victim classification and the cell/outcome accumulators.
    pub score: f64,
    pub frames: usize,
    pub chunks: usize,
    pub detections: usize,
    pub cam_hits: usize,
    pub cam_lookups: usize,
    pub decal_hits: usize,
    pub decal_lookups: usize,
}

impl ReplayLedger {
    /// Seconds attributed to a stage.
    pub fn attributed(&self) -> f64 {
        self.scene + self.render + self.batch + self.infer + self.decode + self.score
    }
}

/// Seconds since `t`, restarting `t`.
fn lap(t: &mut Instant) -> f64 {
    let now = Instant::now();
    let dt = now.duration_since(*t).as_secs_f64();
    *t = now;
    dt
}

/// The victim classification of the evaluator: the most confident
/// detection overlapping the victim box by more than `min_iou`.
fn classify_victim(dets: &[Detection], victim: &GtBox, min_iou: f32) -> Option<ObjectClass> {
    dets.iter()
        .filter(|d| d.iou(victim) > min_iou)
        .max_by(|a, b| a.confidence().total_cmp(&b.confidence()))
        .map(|d| d.class)
}

/// Camera motion per frame, which drives the capture blur.
fn motion_m_per_frame(ch: Challenge, fps: f32) -> f32 {
    match ch {
        Challenge::Rotation(_) => 0.0,
        Challenge::Speed(s) => s.m_per_frame(fps),
        Challenge::Angle(_) => Speed::Slow.m_per_frame(fps),
    }
}

/// Replays one drive serially on `rt`, stage by stage, in the streamed
/// pipeline's chunking and random-draw order, adding each stage's time to
/// `ledger`. Returns the drive's outcome, which must equal the streamed
/// pipeline's bit for bit.
pub fn replay(
    rt: &Runtime,
    fx: &Fixture<'_>,
    ch: Challenge,
    cfg: &EvalConfig,
    ledger: &mut ReplayLedger,
) -> ChallengeOutcome {
    rt.enter(|| {
        let start = Instant::now();
        let mut t = start;
        let renderer = FrameRenderer::new(fx.scenario);
        let num_classes = fx.model.config().num_classes;
        let mut acc = OutcomeAccumulator::new();
        let mut bufs = DecodeBuffers::default();
        let mut dets: Vec<Vec<Detection>> = Vec::new();
        let motion = motion_m_per_frame(ch, cfg.fps);
        ledger.scene += lap(&mut t);
        for run in 0..cfg.runs {
            let mut rng =
                StdRng::seed_from_u64(cfg.seed ^ (run as u64 + 1).wrapping_mul(RUN_STRIDE));
            let printed: Vec<Decal> = fx
                .decals
                .iter()
                .map(|d| d.print(&cfg.channel.print, &mut rng))
                .collect();
            let poses = ch.poses(cfg, &mut rng);
            let mut cell = CellAccumulator::new(fx.target, CONFIRM_WINDOW);
            ledger.scene += lap(&mut t);
            for chunk in poses.chunks(BATCH_FRAMES) {
                let draws: Vec<CaptureDraws> = chunk
                    .iter()
                    .map(|_| {
                        cfg.channel
                            .capture
                            .sample_draws(fx.scenario.rig.image_hw, &mut rng)
                    })
                    .collect();
                ledger.scene += lap(&mut t);
                let frames: Vec<Image> = chunk
                    .iter()
                    .zip(&draws)
                    .map(|(pose, d)| renderer.render(fx.scenario, &printed, pose, cfg, motion, d))
                    .collect();
                ledger.render += lap(&mut t);
                for d in draws {
                    d.recycle();
                }
                let victims: Vec<Option<GtBox>> =
                    chunk.iter().map(|p| fx.scenario.victim_box(p)).collect();
                ledger.scene += lap(&mut t);
                let batch = Image::batch_to_tensor(&frames);
                drop(frames);
                ledger.batch += lap(&mut t);
                let (coarse, fine) = fx.model.infer(fx.params, &batch);
                ledger.infer += lap(&mut t);
                postprocess_into(
                    &coarse,
                    &fine,
                    num_classes,
                    cfg.conf_threshold,
                    cfg.nms_threshold,
                    &mut bufs,
                    &mut dets,
                );
                ledger.decode += lap(&mut t);
                for (dlist, victim) in dets.iter().zip(&victims) {
                    let class = victim
                        .as_ref()
                        .and_then(|v| classify_victim(dlist, v, cfg.victim_iou));
                    acc.push_frame(class.is_some());
                    cell.push(class);
                    ledger.detections += dlist.len();
                }
                ledger.frames += chunk.len();
                ledger.chunks += 1;
                ledger.score += lap(&mut t);
            }
            acc.finish_run(cell.finish(), cell.frames());
            ledger.score += lap(&mut t);
        }
        let stats = renderer.cache_stats();
        ledger.cam_hits += stats.cam_hits;
        ledger.cam_lookups += stats.cam_hits + stats.cam_misses;
        ledger.decal_hits += stats.decal_hits;
        ledger.decal_lookups += stats.decal_hits + stats.decal_misses;
        ledger.wall += start.elapsed().as_secs_f64();
        ChallengeOutcome {
            cell: acc.cell(),
            frames_per_run: acc.frames_per_run(),
            victim_detected: acc.victim_rate(),
        }
    })
}
