//! Hermetic inputs: every workload builds its dataset, detector and decal
//! in-process from the workload seed. Nothing is read from or written to
//! disk, so set-up time does not depend on what earlier runs left behind.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use rd_detector::{DetectorTrainer, TinyYolo, TrainConfig};
use rd_scene::dataset::{generate, DatasetConfig, Sample};
use rd_tensor::optim::StepOutcome;
use rd_tensor::{ParamSet, Runtime, RuntimeConfig, Tier};
use road_decals::experiments::Scale;
use road_decals::{deploy, AttackConfig, AttackScenario, AttackTrainer, Deployment};

use crate::stats::Ops;

/// Images per detector optimizer step (the repro fine-tune's batch).
pub const DET_BATCH: usize = 16;

/// A runtime pinned to an explicit thread budget and tier.
pub fn runtime(threads: usize, tier: Tier) -> Runtime {
    Runtime::new(RuntimeConfig {
        threads,
        tier,
        profiling: false,
    })
}

/// What a workload starts from: the paper-scale scenario (96×96 rig,
/// N = 6 decals, k = 60), a seeded detector and its fine-tune set.
pub struct Base {
    pub scenario: AttackScenario,
    pub detector: TinyYolo,
    pub params: ParamSet,
    pub data: Vec<Sample>,
    pub seed: u64,
}

impl Base {
    /// Builds the base for `seed`, with exactly enough images for
    /// `det_steps` one-epoch fine-tune steps.
    pub fn new(seed: u64, det_steps: usize) -> Base {
        let scale = Scale::Paper;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut params = ParamSet::new();
        let detector = TinyYolo::new(&mut params, &mut rng, scale.yolo());
        let data = generate(&DatasetConfig {
            rig: scale.rig(),
            n_images: det_steps * DET_BATCH,
            seed: seed ^ 0xda7a,
            augment: true,
        });
        let scenario = AttackScenario::parking_lot(scale.rig(), 6, 60, 16, seed);
        Base {
            scenario,
            detector,
            params,
            data,
            seed,
        }
    }
}

/// Wall time of every trainer call one pipeline made.
#[derive(Debug, Default, Clone)]
pub struct TrainTimes {
    /// Seconds per `DetectorTrainer::step`.
    pub det: Vec<f64>,
    /// Seconds per `AttackTrainer::step`, with whether the step carried
    /// the discriminator update.
    pub attack: Vec<(f64, bool)>,
    /// Seconds in `AttackTrainer::finish` (candidate scoring).
    pub finish: f64,
    /// Cumulative column-cache (hits, misses) of the detector fine-tune.
    pub col_cache: (u64, u64),
}

impl TrainTimes {
    /// Seconds spent inside trainer calls.
    pub fn total(&self) -> f64 {
        self.det.iter().sum::<f64>() + self.attack.iter().map(|a| a.0).sum::<f64>() + self.finish
    }
}

/// Counts one trainer step: it must run and report a finite loss.
fn step_ok(ops: &mut Ops, outcome: StepOutcome, what: &str) -> bool {
    let ok = matches!(outcome, StepOutcome::Ran { loss } if loss.is_finite());
    ops.record(ok, what)
}

/// The paper's training pipeline on `rt`: a one-epoch detector fine-tune
/// of `det_steps` steps on `params`, then `attack_steps` steps of
/// `AttackConfig::paper()` decal training against it, then the
/// trainer's candidate scoring. Returns the deployed decal.
pub fn train_pipeline(
    base: &Base,
    params: &mut ParamSet,
    rt: &Runtime,
    det_steps: usize,
    attack_steps: usize,
    ops: &mut Ops,
    times: &mut TrainTimes,
) -> Deployment {
    let cfg = TrainConfig {
        epochs: 1,
        batch_size: DET_BATCH,
        lr: 1e-3,
        seed: base.seed,
        clip: 10.0,
        log_every: 0,
        compiled: true,
    };
    let mut det =
        DetectorTrainer::new(&base.detector, params, &base.data, cfg).with_runtime(rt.clone());
    for _ in 0..det_steps {
        let t = Instant::now();
        let out = det.step(None);
        times.det.push(t.elapsed().as_secs_f64());
        if !step_ok(ops, out, "detector step returns Ran with a finite loss") {
            det.skip_step();
        }
    }
    times.col_cache = det.col_cache_stats();
    drop(det);

    let acfg = AttackConfig {
        steps: attack_steps,
        seed: base.seed,
        ..AttackConfig::paper()
    };
    let mut attack =
        AttackTrainer::new(&base.scenario, &base.detector, params, &acfg).with_runtime(rt.clone());
    for i in 0..attack_steps {
        let d_step = acfg.d_every > 0 && i % acfg.d_every == 0;
        let t = Instant::now();
        let out = attack.step(None);
        times.attack.push((t.elapsed().as_secs_f64(), d_step));
        if !step_ok(ops, out, "attack step returns Ran with a finite loss") {
            attack.skip_step();
        }
    }
    let t = Instant::now();
    let trained = attack.finish();
    times.finish = t.elapsed().as_secs_f64();
    deploy(&trained.decal, &base.scenario)
}

/// Inputs of the evaluation workload (`fleet`): the base plus
/// a short fine-tune and decal training, run on a pinned 2-thread
/// reference runtime.
pub struct EvalInputs {
    pub base: Base,
    pub params: ParamSet,
    pub deployment: Deployment,
    pub train: TrainTimes,
}

/// Fine-tune steps in the evaluation workload's set-up.
pub const EVAL_SETUP_DET_STEPS: usize = 4;
/// Decal-training steps in the evaluation workload's set-up.
pub const EVAL_SETUP_ATTACK_STEPS: usize = 4;

/// Builds the evaluation workload's inputs from `seed`.
pub fn eval_inputs(seed: u64, ops: &mut Ops) -> EvalInputs {
    let base = Base::new(seed, EVAL_SETUP_DET_STEPS);
    let mut params = base.params.clone();
    let mut train = TrainTimes::default();
    let rt = runtime(2, Tier::Reference);
    let deployment = train_pipeline(
        &base,
        &mut params,
        &rt,
        EVAL_SETUP_DET_STEPS,
        EVAL_SETUP_ATTACK_STEPS,
        ops,
        &mut train,
    );
    EvalInputs {
        base,
        params,
        deployment,
        train,
    }
}
