//! Trains the scaled YOLOv3-tiny on the procedural road dataset and
//! reports detection metrics — the reproduction's analogue of the paper's
//! fine-tuning step ("we fine-tune the pre-trained object detector on our
//! dataset with five labels").
//!
//! ```text
//! cargo run --release -p rd-detector --example train_detector -- \
//!     [--images 600] [--epochs 6] [--out out/detector.rdw] [--audit] \
//!     [--threads N] [--profile] [--no-compiled] \
//!     [--checkpoint-every N] [--checkpoint out/detector.rdc] [--resume] \
//!     [--deadline-secs N] [--max-retries N]
//! ```
//!
//! `--audit` statically validates the model's wiring before training and
//! scans a post-training forward tape for non-finite values. `--threads`
//! caps the tensor worker pool (0 = one worker per host core) and
//! `--profile` prints the per-op wall-clock report after training.
//! `--no-compiled` runs the reference autograd-tape training step
//! instead of the compiled `TrainPlan` (bitwise-identical, slower).
//!
//! `--deadline-secs N` bounds the whole run's wall clock (checked at
//! step boundaries) and `--max-retries N` re-runs it after a crash on a
//! fresh quarantine-isolated runtime; combine with `--checkpoint-every`
//! and `--resume` so retries pick up at the last checkpoint.
//!
//! `--checkpoint-every N` atomically writes the full training state
//! (weights, Adam moments, RNG position, epoch/batch cursors) every N
//! steps; `--resume` picks a killed run back up from that file and — the
//! training loop being deterministic — finishes bitwise-identically to an
//! uninterrupted run.

use std::error::Error;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use rd_detector::{evaluate, DetectorTrainer, TinyYolo, TrainConfig, YoloConfig};
use rd_scene::dataset::{generate, DatasetConfig};
use rd_scene::CameraRig;
use rd_tensor::optim::StepOutcome;
use rd_tensor::{io, ParamSet};
use road_decals::cli::Args;

const OPTIONS: &[&str] = &[
    "--images",
    "--epochs",
    "--out",
    "--checkpoint-every",
    "--checkpoint",
    "--threads",
    "--deadline-secs",
    "--max-retries",
];
const SWITCHES: &[&str] = &["--audit", "--profile", "--no-compiled", "--resume"];

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("train_detector: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), Box<dyn Error>> {
    let args = Args::parse(OPTIONS, SWITCHES)?;
    road_decals::supervise_main(
        "train_detector",
        args.arg("--deadline-secs", 0)?,
        args.arg("--max-retries", 0)?,
        args.arg("--threads", 0)?,
        || run_body(&args).map_err(|e| e.to_string()),
    )?;
    Ok(())
}

fn run_body(args: &Args) -> Result<(), Box<dyn Error>> {
    let n_images: usize = args.arg("--images", 600)?;
    let epochs: usize = args.arg("--epochs", 6)?;
    let out: String = args.arg("--out", "out/detector.rdw".to_owned())?;
    let ck_every: u64 = args.arg("--checkpoint-every", 0)?;
    let ck_path: String = args.arg("--checkpoint", "out/detector.rdc".to_owned())?;
    let resume = args.flag("--resume");
    let audit = args.flag("--audit");
    rd_tensor::parallel::set_max_threads(args.arg("--threads", 0)?);
    let profile = args.flag("--profile");
    if profile {
        rd_tensor::profile::set_enabled(true);
    }

    let rig = CameraRig::standard();
    println!("generating {n_images} training images...");
    let t0 = Instant::now();
    let train_set = generate(&DatasetConfig {
        rig,
        n_images,
        seed: 1234,
        augment: true,
    });
    let test_set = generate(&DatasetConfig::paper_test(1234));
    println!("  done in {:.1}s", t0.elapsed().as_secs_f32());

    let mut rng = StdRng::seed_from_u64(7);
    let mut ps = ParamSet::new();
    let model = TinyYolo::new(&mut ps, &mut rng, YoloConfig::standard());
    println!("model: {} parameters", ps.num_scalars());
    if audit {
        if let Err(issues) = model.validate(&ps, 16) {
            return Err(format!(
                "model wiring is inconsistent:\n{}",
                issues
                    .iter()
                    .map(|i| format!("  {i}"))
                    .collect::<Vec<_>>()
                    .join("\n")
            )
            .into());
        }
        println!("audit: model wiring validated before training");
    }

    let cfg = TrainConfig {
        epochs,
        batch_size: 16,
        lr: 1e-3,
        seed: 7,
        clip: 10.0,
        log_every: 0,
        compiled: !args.flag("--no-compiled"),
    };
    let t0 = Instant::now();
    let mut trainer = DetectorTrainer::new(&model, &mut ps, &train_set, cfg);
    if resume && Path::new(&ck_path).exists() {
        let ck = io::load_checkpoint_file(&ck_path)
            .map_err(|e| format!("cannot resume from {ck_path}: {e}"))?;
        trainer
            .restore(&ck)
            .map_err(|e| format!("cannot resume from {ck_path}: {e}"))?;
        println!(
            "resumed from {ck_path} at step {} of {}",
            trainer.steps_done(),
            trainer.total_steps()
        );
    }
    if ck_every > 0 {
        if let Some(dir) = Path::new(&ck_path).parent() {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create checkpoint dir: {e}"))?;
        }
    }
    while !trainer.is_done() {
        // cooperative deadline/cancel check at the step boundary
        rd_tensor::runtime::check_cancelled()
            .map_err(|c| format!("stopped at step {}: {c}", trainer.steps_done()))?;
        if let StepOutcome::NonFinite { detail } = trainer.step(None) {
            eprintln!(
                "skipping diverged batch at step {}: {detail}",
                trainer.steps_done()
            );
            trainer.skip_step();
        }
        if ck_every > 0 && trainer.steps_done().is_multiple_of(ck_every) {
            io::save_checkpoint_file(&trainer.checkpoint(), &ck_path)
                .map_err(|e| format!("cannot write checkpoint {ck_path}: {e}"))?;
        }
    }
    let report = trainer.finish();
    println!(
        "trained {epochs} epochs in {:.1}s; losses: {:?}",
        t0.elapsed().as_secs_f32(),
        report
            .epoch_losses
            .iter()
            .map(|l| (l * 100.0).round() / 100.0)
            .collect::<Vec<_>>()
    );

    if audit {
        // run one eval forward pass and check every tape value is finite
        let mut g = rd_tensor::Graph::new();
        let x = g.input(test_set[0].image.to_tensor());
        let _ = model.forward(&mut g, &mut ps, x, false);
        match rd_analysis::audit_non_finite(&g) {
            Some(report) => eprintln!("audit: post-training tape is unhealthy\n{report}"),
            None => println!("audit: post-training forward tape is fully finite"),
        }
    }

    let m = evaluate(&model, &ps, &test_set, 0.3);
    println!(
        "test: recall {:.2}  class-accuracy {:.2}  mean-IoU {:.2}  dets/img {:.1}",
        m.recall, m.class_accuracy, m.mean_iou, m.dets_per_image
    );

    if let Some(dir) = std::path::Path::new(&out).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("cannot create output dir: {e}"))?;
    }
    io::save_params_file(&ps, &out).map_err(|e| format!("cannot save weights to {out}: {e}"))?;
    println!("weights saved to {out}");
    if profile {
        println!("\n{}", rd_tensor::profile::report_text());
    }
    Ok(())
}
