//! Regenerates Table VI: ablation over decal size k.
//!
//! ```text
//! cargo run --release -p rd-bench --bin repro_table6 -- [--scale paper|smoke] [--seed 42] [--audit] [--threads N] [--profile] \
//!     [--checkpoint-every N] [--checkpoint-dir DIR] [--resume] [--deadline-secs N] [--max-retries N]
//! ```

use rd_bench::{compare, paper};
use road_decals::cli::Args;
use road_decals::experiments::{prepare_environment_with, run_table6, Scale};

fn main() -> std::process::ExitCode {
    match run() {
        Ok(()) => std::process::ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("repro_table6: {e}");
            std::process::ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let args = rd_bench::repro_args()?;
    rd_bench::run_supervised("table6", &args, || {
        run_body(&args).map_err(|e| e.to_string())
    })?;
    Ok(())
}

fn run_body(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    rd_bench::setup_substrate(args)?;
    let scale: Scale = args.arg("--scale", "paper".to_owned())?.parse()?;
    let seed: u64 = args.arg("--seed", 42)?;
    let recovery = rd_bench::recovery_from_args(args)?;
    let mut env = prepare_environment_with(scale, seed, recovery)?.with_audit(args.flag("--audit"));
    println!(
        "victim detector class-accuracy: {:.2}\n",
        env.detector_accuracy
    );
    let measured = run_table6(&mut env, seed)?;
    println!("{}", paper::table6());
    println!("{measured}");
    println!("shape checks (k=60 peaks; both tails collapse):");
    compare::report(&[
        compare::row_dominates(&measured, "k=60", "k=20"),
        compare::row_dominates(&measured, "k=60", "k=80"),
        compare::row_dominates(&measured, "k=40", "k=20"),
    ]);
    rd_bench::report_substrate(args)?;
    Ok(())
}
