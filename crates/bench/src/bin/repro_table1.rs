//! Regenerates Table I: real-world comparison of our attack (with and
//! without consecutive frames) against the colored baseline [34].
//!
//! ```text
//! cargo run --release -p rd-bench --bin repro_table1 -- [--scale paper|smoke] [--seed 42] [--audit] [--threads N] [--profile] \
//!     [--checkpoint-every N] [--checkpoint-dir DIR] [--resume] [--deadline-secs N] [--max-retries N]
//! ```

use rd_bench::{compare, paper};
use road_decals::cli::Args;
use road_decals::experiments::{prepare_environment_with, run_table1, Scale};

fn main() -> std::process::ExitCode {
    match run() {
        Ok(()) => std::process::ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("repro_table1: {e}");
            std::process::ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let args = rd_bench::repro_args()?;
    rd_bench::run_supervised("table1", &args, || {
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
    let measured = run_table1(&mut env, seed)?;
    println!("{}", paper::table1());
    println!("{measured}");
    println!("shape checks (paper's qualitative claims on our measurement):");
    let ours = "Ours (w/ 3 consecutive frames)";
    let solo = "Ours (w/o 3 consecutive frames)";
    compare::report(&[
        compare::row_near_zero(&measured, "w/o Attack", 0.05),
        compare::row_dominates(&measured, ours, solo),
        compare::row_dominates(&measured, solo, "[34]"),
        compare::row_dominates(&measured, ours, "[34]"),
        compare::monotone_decreasing(&measured, ours, &["slow", "normal", "fast"]),
        compare::monotone_decreasing(&measured, "[34]", &["slow", "normal", "fast"]),
    ]);
    rd_bench::report_substrate(args)?;
    Ok(())
}
