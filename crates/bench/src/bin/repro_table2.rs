//! Regenerates Table II: our attack in the indoor simulated environment.
//!
//! ```text
//! cargo run --release -p rd-bench --bin repro_table2 -- [--scale paper|smoke] [--seed 42] [--audit] [--threads N] [--profile] \
//!     [--checkpoint-every N] [--checkpoint-dir DIR] [--resume] [--deadline-secs N] [--max-retries N]
//! ```

use rd_bench::{compare, paper};
use road_decals::cli::Args;
use road_decals::experiments::{prepare_environment_with, run_table2, Scale};

fn main() -> std::process::ExitCode {
    match run() {
        Ok(()) => std::process::ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("repro_table2: {e}");
            std::process::ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let args = rd_bench::repro_args()?;
    rd_bench::run_supervised("table2", &args, || {
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
    let measured = run_table2(&mut env, seed)?;
    println!("{}", paper::table2());
    println!("{measured}");
    println!("shape checks:");
    compare::report(&[compare::monotone_decreasing(
        &measured,
        "Ours",
        &["slow", "normal", "fast"],
    )]);
    // the simulated environment should beat the real-world Table I cell;
    // cross-table checks are reported in EXPERIMENTS.md
    rd_bench::report_substrate(args)?;
    Ok(())
}
