//! Regenerates the paper's figures (2-8) as PPM images under
//! `out/figures/`.
//!
//! ```text
//! cargo run --release -p rd-bench --bin repro_figs -- [--scale paper|smoke] [--seed 42] [--audit] [--threads N] [--profile] \
//!     [--checkpoint-every N] [--checkpoint-dir DIR] [--resume] [--deadline-secs N] [--max-retries N]
//! ```

use road_decals::cli::Args;
use road_decals::experiments::{prepare_environment_with, run_figures, Scale};

fn main() -> std::process::ExitCode {
    match run() {
        Ok(()) => std::process::ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("repro_figs: {e}");
            std::process::ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let args = rd_bench::repro_args()?;
    rd_bench::run_supervised("figures", &args, || {
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
    let written = run_figures(&mut env, seed, "out/figures")?;
    println!("wrote {} figures:", written.len());
    for p in written {
        println!("  {}", p.display());
    }
    rd_bench::report_substrate(args)?;
    Ok(())
}
