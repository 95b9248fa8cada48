//! `perfbench`: end-to-end and per-layer benchmark of the road-decals
//! workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper-slice|fleet> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! With `--trace 0` a run repeats the workload's slice for `--seconds`
//! seconds (at least 3 times) and prints the end-to-end metrics; with
//! `--trace 1` it prints the per-layer metrics of one traced pass.
//! Either way the last stdout line is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. See README.md.

mod drives;
mod inputs;
mod report;
mod stats;
mod workloads;

use std::process::ExitCode;

use report::Report;
use stats::Ops;
use workloads::Workload;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> &'static str {
    "usage: perfbench --workload <paper-slice|fleet> --seed <n> --seconds <n> --trace <0|1>"
}

/// Strict flag parsing: every flag takes a value, unknown flags and
/// repeated flags are errors.
fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let slot = match flag.as_str() {
            "--workload" => &mut workload,
            "--seed" => &mut seed,
            "--seconds" => &mut seconds,
            "--trace" => &mut trace,
            other => return Err(format!("unknown flag {other}")),
        };
        if slot.replace(value).is_some() {
            return Err(format!("{flag} given twice"));
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let workload =
        Workload::parse(&workload).ok_or_else(|| format!("unknown workload {workload}"))?;
    let seed = seed.ok_or("--seed is required")?;
    let seed = seed.parse().map_err(|_| format!("bad --seed {seed}"))?;
    // no default: BENCHMARK.json's run_seconds is the measured run length
    let seconds = seconds.ok_or("--seconds is required")?;
    let seconds: f64 = seconds
        .parse()
        .map_err(|_| format!("bad --seconds {seconds}"))?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    let trace = match trace.as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(t) => return Err(format!("bad --trace {t} (expected 0 or 1)")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Peak resident set of this process in MB (Linux `VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let host = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let budget = args.workload.budget();
    if budget.threads > host || budget.jobs > host {
        eprintln!(
            "perfbench: {} needs {} threads x {} jobs but the host has {host} CPUs; refusing",
            args.workload.name(),
            budget.threads,
            budget.jobs
        );
        return ExitCode::from(3);
    }

    let mut report = Report::default();
    let mut ops = Ops::default();
    report.info_str("workload", args.workload.name());
    report.info_num("seed", args.seed as f64);
    report.info_num("trace", f64::from(u8::from(args.trace)));
    report.info_num("host_cpus", host as f64);
    report.info_num("threads_requested", budget.threads as f64);
    report.info_num("threads_effective", budget.threads.min(host) as f64);
    report.info_num("jobs", budget.jobs as f64);
    report.info_str("tier", budget.tier.label());
    report.info_str("simd_backend", rd_tensor::simd::backend().label());

    let t = std::time::Instant::now();
    if args.trace {
        workloads::run_traced(args.workload, args.seed, &mut report, &mut ops);
    } else {
        workloads::run_untraced(
            args.workload,
            args.seed,
            args.seconds,
            &mut report,
            &mut ops,
        );
        let rss = peak_rss_mb();
        ops.record(rss.is_some(), "peak RSS is readable");
        report.metric("peak_rss_mb", rss.unwrap_or(0.0), "MB");
    }
    report.info_num("run_s", t.elapsed().as_secs_f64());
    report.print(&mut ops);
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = args("--workload fleet --seed 7 --seconds 12 --trace 1").expect("valid");
        assert_eq!(a.workload, Workload::Fleet);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 12.0, true));
    }

    #[test]
    fn rejects_unknown_repeated_and_malformed_flags() {
        let ok = "--workload fleet --seed 1 --seconds 5";
        assert!(args(ok).is_ok());
        assert!(args(&format!("{ok} --sede 7")).is_err());
        assert!(args(&format!("{ok} --seed 2")).is_err());
        assert!(args(&format!("{ok} --trace 2")).is_err());
        assert!(args("--workload walk --seed 1 --seconds 5").is_err());
        assert!(args("--seed 1 --seconds 5").is_err());
        assert!(args(&format!("{ok} --trace")).is_err());
    }

    #[test]
    fn seed_and_seconds_are_required() {
        assert!(args("--workload fleet --seconds 10").is_err());
        assert!(args("--workload fleet --seed 3").is_err());
        assert!(args("--workload fleet --seed 3 --seconds 0").is_err());
        let a = args("--workload fleet --seed 3 --seconds 10").expect("valid");
        assert!(!a.trace, "--trace defaults to 0");
    }
}
