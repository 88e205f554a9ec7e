//! Command line of the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fuse-paper|kb-publish|serve-zipf|all --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints the environment fingerprint, a table of every metric with its
//! unit and sample count, and, as the last line, one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}` with the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics (`--trace 1`).
//! `--workload all` runs each workload in its own child process.

use kf_perfbench::{run, Metric, Options, Outcome, Workload, CORPUS_SEED};
use std::process::{Command, ExitCode};

const USAGE: &str = "usage: kf-perfbench --workload fuse-paper|kb-publish|serve-zipf|all \
--seed N --seconds S [--trace 0|1] [--scale paper|tiny] [--work-dir DIR]";

/// The options of one workload, or `None` for `--workload all`.
fn parse(args: &[String]) -> Result<Option<Options>, String> {
    let mut workload = None;
    let mut opts = Options::new(Workload::FusePaper, 0, 10.0);
    let (mut seed, mut seconds) = (None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad())?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--scale" => {
                kf_bench::scale_config(value).ok_or_else(bad)?;
                opts.scale = value.clone();
            }
            "--work-dir" => opts.work_dir = value.into(),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds)) = (workload, seed, seconds) else {
        return Err("--workload, --seed and --seconds are required".to_string());
    };
    (opts.seed, opts.seconds) = (seed, seconds);
    if workload == "all" {
        return Ok(None);
    }
    opts.workload =
        Workload::by_name(&workload).ok_or_else(|| format!("unknown workload {workload:?}"))?;
    Ok(Some(opts))
}

/// Re-run this program once per workload, each in its own process so
/// peak memory is per workload.
fn run_all(args: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("kf-perfbench: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut status = ExitCode::SUCCESS;
    for workload in Workload::ALL {
        let mut child_args = args.to_vec();
        let at = child_args
            .iter()
            .position(|a| a == "--workload")
            .expect("parse saw --workload");
        child_args[at + 1] = workload.name().to_string();
        println!("== {}", workload.name());
        match Command::new(&exe).args(&child_args).status() {
            Ok(s) if s.success() => {}
            Ok(_) | Err(_) => status = ExitCode::FAILURE,
        }
    }
    status
}

fn metric_rows(metrics: &[Metric]) {
    for m in metrics {
        println!(
            "  {:<30} {:>16.6} {:<7} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn print(opts: &Options, out: &Outcome) {
    let f = &out.fingerprint;
    println!(
        "fingerprint: workload={} nproc={} cpu={:?} rustc={:?} commit={} source={:016x} \
         corpus={:016x} corpus_seed={} seed={} query_seed={} scale={} seconds={}",
        opts.workload.name(),
        f.nproc,
        f.cpu_model,
        f.rustc,
        f.git_commit,
        f.source_hash,
        out.corpus_hash,
        CORPUS_SEED,
        opts.seed,
        opts.query_seed(),
        opts.scale,
        opts.seconds,
    );
    println!("end-to-end:");
    metric_rows(&out.end_to_end);
    if opts.trace {
        println!("per-layer (traced pass):");
        metric_rows(&out.per_layer);
    }
    println!("ops: attempted={} failed={}", out.attempted, out.failed);
    let reported = if opts.trace {
        &out.per_layer
    } else {
        &out.end_to_end
    };
    let metrics: Vec<String> = reported
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct(),
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
}

/// `--peak-of WORKLOAD DIR SCALE`: one op in this fresh process, then
/// print its peak resident memory (the parent run's `peak_rss_mib`).
fn peak_of(args: &[String]) -> ExitCode {
    let [workload, dir, scale] = args else {
        eprintln!("kf-perfbench: --peak-of needs WORKLOAD DIR SCALE");
        return ExitCode::from(2);
    };
    let Some(workload) = Workload::by_name(workload) else {
        eprintln!("kf-perfbench: unknown workload {workload:?}");
        return ExitCode::from(2);
    };
    match kf_perfbench::peak_of(workload, dir.as_ref(), scale) {
        Ok(mib) => {
            println!("{mib}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("kf-perfbench: peak probe: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--peak-of") {
        return peak_of(&args[1..]);
    }
    let mut opts = match parse(&args) {
        Ok(Some(opts)) => opts,
        Ok(None) => return run_all(&args),
        Err(e) => {
            eprintln!("kf-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    opts.peak_exe = std::env::current_exe().ok();
    match run(&opts) {
        Ok(outcome) => {
            print(&opts, &outcome);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("kf-perfbench: {}: {e}", opts.workload.name());
            ExitCode::FAILURE
        }
    }
}
