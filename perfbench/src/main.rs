//! End-to-end benchmark of the AutoCkt stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads (see `perfbench/WORKLOADS.md`): `train_opamp2_schematic`,
//! `deploy_tia_pexwc_sparse`, `ga_tia_pexwc_dense`.
//!
//! `--trace 0` sets the workload up several times (reporting the median as
//! `setup_s`), then repeats timed units for `--seconds` and reports
//! `evals_per_s` (median over units) and `peak_rss_mb`. `--trace 1` runs a
//! fixed-size untraced reference and the same inputs traced through the
//! bench-side wrappers, gates on their outputs agreeing, and reports the
//! per-layer metrics; it ignores `--seconds`.
//!
//! A human-readable table goes to stderr; the last line of stdout is one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`. A failed
//! output check prints `"correct": false` and exits with code 1.

mod probe;
mod replay;
mod stats;
mod workloads;

use stats::{median, peak_rss_mb};
use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;
use workloads::{DeployWorkload, GaWorkload, Layers, TrainWorkload, Workload};

/// Set-ups per timed batch. One set-up takes microseconds, so a batch
/// keeps timer overhead and resolution out of the reading; a batch runs
/// before every timed unit, so `setup_s` (the median over batches of the
/// mean set-up time) samples the host over the whole run, as
/// `evals_per_s` does.
const SETUP_BATCH: u32 = 64;

/// Timed units per untraced run, at least, however long they take.
const MIN_UNITS: usize = 3;

/// Threads the workloads may use: two rollout workers, or one client
/// plus one simulation tile thread.
const THREADS: usize = 2;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag} <value>"))
    };
    let num = |flag: &str| -> Result<u64, String> {
        value(flag)?.parse().map_err(|e| format!("{flag}: {e}"))
    };
    let trace = match num("--trace")? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace must be 0 or 1, got {t}")),
    };
    let seconds = num("--seconds")?;
    if !(1..=600).contains(&seconds) {
        return Err(format!("--seconds must be 1..=600, got {seconds}"));
    }
    Ok(Args {
        workload: value("--workload")?.to_string(),
        seed: num("--seed")?,
        seconds: seconds as f64,
        trace,
    })
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

impl Report {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    r#""{}": {{"value": {}, "unit": "{}"}}"#,
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn untraced<W: Workload>(args: &Args) -> Result<(Report, Option<String>), String> {
    let setup_batch = || {
        let t = Instant::now();
        for _ in 0..SETUP_BATCH {
            drop(black_box(W::setup(args.seed)));
        }
        t.elapsed().as_secs_f64() / f64::from(SETUP_BATCH)
    };
    let mut setups = vec![setup_batch()];
    let w = W::setup(args.seed);
    let mut rates = Vec::new();
    let mut failure = None;
    let start = Instant::now();
    while rates.len() < MIN_UNITS || start.elapsed().as_secs_f64() < args.seconds {
        match w.unit(rates.len()) {
            Ok(u) => {
                rates.push(u.evals as f64 / u.secs);
                setups.push(setup_batch());
            }
            Err(e) => {
                failure = Some(e);
                break;
            }
        }
    }
    eprintln!(
        "{} units in {:.1} s, evals/s per unit: {:.1?}",
        rates.len(),
        start.elapsed().as_secs_f64(),
        rates
    );
    let (attempted, failed) = w.solves();
    let metrics = vec![
        Metric {
            name: "evals_per_s",
            value: median(&rates).unwrap_or(0.0),
            unit: "1/s",
        },
        Metric {
            name: "setup_s",
            value: median(&setups).ok_or("no set-up ran")?,
            unit: "s",
        },
        Metric {
            name: "peak_rss_mb",
            value: peak_rss_mb()?,
            unit: "MB",
        },
    ];
    Ok((
        Report {
            correct: failure.is_none(),
            attempted,
            failed,
            metrics,
        },
        failure,
    ))
}

fn traced<W: Workload>(args: &Args) -> Result<(Report, Option<String>), String> {
    let w = W::setup(args.seed);
    let (layers, failure) = match w.trace() {
        Ok(l) => (l, None),
        Err(e) => (Layers::default(), Some(e)),
    };
    let (attempted, failed) = w.solves();
    let metrics = layers
        .metrics()
        .into_iter()
        .map(|(name, value, unit)| Metric { name, value, unit })
        .collect();
    Ok((
        Report {
            correct: failure.is_none(),
            // The traced half's solves are on its own problem; count both.
            attempted: attempted + layers.solve_count as u64,
            failed: failed + layers.solve_failed as u64,
            metrics,
        },
        failure,
    ))
}

fn run<W: Workload>(args: &Args) -> Result<(Report, Option<String>), String> {
    if args.trace {
        traced::<W>(args)
    } else {
        untraced::<W>(args)
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    autockt_sim::par::set_thread_budget(THREADS);
    eprintln!(
        "host: available_parallelism {}, thread_budget {}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        autockt_sim::par::thread_budget()
    );
    let result = match args.workload.as_str() {
        "train_opamp2_schematic" => run::<TrainWorkload>(&args),
        "deploy_tia_pexwc_sparse" => run::<DeployWorkload>(&args),
        "ga_tia_pexwc_dense" => run::<GaWorkload>(&args),
        other => Err(format!("unknown workload {other}")),
    };
    let (mut report, failure) = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(m) = report.metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("perfbench: metric {} is not finite", m.name);
        report.correct = false;
    }
    if let Some(e) = &failure {
        eprintln!("perfbench: output check failed: {e}");
    }
    eprintln!(
        "{} seed {} trace {}: attempted {} failed {}",
        args.workload, args.seed, args.trace as u8, report.attempted, report.failed
    );
    for m in &report.metrics {
        eprintln!("  {:<26} {:>16.6} {}", m.name, m.value, m.unit);
    }
    // JSON has no NaN or infinity; the run is already marked incorrect.
    for m in &mut report.metrics {
        if !m.value.is_finite() {
            m.value = 0.0;
        }
    }
    println!("{}", report.json());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
