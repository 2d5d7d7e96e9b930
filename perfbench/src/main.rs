//! The FAST benchmark: host time per trial, per sweep and per served job,
//! through the public entry points of the stack.
//!
//! ```text
//! perfbench --workload zoo-cold|sweep-ilp|serve-jobs [--seed N] [--seconds N]
//!           [--trace 0|1] [--reference FILE] [--out DIR] [--record]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. The line before
//! it is the full report, stamped with the machine fingerprint and the
//! sample count behind every percentile. See `README.md` in this directory.

mod calib;
mod metrics;
mod reference;
mod serve_jobs;
mod stack;
mod stats;
mod sweep_ilp;
mod trace;
mod zoo_cold;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use metrics::{json_f64, json_str, Metrics};
use reference::Reference;
use trace::Tracer;

/// The seed runs use unless told otherwise.
pub const DEFAULT_SEED: u64 = 1;
/// A seed kept out of tuning, for confirming a claim made on the default.
pub const HELD_OUT_SEED: u64 = 11;
/// Threads the stack may use. One: the stack's parallel loops then run
/// inline on the calling thread. With more, every sweep round starts
/// threads and waits for whichever one the shared host slowed down.
const THREADS: usize = 1;

const WORKLOADS: &[&str] = &["zoo-cold", "sweep-ilp", "serve-jobs"];

const USAGE: &str = "usage: perfbench --workload zoo-cold|sweep-ilp|serve-jobs [--seed N] \
                     [--seconds N] [--trace 0|1] [--reference FILE] [--out DIR] [--record]";

/// What one run was asked to do.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// The `fast-serve` daemon built beside this executable.
    pub serve_bin: PathBuf,
    pub reference: PathBuf,
    pub out_dir: PathBuf,
    pub record: bool,
}

impl Ctx {
    /// Units of work a run does: `per_10s` for every ten seconds asked
    /// for, at least one. The count depends only on `--seconds`, so every
    /// commit measured with the same settings does the same work.
    pub fn units(&self, per_10s: u64) -> u64 {
        (self.seconds * per_10s / 10).max(1)
    }

    /// The seed of unit `unit` of this run.
    pub fn unit_seed(&self, unit: u64) -> u64 {
        self.seed * 1000 + unit
    }

    /// A scratch directory for this run, inside the output directory.
    pub fn scratch(&self) -> PathBuf {
        self.out_dir.join(format!("tmp-{}", std::process::id()))
    }
}

/// What a workload measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (trials, sessions or jobs).
    pub attempted: u64,
    /// Operations that errored, were rejected or failed a result check.
    pub failed: u64,
    /// Every metric the run measured.
    pub metrics: Metrics,
    /// Samples behind each percentile metric.
    pub samples: BTreeMap<&'static str, usize>,
    /// `(unit, digest)` of each unit of work, checked against the
    /// reference.
    pub digests: Vec<(u64, u64)>,
    /// Why checks failed.
    pub problems: Vec<String>,
}

impl Outcome {
    /// Keeps the first pass's digests for the reference check, and counts
    /// a failure when a later pass computed different results.
    pub fn check_pass(&mut self, digests: &[(u64, u64)]) {
        if self.digests.is_empty() {
            self.digests = digests.to_vec();
        } else if self.digests != digests {
            self.fail("a pass computed different results from the first".to_string());
        }
    }

    /// Counts one failed operation and says why.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.problems.len() < 20 {
            self.problems.push(why);
        }
    }
}

fn parse_args(args: &[String]) -> Result<Ctx, String> {
    let mut ctx = Ctx {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10,
        trace: false,
        serve_bin: std::env::current_exe()
            .map_err(|e| format!("cannot locate this executable: {e}"))?
            .with_file_name("fast-serve"),
        reference: PathBuf::from("perfbench/reference.txt"),
        out_dir: PathBuf::from("perfbench-out"),
        record: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or_else(|| format!("{flag} needs a value"));
        let number = |v: String| v.parse::<u64>().map_err(|e| format!("{flag}: {e}"));
        match flag.as_str() {
            "--workload" => ctx.workload = value()?,
            "--seed" => ctx.seed = number(value()?)?,
            "--seconds" => ctx.seconds = number(value()?)?,
            "--trace" => {
                ctx.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--reference" => ctx.reference = PathBuf::from(value()?),
            "--out" => ctx.out_dir = PathBuf::from(value()?),
            "--record" => ctx.record = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !WORKLOADS.contains(&ctx.workload.as_str()) {
        return Err(format!("--workload must be one of {}", WORKLOADS.join(", ")));
    }
    if ctx.seed >= u64::MAX / 1000 {
        return Err("--seed is too large".to_string());
    }
    if ctx.seconds > 3600 {
        return Err("--seconds is at most 3600".to_string());
    }
    Ok(ctx)
}

/// Fixes what the environment could otherwise change about the work: the
/// thread count (the `fast-serve` daemon inherits it) and the trial budget
/// the bench crate reads.
fn pin_environment() {
    std::env::set_var("RAYON_NUM_THREADS", THREADS.to_string());
    std::env::remove_var("FAST_TRIALS");
}

fn run(ctx: &Ctx) -> Result<(Outcome, Tracer), String> {
    let mut tracer = Tracer::new(ctx.trace);
    let outcome = match ctx.workload.as_str() {
        "zoo-cold" => zoo_cold::run(ctx, &mut tracer)?,
        "sweep-ilp" => sweep_ilp::run(ctx, &mut tracer)?,
        _ => serve_jobs::run(ctx, &mut tracer)?,
    };
    Ok((outcome, tracer))
}

/// Compares the run's digests with the stored ones (or prints them under
/// `--record`).
fn check_reference(ctx: &Ctx, outcome: &mut Outcome) -> Result<(), String> {
    if ctx.record {
        for &(unit, digest) in &outcome.digests {
            println!("{}", reference::line(&ctx.workload, ctx.seed, unit, digest));
        }
        return Ok(());
    }
    let reference = Reference::load(&ctx.reference)?;
    let digests = std::mem::take(&mut outcome.digests);
    let mut checked = 0;
    for &(unit, digest) in &digests {
        match reference.get(&ctx.workload, ctx.seed, unit) {
            Some(expected) if expected == digest => checked += 1,
            Some(expected) => outcome.fail(format!(
                "unit {unit}: result digest {digest:016x} differs from the stored {expected:016x}"
            )),
            None => {}
        }
    }
    if checked == 0 && outcome.failed == 0 {
        eprintln!(
            "perfbench: no stored digest for {} seed {}; only the in-run checks applied",
            ctx.workload, ctx.seed
        );
    }
    outcome.digests = digests;
    Ok(())
}

fn report_json(ctx: &Ctx, outcome: &Outcome, correct: bool) -> String {
    let mut metrics = String::from("{");
    for (i, (name, value)) in outcome.metrics.iter().enumerate() {
        let sep = if i > 0 { ", " } else { "" };
        let _ = write!(metrics, "{sep}\"{name}\": {}", json_f64(*value));
    }
    metrics.push('}');
    let mut samples = String::from("{");
    for (i, (name, n)) in outcome.samples.iter().enumerate() {
        let sep = if i > 0 { ", " } else { "" };
        let _ = write!(samples, "{sep}\"{name}\": {n}");
    }
    samples.push('}');
    let problems: Vec<String> = outcome.problems.iter().map(|p| json_str(p)).collect();
    format!(
        "{{\"report\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"fingerprint\": {}, \"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \
         \"samples\": {samples}, \"metrics\": {metrics}, \"problems\": [{}]}}}}",
        json_str(&ctx.workload),
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace),
        metrics::fingerprint_json(),
        outcome.attempted,
        outcome.failed,
        problems.join(", ")
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ctx = match parse_args(&args) {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    pin_environment();
    if let Err(e) = std::fs::create_dir_all(ctx.scratch()) {
        eprintln!("perfbench: cannot create {}: {e}", ctx.scratch().display());
        return ExitCode::FAILURE;
    }
    let result = run(&ctx);
    let _ = std::fs::remove_dir_all(ctx.scratch());
    let (mut outcome, tracer) = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", ctx.workload);
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = check_reference(&ctx, &mut outcome) {
        eprintln!("perfbench: {e}");
        return ExitCode::FAILURE;
    }
    let attempted = outcome.attempted.max(1);
    outcome.metrics.insert("error_frac", outcome.failed as f64 / attempted as f64);
    let correct = outcome.failed == 0;

    let names = if ctx.trace { metrics::PER_LAYER } else { metrics::END_TO_END };
    let metrics_json = match metrics::metrics_json(names, &outcome.metrics) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let report = report_json(&ctx, &outcome, correct);
    let stem = format!("{}-seed{}-trace{}", ctx.workload, ctx.seed, u8::from(ctx.trace));
    let mut written = std::fs::write(ctx.out_dir.join(format!("{stem}.report.json")), &report);
    if ctx.trace {
        let spans = format!(
            "{{\"fingerprint\": {}, \"spans\": {}}}\n",
            metrics::fingerprint_json(),
            tracer.to_json()
        );
        written =
            written.and(std::fs::write(ctx.out_dir.join(format!("{stem}.trace.json")), spans));
    }
    if let Err(e) = written {
        eprintln!("perfbench: cannot write to {}: {e}", ctx.out_dir.display());
        return ExitCode::FAILURE;
    }
    for p in &outcome.problems {
        eprintln!("perfbench: check failed: {p}");
    }
    println!("{report}");
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {}}}",
        outcome.failed, metrics_json
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let ctx =
            parse_args(&args("--workload sweep-ilp --seed 7 --seconds 20 --trace 1")).unwrap();
        assert_eq!(
            (ctx.workload.as_str(), ctx.seed, ctx.seconds, ctx.trace),
            ("sweep-ilp", 7, 20, true)
        );
        assert_eq!(ctx.units(10), 20);
        assert_eq!(ctx.unit_seed(3), 7003);
    }

    #[test]
    fn rejects_unknown_workloads_and_flags() {
        assert!(parse_args(&args("--workload nope")).is_err());
        assert!(parse_args(&args("--workload zoo-cold --bogus 1")).is_err());
        assert!(parse_args(&args("--workload zoo-cold --trace 2")).is_err());
        assert!(parse_args(&args("--workload zoo-cold --seconds 99999")).is_err());
    }

    #[test]
    fn a_short_run_still_does_one_unit() {
        let ctx = parse_args(&args("--workload zoo-cold --seconds 1")).unwrap();
        assert_eq!(ctx.units(3), 1);
    }
}
