//! The benchmark's metric names and units, and the machine fingerprint
//! stamped on every output. The names match `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::calib::{speed_factor, Calibration};
use crate::stats::{quantile, Samples};
use crate::Outcome;

/// End-to-end metrics, reported by the untraced run (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("trial_ms.p50", "ms"),
    ("trial_ms.p90", "ms"),
    ("warm_trial_us.p50", "us"),
    ("round_ms.p50", "ms"),
    ("round_ms.p90", "ms"),
    ("job_s.p50", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by the traced run (`--trace 1`). A layer a
/// workload does not run reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("error_frac", "ratio"),
    ("trace.overhead_s", "s"),
    ("models.build_ms", "ms"),
    ("sim.map_us", "us"),
    ("sim.map_hits", "count"),
    ("sim.map_misses", "count"),
    ("sim.assemble_us", "us"),
    ("sim.schedule_fail_frac", "ratio"),
    ("fusion.greedy_us", "us"),
    ("fusion.exact_s", "s"),
    ("fusion.warm_hit_rate", "ratio"),
    ("ilp.exact_solves", "count"),
    ("ilp.nodes", "count"),
    ("ilp.lp_pivots", "count"),
    ("core.score_us", "us"),
    ("core.op_hit_rate", "ratio"),
    ("core.sim_hit_rate", "ratio"),
    ("core.fuse_hit_rate", "ratio"),
    ("core.snapshot_save_ms", "ms"),
    ("core.snapshot_load_ms", "ms"),
    ("core.snapshot_bytes", "B"),
    ("search.invalid_frac", "ratio"),
    ("search.frontier_points", "count"),
    ("surrogate.full_frac", "ratio"),
    ("surrogate.spearman", "ratio"),
    ("serve.ping_us", "us"),
    ("serve.accept_ms", "ms"),
    ("serve.round_gap_ms.p50", "ms"),
    ("serve.done_ms", "ms"),
    ("serve.snapshot_bytes", "B"),
];

/// Metric values by name, as a workload measured them.
pub type Metrics = BTreeMap<&'static str, f64>;

/// Passes a run makes over its work. Every pass repeats the same work.
pub const PASSES: usize = 2;

/// Each series of [`EndToEnd`] and the metrics taken from its samples'
/// fastest times: `(metric, raw metric, Some(q))` is the q-quantile,
/// `(.., None)` the sum. The raw metric is the same without the host-speed
/// scaling; it goes to the report only.
type Summary = (&'static str, &'static [(&'static str, &'static str, Option<f64>)]);
const SERIES: [Summary; 5] = [
    ("wall_s", &[("wall_s", "raw.wall_s", None)]),
    (
        "trial_ms",
        &[
            ("trial_ms.p50", "raw.trial_ms.p50", Some(0.5)),
            ("trial_ms.p90", "raw.trial_ms.p90", Some(0.9)),
        ],
    ),
    ("warm_trial_us", &[("warm_trial_us.p50", "raw.warm_trial_us.p50", Some(0.5))]),
    (
        "round_ms",
        &[
            ("round_ms.p50", "raw.round_ms.p50", Some(0.5)),
            ("round_ms.p90", "raw.round_ms.p90", Some(0.9)),
        ],
    ),
    ("job_s", &[("job_s.p50", "raw.job_s.p50", Some(0.5))]),
];

/// The samples behind the end-to-end metrics of one pass over a run's
/// work, each series in the order the work ran, so that sample `i` of one
/// pass and sample `i` of another timed the same thing.
#[derive(Debug, Default)]
pub struct EndToEnd {
    /// Wall time of each block of the pass: a job, session or episode.
    pub wall_s: Samples,
    pub trial_ms: Samples,
    pub warm_trial_us: Samples,
    pub round_ms: Samples,
    pub job_s: Samples,
    /// The calibration kernel's times through the pass.
    pub calib: Calibration,
}

impl EndToEnd {
    /// The pass's wall time: the sum of its blocks.
    pub fn pass_s(&self) -> f64 {
        self.wall_s.values().iter().sum()
    }

    /// The series in the order of [`SERIES`].
    fn series(&self) -> [&Samples; 5] {
        [&self.wall_s, &self.trial_ms, &self.warm_trial_us, &self.round_ms, &self.job_s]
    }
}

/// The untraced part of a run: its passes over the same work and the
/// start-ups around them.
///
/// The host's CPU speed changes by up to a factor of two over minutes and
/// by tens of percent over seconds. So each pass's times are first scaled
/// to the reference host's speed by the calibration kernel timed through
/// that pass (see [`crate::calib`]). Then every timed thing (a trial, a
/// round, a job, a block) counts with its fastest scaled time over the
/// passes, and the percentiles are taken over those. `wall_s` is the sum
/// of the blocks' fastest times: one pass over the work at full speed.
/// `setup_s` is the median start-up, scaled by the whole run's kernel
/// times.
#[derive(Debug, Default)]
pub struct Passes {
    pub setup_s: Samples,
    pub passes: Vec<EndToEnd>,
    pub peak_rss_mb: f64,
}

impl Passes {
    /// The wall time of the fastest pass, unscaled.
    pub fn fastest_pass_s(&self) -> f64 {
        self.passes.iter().map(EndToEnd::pass_s).fold(f64::INFINITY, f64::min)
    }

    /// Writes the metrics, their unscaled values (`raw.*`), the host's
    /// speed and the sample count behind each into `out`.
    ///
    /// # Errors
    /// When the passes timed different numbers of things: they did not
    /// repeat the same work.
    pub fn record(&self, out: &mut Outcome) -> Result<(), String> {
        let first = self.passes.first().ok_or("the run made no pass")?;
        let factors: Vec<f64> =
            self.passes.iter().map(|p| speed_factor(p.calib.kernel_s())).collect();
        for (i, (series, metrics)) in SERIES.into_iter().enumerate() {
            let n = first.series()[i].len();
            if self.passes.iter().any(|p| p.series()[i].len() != n) {
                return Err(format!("the passes timed different numbers of {series} samples"));
            }
            let fastest = |scale: bool| -> Vec<f64> {
                (0..n)
                    .map(|k| {
                        self.passes
                            .iter()
                            .zip(&factors)
                            .map(|(p, f)| p.series()[i].values()[k] * if scale { *f } else { 1.0 })
                            .fold(f64::INFINITY, f64::min)
                    })
                    .collect()
            };
            let (scaled, raw) = (fastest(true), fastest(false));
            for &(metric, raw_metric, q) in metrics {
                let summary = |v: &[f64]| q.map_or_else(|| v.iter().sum(), |q| quantile(v, q));
                out.metrics.insert(metric, summary(&scaled));
                out.metrics.insert(raw_metric, summary(&raw));
            }
            out.samples.insert(series, n);
        }
        let kernel_s: Vec<f64> =
            self.passes.iter().flat_map(|p| p.calib.kernel_s().iter().copied()).collect();
        let setup_s = self.setup_s.median();
        let m = &mut out.metrics;
        m.insert("setup_s", setup_s * speed_factor(&kernel_s));
        m.insert("raw.setup_s", setup_s);
        m.insert("host.kernel_ms", quantile(&kernel_s, 0.5) * 1e3);
        m.insert("peak_rss_mb", self.peak_rss_mb);
        let s = &mut out.samples;
        s.insert("setup_s", self.setup_s.len());
        s.insert("passes", self.passes.len());
        s.insert("host.kernel_ms", kernel_s.len());
        Ok(())
    }
}

/// Renders `names` from `values` as the `"metrics"` JSON object.
///
/// # Errors
/// Names a metric the workload did not report or reported as a
/// non-finite number.
pub fn metrics_json(names: &[(&str, &str)], values: &Metrics) -> Result<String, String> {
    let mut out = String::from("{");
    for (i, (name, unit)) in names.iter().enumerate() {
        let v = *values.get(name).ok_or_else(|| format!("metric {name} was not measured"))?;
        if !v.is_finite() {
            return Err(format!("metric {name} is not a finite number ({v})"));
        }
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_f64(v));
    }
    out.push('}');
    Ok(out)
}

/// A finite `f64` as JSON, with every digit Rust's shortest round-trip
/// form carries.
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        if s.contains(['.', 'e', 'E']) {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "null".to_string()
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// What machine and toolchain produced a result.
pub fn fingerprint_json() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let commit = std::env::var("PERFBENCH_GIT_COMMIT").unwrap_or_else(|_| "unknown".to_string());
    format!(
        "{{\"nproc\": {nproc}, \"cpu\": {}, \"rustc\": {}, \"git_commit\": {}, \
         \"rayon_threads\": {}}}",
        json_str(&cpu),
        json_str(env!("PERFBENCH_RUSTC")),
        json_str(&commit),
        json_str(&std::env::var("RAYON_NUM_THREADS").unwrap_or_default()),
    )
}

/// Peak resident set (`VmHWM`) of process `pid` (`"self"` for this one),
/// in MiB.
pub fn peak_rss_mib(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pass(wall_s: Vec<f64>, trial_ms: Vec<f64>) -> EndToEnd {
        EndToEnd { wall_s: wall_s.into(), trial_ms: trial_ms.into(), ..EndToEnd::default() }
    }

    #[test]
    fn passes_count_each_sample_at_its_fastest() {
        let passes = Passes {
            setup_s: vec![0.3, 0.1, 0.2].into(),
            passes: vec![
                pass(vec![1.0, 4.0], vec![5.0, 1.0, 9.0]),
                pass(vec![2.0, 3.0], vec![2.0, 3.0, 8.0]),
            ],
            peak_rss_mb: 7.0,
        };
        let mut out = Outcome::default();
        passes.record(&mut out).unwrap();
        let m = &out.metrics;
        assert_eq!(m["wall_s"], 4.0);
        assert_eq!(m["trial_ms.p50"], 2.0);
        assert_eq!(m["setup_s"], 0.2);
        assert_eq!(m["peak_rss_mb"], 7.0);
        assert_eq!(passes.fastest_pass_s(), 5.0);
        assert_eq!(out.samples["trial_ms"], 3);
    }

    #[test]
    fn passes_that_timed_different_work_are_refused() {
        let passes = Passes {
            passes: vec![pass(vec![1.0], vec![1.0]), pass(vec![1.0], vec![1.0, 2.0])],
            ..Passes::default()
        };
        assert!(passes.record(&mut Outcome::default()).is_err());
        assert!(Passes::default().record(&mut Outcome::default()).is_err());
    }

    #[test]
    fn metrics_render_in_list_order_and_refuse_gaps() {
        let mut m = Metrics::new();
        m.insert("wall_s", 1.5);
        m.insert("setup_s", 2.0);
        let names = &[("setup_s", "s"), ("wall_s", "s")];
        assert_eq!(
            metrics_json(names, &m).unwrap(),
            "{\"setup_s\": {\"value\": 2.0, \"unit\": \"s\"}, \
             \"wall_s\": {\"value\": 1.5, \"unit\": \"s\"}}"
        );
        assert!(metrics_json(&[("job_s.p50", "s")], &m).is_err());
        m.insert("job_s.p50", f64::NAN);
        assert!(metrics_json(&[("job_s.p50", "s")], &m).is_err());
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|(n, _)| *n).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
