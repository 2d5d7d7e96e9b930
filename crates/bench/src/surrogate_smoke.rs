//! The surrogate-screening smoke: run the same Table-3 scenarios once
//! exact and once screened, and report — or, under
//! `FAST_ASSERT_SURROGATE`, *assert* — three properties of the surrogate
//! tier:
//!
//! 1. **Savings** — the screened sweep reaches the real evaluator for at
//!    most `1/factor` of its trials;
//! 2. **Fidelity** — the surrogate's ranking of the fully simulated
//!    trials correlates with the true objective (Spearman ρ);
//! 3. **Quality** — the screened frontier retains most of the exact
//!    frontier's dominated hypervolume (objective ↑, TDP ↓, area ↓
//!    against a shared reference point).
//!
//! Environment knobs (all optional; a set but malformed value panics
//! naming the variable rather than falling back to the default):
//!
//! | variable | meaning | default |
//! |---|---|---|
//! | `FAST_ASSERT_SURROGATE` | required savings factor; also arms ρ and HV gates | off |
//! | `FAST_ASSERT_SURROGATE_RHO` | required Spearman ρ | `0.8` |
//! | `FAST_ASSERT_SURROGATE_HV` | required screened/exact hypervolume ratio | `0.5` |
//! | `FAST_SURROGATE_KEEP` | keep fraction of each round | `0.25` |
//! | `FAST_SURROGATE_MIN_FULL` | full simulations per round floor | `2` |
//! | `FAST_TRIALS` | per-scenario trial budget | `48` |

use crate::{trial_budget, Table};
use fast_core::{
    frontier_hypervolume, BudgetLevel, Fidelity, Objective, ScenarioMatrix, SurrogateTier,
    SweepConfig, SweepResult, SweepRunner,
};
use fast_models::{EfficientNet, Workload, WorkloadDomain};
use fast_search::FrontierPoint;
use std::fmt::Write as _;

/// One scenario's exact-vs-screened comparison.
#[derive(Debug, Clone)]
pub struct SmokeRow {
    /// `"{domain}/{budget}/{objective}"`.
    pub name: String,
    /// Trials that reached the real evaluator in the exact run (all of
    /// them, by definition).
    pub exact_sims: usize,
    /// Trials that reached the real evaluator in the screened run.
    pub screened_sims: usize,
    /// Surrogate-vs-true Spearman ρ over the screened run's full sims.
    pub spearman: Option<f64>,
    /// Kendall τ-b over the same pairs.
    pub kendall: Option<f64>,
    /// Dominated hypervolume of the exact frontier.
    pub hv_exact: f64,
    /// Dominated hypervolume of the screened frontier, against the same
    /// reference point.
    pub hv_screened: f64,
}

impl SmokeRow {
    /// `exact_sims / screened_sims` — how much full simulation screening
    /// saved.
    #[must_use]
    pub fn savings(&self) -> f64 {
        if self.screened_sims == 0 {
            return 1.0;
        }
        self.exact_sims as f64 / self.screened_sims as f64
    }

    /// `hv_screened / hv_exact` — frontier quality retained (1.0 when the
    /// exact frontier has no volume to lose).
    #[must_use]
    pub fn hv_ratio(&self) -> f64 {
        if self.hv_exact <= 0.0 {
            return 1.0;
        }
        self.hv_screened / self.hv_exact
    }
}

/// The smoke's scenario matrix: the paper budget over both objectives on
/// the two-model domain — small enough for CI, rich enough that the
/// frontier has real shape in all three metrics.
fn smoke_matrix() -> ScenarioMatrix {
    ScenarioMatrix {
        budgets: vec![BudgetLevel::scaled(1.0)],
        objectives: vec![Objective::Qps, Objective::PerfPerTdp],
        domains: vec![WorkloadDomain::multi_model(
            "B0+ResNet50",
            vec![Workload::EfficientNet(EfficientNet::B0), Workload::ResNet50],
        )],
    }
}

/// A reference point strictly dominated by every frontier point of both
/// runs: zero objective, and 5% beyond the worst TDP/area seen anywhere.
fn shared_reference(frontiers: &[&[FrontierPoint]]) -> [f64; 3] {
    let mut worst_tdp = 0.0f64;
    let mut worst_area = 0.0f64;
    for frontier in frontiers {
        for p in *frontier {
            if p.metrics.len() == 3 {
                worst_tdp = worst_tdp.max(p.metrics[1]);
                worst_area = worst_area.max(p.metrics[2]);
            }
        }
    }
    [0.0, 1.05 * worst_tdp, 1.05 * worst_area]
}

/// Runs the matrix exact and S0-screened and pairs up the scenarios.
///
/// # Panics
/// Panics if a screened scenario carries no [`fast_core::FidelityReport`]
/// — that would mean the fidelity axis was silently dropped, which is
/// exactly what the smoke exists to catch.
#[must_use]
pub fn surrogate_smoke_rows(trials: usize, keep_fraction: f64, min_full: usize) -> Vec<SmokeRow> {
    let config = SweepConfig { trials, batch: 8, ..SweepConfig::default() };
    let screened_config = SweepConfig {
        fidelity: Fidelity::Screened { keep_fraction, min_full, tier: SurrogateTier::S0 },
        ..config.clone()
    };
    let exact: SweepResult = SweepRunner::new(smoke_matrix(), config).run();
    let screened: SweepResult = SweepRunner::new(smoke_matrix(), screened_config).run();

    exact
        .scenarios
        .iter()
        .zip(&screened.scenarios)
        .map(|(e, s)| {
            assert_eq!(e.scenario.name, s.scenario.name, "matrix order must match");
            let fid = s
                .fidelity
                .as_ref()
                .unwrap_or_else(|| panic!("{}: screened run lost its fidelity", s.scenario.name));
            let reference = shared_reference(&[&e.frontier_points, &s.frontier_points]);
            SmokeRow {
                name: e.scenario.name.clone(),
                // Every proposed trial of an exact study reaches the
                // evaluator (safe-search rejections included: they cost a
                // decode + validate, which screening also avoids).
                exact_sims: trials,
                screened_sims: fid.full_evals,
                spearman: fid.spearman,
                kendall: fid.kendall,
                hv_exact: frontier_hypervolume(&e.frontier_points, reference),
                hv_screened: frontier_hypervolume(&s.frontier_points, reference),
            }
        })
        .collect()
}

fn render(rows: &[SmokeRow]) -> String {
    let mut t = Table::new([
        "scenario",
        "full sims (exact)",
        "full sims (screened)",
        "savings",
        "spearman",
        "kendall",
        "HV retained",
    ]);
    for r in rows {
        t.row([
            r.name.clone(),
            r.exact_sims.to_string(),
            r.screened_sims.to_string(),
            format!("{:.1}x", r.savings()),
            r.spearman.map_or("-".to_string(), |v| format!("{v:.3}")),
            r.kendall.map_or("-".to_string(), |v| format!("{v:.3}")),
            format!("{:.0}%", 100.0 * r.hv_ratio()),
        ]);
    }
    t.render()
}

/// Parses `value`, the setting of environment knob `name`, falling back to
/// `default` when it is unset.
///
/// # Panics
/// Panics naming the variable when the value is malformed: a mistyped knob
/// (`FAST_SURROGATE_KEEP=0,125`) must not silently run the default while
/// the gates are armed.
fn parse_knob<T: std::str::FromStr>(name: &str, value: Option<&str>, default: T) -> T {
    value.map_or(default, |v| {
        v.parse().unwrap_or_else(|_| panic!("{name} must be a number, got {v:?}"))
    })
}

/// [`parse_knob`] on the process environment.
fn env_knob<T: std::str::FromStr>(name: &str, default: T) -> T {
    let value = match std::env::var(name) {
        Ok(v) => Some(v),
        Err(std::env::VarError::NotPresent) => None,
        Err(std::env::VarError::NotUnicode(v)) => panic!("{name} must be a number, got {v:?}"),
    };
    parse_knob(name, value.as_deref(), default)
}

/// The full smoke: run, render, and — when `FAST_ASSERT_SURROGATE` is set
/// — enforce the three gates on every scenario.
///
/// # Panics
/// Panics when an armed gate fails, so CI fails loudly with the measured
/// numbers in the message.
#[must_use]
pub fn surrogate_smoke() -> String {
    let trials = trial_budget(48);
    let keep = env_knob("FAST_SURROGATE_KEEP", 0.25);
    let min_full = env_knob("FAST_SURROGATE_MIN_FULL", 2);
    let rows = surrogate_smoke_rows(trials, keep, min_full);

    let mut out = format!(
        "Surrogate screening smoke — {trials} trials/scenario, keep {keep}, \
         min-full {min_full}\n\
         (exact and S0-screened sweeps of the same Table-3 scenarios)\n\n{}",
        render(&rows)
    );

    if let Ok(spec) = std::env::var("FAST_ASSERT_SURROGATE") {
        let need: f64 = spec.parse().expect("FAST_ASSERT_SURROGATE must be a number like 3.0");
        let need_rho = env_knob("FAST_ASSERT_SURROGATE_RHO", 0.8);
        let need_hv = env_knob("FAST_ASSERT_SURROGATE_HV", 0.5);
        for r in &rows {
            assert!(
                r.savings() >= need,
                "{}: savings {:.2}x below the required {need}x ({} of {} trials fully simulated)",
                r.name,
                r.savings(),
                r.screened_sims,
                r.exact_sims
            );
            let rho = r.spearman.unwrap_or_else(|| {
                panic!("{}: no Spearman (degenerate or <2 surrogate/true pairs)", r.name)
            });
            assert!(
                rho >= need_rho,
                "{}: surrogate-vs-true Spearman {rho:.3} below the required {need_rho}",
                r.name
            );
            assert!(
                r.hv_ratio() >= need_hv,
                "{}: screened frontier retains {:.0}% of exact hypervolume, need {:.0}%",
                r.name,
                100.0 * r.hv_ratio(),
                100.0 * need_hv
            );
        }
        let _ = write!(
            out,
            "\nFAST_ASSERT_SURROGATE: all scenarios >= {need}x savings, \
             spearman >= {need_rho}, HV >= {:.0}% — OK",
            100.0 * need_hv
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_rows_thin_simulation_and_keep_ranking_signal() {
        // 32 trials: an 8-trial S0 burn-in, then three screened rounds.
        let rows = surrogate_smoke_rows(32, 0.25, 2);
        assert_eq!(rows.len(), 2, "1 budget x 2 objectives x 1 domain");
        for r in &rows {
            assert_eq!(r.exact_sims, 32);
            assert!(
                r.screened_sims < r.exact_sims,
                "{}: screening must thin simulation, got {}/{}",
                r.name,
                r.screened_sims,
                r.exact_sims
            );
            assert!(r.savings() >= 2.0, "{}: savings {:.2}", r.name, r.savings());
            assert!(r.hv_exact > 0.0, "{}: exact frontier has volume", r.name);
            assert!(r.hv_screened > 0.0, "{}: screened frontier has volume", r.name);
        }
    }

    #[test]
    fn shared_reference_is_dominated_by_every_point() {
        let rows = surrogate_smoke_rows(16, 0.5, 1);
        // HV against a dominated reference is monotone: adding the exact
        // run's points to the screened frontier could only grow it, so a
        // ratio above 1 is possible, but both volumes must be positive and
        // finite.
        for r in &rows {
            assert!(r.hv_ratio().is_finite());
        }
    }

    #[test]
    fn knobs_parse_and_fall_back_when_unset() {
        assert_eq!(parse_knob("FAST_SURROGATE_KEEP", Some("0.125"), 0.25), 0.125);
        assert_eq!(parse_knob("FAST_SURROGATE_KEEP", None, 0.25), 0.25);
        assert_eq!(parse_knob("FAST_SURROGATE_MIN_FULL", Some("1"), 2usize), 1);
    }

    #[test]
    #[should_panic(expected = "FAST_SURROGATE_KEEP must be a number, got \"0,125\"")]
    fn malformed_knob_panics_naming_the_variable() {
        let _ = parse_knob("FAST_SURROGATE_KEEP", Some("0,125"), 0.25);
    }
}
