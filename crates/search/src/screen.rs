//! The fidelity axis: multi-fidelity screening of proposal rounds.
//!
//! Cold evaluations pay the full simulation pipeline even for candidates
//! the search will immediately discard. [`Fidelity::Screened`] puts a cheap
//! surrogate in front of the evaluator: every proposal in a round is scored
//! by a [`Screener`], only the top-ranked fraction reaches the real
//! evaluator, and the rest are recorded as
//! [`crate::MultiObjective::Surrogate`] outcomes — counted, observed by the
//! optimizer as rejections, but **never** admitted to the incumbent or the
//! Pareto archive, so every reported frontier point is fully simulated.
//!
//! [`Fidelity::Exact`] (the default) is the bit-identical escape hatch:
//! the study runs exactly as it did before the axis existed.

use crate::stats::{kendall_tau, spearman_rank};
use std::fmt;

/// Which surrogate predictor a screened study ranks proposals with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SurrogateTier {
    /// Analytical roofline bound: per-workload latency lower bounds from
    /// operational-intensity statistics and the candidate's peak compute /
    /// bandwidth. No fitting; screening starts after [`S0_BURN_IN`] full
    /// evaluations.
    S0,
}

impl SurrogateTier {
    /// Display label (`s0`, the CLI spelling).
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            SurrogateTier::S0 => "s0",
        }
    }

    /// The tier named `name` (the lowercase CLI spelling), if any.
    #[must_use]
    pub fn by_name(name: &str) -> Option<SurrogateTier> {
        match name {
            "s0" => Some(SurrogateTier::S0),
            _ => None,
        }
    }
}

impl fmt::Display for SurrogateTier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The fidelity axis of a [`crate::Study`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Fidelity {
    /// Every proposal is fully evaluated — bit-identical to a study built
    /// before the fidelity axis existed.
    #[default]
    Exact,
    /// Rank each proposal round with a surrogate and fully evaluate only
    /// the top fraction; the rest are recorded with their surrogate scores
    /// as low-fidelity outcomes.
    Screened {
        /// Fraction of each round that reaches the real evaluator, in
        /// `(0, 1]`. `1.0` degenerates to [`Fidelity::Exact`] trial-for-trial
        /// (every proposal is evaluated; only the fidelity report differs).
        keep_fraction: f64,
        /// Lower bound on fully evaluated proposals per round, whatever the
        /// fraction says (keeps tiny fractions from starving the optimizer
        /// of true observations).
        min_full: usize,
        /// Which surrogate ranks the round.
        tier: SurrogateTier,
    },
}

impl Fidelity {
    /// Fully evaluated proposals of a screened round of `round` candidates:
    /// `max(min_full, ceil(keep_fraction * round))`, clamped to `[1, round]`.
    #[must_use]
    pub(crate) fn keep_of_round(&self, round: usize) -> usize {
        match *self {
            Fidelity::Exact => round,
            Fidelity::Screened { keep_fraction, min_full, .. } => {
                let by_fraction = (keep_fraction * round as f64).ceil() as usize;
                by_fraction.max(min_full).clamp(1, round)
            }
        }
    }
}

/// Full evaluations a screened study runs before it starts screening.
///
/// The roofline tier fits no model, but screening from the very first round
/// starves the Pareto archive: a scalar-guide ranking keeps only
/// high-objective candidates, and the frontier's low-power / low-area corner
/// is never simulated. A short full-fidelity burn-in seeds the archive
/// across the whole design range before thinning begins — measured on the
/// Table-3 smoke it is the difference between retaining ~20% and ~100% of
/// the exact frontier's hypervolume. Burn-in progress is the
/// [`FidelityReport::full_evals`] counter itself, so a checkpoint needs no
/// screener state to resume it.
pub const S0_BURN_IN: usize = 8;

/// A surrogate predictor that ranks proposals for a screened study.
///
/// Implementations must be **deterministic**: `score` is a pure function of
/// the point — the screened trial sequence is part of the study's
/// reproducibility contract (same seed ⇒ same kept set).
pub trait Screener {
    /// Predicted guide objective of `point` — only the induced *ranking*
    /// matters. Return [`f64::NEG_INFINITY`] for points the surrogate can
    /// already tell are infeasible.
    fn score(&self, point: &[usize]) -> f64;
}

/// What screening did during a run — attached to
/// [`crate::StudyReport::fidelity`] for every screened study.
#[derive(Debug, Clone, PartialEq)]
pub struct FidelityReport {
    /// The surrogate tier that ranked the rounds.
    pub tier: SurrogateTier,
    /// The configured keep fraction.
    pub keep_fraction: f64,
    /// The configured per-round floor of full evaluations.
    pub min_full: usize,
    /// Trials that reached the real evaluator.
    pub full_evals: usize,
    /// Trials recorded with surrogate scores instead of full evaluations.
    pub screened_out: usize,
    /// Number of (surrogate score, true objective) pairs accumulated —
    /// one per fully evaluated *valid* trial scored after the burn-in.
    pub pairs: usize,
    /// Spearman rank correlation of surrogate scores against true
    /// objectives over those pairs (`None` below two pairs or for a
    /// degenerate sample).
    pub spearman: Option<f64>,
    /// Kendall τ-b over the same pairs (tie-robust cross-check).
    pub kendall: Option<f64>,
}

impl FidelityReport {
    /// `full_evals : total trials` expressed as the savings factor — how
    /// many times fewer full simulations ran than an exact study of the
    /// same budget would have paid. `1.0` when nothing was screened.
    #[must_use]
    pub fn savings_factor(&self) -> f64 {
        let total = self.full_evals + self.screened_out;
        if self.full_evals == 0 {
            return 1.0;
        }
        total as f64 / self.full_evals as f64
    }
}

/// The engine-side screening state threaded through a screened run: the
/// screener plus the accumulated counters and correlation pairs. Lives in
/// this module so the checkpoint layer can rebuild it field-for-field.
pub(crate) struct ScreenEngine<'c> {
    pub(crate) screener: &'c dyn Screener,
    pub(crate) fidelity: Fidelity,
    pub(crate) full_evals: usize,
    pub(crate) screened_out: usize,
    /// `(surrogate score, true guide)` per fully evaluated valid trial that
    /// was scored after the burn-in.
    pub(crate) pairs: Vec<(f64, f64)>,
}

impl<'c> ScreenEngine<'c> {
    pub(crate) fn new(screener: &'c dyn Screener, fidelity: Fidelity) -> Self {
        ScreenEngine { screener, fidelity, full_evals: 0, screened_out: 0, pairs: Vec::new() }
    }

    /// Whether the [`S0_BURN_IN`] window is over and rounds get screened.
    pub(crate) fn ready(&self) -> bool {
        self.full_evals >= S0_BURN_IN
    }

    /// The report of the accumulated screening activity.
    pub(crate) fn report(&self) -> FidelityReport {
        let Fidelity::Screened { keep_fraction, min_full, tier } = self.fidelity else {
            unreachable!("ScreenEngine only exists for screened studies")
        };
        let (xs, ys): (Vec<f64>, Vec<f64>) = self.pairs.iter().copied().unzip();
        FidelityReport {
            tier,
            keep_fraction,
            min_full,
            full_evals: self.full_evals,
            screened_out: self.screened_out,
            pairs: self.pairs.len(),
            spearman: spearman_rank(&xs, &ys),
            kendall: kendall_tau(&xs, &ys),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keep_of_round_clamps_and_floors() {
        let screened = |keep_fraction, min_full| Fidelity::Screened {
            keep_fraction,
            min_full,
            tier: SurrogateTier::S0,
        };
        assert_eq!(Fidelity::Exact.keep_of_round(16), 16);
        assert_eq!(screened(0.125, 0).keep_of_round(16), 2);
        assert_eq!(screened(0.125, 4).keep_of_round(16), 4);
        // ceil: 0.1 * 8 = 0.8 -> 1.
        assert_eq!(screened(0.1, 0).keep_of_round(8), 1);
        // The floor never exceeds the round.
        assert_eq!(screened(0.1, 100).keep_of_round(8), 8);
        assert_eq!(screened(1.0, 0).keep_of_round(8), 8);
        // A round of one always keeps its candidate.
        assert_eq!(screened(0.01, 0).keep_of_round(1), 1);
    }

    #[test]
    fn tier_labels_round_trip() {
        let tier = SurrogateTier::S0;
        assert_eq!(SurrogateTier::by_name(tier.label()), Some(tier));
        assert_eq!(format!("{tier}"), tier.label());
        assert_eq!(SurrogateTier::by_name("s1"), None);
    }

    #[test]
    fn savings_factor_counts_screened_share() {
        let report = FidelityReport {
            tier: SurrogateTier::S0,
            keep_fraction: 0.25,
            min_full: 1,
            full_evals: 10,
            screened_out: 40,
            pairs: 10,
            spearman: Some(0.9),
            kendall: Some(0.8),
        };
        let factor = report.savings_factor();
        assert!((factor - 5.0).abs() < 1e-12, "factor = {factor}");
    }
}
