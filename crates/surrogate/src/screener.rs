//! The [`Screener`] implementation wiring the S0 roofline tier to a study.
//!
//! A [`SurrogateScreener`] owns the workload set and a *decode* closure
//! mapping a search point to its [`DatapathConfig`] (returning `None` for
//! points the caller can already reject — malformed configs, over-budget
//! designs), and scores with [`roofline_guide`]. It is stateless: the
//! full-fidelity burn-in before screening starts is counted by the study
//! itself ([`fast_search::S0_BURN_IN`]).

use crate::roofline::{roofline_guide, GraphLoad, GuideMetric};
use fast_arch::DatapathConfig;
use fast_models::Workload;
use fast_search::Screener;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex};

/// Decodes a search point to its datapath, or `None` for points that are
/// invalid or over budget (scored [`f64::NEG_INFINITY`] without touching
/// the roofline model).
pub type DecodeFn = dyn Fn(&[usize]) -> Option<DatapathConfig> + Send + Sync;

/// The S0 roofline tier behind the [`Screener`] trait.
pub struct SurrogateScreener {
    metric: GuideMetric,
    workloads: Vec<Workload>,
    decode: Box<DecodeFn>,
    /// `(workload, batch)` graph aggregates, built once per batch size.
    loads: Mutex<HashMap<u64, Arc<Vec<GraphLoad>>>>,
}

impl fmt::Debug for SurrogateScreener {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SurrogateScreener")
            .field("metric", &self.metric)
            .field("workloads", &self.workloads)
            .finish_non_exhaustive()
    }
}

impl SurrogateScreener {
    /// A screener mimicking `metric` over `workloads`, decoding points with
    /// `decode`.
    #[must_use]
    pub fn new(metric: GuideMetric, workloads: Vec<Workload>, decode: Box<DecodeFn>) -> Self {
        assert!(!workloads.is_empty(), "surrogate wants at least one workload");
        SurrogateScreener { metric, workloads, decode, loads: Mutex::new(HashMap::new()) }
    }

    fn loads_for(&self, batch: u64) -> Arc<Vec<GraphLoad>> {
        let mut cache = self.loads.lock().expect("graph-load cache poisoned");
        Arc::clone(cache.entry(batch).or_insert_with(|| {
            Arc::new(
                self.workloads
                    .iter()
                    .map(|w| {
                        let graph = w.build(batch).expect("in-tree workloads always build");
                        GraphLoad::at_batch(&graph, batch)
                    })
                    .collect(),
            )
        }))
    }
}

impl Screener for SurrogateScreener {
    fn score(&self, point: &[usize]) -> f64 {
        let Some(cfg) = (self.decode)(point) else {
            return f64::NEG_INFINITY;
        };
        roofline_guide(&cfg, &self.loads_for(cfg.native_batch), self.metric)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fast_search::{
        Execution, Fidelity, ParamDomain, ParamSpace, RandomSearch, Study, StudyEval, StudySession,
        SurrogateTier, TrialResult, S0_BURN_IN,
    };

    /// One-axis toy space: the point scales compute and bandwidth together,
    /// so the roofline guide is strictly increasing whichever term binds.
    fn toy_space() -> ParamSpace {
        let mut space = ParamSpace::new();
        space.add("scale", ParamDomain::Pow2 { min: 1, max: 8 });
        space
    }

    fn toy_decode(space: ParamSpace) -> Box<DecodeFn> {
        Box::new(move |point| {
            let scale = space.value(point, 0);
            let mut cfg = fast_arch::presets::tpu_v3();
            cfg.pes_x = 2 * scale;
            cfg.dram_channels = scale;
            Some(cfg)
        })
    }

    fn s0_screener() -> SurrogateScreener {
        SurrogateScreener::new(
            GuideMetric::Qps,
            vec![Workload::Bert { seq_len: 128 }, Workload::ResNet50],
            toy_decode(toy_space()),
        )
    }

    fn screened(keep_fraction: f64, min_full: usize) -> Fidelity {
        Fidelity::Screened { keep_fraction, min_full, tier: SurrogateTier::S0 }
    }

    #[test]
    fn s0_burns_in_then_screens_and_rejects_undecodable_points() {
        // S0 fits nothing, but the study still holds the first S0_BURN_IN
        // trials at full fidelity to seed the Pareto archive.
        let space = toy_space();
        let sc = s0_screener();
        let mut eval = |p: &[usize]| TrialResult::Valid(sc.score(p)).into();
        let report = Study::new(&space, 32)
            .seed(3)
            .execution(Execution::Batched { batch_size: 4 })
            .fidelity(screened(0.25, 1))
            .run_session(
                &mut RandomSearch::new(),
                StudyEval::points(&mut eval),
                StudySession { screener: Some(&sc), ..StudySession::default() },
            )
            .expect("valid configuration");
        assert!(report.trials[..S0_BURN_IN].iter().all(|t| t.result.fully_evaluated()));
        assert!(report.trials[S0_BURN_IN..].iter().any(|t| !t.result.fully_evaluated()));
        assert!(sc.score(&[0]).is_finite());
        let rejecting = SurrogateScreener::new(
            GuideMetric::Qps,
            vec![Workload::Bert { seq_len: 128 }],
            Box::new(|_| None),
        );
        assert_eq!(rejecting.score(&[0]), f64::NEG_INFINITY);
    }

    #[test]
    fn s0_scores_are_deterministic_and_monotone_in_compute() {
        let sc = s0_screener();
        let scores: Vec<f64> = (0..4).map(|i| sc.score(&[i])).collect();
        for pair in scores.windows(2) {
            assert!(pair[1] > pair[0], "a uniformly bigger datapath must score higher: {scores:?}");
        }
        let again: Vec<f64> = (0..4).map(|i| sc.score(&[i])).collect();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&scores), bits(&again));
    }

    #[test]
    fn screened_study_thins_evaluations_with_perfect_rank_agreement() {
        // The evaluator returns exactly the S0 guide, so the surrogate is a
        // perfect oracle: spearman must be 1.0 and the frontier unharmed.
        let space = toy_space();
        let sc = s0_screener();
        let mut full = 0usize;
        let mut eval = |p: &[usize]| {
            full += 1;
            TrialResult::Valid(sc.score(p)).into()
        };
        let mut opt = RandomSearch::new();
        let report = Study::new(&space, 32)
            .seed(7)
            .execution(Execution::Batched { batch_size: 8 })
            .fidelity(screened(0.25, 2))
            .run_session(
                &mut opt,
                StudyEval::points(&mut eval),
                StudySession { screener: Some(&sc), ..StudySession::default() },
            )
            .expect("valid configuration");
        let fid = report.fidelity.expect("screened study reports fidelity");
        assert_eq!(fid.full_evals, full);
        assert!(fid.savings_factor() > 2.0, "factor = {}", fid.savings_factor());
        assert_eq!(fid.spearman, Some(1.0));
        assert!(report.best_objective.is_some());
    }
}
