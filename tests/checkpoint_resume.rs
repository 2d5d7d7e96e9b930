//! Integration tests for durable sweeps — the interrupted-equals-
//! uninterrupted contract, end to end:
//!
//! * a sweep killed after scenario `k` and resumed from its checkpoint
//!   produces bit-identical per-scenario frontiers to an uninterrupted run,
//!   with >90 % cache hits on the replayed scenarios;
//! * the contract holds under both batched and rayon-parallel execution
//!   (the sweep evaluates rounds across the rayon pool; the study-level
//!   checkpoint is exercised through the `Study` builder's file-based
//!   durability in both modes);
//! * the contract extends to [`Fidelity::Screened`] sweeps: the resumed
//!   run reproduces the exact surrogate accounting, not just the frontier;
//! * damaged checkpoint files degrade to a cold — but still correct — run.

use fast::core::{
    BudgetLevel, Checkpointer, Fidelity, Objective, ScenarioMatrix, SurrogateTier, SweepConfig,
    SweepRunner, SweepSession,
};
use fast::prelude::*;
use std::path::PathBuf;

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fast-ckpt-it-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A session checkpointing under `ck`.
fn durable(ck: &Checkpointer) -> SweepSession<'_> {
    SweepSession { checkpointer: Some(ck), ..SweepSession::default() }
}

fn matrix() -> ScenarioMatrix {
    ScenarioMatrix {
        budgets: vec![BudgetLevel::scaled(1.0), BudgetLevel::scaled(0.7)],
        objectives: vec![Objective::Qps, Objective::PerfPerTdp],
        domains: vec![WorkloadDomain::per_model(Workload::EfficientNet(EfficientNet::B0))],
    }
}

fn config() -> SweepConfig {
    SweepConfig { trials: 24, batch: 8, ..SweepConfig::default() }
}

/// The acceptance-criterion test: interrupt after scenario k, resume,
/// compare against uninterrupted — bit-identical frontiers, >90 % cache
/// hits on the replayed prefix.
#[test]
fn interrupted_sweep_resumes_bit_identically_with_warm_cache() {
    let uninterrupted = SweepRunner::new(matrix(), config()).run();
    assert_eq!(uninterrupted.scenarios.len(), 4);

    // "Kill" after scenario k = 2: a prefix run persists exactly what a
    // SIGKILL at that boundary would have left on disk.
    let ck = Checkpointer::new(scratch_dir("kill-after-k")).unwrap();
    let killed = SweepRunner::new(matrix(), config())
        .run_session(SweepSession { limit: Some(2), ..durable(&ck) });
    assert_eq!(killed.scenarios.len(), 2);
    assert!(ck.cache_path().exists(), "cache snapshot must exist at the kill point");
    assert!(ck.sweep_path().exists(), "scenario ledger must exist at the kill point");

    // A fresh runner — a fresh process, conceptually — resumes.
    let resumed = SweepRunner::new(matrix(), config())
        .run_session(SweepSession { resume: true, ..durable(&ck) });
    assert_eq!(resumed.scenarios.len(), uninterrupted.scenarios.len());
    for (a, b) in uninterrupted.scenarios.iter().zip(&resumed.scenarios) {
        assert_eq!(a.scenario.name, b.scenario.name);
        // Bit-identical: FrontierPoint equality is exact f64 equality.
        assert_eq!(a.frontier_points, b.frontier_points, "{}", a.scenario.name);
        assert_eq!(a.invalid_trials, b.invalid_trials, "{}", a.scenario.name);
        assert_eq!(a.best_objective.map(f64::to_bits), b.best_objective.map(f64::to_bits));
    }
    // Replayed scenarios answer from the loaded snapshot.
    for s in &resumed.scenarios[..2] {
        assert!(
            s.cache_hit_rate() > 0.9,
            "{}: replayed scenario hit rate {:.2} ({:?})",
            s.scenario.name,
            s.cache_hit_rate(),
            s.cache
        );
    }
}

/// Killing *mid-scenario* (between rounds) loses at most the in-flight
/// round: the resumed run still matches and the partially-completed
/// scenario replays its finished rounds from the cache snapshot.
#[test]
fn mid_scenario_kill_loses_at_most_one_round() {
    let uninterrupted = SweepRunner::new(matrix(), config()).run();

    // Simulate a mid-scenario kill: run only the first scenario (its
    // per-round cache saves happened), then delete the ledger so the
    // checkpoint looks like a run that died before any scenario boundary…
    let ck = Checkpointer::new(scratch_dir("mid-scenario")).unwrap();
    let _ = SweepRunner::new(matrix(), config())
        .run_session(SweepSession { limit: Some(1), ..durable(&ck) });
    std::fs::remove_file(ck.sweep_path()).unwrap();

    // …and resume: scenario 0 re-runs as cache traffic, everything matches.
    let resumed = SweepRunner::new(matrix(), config())
        .run_session(SweepSession { resume: true, ..durable(&ck) });
    for (a, b) in uninterrupted.scenarios.iter().zip(&resumed.scenarios) {
        assert_eq!(a.frontier_points, b.frontier_points, "{}", a.scenario.name);
    }
    assert!(
        resumed.scenarios[0].cache_hit_rate() > 0.9,
        "rounds finished before the kill must replay from the snapshot: {:?}",
        resumed.scenarios[0].cache
    );
}

/// The interrupted-equals-uninterrupted contract holds on the fidelity
/// axis too: an S0-*screened* sweep killed after scenario k and resumed
/// from a fresh runner replays bit-identically — frontiers,
/// trial records, and the full [`fast::core::FidelityReport`] accounting
/// (counts and rank-correlation floats included).
#[test]
fn interrupted_screened_sweep_resumes_bit_identically() {
    let screened = |mut config: SweepConfig| {
        config.fidelity =
            Fidelity::Screened { keep_fraction: 0.25, min_full: 2, tier: SurrogateTier::S0 };
        config
    };
    let uninterrupted = SweepRunner::new(matrix(), screened(config())).run();
    assert_eq!(uninterrupted.scenarios.len(), 4);
    for s in &uninterrupted.scenarios {
        let fid = s.fidelity.as_ref().expect("screened scenarios carry fidelity");
        assert_eq!(fid.full_evals + fid.screened_out, config().trials, "{}", s.scenario.name);
    }

    let ck = Checkpointer::new(scratch_dir("screened-kill")).unwrap();
    let killed = SweepRunner::new(matrix(), screened(config()))
        .run_session(SweepSession { limit: Some(2), ..durable(&ck) });
    assert_eq!(killed.scenarios.len(), 2);

    let resumed = SweepRunner::new(matrix(), screened(config()))
        .run_session(SweepSession { resume: true, ..durable(&ck) });
    assert_eq!(resumed.scenarios.len(), uninterrupted.scenarios.len());
    for (a, b) in uninterrupted.scenarios.iter().zip(&resumed.scenarios) {
        assert_eq!(a.scenario.name, b.scenario.name);
        assert_eq!(a.frontier_points, b.frontier_points, "{}", a.scenario.name);
        assert_eq!(a.invalid_trials, b.invalid_trials, "{}", a.scenario.name);
        assert_eq!(a.best_objective.map(f64::to_bits), b.best_objective.map(f64::to_bits));
        // FidelityReport equality is exact f64 equality on the correlation
        // statistics — the resumed surrogate must have reproduced the same
        // kept sets, pair sets, and therefore the same spearman/kendall.
        assert_eq!(a.fidelity, b.fidelity, "{}", a.scenario.name);
    }
}

/// The study-level checkpoint contract holds whether a round is evaluated
/// serially or across the rayon pool — the resumed frontier is
/// bit-identical to the uninterrupted one either way. This drives the
/// unified `Study` builder's file-based durability end to end: run 16 of 32
/// trials checkpointed ("the kill"), then rerun the full budget against the
/// same directory ("the resume").
#[test]
fn study_checkpoint_contract_holds_for_sequential_and_parallel_drivers() {
    let dirs = [MetricDirection::Maximize, MetricDirection::Minimize, MetricDirection::Minimize];
    let space = FastSpace::table3();
    let evaluator = Evaluator::new(
        vec![Workload::EfficientNet(EfficientNet::B0)],
        Objective::PerfPerTdp,
        Budget::paper_default(),
    );
    let seed_points = vec![
        space.encode(&fast::arch::presets::fast_large(), &SimOptions::default()),
        space.encode(&fast::arch::presets::fast_small(), &SimOptions::default()),
    ];

    for parallel in [false, true] {
        let execution = if parallel {
            Execution::Parallel { threads: 8 }
        } else {
            Execution::Batched { batch_size: 8 }
        };
        let run = |trials: usize, durability: Durability, e: &Evaluator| {
            let score = |p: &[usize]| match e.evaluate_point(&space, p) {
                Ok(ev) => MultiObjective::valid(
                    vec![ev.objective_value, ev.tdp_w, ev.area_mm2],
                    ev.objective_value,
                ),
                Err(_) => MultiObjective::Invalid,
            };
            let mut opt = make_seeded(&seed_points);
            Study::new(space.space(), trials)
                .seed(5)
                .objective(StudyObjective::pareto(&dirs))
                .execution(execution)
                .durability(durability)
                .run(opt.as_mut(), StudyEval::shared(&score))
                .expect("valid study configuration")
                .into_pareto_result()
        };

        // Uninterrupted run, fresh cache.
        let e1 = evaluator.fresh_eval_cache();
        let straight = run(32, Durability::Ephemeral, &e1);

        // Interrupted after round 2 (16 trials), then resumed from disk.
        let dir = scratch_dir(&format!("study-level-{parallel}"));
        let e2 = evaluator.fresh_eval_cache();
        let _ = run(16, Durability::Checkpointed { dir: dir.clone(), every: 1 }, &e2);
        let resumed = run(32, Durability::Checkpointed { dir, every: 1 }, &e2);

        assert_eq!(resumed.frontier, straight.frontier, "parallel={parallel}");
        assert_eq!(
            resumed.guide_convergence.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            straight.guide_convergence.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "parallel={parallel}"
        );
        assert_eq!(resumed.trials, straight.trials, "parallel={parallel}");
    }
}

/// Seed-injecting optimizer equivalent to the sweep's (LCS would also work;
/// random keeps the test fast and its proposals domain-independent).
fn make_seeded(seeds: &[Vec<usize>]) -> Box<dyn fast::search::Optimizer> {
    struct Seeded {
        inner: fast::search::RandomSearch,
        seeds: Vec<Vec<usize>>,
        next: usize,
    }
    impl fast::search::Optimizer for Seeded {
        fn name(&self) -> &'static str {
            "seeded-random"
        }
        fn propose(
            &mut self,
            space: &fast::search::ParamSpace,
            rng: &mut rand::rngs::StdRng,
        ) -> Vec<usize> {
            if self.next < self.seeds.len() {
                self.next += 1;
                self.seeds[self.next - 1].clone()
            } else {
                self.inner.propose(space, rng)
            }
        }
        fn observe(&mut self, space: &fast::search::ParamSpace, trial: &fast::search::Trial) {
            self.inner.observe(space, trial);
        }
        fn save_state(&self) -> fast::search::OptimizerState {
            fast::search::OptimizerState::Seeded {
                seeds: self.seeds.clone(),
                next: self.next,
                inner: Box::new(self.inner.save_state()),
            }
        }
        fn load_state(&mut self, state: &fast::search::OptimizerState) -> bool {
            let fast::search::OptimizerState::Seeded { seeds, next, inner } = state else {
                return false;
            };
            if *next > seeds.len() || !self.inner.load_state(inner) {
                return false;
            }
            self.seeds = seeds.clone();
            self.next = *next;
            true
        }
    }
    Box::new(Seeded { inner: fast::search::RandomSearch::new(), seeds: seeds.to_vec(), next: 0 })
}

/// Corrupt checkpoint artifacts must never poison a resume: the run falls
/// back to cold and still matches the uninterrupted result.
#[test]
fn corrupt_checkpoints_degrade_to_cold_but_correct_runs() {
    let uninterrupted = SweepRunner::new(matrix(), config()).run();

    for (name, damage) in
        [("truncated", b"FASTEVC1".to_vec()), ("garbage", vec![0x5Au8; 512]), ("empty", Vec::new())]
    {
        let ck = Checkpointer::new(scratch_dir(&format!("corrupt-{name}"))).unwrap();
        let _ = SweepRunner::new(matrix(), config())
            .run_session(SweepSession { limit: Some(2), ..durable(&ck) });
        std::fs::write(ck.cache_path(), &damage).unwrap();
        std::fs::write(ck.sweep_path(), &damage).unwrap();
        let resumed = SweepRunner::new(matrix(), config())
            .run_session(SweepSession { resume: true, ..durable(&ck) });
        for (a, b) in uninterrupted.scenarios.iter().zip(&resumed.scenarios) {
            assert_eq!(a.frontier_points, b.frontier_points, "{name}: {}", a.scenario.name);
        }
    }
}
