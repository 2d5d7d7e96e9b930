//! The unified study driver: one builder, one `run`, every axis.
//!
//! The paper's methodology is a single loop — propose, evaluate, observe —
//! parameterized by objective, execution strategy, and durability. Earlier
//! revisions of this crate exposed that loop through a cross-product of free
//! functions (`run_study`, `run_study_batched`, `run_study_pareto_batched`,
//! `run_study_*_resumable`, …) that doubled with every new axis. [`Study`]
//! replaces them with orthogonal, independently-settable axes:
//!
//! * [`Study::objective`] — [`StudyObjective::Single`] (the scalar incumbent
//!   study) or [`StudyObjective::Pareto`] (a [`ParetoArchive`] over ≥ 2
//!   metric directions);
//! * [`Study::execution`] — [`Execution::Sequential`] (one shared RNG, the
//!   classic propose→evaluate→observe loop), [`Execution::Batched`] (rounds
//!   of per-trial [`trial_rng`] proposals) or [`Execution::Parallel`]
//!   (batched rounds evaluated concurrently);
//! * [`Study::durability`] — [`Durability::Ephemeral`] or
//!   [`Durability::Checkpointed`] (a checkpoint file per round interval;
//!   re-running the same study against the same directory resumes it
//!   bit-identically);
//! * [`Study::seed`] — the reproducibility seed.
//!
//! Configurations are validated at [`Study::run`] time with a typed
//! [`StudyConfigError`] instead of scattered panics, and every run returns
//! one [`StudyReport`].
//!
//! ```
//! use fast_search::{Execution, ParamDomain, ParamSpace, RandomSearch};
//! use fast_search::{Study, StudyEval, TrialResult};
//!
//! let mut space = ParamSpace::new();
//! space.add("pe_count", ParamDomain::Pow2 { min: 1, max: 64 });
//! let mut opt = RandomSearch::new();
//! let mut eval = |p: &[usize]| TrialResult::Valid(space.value(p, 0) as f64).into();
//! let report = Study::new(&space, 50)
//!     .execution(Execution::Batched { batch_size: 8 })
//!     .seed(0)
//!     .run(&mut opt, StudyEval::points(&mut eval))
//!     .expect("valid configuration");
//! assert_eq!(report.best_objective, Some(64.0));
//! ```
//!
//! # Determinism
//!
//! [`Execution::Batched`] and [`Execution::Parallel`] derive trial `i`'s
//! randomness from [`trial_rng`]`(seed, i)`, so a study depends only on
//! `(seed, round size, optimizer, objective function)` — never on thread
//! scheduling. `Parallel { threads: n }` is *defined* as `Batched
//! { batch_size: n }` with the round's points scored concurrently, so the
//! two produce bit-identical reports for equal round sizes.
//! [`Execution::Sequential`] instead threads one `StdRng` through every
//! proposal (the historical `run_study` semantics): reproducible per seed,
//! but a different proposal stream than `Batched { batch_size: 1 }`.

use crate::optimizer::{Optimizer, Trial, TrialResult};
use crate::pareto::{
    FrontierPoint, MetricDirection, MultiObjective, MultiTrial, ParetoArchive, ParetoStudyResult,
};
use crate::screen::{Fidelity, FidelityReport, ScreenEngine, Screener};
use crate::snapshot::{
    validate_and_restore, FidelityCheckpoint, OptimizerState, ParetoCheckpoint, StudyCheckpoint,
};
use crate::space::ParamSpace;
use crate::study::{trial_rng, StudyResult};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;
use serde::bin::{self, Decode, Encode, Reader, Writer};
use std::fmt;
use std::path::{Path, PathBuf};

/// What the study optimizes: one scalar, or a Pareto frontier over several
/// metrics (the optimizer still climbs each trial's scalar *guide*).
#[derive(Debug, Clone, PartialEq)]
pub enum StudyObjective {
    /// Track a single scalar incumbent (the guide of each valid trial);
    /// metric vectors returned by the evaluator are ignored.
    Single,
    /// Maintain a [`ParetoArchive`] over the given metric directions while
    /// the optimizer maximizes the per-trial guide. Needs ≥ 2 directions.
    Pareto {
        /// One direction per tracked metric, in metric order.
        directions: Vec<MetricDirection>,
    },
}

impl StudyObjective {
    /// Convenience constructor for the Pareto variant.
    #[must_use]
    pub fn pareto(directions: &[MetricDirection]) -> Self {
        StudyObjective::Pareto { directions: directions.to_vec() }
    }
}

/// How trials are grouped and evaluated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Execution {
    /// The classic loop: one shared RNG threaded through every proposal,
    /// one evaluation at a time, per-trial observation.
    Sequential,
    /// Rounds of `batch_size` proposals with per-trial [`trial_rng`]
    /// generators; the evaluator scores a whole round before the optimizer
    /// observes it.
    Batched {
        /// Trials proposed and evaluated per round (≥ 1).
        batch_size: usize,
    },
    /// [`Execution::Batched`] with rounds of `threads` points scored
    /// concurrently across the rayon pool. Requires a thread-safe
    /// [`StudyEval::shared`] evaluator (or [`StudyEval::batch`], which owns
    /// its parallelism). Bit-identical to `Batched { batch_size: threads }`.
    Parallel {
        /// Round size == maximum evaluations in flight (≥ 1).
        threads: usize,
    },
}

/// Whether (and where) the study persists round checkpoints.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum Durability {
    /// Nothing is persisted; an interrupted study starts over.
    #[default]
    Ephemeral,
    /// Write a checkpoint file (`study.bin` under `dir`) every `every`
    /// rounds (and at study completion). Running the same configuration
    /// against the same directory resumes from the file bit-identically;
    /// a missing, damaged, or differently-configured file — including one
    /// written by a different optimizer — degrades to a cold start with a
    /// logged warning, never a wrong result. (Custom optimizers without
    /// snapshot support all save [`OptimizerState::Opaque`] and so cannot
    /// be told apart: resuming one with a differently-configured optimizer
    /// panics when its replayed proposals diverge from the record.)
    Checkpointed {
        /// Checkpoint directory (created if absent; must be writable).
        dir: PathBuf,
        /// Rounds between saves (≥ 1). `1` saves every round.
        every: usize,
    },
}

/// A [`Study`] configuration rejected at [`Study::run`] time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StudyConfigError {
    /// `Batched { batch_size: 0 }`.
    EmptyBatch,
    /// `Parallel { threads: 0 }`.
    NoThreads,
    /// A Pareto objective with fewer than two metric directions.
    TooFewMetrics {
        /// Number of directions supplied.
        got: usize,
    },
    /// `Checkpointed { every: 0, .. }`.
    ZeroCheckpointInterval,
    /// The checkpoint directory cannot be created or written.
    CheckpointDirUnwritable {
        /// The offending directory.
        dir: PathBuf,
        /// The underlying I/O error.
        reason: String,
    },
    /// [`Execution::Parallel`] with a serial-only [`StudyEval::points`]
    /// evaluator.
    SerialEvalUnderParallelExecution,
    /// [`Fidelity::Screened`] with a `keep_fraction` outside `(0, 1]`.
    KeepFractionOutOfRange,
    /// [`Fidelity::Screened`] run without a screener to rank rounds with —
    /// set [`StudySession::screener`] and use [`Study::run_session`].
    ScreenedWithoutScreener,
    /// [`Fidelity::Screened`] under [`Execution::Sequential`]: rounds of
    /// one always keep their single candidate, so screening cannot apply.
    ScreenedSequentialExecution,
}

impl fmt::Display for StudyConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StudyConfigError::EmptyBatch => {
                write!(f, "Batched execution needs batch_size >= 1")
            }
            StudyConfigError::NoThreads => write!(f, "Parallel execution needs threads >= 1"),
            StudyConfigError::TooFewMetrics { got } => {
                write!(f, "a Pareto objective needs >= 2 metric directions, got {got}")
            }
            StudyConfigError::ZeroCheckpointInterval => {
                write!(f, "Checkpointed durability needs every >= 1 (rounds between saves)")
            }
            StudyConfigError::CheckpointDirUnwritable { dir, reason } => {
                write!(f, "checkpoint directory {} is not writable: {reason}", dir.display())
            }
            StudyConfigError::SerialEvalUnderParallelExecution => write!(
                f,
                "Parallel execution needs StudyEval::shared (scored across threads) or \
                 StudyEval::batch (the closure owns its parallelism); StudyEval::points \
                 is serial-only"
            ),
            StudyConfigError::KeepFractionOutOfRange => {
                write!(f, "Screened fidelity needs keep_fraction in (0, 1]")
            }
            StudyConfigError::ScreenedWithoutScreener => {
                write!(f, "Screened fidelity needs a screener; set StudySession::screener")
            }
            StudyConfigError::ScreenedSequentialExecution => write!(
                f,
                "Screened fidelity needs Batched or Parallel execution (sequential \
                 rounds of one trial always keep their candidate)"
            ),
        }
    }
}

impl std::error::Error for StudyConfigError {}

/// The evaluation function handed to [`Study::run`] — one design point in,
/// one [`MultiObjective`] out. Three shapes cover every caller:
///
/// * [`StudyEval::points`] — a per-point `FnMut` closure (may capture
///   mutable state); scored one point at a time on the calling thread.
/// * [`StudyEval::batch`] — a whole-round `FnMut` closure; the study hands
///   it each round and trusts it to return one result per point *in
///   proposal order* (it may parallelize internally).
/// * [`StudyEval::shared`] — a thread-safe per-point `Fn`; the only shape
///   [`Execution::Parallel`] can fan out itself.
///
/// Single-objective evaluators can return [`TrialResult`] and convert with
/// `.into()` ([`MultiObjective`] implements `From<TrialResult>`).
pub enum StudyEval<'a> {
    /// Serial per-point evaluation.
    Points(&'a mut dyn FnMut(&[usize]) -> MultiObjective),
    /// Whole-round evaluation; must return one result per point, in order.
    Batch(&'a mut dyn FnMut(&[Vec<usize>]) -> Vec<MultiObjective>),
    /// Thread-safe per-point evaluation.
    Shared(&'a (dyn Fn(&[usize]) -> MultiObjective + Sync)),
}

impl<'a> StudyEval<'a> {
    /// Wraps a serial per-point closure.
    pub fn points<F: FnMut(&[usize]) -> MultiObjective>(f: &'a mut F) -> Self {
        StudyEval::Points(f)
    }

    /// Wraps a whole-round closure (one result per point, proposal order).
    pub fn batch<F: FnMut(&[Vec<usize>]) -> Vec<MultiObjective>>(f: &'a mut F) -> Self {
        StudyEval::Batch(f)
    }

    /// Wraps a thread-safe per-point function.
    pub fn shared<F: Fn(&[usize]) -> MultiObjective + Sync>(f: &'a F) -> Self {
        StudyEval::Shared(f)
    }

    /// Scores one round. `parallel` only affects [`StudyEval::Shared`],
    /// which then fans the round out across the rayon pool (results are
    /// collected in proposal order either way).
    fn eval(&mut self, points: &[Vec<usize>], parallel: bool) -> Vec<MultiObjective> {
        match self {
            StudyEval::Points(f) => points.iter().map(|p| f(p)).collect(),
            StudyEval::Batch(f) => f(points),
            StudyEval::Shared(f) => {
                if parallel {
                    points.par_iter().map(|p| f(p)).collect()
                } else {
                    points.iter().map(|p| f(p)).collect()
                }
            }
        }
    }
}

impl fmt::Debug for StudyEval<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            StudyEval::Points(_) => "StudyEval::Points(..)",
            StudyEval::Batch(_) => "StudyEval::Batch(..)",
            StudyEval::Shared(_) => "StudyEval::Shared(..)",
        })
    }
}

/// What [`Durability::Checkpointed`] did during a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointInfo {
    /// The checkpoint file.
    pub path: PathBuf,
    /// Trials restored from the file before the first round (0 on a cold
    /// start).
    pub resumed_trials: usize,
    /// Checkpoints written during this run.
    pub saves: usize,
}

/// The one result type of [`Study::run`]: scalar incumbent, convergence,
/// trials, the Pareto frontier (when tracked), and checkpoint info (when
/// durable).
#[derive(Debug, Clone)]
pub struct StudyReport {
    /// Optimizer name.
    pub optimizer: String,
    /// Best point found (index encoding), if any trial was valid.
    pub best_point: Option<Vec<usize>>,
    /// Best guide objective found.
    pub best_objective: Option<f64>,
    /// Best-so-far guide after each trial (`NaN` until the first valid
    /// trial).
    pub convergence: Vec<f64>,
    /// Number of invalid (rejected) trials.
    pub invalid_trials: usize,
    /// All trials in proposal order. Single-objective studies record an
    /// empty metric vector per valid trial (only the guide is tracked).
    pub trials: Vec<MultiTrial>,
    /// The non-dominated set in canonical order — `Some` iff the study ran
    /// with [`StudyObjective::Pareto`].
    pub frontier: Option<Vec<FrontierPoint>>,
    /// Checkpoint activity — `Some` iff the study ran with
    /// [`Durability::Checkpointed`].
    pub checkpoint: Option<CheckpointInfo>,
    /// Screening activity — `Some` iff the study ran with
    /// [`Fidelity::Screened`] (via [`Study::run_session`] with a screener).
    pub fidelity: Option<FidelityReport>,
}

impl StudyReport {
    /// Converts into the scalar [`StudyResult`] shape (metric vectors are
    /// dropped; each trial keeps its guide).
    #[must_use]
    pub fn into_study_result(self) -> StudyResult {
        StudyResult {
            optimizer: self.optimizer,
            best_point: self.best_point,
            best_objective: self.best_objective,
            convergence: self.convergence,
            invalid_trials: self.invalid_trials,
            trials: self
                .trials
                .into_iter()
                .map(|t| Trial { result: scalar_of(&t.result), point: t.point })
                .collect(),
        }
    }

    /// Converts into the multi-objective [`ParetoStudyResult`] shape.
    ///
    /// # Panics
    /// Panics if the study did not run with [`StudyObjective::Pareto`]
    /// (there is no frontier to report).
    #[must_use]
    pub fn into_pareto_result(self) -> ParetoStudyResult {
        ParetoStudyResult {
            optimizer: self.optimizer,
            frontier: self.frontier.expect("into_pareto_result on a single-objective study"),
            guide_convergence: self.convergence,
            invalid_trials: self.invalid_trials,
            trials: self.trials,
        }
    }
}

/// The guide scalar of a stored trial outcome. Screened-out trials project
/// to [`TrialResult::Invalid`]: the optimizer must not climb surrogate
/// scores as if they had been simulated, so it sees them as rejections.
fn scalar_of(result: &MultiObjective) -> TrialResult {
    match result {
        MultiObjective::Valid { guide, .. } => TrialResult::Valid(*guide),
        MultiObjective::Invalid | MultiObjective::Surrogate { .. } => TrialResult::Invalid,
    }
}

/// A study checkpoint at a round boundary, in whichever shape the objective
/// axis produces. The legacy `*_resumable` drivers thread these through
/// in-memory hooks; [`Durability::Checkpointed`] persists them to disk.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum RoundSnapshot {
    /// A [`StudyObjective::Single`] study's checkpoint.
    Scalar(StudyCheckpoint),
    /// A [`StudyObjective::Pareto`] study's checkpoint.
    Pareto(ParetoCheckpoint),
}

impl RoundSnapshot {
    /// Completed trials at the snapshot.
    pub(crate) fn trials_done(&self) -> usize {
        match self {
            RoundSnapshot::Scalar(ck) => ck.trials_done(),
            RoundSnapshot::Pareto(ck) => ck.trials_done(),
        }
    }

    /// The optimizer state recorded at the snapshot.
    fn optimizer_state(&self) -> &OptimizerState {
        match self {
            RoundSnapshot::Scalar(ck) => &ck.optimizer,
            RoundSnapshot::Pareto(ck) => &ck.optimizer,
        }
    }
}

/// Cheap per-round progress, handed to observers after every evaluated
/// round (per trial under [`Execution::Sequential`]). Everything here is
/// O(1) to produce — no trial history, no archive clone — so observing a
/// study costs nothing measurable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StudyProgress {
    /// Trials evaluated so far (monotone; starts at the restored count on a
    /// resumed study).
    pub trials_done: usize,
    /// The study's trial budget.
    pub total_trials: usize,
    /// Best guide objective observed so far (`None` while all trials were
    /// invalid).
    pub best_objective: Option<f64>,
    /// Safe-search rejections so far.
    pub invalid_trials: usize,
    /// Current non-dominated-set size (`None` for single-objective
    /// studies).
    pub frontier_size: Option<usize>,
    /// Trials that reached the real evaluator so far (`None` for
    /// [`Fidelity::Exact`] studies, where it would equal `trials_done`).
    pub full_evals: Option<usize>,
}

/// A round hook: called after every evaluated round with that round's
/// progress and a thunk building its snapshot. The thunk clones the full
/// accumulated state (trials, convergence, archive, optimizer), so hooks
/// that thin their save cadence only call it on the rounds they actually
/// persist.
pub(crate) type RoundHook<'h> = &'h mut dyn FnMut(&StudyProgress, &dyn Fn() -> RoundSnapshot);

/// Whether a checkpoint's optimizer state (`ck`, mid-run) was produced by
/// an optimizer configured like `fresh` (a just-built optimizer's state):
/// same algorithm *and* same hyperparameters/seed designs, ignoring the
/// run-accumulated fields (history, particles, cursors). Used to reject a
/// checkpoint file written by a different or differently-configured
/// algorithm before the resume path silently continues the old
/// configuration or panics on a diverging replay. Two
/// [`OptimizerState::Opaque`] states are indistinguishable — custom
/// optimizers without snapshot support are the caller's responsibility.
fn same_optimizer_config(ck: &OptimizerState, fresh: &OptimizerState) -> bool {
    match (ck, fresh) {
        (OptimizerState::Random, OptimizerState::Random)
        | (OptimizerState::Opaque, OptimizerState::Opaque) => true,
        (
            OptimizerState::Lcs { population: pa, pull_global: ga, mutate: ma, .. },
            OptimizerState::Lcs { population: pb, pull_global: gb, mutate: mb, .. },
        ) => pa == pb && ga.to_bits() == gb.to_bits() && ma.to_bits() == mb.to_bits(),
        (
            OptimizerState::Tpe { gamma: ga, candidates: ca, startup: sa, .. },
            OptimizerState::Tpe { gamma: gb, candidates: cb, startup: sb, .. },
        ) => ga.to_bits() == gb.to_bits() && ca == cb && sa == sb,
        (
            OptimizerState::Seeded { seeds: sa, inner: ia, .. },
            OptimizerState::Seeded { seeds: sb, inner: ib, .. },
        ) => sa == sb && same_optimizer_config(ia, ib),
        _ => false,
    }
}

/// `batch_size` recorded in checkpoints of [`Execution::Sequential`]
/// studies. The shared-RNG loop has no rounds, and the legacy batched
/// drivers clamp their batch size to ≥ 1, so `0` is unambiguous.
const SEQUENTIAL_MARKER: usize = 0;

/// Checkpoint file name under [`Durability::Checkpointed`]'s directory.
const STUDY_FILE_NAME: &str = "study.bin";
/// Magic prefix of study checkpoint files.
const STUDY_MAGIC: [u8; 8] = *b"FASTSTU1";
/// Checkpoint file format version; bump on layout changes.
/// v2: checkpoints carry an optional [`FidelityCheckpoint`] (screening
/// counters, correlation pairs, screened-out trial markings).
/// v3: the [`FidelityCheckpoint`] no longer carries a screener state blob.
const STUDY_VERSION: u32 = 3;

/// Seed salt of the screening exploration RNG. Each screened round draws
/// its exploration pick from `trial_rng(seed ^ SCREEN_SEED_SALT,
/// round_start)` — a pure function of the study seed and the round's first
/// trial index, so the "screening RNG cursor" is the completed-trial count
/// the checkpoint already records, and a resumed study re-derives the
/// exact generator a straight-through run would have used.
const SCREEN_SEED_SALT: u64 = 0x5c3e_e21d_0b5c_a17e;

/// Optional hooks of [`Study::run_session`]; [`Study::run`] is the shorthand
/// for the default, hook-free session.
#[derive(Default)]
pub struct StudySession<'a> {
    /// Ranks each proposal round — required by [`Fidelity::Screened`].
    /// Under [`Fidelity::Exact`] it is ignored (never called) and the run is
    /// bit-identical to one without it.
    pub screener: Option<&'a dyn Screener>,
    /// Called with a [`StudyProgress`] after every evaluated round (per
    /// trial under [`Execution::Sequential`]) — the live-progress feed a
    /// serving process streams to its clients. Works under every durability
    /// axis: a resumed checkpointed study reports progress from its restored
    /// trial count onward. Observation never changes what is computed.
    pub observer: Option<&'a mut dyn FnMut(&StudyProgress)>,
}

/// The unified study driver. See the [module docs](self) for the axis
/// semantics and a runnable example.
#[derive(Debug, Clone)]
pub struct Study<'s> {
    space: &'s ParamSpace,
    trials: usize,
    objective: StudyObjective,
    execution: Execution,
    durability: Durability,
    fidelity: Fidelity,
    seed: u64,
}

impl<'s> Study<'s> {
    /// A study of `trials` evaluations over `space`, with default axes:
    /// [`StudyObjective::Single`], [`Execution::Sequential`],
    /// [`Durability::Ephemeral`], seed 0.
    #[must_use]
    pub fn new(space: &'s ParamSpace, trials: usize) -> Self {
        Study {
            space,
            trials,
            objective: StudyObjective::Single,
            execution: Execution::Sequential,
            durability: Durability::Ephemeral,
            fidelity: Fidelity::Exact,
            seed: 0,
        }
    }

    /// Sets the objective axis.
    #[must_use]
    pub fn objective(mut self, objective: StudyObjective) -> Self {
        self.objective = objective;
        self
    }

    /// Sets the execution axis.
    #[must_use]
    pub fn execution(mut self, execution: Execution) -> Self {
        self.execution = execution;
        self
    }

    /// Sets the durability axis.
    #[must_use]
    pub fn durability(mut self, durability: Durability) -> Self {
        self.durability = durability;
        self
    }

    /// Sets the fidelity axis. [`Fidelity::Screened`] studies must run
    /// through [`Study::run_session`] with a [`StudySession::screener`].
    #[must_use]
    pub fn fidelity(mut self, fidelity: Fidelity) -> Self {
        self.fidelity = fidelity;
        self
    }

    /// Sets the reproducibility seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// `(round_size, parallel, sequential)` of the execution axis.
    fn shape(&self) -> (usize, bool, bool) {
        match self.execution {
            Execution::Sequential => (1, false, true),
            Execution::Batched { batch_size } => (batch_size.max(1), false, false),
            Execution::Parallel { threads } => (threads.max(1), true, false),
        }
    }

    /// Validates the configuration against the evaluator shape.
    fn validate(&self, eval: &StudyEval<'_>) -> Result<(), StudyConfigError> {
        match self.execution {
            Execution::Batched { batch_size: 0 } => return Err(StudyConfigError::EmptyBatch),
            Execution::Parallel { threads: 0 } => return Err(StudyConfigError::NoThreads),
            Execution::Parallel { .. } => {
                if matches!(eval, StudyEval::Points(_)) {
                    return Err(StudyConfigError::SerialEvalUnderParallelExecution);
                }
            }
            Execution::Sequential | Execution::Batched { .. } => {}
        }
        if let StudyObjective::Pareto { directions } = &self.objective {
            if directions.len() < 2 {
                return Err(StudyConfigError::TooFewMetrics { got: directions.len() });
            }
        }
        if let Fidelity::Screened { keep_fraction, .. } = self.fidelity {
            // NaN fails the first comparison and lands here too.
            if !(keep_fraction > 0.0 && keep_fraction <= 1.0) {
                return Err(StudyConfigError::KeepFractionOutOfRange);
            }
            if self.execution == Execution::Sequential {
                return Err(StudyConfigError::ScreenedSequentialExecution);
            }
        }
        if let Durability::Checkpointed { dir, every } = &self.durability {
            if *every == 0 {
                return Err(StudyConfigError::ZeroCheckpointInterval);
            }
            let unwritable = |e: std::io::Error| StudyConfigError::CheckpointDirUnwritable {
                dir: dir.clone(),
                reason: e.to_string(),
            };
            std::fs::create_dir_all(dir).map_err(unwritable)?;
            let probe = dir.join(".study_write_probe");
            std::fs::write(&probe, b"probe").map_err(unwritable)?;
            let _ = std::fs::remove_file(&probe);
        }
        Ok(())
    }

    /// Runs the study.
    ///
    /// # Errors
    /// Returns a [`StudyConfigError`] when the configured axes are invalid
    /// (zero batch/threads, < 2 Pareto metrics, an unusable checkpoint
    /// directory, or a serial evaluator under parallel execution) — before
    /// any trial runs.
    ///
    /// # Panics
    /// Panics on evaluator-contract violations (wrong result count per
    /// round, wrong metric arity, NaN metrics offered to the archive) —
    /// caller bugs, exactly as the drivers this API absorbed did.
    pub fn run(
        &self,
        optimizer: &mut dyn Optimizer,
        eval: StudyEval<'_>,
    ) -> Result<StudyReport, StudyConfigError> {
        self.run_session(optimizer, eval, StudySession::default())
    }

    /// The general entry point: [`Study::run`] with the session's optional
    /// screener and progress observer (see [`StudySession`]).
    ///
    /// # Errors
    /// As [`Study::run`], plus
    /// [`StudyConfigError::ScreenedWithoutScreener`] for a
    /// [`Fidelity::Screened`] study without a screener.
    ///
    /// # Panics
    /// As [`Study::run`].
    pub fn run_session(
        &self,
        optimizer: &mut dyn Optimizer,
        eval: StudyEval<'_>,
        session: StudySession<'_>,
    ) -> Result<StudyReport, StudyConfigError> {
        let StudySession { screener, mut observer } = session;
        self.validate(&eval)?;
        let screen = match (self.fidelity, screener) {
            (Fidelity::Screened { .. }, Some(sc)) => Some(ScreenEngine::new(sc, self.fidelity)),
            (Fidelity::Screened { .. }, None) => {
                return Err(StudyConfigError::ScreenedWithoutScreener)
            }
            (Fidelity::Exact, _) => None,
        };
        match &self.durability {
            Durability::Ephemeral => match observer {
                None => Ok(self.run_hooked(optimizer, eval, screen, None, None)),
                Some(obs) => {
                    let mut hook = |p: &StudyProgress, _make: &dyn Fn() -> RoundSnapshot| obs(p);
                    Ok(self.run_hooked(optimizer, eval, screen, None, Some(&mut hook)))
                }
            },
            Durability::Checkpointed { dir, every } => {
                let path = dir.join(STUDY_FILE_NAME);
                let (round_size, _, sequential) = self.shape();
                let resume = match load_snapshot(&path, self, &*optimizer, round_size, sequential) {
                    SnapshotLoad::Loaded(snap) => Some(*snap),
                    SnapshotLoad::Missing => None,
                    // Transiently unreadable: the file may hold real
                    // progress a later rerun can resume from, so neither
                    // overwrite it with this run's saves nor quarantine
                    // it — run undurably and leave it in place.
                    SnapshotLoad::Unreadable => {
                        eprintln!(
                            "warning: checkpoint {} is unreadable right now; running without \
                             saves so the file is preserved",
                            path.display()
                        );
                        let mut hook = |p: &StudyProgress, _make: &dyn Fn() -> RoundSnapshot| {
                            if let Some(obs) = observer.as_deref_mut() {
                                obs(p);
                            }
                        };
                        let mut report =
                            self.run_hooked(optimizer, eval, screen, None, Some(&mut hook));
                        report.checkpoint =
                            Some(CheckpointInfo { path, resumed_trials: 0, saves: 0 });
                        return Ok(report);
                    }
                    SnapshotLoad::Rejected => {
                        // The file was read but is damaged or belongs to a
                        // different configuration. The cold run's first
                        // save would overwrite it — quarantine it instead
                        // so whatever progress it holds survives a
                        // mis-typed rerun.
                        quarantine_rejected(&path);
                        None
                    }
                };
                let resumed_trials = resume.as_ref().map_or(0, RoundSnapshot::trials_done);
                let every = *every;
                let n_trials = self.trials;
                let mut rounds = 0usize;
                let mut saves = 0usize;
                let mut report = {
                    // Off-cadence rounds never call `make`, so they skip
                    // the full-state snapshot clone entirely.
                    let mut hook = |p: &StudyProgress, make: &dyn Fn() -> RoundSnapshot| {
                        if let Some(obs) = observer.as_deref_mut() {
                            obs(p);
                        }
                        rounds += 1;
                        if rounds.is_multiple_of(every) || p.trials_done == n_trials {
                            saves += usize::from(save_snapshot(&path, &make()));
                        }
                    };
                    self.run_hooked(optimizer, eval, screen, resume, Some(&mut hook))
                };
                report.checkpoint = Some(CheckpointInfo { path, resumed_trials, saves });
                Ok(report)
            }
        }
    }

    /// The engine behind [`Study::run`]:
    /// optionally restores an in-memory snapshot before the first round and
    /// calls `on_round` after every evaluated round (per-trial under
    /// [`Execution::Sequential`]) with the trial count and a lazy snapshot
    /// builder.
    ///
    /// Unlike the disk path (which degrades to a cold start on any
    /// mismatch), a programmatic `resume` snapshot that disagrees with the
    /// study configuration panics — it is a caller bug, and silently
    /// diverging from the bit-identity contract would be worse.
    pub(crate) fn run_hooked(
        &self,
        optimizer: &mut dyn Optimizer,
        mut eval: StudyEval<'_>,
        mut screen: Option<ScreenEngine<'_>>,
        resume: Option<RoundSnapshot>,
        mut on_round: Option<RoundHook<'_>>,
    ) -> StudyReport {
        let (round_size, parallel, sequential) = self.shape();
        let mut st = EngineState::new(&self.objective);
        if sequential {
            assert!(screen.is_none(), "validate rejects Screened + Sequential");
            let mut rng = StdRng::seed_from_u64(self.seed);
            if let Some(snap) = resume {
                self.restore_sequential(&mut st, optimizer, &mut rng, snap);
            }
            while st.trials.len() < self.trials {
                let point = optimizer.propose(self.space, &mut rng);
                debug_assert!(self.space.contains(&point));
                let results = eval.eval(std::slice::from_ref(&point), false);
                assert_eq!(results.len(), 1, "evaluator must score every proposed point");
                let result = results.into_iter().next().expect("length asserted");
                let scalar = st.absorb(&point, &result);
                let trial = Trial { point: point.clone(), result: scalar };
                optimizer.observe(self.space, &trial);
                st.push_trial(point, result);
                if let Some(hook) = on_round.as_deref_mut() {
                    let opt_ref: &dyn Optimizer = optimizer;
                    let progress = self.progress(&st, None);
                    hook(&progress, &|| self.snapshot(&st, SEQUENTIAL_MARKER, opt_ref, None));
                }
            }
        } else {
            if let Some(snap) = resume {
                self.restore_batched(&mut st, optimizer, round_size, snap, screen.as_mut());
            }
            let mut start = st.trials.len();
            while start < self.trials {
                let round = round_size.min(self.trials - start);
                let mut rngs: Vec<StdRng> =
                    (start..start + round).map(|i| trial_rng(self.seed, i)).collect();
                let points = optimizer.propose_batch(self.space, &mut rngs);
                assert_eq!(points.len(), round, "optimizer must propose one point per RNG");
                debug_assert!(points.iter().all(|p| self.space.contains(p)));

                let results = match screen.as_mut() {
                    Some(eng) => self.screen_round(eng, &points, &mut eval, parallel, start),
                    None => {
                        let results = eval.eval(&points, parallel);
                        assert_eq!(
                            results.len(),
                            round,
                            "evaluator must score every proposed point"
                        );
                        results
                    }
                };

                let mut scalar_trials = Vec::with_capacity(round);
                for (point, result) in points.into_iter().zip(results) {
                    let scalar = st.absorb(&point, &result);
                    scalar_trials.push(Trial { point: point.clone(), result: scalar });
                    st.push_trial(point, result);
                }
                optimizer.observe_batch(self.space, &scalar_trials);
                start += round;

                if let Some(hook) = on_round.as_deref_mut() {
                    let opt_ref: &dyn Optimizer = optimizer;
                    let sc_ref = screen.as_ref();
                    let progress = self.progress(&st, sc_ref);
                    hook(&progress, &|| self.snapshot(&st, round_size, opt_ref, sc_ref));
                }
            }
        }

        StudyReport {
            optimizer: optimizer.name().to_string(),
            best_point: st.best.as_ref().map(|(p, _)| p.clone()),
            best_objective: st.best.as_ref().map(|(_, g)| *g),
            convergence: st.convergence,
            invalid_trials: st.invalid,
            trials: st.trials,
            frontier: st.archive.as_ref().map(ParetoArchive::frontier),
            checkpoint: None,
            fidelity: screen.as_ref().map(ScreenEngine::report),
        }
    }

    /// Scores one screened round: ranks `points` with the screener, fully
    /// evaluates the kept subset, and fills the rest with
    /// [`MultiObjective::Surrogate`] outcomes. Rounds proposed during the
    /// [`crate::S0_BURN_IN`] window keep everything (that is how the Pareto
    /// archive gets seeded across the design range). One kept slot per
    /// screened round is an exploration pick — a uniformly random screened-out
    /// candidate drawn from [`trial_rng`]`(seed ^ `[`SCREEN_SEED_SALT`]`, round_start)`
    /// — so a systematically wrong surrogate cannot lock the search into its
    /// own bias.
    fn screen_round(
        &self,
        eng: &mut ScreenEngine<'_>,
        points: &[Vec<usize>],
        eval: &mut StudyEval<'_>,
        parallel: bool,
        start: usize,
    ) -> Vec<MultiObjective> {
        use rand::Rng;
        let round = points.len();
        let ready = eng.ready();
        let scores: Option<Vec<f64>> =
            ready.then(|| points.iter().map(|p| eng.screener.score(p)).collect());
        let keep = if ready { eng.fidelity.keep_of_round(round) } else { round };
        let kept: Vec<usize> = if keep >= round {
            (0..round).collect()
        } else {
            let scores = scores.as_ref().expect("partial rounds only happen when ready");
            let mut order: Vec<usize> = (0..round).collect();
            order.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]).then(a.cmp(&b)));
            let mut kept = order[..keep].to_vec();
            if keep >= 2 {
                // Sacrifice the weakest kept slot, never the top pick.
                let mut rng = trial_rng(self.seed ^ SCREEN_SEED_SALT, start);
                kept[keep - 1] = order[keep + rng.gen_range(0..round - keep)];
            }
            kept.sort_unstable();
            kept
        };
        let kept_points: Vec<Vec<usize>> = kept.iter().map(|&i| points[i].clone()).collect();
        let kept_results = eval.eval(&kept_points, parallel);
        assert_eq!(kept_results.len(), kept.len(), "evaluator must score every kept point");
        let mut merged: Vec<MultiObjective> = match &scores {
            Some(sc) => sc.iter().map(|&s| MultiObjective::Surrogate { guide: s }).collect(),
            // Burn-in round: every slot is overwritten below.
            None => vec![MultiObjective::Invalid; round],
        };
        for (&i, result) in kept.iter().zip(kept_results) {
            if let (MultiObjective::Valid { guide, .. }, Some(sc)) = (&result, &scores) {
                eng.pairs.push((sc[i], *guide));
            }
            merged[i] = result;
        }
        eng.full_evals += kept.len();
        eng.screened_out += round - kept.len();
        merged
    }

    /// Cheap progress summary of the engine state, for round observers.
    fn progress(&self, st: &EngineState, screen: Option<&ScreenEngine<'_>>) -> StudyProgress {
        StudyProgress {
            trials_done: st.trials.len(),
            total_trials: self.trials,
            best_objective: st.best.as_ref().map(|(_, g)| *g),
            invalid_trials: st.invalid,
            frontier_size: st.archive.as_ref().map(ParetoArchive::len),
            full_evals: screen.map(|eng| eng.full_evals),
        }
    }

    /// Builds the round snapshot matching the objective axis.
    fn snapshot(
        &self,
        st: &EngineState,
        batch_marker: usize,
        opt: &dyn Optimizer,
        screen: Option<&ScreenEngine<'_>>,
    ) -> RoundSnapshot {
        let fidelity = screen.map(|eng| fidelity_checkpoint(eng, &st.trials));
        match &self.objective {
            StudyObjective::Single => RoundSnapshot::Scalar(StudyCheckpoint {
                seed: self.seed,
                batch_size: batch_marker,
                best: st.best.clone(),
                convergence: st.convergence.clone(),
                invalid_trials: st.invalid,
                trials: scalar_trials(&st.trials),
                optimizer: opt.save_state(),
                fidelity,
            }),
            StudyObjective::Pareto { .. } => RoundSnapshot::Pareto(ParetoCheckpoint {
                seed: self.seed,
                batch_size: batch_marker,
                archive: st.archive.clone().expect("Pareto study keeps an archive"),
                best_guide: st.best.as_ref().map_or(f64::NAN, |(_, g)| *g),
                guide_convergence: st.convergence.clone(),
                invalid_trials: st.invalid,
                trials: st.trials.clone(),
                optimizer: opt.save_state(),
                fidelity,
            }),
        }
    }

    /// Loads a snapshot's accumulated state into `st`, returning the
    /// checkpoint's `(seed, batch marker, convergence length, scalar trial
    /// stream)` for validation and optimizer restoration.
    ///
    /// # Panics
    /// Panics when the snapshot's objective shape (or its Pareto
    /// directions) disagrees with the study's — for programmatic resumes
    /// that is a caller bug; the disk loader filters such files out before
    /// they reach here.
    fn load_state(
        &self,
        st: &mut EngineState,
        snap: RoundSnapshot,
    ) -> (u64, usize, usize, Vec<Trial>, Option<FidelityCheckpoint>) {
        match (snap, &self.objective) {
            (RoundSnapshot::Scalar(ck), StudyObjective::Single) => {
                let scalar = ck.trials.clone();
                st.best = ck.best;
                st.convergence = ck.convergence;
                st.invalid = ck.invalid_trials;
                st.trials = ck
                    .trials
                    .into_iter()
                    .map(|t| MultiTrial { point: t.point, result: MultiObjective::from(t.result) })
                    .collect();
                // The scalar trial stream is lossy (a screened-out trial
                // records the same `Invalid` the optimizer observed), so
                // the Surrogate markings are reapplied from the fidelity
                // sidecar.
                if let Some(fid) = &ck.fidelity {
                    for &(i, guide) in &fid.screened {
                        st.trials[i].result = MultiObjective::Surrogate { guide };
                    }
                }
                (ck.seed, ck.batch_size, st.convergence.len(), scalar, ck.fidelity)
            }
            (RoundSnapshot::Pareto(ck), StudyObjective::Pareto { directions }) => {
                assert_eq!(
                    ck.archive.directions(),
                    &directions[..],
                    "checkpoint direction mismatch"
                );
                let scalar = scalar_trials(&ck.trials);
                st.best = rebuild_pareto_best(&ck.trials);
                debug_assert_eq!(
                    st.best.as_ref().map_or(f64::NAN, |(_, g)| *g).to_bits(),
                    ck.best_guide.to_bits(),
                    "checkpoint best_guide disagrees with its own trial record — \
                     rebuild_pareto_best drifted from EngineState::absorb"
                );
                st.archive = Some(ck.archive);
                st.convergence = ck.guide_convergence;
                st.invalid = ck.invalid_trials;
                st.trials = ck.trials;
                (ck.seed, ck.batch_size, st.convergence.len(), scalar, ck.fidelity)
            }
            (RoundSnapshot::Scalar(_), StudyObjective::Pareto { .. }) => {
                panic!("checkpoint objective mismatch: scalar checkpoint for a Pareto study")
            }
            (RoundSnapshot::Pareto(_), StudyObjective::Single) => {
                panic!("checkpoint objective mismatch: Pareto checkpoint for a scalar study")
            }
        }
    }

    /// Restores a batched/parallel study from a snapshot (state restore or
    /// [`trial_rng`] replay, via [`validate_and_restore`]).
    fn restore_batched(
        &self,
        st: &mut EngineState,
        optimizer: &mut dyn Optimizer,
        round_size: usize,
        snap: RoundSnapshot,
        screen: Option<&mut ScreenEngine<'_>>,
    ) {
        let opt_state = snap.optimizer_state().clone();
        let (seed, marker, conv_len, scalar, fidelity) = self.load_state(st, snap);
        validate_and_restore(
            self.space,
            optimizer,
            self.trials,
            round_size,
            self.seed,
            seed,
            marker,
            conv_len,
            &opt_state,
            &scalar,
        );
        match (screen, fidelity) {
            (Some(eng), Some(fid)) => restore_screen(eng, fid),
            (None, None) => {}
            // The disk loader rejects such files before they get here, so
            // a mismatch is a programmatic-resume caller bug.
            (Some(_), None) => {
                panic!("checkpoint carries no fidelity state for a screened study")
            }
            (None, Some(_)) => panic!("fidelity checkpoint offered to an unscreened study"),
        }
    }

    /// Restores a sequential study by replaying the recorded trials through
    /// both the optimizer and the shared RNG. There is no state-restore
    /// shortcut here: the shared generator's state is a function of every
    /// proposal made so far, so replay *is* the cursor.
    fn restore_sequential(
        &self,
        st: &mut EngineState,
        optimizer: &mut dyn Optimizer,
        rng: &mut StdRng,
        snap: RoundSnapshot,
    ) {
        let (seed, marker, conv_len, scalar, fidelity) = self.load_state(st, snap);
        assert!(fidelity.is_none(), "sequential studies are never screened");
        crate::snapshot::validate_checkpoint_header(
            self.trials,
            SEQUENTIAL_MARKER,
            self.seed,
            seed,
            marker,
            conv_len,
            scalar.len(),
        );
        for t in &scalar {
            let p = optimizer.propose(self.space, rng);
            assert_eq!(p, t.point, "{}", crate::snapshot::REPLAY_DIVERGED);
            optimizer.observe(self.space, t);
        }
    }
}

/// Accumulated study state shared by every (objective × execution) cell.
struct EngineState {
    /// Single-objective mode (metric vectors dropped, sticky-NaN incumbent).
    scalar: bool,
    best: Option<(Vec<usize>, f64)>,
    convergence: Vec<f64>,
    invalid: usize,
    trials: Vec<MultiTrial>,
    archive: Option<ParetoArchive>,
}

impl EngineState {
    fn new(objective: &StudyObjective) -> Self {
        let archive = match objective {
            StudyObjective::Single => None,
            StudyObjective::Pareto { directions } => Some(ParetoArchive::new(directions)),
        };
        EngineState {
            scalar: archive.is_none(),
            best: None,
            convergence: Vec::new(),
            invalid: 0,
            trials: Vec::new(),
            archive,
        }
    }

    /// Feeds one outcome into the archive/incumbent/counters and returns
    /// the scalar trial the optimizer observes.
    fn absorb(&mut self, point: &[usize], result: &MultiObjective) -> TrialResult {
        let scalar = match result {
            MultiObjective::Valid { metrics, guide } => {
                if let Some(archive) = self.archive.as_mut() {
                    archive.insert(point.to_vec(), metrics.clone());
                }
                // Incumbent rule, bit-compatible with the drivers this
                // engine absorbed: a scalar study's NaN incumbent sticks
                // (`obj > NaN` is false); a Pareto study's guide incumbent
                // recovers from NaN (it mirrored a bare `f64` that began
                // life as NaN).
                let replace = self
                    .best
                    .as_ref()
                    .is_none_or(|(_, b)| *guide > *b || (!self.scalar && b.is_nan()));
                if replace {
                    self.best = Some((point.to_vec(), *guide));
                }
                TrialResult::Valid(*guide)
            }
            MultiObjective::Invalid => {
                self.invalid += 1;
                TrialResult::Invalid
            }
            // Screened-out: no archive insert, no incumbent update — a
            // surrogate score must never masquerade as a simulated result —
            // and not a safe-search rejection either (the screening
            // counters live in the `ScreenEngine`).
            MultiObjective::Surrogate { .. } => TrialResult::Invalid,
        };
        self.convergence.push(self.best.as_ref().map_or(f64::NAN, |(_, b)| *b));
        scalar
    }

    /// Records a completed trial. Single-objective studies drop the metric
    /// vector so a checkpointed-and-resumed study is indistinguishable from
    /// an uninterrupted one (scalar checkpoints cannot carry metrics).
    fn push_trial(&mut self, point: Vec<usize>, result: MultiObjective) {
        let result = if self.scalar {
            match result {
                MultiObjective::Valid { guide, .. } => {
                    MultiObjective::Valid { metrics: Vec::new(), guide }
                }
                MultiObjective::Invalid => MultiObjective::Invalid,
                MultiObjective::Surrogate { guide } => MultiObjective::Surrogate { guide },
            }
        } else {
            result
        };
        self.trials.push(MultiTrial { point, result });
    }
}

/// Projects stored trials down to the scalar stream the optimizer observed.
fn scalar_trials(trials: &[MultiTrial]) -> Vec<Trial> {
    trials.iter().map(|t| Trial { point: t.point.clone(), result: scalar_of(&t.result) }).collect()
}

/// Serializes a [`ScreenEngine`]'s state (plus the screened-out markings of
/// the trial record, which scalar checkpoints cannot carry themselves) into
/// the checkpoint sidecar.
fn fidelity_checkpoint(eng: &ScreenEngine<'_>, trials: &[MultiTrial]) -> FidelityCheckpoint {
    let Fidelity::Screened { keep_fraction, min_full, tier } = eng.fidelity else {
        unreachable!("ScreenEngine only exists for screened studies")
    };
    FidelityCheckpoint {
        keep_fraction,
        min_full,
        tier,
        full_evals: eng.full_evals,
        screened_out: eng.screened_out,
        pairs: eng.pairs.clone(),
        screened: trials
            .iter()
            .enumerate()
            .filter_map(|(i, t)| match t.result {
                MultiObjective::Surrogate { guide } => Some((i, guide)),
                _ => None,
            })
            .collect(),
    }
}

/// Rebuilds a [`ScreenEngine`]'s counters from a checkpoint sidecar. The
/// restored `full_evals` is also the burn-in progress, so a study killed
/// inside the burn-in window resumes it exactly where it stopped.
fn restore_screen(eng: &mut ScreenEngine<'_>, fid: FidelityCheckpoint) {
    eng.full_evals = fid.full_evals;
    eng.screened_out = fid.screened_out;
    eng.pairs = fid.pairs;
}

/// Rebuilds the tracked `(point, guide)` incumbent from a recorded trial
/// stream with the Pareto update rule (a NaN incumbent is replaced) —
/// Pareto checkpoints store only the guide value, not its point. Must stay
/// in lockstep with [`EngineState::absorb`]'s non-scalar branch.
fn rebuild_pareto_best(trials: &[MultiTrial]) -> Option<(Vec<usize>, f64)> {
    let mut best: Option<(Vec<usize>, f64)> = None;
    for t in trials {
        if let MultiObjective::Valid { guide, .. } = &t.result {
            if best.as_ref().is_none_or(|(_, b)| *guide > *b || b.is_nan()) {
                best = Some((t.point.clone(), *guide));
            }
        }
    }
    best
}

/// Moves a rejected checkpoint file aside under the first free
/// `study.bin.rejected[.N]` name, so neither the new run's saves nor an
/// earlier quarantined file clobber the progress it may hold.
fn quarantine_rejected(path: &Path) {
    let fresh = (0..)
        .map(|i| {
            let name = if i == 0 {
                format!("{STUDY_FILE_NAME}.rejected")
            } else {
                format!("{STUDY_FILE_NAME}.rejected.{i}")
            };
            path.with_file_name(name)
        })
        .find(|p| !p.exists())
        .expect("some rejected-checkpoint name is free");
    match std::fs::rename(path, &fresh) {
        Ok(()) => eprintln!("note: preserved the rejected checkpoint as {}", fresh.display()),
        Err(e) => {
            eprintln!("warning: could not preserve rejected checkpoint {}: {e}", path.display());
        }
    }
}

/// Atomically writes a snapshot file (temp + rename). Returns whether the
/// write succeeded; failures warn and the study continues undurably.
fn save_snapshot(path: &Path, snap: &RoundSnapshot) -> bool {
    let mut payload = Writer::new();
    match snap {
        RoundSnapshot::Scalar(ck) => {
            payload.put_u8(0);
            ck.encode(&mut payload);
        }
        RoundSnapshot::Pareto(ck) => {
            payload.put_u8(1);
            ck.encode(&mut payload);
        }
    }
    let file = bin::write_envelope(STUDY_MAGIC, STUDY_VERSION, &payload.into_bytes());
    let tmp = path.with_extension("tmp");
    match std::fs::write(&tmp, &file).and_then(|()| std::fs::rename(&tmp, path)) {
        Ok(()) => true,
        Err(e) => {
            eprintln!("warning: could not write study checkpoint {}: {e}", path.display());
            false
        }
    }
}

/// Loads and validates a snapshot file against the study configuration
/// (including the optimizer: a file written by a different algorithm must
/// not be adopted — its replay would diverge and panic). A missing file is
/// a silent cold start; damage or a configuration mismatch warns and
/// degrades to a cold start — resuming can cost re-evaluation, never
/// correctness.
/// Outcome of reading a checkpoint file: only [`SnapshotLoad::Rejected`]
/// files are quarantined — an unreadable file may be transiently so and is
/// left in place for a later rerun.
enum SnapshotLoad {
    /// No file: a plain cold start.
    Missing,
    /// The file exists but could not be read right now (transient I/O).
    Unreadable,
    /// The file was read but is damaged or belongs to another study.
    Rejected,
    /// A snapshot matching this study's configuration.
    Loaded(Box<RoundSnapshot>),
}

fn load_snapshot(
    path: &Path,
    study: &Study<'_>,
    optimizer: &dyn Optimizer,
    round_size: usize,
    sequential: bool,
) -> SnapshotLoad {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return SnapshotLoad::Missing,
        Err(e) => {
            eprintln!("warning: study checkpoint ignored — reading {}: {e}", path.display());
            return SnapshotLoad::Unreadable;
        }
    };
    let reject = |what: &str| {
        eprintln!("warning: study checkpoint ignored — {}: {what}", path.display());
    };
    let payload = match bin::read_envelope(STUDY_MAGIC, STUDY_VERSION, &bytes) {
        Ok(p) => p,
        Err(e) => {
            reject(&e.to_string());
            return SnapshotLoad::Rejected;
        }
    };
    let mut r = Reader::new(payload);
    let decoded = r.get_u8().and_then(|tag| match tag {
        0 => StudyCheckpoint::decode(&mut r).map(RoundSnapshot::Scalar),
        1 => ParetoCheckpoint::decode(&mut r).map(RoundSnapshot::Pareto),
        t => Err(bin::DecodeError { offset: 0, what: format!("invalid snapshot tag {t}") }),
    });
    let snap = match decoded {
        Ok(s) if r.is_done() => s,
        Ok(_) => {
            reject("trailing bytes");
            return SnapshotLoad::Rejected;
        }
        Err(e) => {
            reject(&e.to_string());
            return SnapshotLoad::Rejected;
        }
    };

    let (seed, marker, done, conv_len) = match &snap {
        RoundSnapshot::Scalar(ck) => {
            (ck.seed, ck.batch_size, ck.trials_done(), ck.convergence.len())
        }
        RoundSnapshot::Pareto(ck) => {
            (ck.seed, ck.batch_size, ck.trials_done(), ck.guide_convergence.len())
        }
    };
    let mode_matches = match (&snap, &study.objective) {
        (RoundSnapshot::Scalar(_), StudyObjective::Single) => true,
        (RoundSnapshot::Pareto(ck), StudyObjective::Pareto { directions }) => {
            ck.archive.directions() == &directions[..]
        }
        _ => false,
    };
    let fid = match &snap {
        RoundSnapshot::Scalar(ck) => ck.fidelity.as_ref(),
        RoundSnapshot::Pareto(ck) => ck.fidelity.as_ref(),
    };
    // The fidelity axis must match exactly: adopting an exact study's file
    // into a screened rerun (or a differently-screened one) would splice
    // two different kept-trial sequences into one record.
    let fidelity_matches = match (study.fidelity, fid) {
        (Fidelity::Exact, None) => true,
        (Fidelity::Screened { keep_fraction, min_full, tier }, Some(f)) => {
            f.keep_fraction.to_bits() == keep_fraction.to_bits()
                && f.min_full == min_full
                && f.tier == tier
        }
        _ => false,
    };
    let expected_marker = if sequential { SEQUENTIAL_MARKER } else { round_size };
    let on_grid =
        if sequential { true } else { done.is_multiple_of(round_size) || done == study.trials };
    if !mode_matches
        || !fidelity_matches
        || seed != study.seed
        || marker != expected_marker
        || done > study.trials
        || conv_len != done
        || !on_grid
    {
        reject("checkpoint belongs to a different study configuration");
        return SnapshotLoad::Rejected;
    }
    if !same_optimizer_config(snap.optimizer_state(), &optimizer.save_state()) {
        reject("checkpoint was written by a different or differently-configured optimizer");
        return SnapshotLoad::Rejected;
    }
    SnapshotLoad::Loaded(Box::new(snap))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{LcsSwarm, RandomSearch, Tpe};
    use crate::space::ParamDomain;

    fn space() -> ParamSpace {
        let mut s = ParamSpace::new();
        s.add("x", ParamDomain::Pow2 { min: 1, max: 256 });
        s.add("y", ParamDomain::Categorical { n: 6 });
        s
    }

    fn scratch_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fast-study-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn score(p: &[usize]) -> MultiObjective {
        if p[1] == 5 {
            MultiObjective::Invalid
        } else {
            MultiObjective::valid(
                vec![(p[0] * (p[1] + 1)) as f64, (p[0] + 3 * p[1]) as f64],
                (p[0] * 2 + p[1]) as f64,
            )
        }
    }

    #[test]
    fn config_errors_are_typed_not_panics() {
        let s = space();
        let mut opt = RandomSearch::new();
        let run = |study: Study<'_>, opt: &mut RandomSearch| {
            let mut eval = |p: &[usize]| score(p);
            study.run(opt, StudyEval::points(&mut eval)).map(|_| ())
        };
        assert_eq!(
            run(Study::new(&s, 4).execution(Execution::Batched { batch_size: 0 }), &mut opt),
            Err(StudyConfigError::EmptyBatch)
        );
        assert_eq!(
            run(Study::new(&s, 4).execution(Execution::Parallel { threads: 0 }), &mut opt),
            Err(StudyConfigError::NoThreads)
        );
        assert_eq!(
            run(
                Study::new(&s, 4).objective(StudyObjective::pareto(&[MetricDirection::Maximize])),
                &mut opt
            ),
            Err(StudyConfigError::TooFewMetrics { got: 1 })
        );
        assert_eq!(
            run(
                Study::new(&s, 4)
                    .durability(Durability::Checkpointed { dir: scratch_dir("every0"), every: 0 }),
                &mut opt
            ),
            Err(StudyConfigError::ZeroCheckpointInterval)
        );
        // A file where the checkpoint directory should be is unwritable.
        let blocked = scratch_dir("blocked");
        std::fs::write(&blocked, b"not a directory").unwrap();
        let err = run(
            Study::new(&s, 4)
                .durability(Durability::Checkpointed { dir: blocked.clone(), every: 1 }),
            &mut opt,
        )
        .unwrap_err();
        assert!(
            matches!(err, StudyConfigError::CheckpointDirUnwritable { ref dir, .. } if *dir == blocked),
            "{err:?}"
        );
        // Parallel execution cannot fan out a serial-only points closure.
        let mut eval = |p: &[usize]| score(p);
        let got = Study::new(&s, 4)
            .execution(Execution::Parallel { threads: 2 })
            .run(&mut opt, StudyEval::points(&mut eval));
        assert_eq!(got.map(|_| ()), Err(StudyConfigError::SerialEvalUnderParallelExecution));
        // Each error renders a non-empty human-readable message.
        for e in [
            StudyConfigError::EmptyBatch,
            StudyConfigError::NoThreads,
            StudyConfigError::TooFewMetrics { got: 1 },
            StudyConfigError::ZeroCheckpointInterval,
            StudyConfigError::CheckpointDirUnwritable {
                dir: PathBuf::from("/x"),
                reason: "denied".into(),
            },
            StudyConfigError::SerialEvalUnderParallelExecution,
        ] {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn parallel_equals_batched_bitwise() {
        let s = space();
        let eval = |p: &[usize]| score(p);
        let run = |execution: Execution| {
            let mut opt = LcsSwarm::default();
            Study::new(&s, 48)
                .seed(9)
                .execution(execution)
                .run(&mut opt, StudyEval::shared(&eval))
                .expect("valid configuration")
        };
        let batched = run(Execution::Batched { batch_size: 6 });
        let parallel = run(Execution::Parallel { threads: 6 });
        assert_eq!(batched.best_point, parallel.best_point);
        assert_eq!(
            batched.convergence.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            parallel.convergence.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(batched.trials, parallel.trials);
    }

    /// Kill-and-rerun through the file checkpoint: running the same
    /// configuration against the same directory resumes and finishes
    /// bit-identically to an uninterrupted study — for the scalar, Pareto,
    /// and sequential (shared-RNG replay) paths.
    #[test]
    fn checkpointed_rerun_is_bit_identical_for_every_axis_combination() {
        let s = space();
        let dirs = [MetricDirection::Maximize, MetricDirection::Minimize];
        type MkOpt = fn() -> Box<dyn Optimizer>;
        let makers: [MkOpt; 3] = [
            || Box::new(RandomSearch::new()),
            || Box::new(LcsSwarm::default()),
            || Box::new(Tpe::new()),
        ];
        let objectives =
            [StudyObjective::Single, StudyObjective::Pareto { directions: dirs.to_vec() }];
        let executions = [
            Execution::Sequential,
            Execution::Batched { batch_size: 8 },
            Execution::Parallel { threads: 8 },
        ];
        for (mi, mk) in makers.iter().enumerate() {
            for (oi, objective) in objectives.iter().enumerate() {
                for (ei, execution) in executions.iter().enumerate() {
                    let eval = |p: &[usize]| score(p);
                    let run = |trials: usize, durability: Durability, opt: &mut dyn Optimizer| {
                        Study::new(&s, trials)
                            .seed(7)
                            .objective(objective.clone())
                            .execution(*execution)
                            .durability(durability)
                            .run(opt, StudyEval::shared(&eval))
                            .expect("valid configuration")
                    };
                    let mut straight_opt = mk();
                    let straight = run(40, Durability::Ephemeral, straight_opt.as_mut());

                    let dir = scratch_dir(&format!("axis-{mi}-{oi}-{ei}"));
                    let durable = || Durability::Checkpointed { dir: dir.clone(), every: 1 };
                    // "Kill" at trial 24 (a round boundary of every
                    // execution mode here), then rerun the full budget.
                    let mut first = mk();
                    let partial = run(24, durable(), first.as_mut());
                    assert!(partial.checkpoint.as_ref().unwrap().saves > 0);

                    let mut resumed_opt = mk();
                    let resumed = run(40, durable(), resumed_opt.as_mut());
                    let label = format!("{objective:?}/{execution:?}/{}", straight.optimizer);
                    assert_eq!(
                        resumed.checkpoint.as_ref().unwrap().resumed_trials,
                        24,
                        "{label}: must resume from the partial run's file"
                    );
                    assert_eq!(resumed.best_point, straight.best_point, "{label}");
                    assert_eq!(
                        resumed.convergence.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                        straight.convergence.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                        "{label}"
                    );
                    assert_eq!(resumed.trials, straight.trials, "{label}");
                    assert_eq!(resumed.invalid_trials, straight.invalid_trials, "{label}");
                    assert_eq!(resumed.frontier, straight.frontier, "{label}");
                }
            }
        }
    }

    /// A damaged or differently-configured checkpoint file degrades to a
    /// cold (but correct) run instead of panicking or poisoning results.
    #[test]
    fn damaged_or_mismatched_checkpoint_degrades_to_cold_run() {
        let s = space();
        let eval = |p: &[usize]| score(p);
        let run = |seed: u64, durability: Durability| {
            let mut opt = LcsSwarm::default();
            Study::new(&s, 24)
                .seed(seed)
                .execution(Execution::Batched { batch_size: 4 })
                .durability(durability)
                .run(&mut opt, StudyEval::shared(&eval))
                .expect("valid configuration")
        };
        let straight = run(3, Durability::Ephemeral);

        for (name, damage) in [
            ("garbage", vec![0xA5u8; 128]),
            ("truncated", STUDY_MAGIC.to_vec()),
            ("empty", Vec::new()),
        ] {
            let dir = scratch_dir(&format!("damage-{name}"));
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(dir.join(STUDY_FILE_NAME), &damage).unwrap();
            let got = run(3, Durability::Checkpointed { dir, every: 1 });
            assert_eq!(got.checkpoint.as_ref().unwrap().resumed_trials, 0, "{name}");
            assert_eq!(got.trials, straight.trials, "{name}");
        }

        // A checkpoint from a different seed is ignored, not adopted —
        // and quarantined, not overwritten: its progress survives the
        // mismatched rerun's saves.
        let dir = scratch_dir("seed-mismatch");
        let _ = run(99, Durability::Checkpointed { dir: dir.clone(), every: 1 });
        let got = run(3, Durability::Checkpointed { dir: dir.clone(), every: 1 });
        assert_eq!(got.checkpoint.as_ref().unwrap().resumed_trials, 0);
        assert_eq!(got.trials, straight.trials);
        assert!(
            dir.join("study.bin.rejected").exists(),
            "the rejected checkpoint must be preserved, not overwritten"
        );
    }

    /// A checkpoint written by one optimizer must not be adopted by a run
    /// with a different one (e.g. comparing LCS vs TPE against the same
    /// directory): without the state-kind check, TPE would reject the LCS
    /// state, fall back to replay, propose different points, and panic —
    /// instead the file is ignored and the run starts cold.
    #[test]
    fn checkpoint_from_a_different_optimizer_degrades_to_cold_run() {
        let s = space();
        let eval = |p: &[usize]| score(p);
        let dir = scratch_dir("optimizer-mismatch");
        let run = |opt: &mut dyn Optimizer, trials: usize| {
            Study::new(&s, trials)
                .seed(7)
                .execution(Execution::Batched { batch_size: 4 })
                .durability(Durability::Checkpointed { dir: dir.clone(), every: 1 })
                .run(opt, StudyEval::shared(&eval))
                .expect("valid configuration")
        };
        let _ = run(&mut LcsSwarm::default(), 16);
        let mut straight_opt = Tpe::new();
        let straight = Study::new(&s, 24)
            .seed(7)
            .execution(Execution::Batched { batch_size: 4 })
            .run(&mut straight_opt, StudyEval::shared(&eval))
            .expect("valid configuration");
        let got = run(&mut Tpe::new(), 24);
        assert_eq!(
            got.checkpoint.as_ref().unwrap().resumed_trials,
            0,
            "an LCS-written checkpoint must not resume a TPE study"
        );
        assert_eq!(got.trials, straight.trials);

        // Same algorithm, different configuration (swarm size): also a
        // cold start, not a silent continuation of the old configuration.
        let _ = run(&mut LcsSwarm::default(), 16); // refresh the file with a default-LCS state
        let got = run(&mut LcsSwarm::new(3), 24);
        assert_eq!(
            got.checkpoint.as_ref().unwrap().resumed_trials,
            0,
            "a default-swarm checkpoint must not resume a 3-particle study"
        );
    }

    /// `every` thins the saves; the completed study is always persisted.
    #[test]
    fn checkpoint_interval_thins_saves_but_keeps_the_final_state() {
        let s = space();
        let eval = |p: &[usize]| score(p);
        let dir = scratch_dir("every3");
        let mut opt = RandomSearch::new();
        // 24 trials in rounds of 4 = 6 rounds; every=4 saves at round 4
        // plus the forced final-round save.
        let report = Study::new(&s, 24)
            .seed(1)
            .execution(Execution::Batched { batch_size: 4 })
            .durability(Durability::Checkpointed { dir: dir.clone(), every: 4 })
            .run(&mut opt, StudyEval::shared(&eval))
            .expect("valid configuration");
        assert_eq!(report.checkpoint.as_ref().unwrap().saves, 2);
        // The persisted state is the completed study: a rerun is a no-op
        // resume that reproduces it without re-evaluating anything.
        let mut evals = 0usize;
        let mut counting = |p: &[usize]| {
            evals += 1;
            score(p)
        };
        let mut opt2 = RandomSearch::new();
        let rerun = Study::new(&s, 24)
            .seed(1)
            .execution(Execution::Batched { batch_size: 4 })
            .durability(Durability::Checkpointed { dir, every: 4 })
            .run(&mut opt2, StudyEval::points(&mut counting))
            .expect("valid configuration");
        assert_eq!(evals, 0, "a completed checkpoint resumes without re-evaluation");
        assert_eq!(rerun.trials, report.trials);
        assert_eq!(rerun.checkpoint.as_ref().unwrap().resumed_trials, 24);
    }

    /// Deterministic test screener: scores with the same formula `score`
    /// uses for the guide (a perfect surrogate) and counts its calls.
    #[derive(Default)]
    struct ToyScreener {
        calls: std::cell::Cell<usize>,
    }

    impl Screener for ToyScreener {
        fn score(&self, p: &[usize]) -> f64 {
            self.calls.set(self.calls.get() + 1);
            (p[0] * 2 + p[1]) as f64
        }
    }

    fn screened(keep_fraction: f64, min_full: usize) -> Fidelity {
        Fidelity::Screened { keep_fraction, min_full, tier: crate::SurrogateTier::S0 }
    }

    fn with_screener(sc: &dyn Screener) -> StudySession<'_> {
        StudySession { screener: Some(sc), ..StudySession::default() }
    }

    #[test]
    fn screened_config_errors_are_typed() {
        let s = space();
        let mut opt = RandomSearch::new();
        let mut eval = |p: &[usize]| score(p);
        // Screened fidelity without a screener: run() has none to offer.
        let got = Study::new(&s, 8)
            .execution(Execution::Batched { batch_size: 4 })
            .fidelity(screened(0.5, 1))
            .run(&mut opt, StudyEval::points(&mut eval));
        assert_eq!(got.map(|_| ()), Err(StudyConfigError::ScreenedWithoutScreener));
        // Screened fidelity under sequential execution.
        let sc = ToyScreener::default();
        let got = Study::new(&s, 8).fidelity(screened(0.5, 1)).run_session(
            &mut opt,
            StudyEval::points(&mut eval),
            with_screener(&sc),
        );
        assert_eq!(got.map(|_| ()), Err(StudyConfigError::ScreenedSequentialExecution));
        // keep_fraction outside (0, 1] — including NaN.
        for bad in [0.0, -0.25, 1.5, f64::NAN] {
            let got = Study::new(&s, 8)
                .execution(Execution::Batched { batch_size: 4 })
                .fidelity(screened(bad, 1))
                .run_session(&mut opt, StudyEval::points(&mut eval), with_screener(&sc));
            assert_eq!(got.map(|_| ()), Err(StudyConfigError::KeepFractionOutOfRange), "{bad}");
        }
    }

    /// `Screened { keep_fraction: 1.0 }` keeps every proposal: the trial
    /// record, convergence curve, and frontier are bit-identical to the
    /// same study under `Fidelity::Exact` — only the fidelity report is
    /// added. An exact study handed a screener ignores it entirely.
    #[test]
    fn keep_everything_screening_degenerates_to_exact() {
        let s = space();
        let eval = |p: &[usize]| score(p);
        let dirs = [MetricDirection::Maximize, MetricDirection::Minimize];
        let base = || {
            Study::new(&s, 48)
                .seed(5)
                .objective(StudyObjective::pareto(&dirs))
                .execution(Execution::Batched { batch_size: 8 })
        };
        let mut opt = LcsSwarm::default();
        let exact = base().run(&mut opt, StudyEval::shared(&eval)).unwrap();

        let mut opt = LcsSwarm::default();
        let kept_all = base()
            .fidelity(screened(1.0, 0))
            .run_session(&mut opt, StudyEval::shared(&eval), with_screener(&ToyScreener::default()))
            .unwrap();
        assert_eq!(kept_all.trials, exact.trials);
        assert_eq!(
            kept_all.convergence.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            exact.convergence.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(kept_all.frontier, exact.frontier);
        let fid = kept_all.fidelity.expect("screened studies report fidelity");
        assert_eq!(fid.full_evals, 48);
        assert_eq!(fid.screened_out, 0);

        let mut opt = LcsSwarm::default();
        let sc = ToyScreener::default();
        let ignored =
            base().run_session(&mut opt, StudyEval::shared(&eval), with_screener(&sc)).unwrap();
        assert_eq!(ignored.trials, exact.trials);
        assert!(ignored.fidelity.is_none(), "Exact fidelity reports no screening");
        assert_eq!(sc.calls.get(), 0, "Exact fidelity never touches the screener");
    }

    /// Partial screening: only the kept fraction reaches the evaluator,
    /// screened-out trials are recorded as Surrogate outcomes, the frontier
    /// only ever contains fully simulated points, and a perfect surrogate
    /// reports Spearman 1.
    #[test]
    fn screened_run_thins_full_evaluations_and_reports_fidelity() {
        let s = space();
        let dirs = [MetricDirection::Maximize, MetricDirection::Minimize];
        let mut evals = 0usize;
        let mut eval = |points: &[Vec<usize>]| {
            evals += points.len();
            points.iter().map(|p| score(p)).collect::<Vec<_>>()
        };
        let mut opt = RandomSearch::new();
        // A burn-in of S0_BURN_IN = 8 is exactly the first round: round 1 is
        // fully evaluated, every later round keeps 2 of 8.
        let sc = ToyScreener::default();
        let report = Study::new(&s, 64)
            .seed(3)
            .objective(StudyObjective::pareto(&dirs))
            .execution(Execution::Batched { batch_size: 8 })
            .fidelity(screened(0.25, 2))
            .run_session(&mut opt, StudyEval::batch(&mut eval), with_screener(&sc))
            .unwrap();
        let fid = report.fidelity.expect("screened studies report fidelity");
        assert_eq!(fid.full_evals, crate::S0_BURN_IN + 7 * 2);
        assert_eq!(fid.screened_out, 64 - fid.full_evals);
        assert_eq!(evals, fid.full_evals, "only kept trials reach the evaluator");
        assert!(fid.savings_factor() > 2.5, "factor = {}", fid.savings_factor());
        // The perfect surrogate ranks exactly like the simulator.
        assert_eq!(fid.spearman, Some(1.0));
        assert_eq!(fid.kendall, Some(1.0));
        assert!(fid.pairs > 0);
        // The full trial record is kept, with screened-out trials marked.
        assert_eq!(report.trials.len(), 64);
        let surrogates = report.trials.iter().filter(|t| !t.result.fully_evaluated()).count();
        assert_eq!(surrogates, fid.screened_out);
        // Every frontier point was fully simulated: its point must appear
        // among the fully evaluated trials.
        for fp in report.frontier.as_ref().unwrap() {
            assert!(report
                .trials
                .iter()
                .any(|t| t.point == fp.point && t.result.fully_evaluated()));
        }
    }

    /// A screened study run to `trials` — ephemerally, or checkpointed
    /// under `dir` (resuming whatever the directory holds).
    fn run_screened_pareto(
        s: &ParamSpace,
        trials: usize,
        batch_size: usize,
        dir: Option<&Path>,
    ) -> StudyReport {
        let dirs = [MetricDirection::Maximize, MetricDirection::Minimize];
        let eval = |p: &[usize]| score(p);
        let durability = dir.map_or(Durability::Ephemeral, |dir| Durability::Checkpointed {
            dir: dir.to_path_buf(),
            every: 1,
        });
        let mut opt = LcsSwarm::default();
        Study::new(s, trials)
            .seed(11)
            .objective(StudyObjective::pareto(&dirs))
            .execution(Execution::Batched { batch_size })
            .fidelity(screened(0.25, 2))
            .durability(durability)
            .run_session(&mut opt, StudyEval::shared(&eval), with_screener(&ToyScreener::default()))
            .unwrap()
    }

    /// Asserts a resumed screened study reproduced the uninterrupted one:
    /// the same trial record (so the same kept sets, with the same
    /// surrogate markings), convergence, frontier and fidelity report.
    fn assert_same_screened_run(resumed: &StudyReport, straight: &StudyReport) {
        assert_eq!(resumed.trials, straight.trials);
        assert_eq!(
            resumed.convergence.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            straight.convergence.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(resumed.frontier, straight.frontier);
        assert_eq!(resumed.fidelity, straight.fidelity);
    }

    /// Kill-and-rerun bit-identity holds on the screened axis too.
    #[test]
    fn screened_checkpointed_rerun_is_bit_identical() {
        let s = space();
        let straight = run_screened_pareto(&s, 64, 8, None);
        let dir = scratch_dir("screened");
        let partial = run_screened_pareto(&s, 24, 8, Some(&dir));
        assert!(partial.checkpoint.as_ref().unwrap().saves > 0);
        let resumed = run_screened_pareto(&s, 64, 8, Some(&dir));
        assert_eq!(resumed.checkpoint.as_ref().unwrap().resumed_trials, 24);
        assert_same_screened_run(&resumed, &straight);
    }

    /// Burn-in progress is the checkpointed `full_evals` counter: a study
    /// killed inside the burn-in window resumes it where it stopped, so the
    /// first screened round, every kept set after it and the fidelity
    /// report all match an uninterrupted run.
    #[test]
    fn screened_study_killed_inside_burn_in_resumes_identically() {
        let s = space();
        let straight = run_screened_pareto(&s, 48, 4, None);
        let dir = scratch_dir("screened-burn-in");
        let partial = run_screened_pareto(&s, 4, 4, Some(&dir));
        let fid = partial.fidelity.as_ref().expect("screened studies report fidelity");
        assert!(fid.full_evals < crate::S0_BURN_IN, "killed inside the burn-in");
        assert_eq!(fid.screened_out, 0);
        let resumed = run_screened_pareto(&s, 48, 4, Some(&dir));
        assert_eq!(resumed.checkpoint.as_ref().unwrap().resumed_trials, 4);
        assert_same_screened_run(&resumed, &straight);
        let fid = straight.fidelity.as_ref().unwrap();
        assert_eq!(fid.full_evals, crate::S0_BURN_IN + 10 * 2, "two burn-in rounds, then 2 of 4");
    }

    /// A checkpoint written under one fidelity configuration must not be
    /// adopted by a run with another (exact file → screened rerun and
    /// vice versa): both degrade to a quarantined cold start.
    #[test]
    fn fidelity_mismatched_checkpoint_degrades_to_cold_run() {
        let s = space();
        let eval = |p: &[usize]| score(p);
        let dir = scratch_dir("fidelity-mismatch");
        let run_exact = |trials: usize| {
            let mut opt = RandomSearch::new();
            Study::new(&s, trials)
                .seed(2)
                .execution(Execution::Batched { batch_size: 4 })
                .durability(Durability::Checkpointed { dir: dir.clone(), every: 1 })
                .run(&mut opt, StudyEval::shared(&eval))
                .unwrap()
        };
        let run_screened = |trials: usize| {
            let mut opt = RandomSearch::new();
            let sc = ToyScreener::default();
            Study::new(&s, trials)
                .seed(2)
                .execution(Execution::Batched { batch_size: 4 })
                .fidelity(screened(0.5, 1))
                .durability(Durability::Checkpointed { dir: dir.clone(), every: 1 })
                .run_session(&mut opt, StudyEval::shared(&eval), with_screener(&sc))
                .unwrap()
        };
        let _ = run_exact(16);
        let got = run_screened(16);
        assert_eq!(
            got.checkpoint.as_ref().unwrap().resumed_trials,
            0,
            "an exact-mode checkpoint must not resume a screened study"
        );
        // The screened rerun's own file now sits there; an exact rerun
        // must reject it in turn.
        let got = run_exact(16);
        assert_eq!(
            got.checkpoint.as_ref().unwrap().resumed_trials,
            0,
            "a screened checkpoint must not resume an exact study"
        );
    }

    /// Single-objective reports carry no frontier; Pareto reports do, and
    /// `into_pareto_result` refuses the former.
    #[test]
    #[should_panic(expected = "single-objective study")]
    fn into_pareto_result_rejects_single_objective_reports() {
        let s = space();
        let mut opt = RandomSearch::new();
        let mut eval = |p: &[usize]| score(p);
        let report = Study::new(&s, 4)
            .run(&mut opt, StudyEval::points(&mut eval))
            .expect("valid configuration");
        assert!(report.frontier.is_none());
        let _ = report.into_pareto_result();
    }
}
