//! Serializable search state: optimizer snapshots, study checkpoints, and
//! the binary-codec impls for every search type that appears in them.
//!
//! The durability contract of this module is *bit-identity*: a study that
//! is checkpointed after round `k` and resumed produces exactly the result
//! an uninterrupted study would have — same frontier, same convergence
//! curve, same trial sequence. Two mechanisms cooperate:
//!
//! * [`OptimizerState`] captures a built-in algorithm's internal state
//!   (including [`crate::LcsSwarm`]'s particles and pending proposals)
//!   so resume restores it directly;
//! * when an optimizer cannot restore from a state (a custom
//!   [`crate::Optimizer`] returning the default [`OptimizerState::Opaque`]),
//!   the resumable drivers *replay* the recorded proposal/observation
//!   stream instead — exact by the `trial_rng(seed, index)` determinism
//!   contract, since proposals depend only on (seed, trial index,
//!   observation history).
//!
//! The `trial_rng` cursor itself needs no RNG serialization: per-trial
//! generators are pure functions of `(seed, index)`, so persisting the
//! seed and the number of completed trials *is* the cursor.

use crate::optimizer::{Optimizer, Trial, TrialResult};
use crate::pareto::{FrontierPoint, MetricDirection, MultiObjective, MultiTrial, ParetoArchive};
use crate::screen::{Fidelity, FidelityReport, SurrogateTier};
use crate::space::ParamSpace;
use crate::study::trial_rng;
use rand::rngs::StdRng;
use serde::bin::{Decode, DecodeError, Encode, Reader, Writer};

/// Shared checkpoint validation + optimizer restoration for resumable
/// studies (`Durability::Checkpointed`, scalar and Pareto alike).
///
/// `scalar_trials` is the checkpoint's recorded trial stream in the form
/// the optimizer observed it (Pareto callers map each `MultiTrial`'s guide
/// down to a scalar [`Trial`]); `convergence_len` is the checkpoint's
/// convergence-curve length, which must pair one-to-one with the trials.
///
/// # Panics
/// Panics if the checkpoint disagrees with the study configuration —
/// including a trial count that is neither a round boundary of this study
/// nor a completed study, which would silently break the bit-identity
/// contract by regrouping observations (the rounds of the resumed run
/// must be the rounds the uninterrupted run would have formed).
#[allow(clippy::too_many_arguments)] // one call site per driver; a struct would obscure the contract
pub(crate) fn validate_and_restore(
    space: &ParamSpace,
    optimizer: &mut dyn Optimizer,
    n_trials: usize,
    batch_size: usize,
    seed: u64,
    ck_seed: u64,
    ck_batch_size: usize,
    convergence_len: usize,
    state: &OptimizerState,
    scalar_trials: &[Trial],
) {
    validate_checkpoint_header(
        n_trials,
        batch_size,
        seed,
        ck_seed,
        ck_batch_size,
        convergence_len,
        scalar_trials.len(),
    );
    assert!(
        scalar_trials.len().is_multiple_of(batch_size) || scalar_trials.len() == n_trials,
        "checkpoint at {} trials is not a round boundary of a batch-{batch_size} study \
         over {n_trials} trials: resuming would regroup observations and diverge from an \
         uninterrupted run",
        scalar_trials.len()
    );
    if !optimizer.load_state(state) {
        // Replay the recorded proposal/observation stream — exact by the
        // trial_rng determinism contract.
        let mut start = 0;
        while start < scalar_trials.len() {
            let round = batch_size.min(scalar_trials.len() - start);
            let mut rngs: Vec<StdRng> =
                (start..start + round).map(|i| trial_rng(seed, i)).collect();
            let points = optimizer.propose_batch(space, &mut rngs);
            let recorded = &scalar_trials[start..start + round];
            assert!(points.iter().zip(recorded).all(|(p, t)| *p == t.point), "{REPLAY_DIVERGED}");
            optimizer.observe_batch(space, recorded);
            start += round;
        }
    }
}

/// The header checks shared by every resume path — seed, batch marker,
/// trial budget, convergence/trial pairing. The batched drivers add the
/// round-grid check on top; the sequential path replays per trial, so any
/// count is a boundary for it.
pub(crate) fn validate_checkpoint_header(
    n_trials: usize,
    batch_size: usize,
    seed: u64,
    ck_seed: u64,
    ck_batch_size: usize,
    convergence_len: usize,
    trials_len: usize,
) {
    assert_eq!(ck_seed, seed, "checkpoint seed mismatch");
    assert_eq!(ck_batch_size, batch_size, "checkpoint batch-size mismatch");
    assert!(
        trials_len <= n_trials,
        "checkpoint holds {trials_len} trials but the study budget is {n_trials}"
    );
    assert_eq!(convergence_len, trials_len, "checkpoint convergence/trial length mismatch");
}

/// Panic message of a resume whose replayed proposals do not match the
/// checkpoint's record — shared so the batched and sequential replay paths
/// cannot drift apart.
pub(crate) const REPLAY_DIVERGED: &str =
    "replayed optimizer diverged from the checkpoint's proposal record \
     (was the optimizer configured differently?)";

/// Snapshot of a built-in optimizer's internal state.
///
/// Produced by [`crate::Optimizer::save_state`] and consumed by
/// [`crate::Optimizer::load_state`]. The `Seeded` variant wraps an inner
/// state for seed-injecting adapters (prior injection); `Opaque` is the
/// default for optimizers without snapshot support, which resumable
/// drivers handle by replaying history.
#[derive(Debug, Clone, PartialEq)]
pub enum OptimizerState {
    /// [`crate::RandomSearch`] — stateless.
    Random,
    /// [`crate::LcsSwarm`] — full particle state.
    Lcs {
        /// Particle count.
        population: usize,
        /// Personal bests per particle.
        personal: Vec<Option<(Vec<usize>, f64)>>,
        /// Global best.
        global: Option<(Vec<usize>, f64)>,
        /// Round-robin cursor.
        next_particle: usize,
        /// Probability of inheriting a dimension from the global best.
        pull_global: f64,
        /// Probability of mutating a dimension.
        mutate: f64,
        /// Proposals awaiting observation, FIFO, as `(particle, point)`.
        pending: Vec<(usize, Vec<usize>)>,
    },
    /// [`crate::Tpe`] — observation history plus hyperparameters.
    Tpe {
        /// `(point, objective)` per observed trial (`None` = invalid).
        history: Vec<(Vec<usize>, Option<f64>)>,
        /// Good-fraction γ.
        gamma: f64,
        /// Candidates scored per proposal.
        candidates: usize,
        /// Uniform-exploration startup trials.
        startup: usize,
    },
    /// A seed-injecting wrapper around an inner optimizer.
    Seeded {
        /// Seed points not yet proposed.
        seeds: Vec<Vec<usize>>,
        /// Index of the next seed to propose.
        next: usize,
        /// Inner optimizer's state.
        inner: Box<OptimizerState>,
    },
    /// An optimizer without snapshot support; resume falls back to replay.
    Opaque,
}

impl Encode for OptimizerState {
    fn encode(&self, w: &mut Writer) {
        match self {
            OptimizerState::Random => w.put_u8(0),
            OptimizerState::Lcs {
                population,
                personal,
                global,
                next_particle,
                pull_global,
                mutate,
                pending,
            } => {
                w.put_u8(1);
                population.encode(w);
                personal.encode(w);
                global.encode(w);
                next_particle.encode(w);
                pull_global.encode(w);
                mutate.encode(w);
                pending.encode(w);
            }
            OptimizerState::Tpe { history, gamma, candidates, startup } => {
                w.put_u8(2);
                history.encode(w);
                gamma.encode(w);
                candidates.encode(w);
                startup.encode(w);
            }
            OptimizerState::Seeded { seeds, next, inner } => {
                w.put_u8(3);
                seeds.encode(w);
                next.encode(w);
                inner.encode(w);
            }
            OptimizerState::Opaque => w.put_u8(4),
        }
    }
}

impl Decode for OptimizerState {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.get_u8()? {
            0 => Ok(OptimizerState::Random),
            1 => Ok(OptimizerState::Lcs {
                population: Decode::decode(r)?,
                personal: Decode::decode(r)?,
                global: Decode::decode(r)?,
                next_particle: Decode::decode(r)?,
                pull_global: Decode::decode(r)?,
                mutate: Decode::decode(r)?,
                pending: Decode::decode(r)?,
            }),
            2 => Ok(OptimizerState::Tpe {
                history: Decode::decode(r)?,
                gamma: Decode::decode(r)?,
                candidates: Decode::decode(r)?,
                startup: Decode::decode(r)?,
            }),
            3 => Ok(OptimizerState::Seeded {
                seeds: Decode::decode(r)?,
                next: Decode::decode(r)?,
                inner: Box::new(Decode::decode(r)?),
            }),
            4 => Ok(OptimizerState::Opaque),
            t => Err(DecodeError { offset: 0, what: format!("invalid OptimizerState tag {t}") }),
        }
    }
}

impl Encode for TrialResult {
    fn encode(&self, w: &mut Writer) {
        match self {
            TrialResult::Valid(v) => {
                w.put_u8(0);
                v.encode(w);
            }
            TrialResult::Invalid => w.put_u8(1),
        }
    }
}

impl Decode for TrialResult {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.get_u8()? {
            0 => Ok(TrialResult::Valid(Decode::decode(r)?)),
            1 => Ok(TrialResult::Invalid),
            t => Err(DecodeError { offset: 0, what: format!("invalid TrialResult tag {t}") }),
        }
    }
}

impl Encode for Trial {
    fn encode(&self, w: &mut Writer) {
        let Trial { point, result } = self;
        point.encode(w);
        result.encode(w);
    }
}

impl Decode for Trial {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(Trial { point: Decode::decode(r)?, result: Decode::decode(r)? })
    }
}

impl Encode for MetricDirection {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(match self {
            MetricDirection::Maximize => 0,
            MetricDirection::Minimize => 1,
        });
    }
}

impl Decode for MetricDirection {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.get_u8()? {
            0 => Ok(MetricDirection::Maximize),
            1 => Ok(MetricDirection::Minimize),
            t => Err(DecodeError { offset: 0, what: format!("invalid MetricDirection tag {t}") }),
        }
    }
}

impl Encode for FrontierPoint {
    fn encode(&self, w: &mut Writer) {
        let FrontierPoint { point, metrics } = self;
        point.encode(w);
        metrics.encode(w);
    }
}

impl Decode for FrontierPoint {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(FrontierPoint { point: Decode::decode(r)?, metrics: Decode::decode(r)? })
    }
}

impl Encode for MultiObjective {
    fn encode(&self, w: &mut Writer) {
        match self {
            MultiObjective::Valid { metrics, guide } => {
                w.put_u8(0);
                metrics.encode(w);
                guide.encode(w);
            }
            MultiObjective::Invalid => w.put_u8(1),
            MultiObjective::Surrogate { guide } => {
                w.put_u8(2);
                guide.encode(w);
            }
        }
    }
}

impl Decode for MultiObjective {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.get_u8()? {
            0 => {
                Ok(MultiObjective::Valid { metrics: Decode::decode(r)?, guide: Decode::decode(r)? })
            }
            1 => Ok(MultiObjective::Invalid),
            2 => Ok(MultiObjective::Surrogate { guide: Decode::decode(r)? }),
            t => Err(DecodeError { offset: 0, what: format!("invalid MultiObjective tag {t}") }),
        }
    }
}

impl Encode for SurrogateTier {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(match self {
            SurrogateTier::S0 => 0,
        });
    }
}

impl Decode for SurrogateTier {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.get_u8()? {
            0 => Ok(SurrogateTier::S0),
            t => Err(DecodeError { offset: 0, what: format!("invalid SurrogateTier tag {t}") }),
        }
    }
}

impl Encode for Fidelity {
    fn encode(&self, w: &mut Writer) {
        match self {
            Fidelity::Exact => w.put_u8(0),
            Fidelity::Screened { keep_fraction, min_full, tier } => {
                w.put_u8(1);
                keep_fraction.encode(w);
                min_full.encode(w);
                tier.encode(w);
            }
        }
    }
}

impl Decode for Fidelity {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.get_u8()? {
            0 => Ok(Fidelity::Exact),
            1 => Ok(Fidelity::Screened {
                keep_fraction: Decode::decode(r)?,
                min_full: Decode::decode(r)?,
                tier: Decode::decode(r)?,
            }),
            t => Err(DecodeError { offset: 0, what: format!("invalid Fidelity tag {t}") }),
        }
    }
}

impl Encode for FidelityReport {
    fn encode(&self, w: &mut Writer) {
        let FidelityReport {
            tier,
            keep_fraction,
            min_full,
            full_evals,
            screened_out,
            pairs,
            spearman,
            kendall,
        } = self;
        tier.encode(w);
        keep_fraction.encode(w);
        min_full.encode(w);
        full_evals.encode(w);
        screened_out.encode(w);
        pairs.encode(w);
        spearman.encode(w);
        kendall.encode(w);
    }
}

impl Decode for FidelityReport {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(FidelityReport {
            tier: Decode::decode(r)?,
            keep_fraction: Decode::decode(r)?,
            min_full: Decode::decode(r)?,
            full_evals: Decode::decode(r)?,
            screened_out: Decode::decode(r)?,
            pairs: Decode::decode(r)?,
            spearman: Decode::decode(r)?,
            kendall: Decode::decode(r)?,
        })
    }
}

impl Encode for MultiTrial {
    fn encode(&self, w: &mut Writer) {
        let MultiTrial { point, result } = self;
        point.encode(w);
        result.encode(w);
    }
}

impl Decode for MultiTrial {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(MultiTrial { point: Decode::decode(r)?, result: Decode::decode(r)? })
    }
}

impl Encode for ParetoArchive {
    fn encode(&self, w: &mut Writer) {
        self.directions().to_vec().encode(w);
        self.entries().to_vec().encode(w);
    }
}

impl Decode for ParetoArchive {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let directions: Vec<MetricDirection> = Decode::decode(r)?;
        let entries: Vec<FrontierPoint> = Decode::decode(r)?;
        ParetoArchive::from_parts(&directions, entries)
            .map_err(|what| DecodeError { offset: 0, what })
    }
}

/// Screening state at a round boundary — the sidecar a
/// [`crate::Fidelity::Screened`] study adds to its checkpoint so a resumed
/// run screens exactly as the uninterrupted one would have. The screening
/// *RNG* needs no cursor of its own: each round's exploration pick is drawn
/// from a pure function of `(study seed, round start index)`, so the
/// trial count the checkpoint already records is the cursor.
#[derive(Debug, Clone, PartialEq)]
pub struct FidelityCheckpoint {
    /// Configured keep fraction (identity-checked on resume).
    pub keep_fraction: f64,
    /// Configured per-round full-evaluation floor.
    pub min_full: usize,
    /// Configured surrogate tier.
    pub tier: SurrogateTier,
    /// Trials that reached the real evaluator so far — also the burn-in
    /// progress ([`crate::S0_BURN_IN`]).
    pub full_evals: usize,
    /// Trials screened out so far.
    pub screened_out: usize,
    /// Accumulated `(surrogate score, true guide)` correlation pairs.
    pub pairs: Vec<(f64, f64)>,
    /// `(trial index, surrogate score)` of every screened-out trial. Scalar
    /// checkpoints store the lossy stream the optimizer observed (where a
    /// screened-out trial is a plain `Invalid`), so the Surrogate markings
    /// are reconstructed from this list on restore.
    pub screened: Vec<(usize, f64)>,
}

impl Encode for FidelityCheckpoint {
    fn encode(&self, w: &mut Writer) {
        let FidelityCheckpoint {
            keep_fraction,
            min_full,
            tier,
            full_evals,
            screened_out,
            pairs,
            screened,
        } = self;
        keep_fraction.encode(w);
        min_full.encode(w);
        tier.encode(w);
        full_evals.encode(w);
        screened_out.encode(w);
        pairs.encode(w);
        screened.encode(w);
    }
}

impl Decode for FidelityCheckpoint {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(FidelityCheckpoint {
            keep_fraction: Decode::decode(r)?,
            min_full: Decode::decode(r)?,
            tier: Decode::decode(r)?,
            full_evals: Decode::decode(r)?,
            screened_out: Decode::decode(r)?,
            pairs: Decode::decode(r)?,
            screened: Decode::decode(r)?,
        })
    }
}

/// Progress of a scalar batched [`crate::Study`] at a round boundary —
/// everything needed to resume it bit-identically.
#[derive(Debug, Clone, PartialEq)]
pub struct StudyCheckpoint {
    /// Study seed (with [`StudyCheckpoint::trials_done`], the whole
    /// `trial_rng` cursor).
    pub seed: u64,
    /// Round size the study was launched with.
    pub batch_size: usize,
    /// Incumbent `(point, objective)`.
    pub best: Option<(Vec<usize>, f64)>,
    /// Best-so-far curve over completed trials.
    pub convergence: Vec<f64>,
    /// Safe-search rejections so far.
    pub invalid_trials: usize,
    /// Completed trials, in proposal order.
    pub trials: Vec<Trial>,
    /// Optimizer state at the boundary.
    pub optimizer: OptimizerState,
    /// Screening state — `Some` iff the study ran with
    /// [`crate::Fidelity::Screened`].
    pub fidelity: Option<FidelityCheckpoint>,
}

impl StudyCheckpoint {
    /// Number of completed trials — the `trial_rng(seed, index)` cursor:
    /// resuming continues with index `trials_done()`.
    #[must_use]
    pub fn trials_done(&self) -> usize {
        self.trials.len()
    }
}

impl Encode for StudyCheckpoint {
    fn encode(&self, w: &mut Writer) {
        let StudyCheckpoint {
            seed,
            batch_size,
            best,
            convergence,
            invalid_trials,
            trials,
            optimizer,
            fidelity,
        } = self;
        seed.encode(w);
        batch_size.encode(w);
        best.encode(w);
        convergence.encode(w);
        invalid_trials.encode(w);
        trials.encode(w);
        optimizer.encode(w);
        fidelity.encode(w);
    }
}

impl Decode for StudyCheckpoint {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(StudyCheckpoint {
            seed: Decode::decode(r)?,
            batch_size: Decode::decode(r)?,
            best: Decode::decode(r)?,
            convergence: Decode::decode(r)?,
            invalid_trials: Decode::decode(r)?,
            trials: Decode::decode(r)?,
            optimizer: Decode::decode(r)?,
            fidelity: Decode::decode(r)?,
        })
    }
}

/// Progress of a Pareto batched [`crate::Study`] at a round boundary —
/// everything needed to resume it bit-identically.
#[derive(Debug, Clone, PartialEq)]
pub struct ParetoCheckpoint {
    /// Study seed (with [`ParetoCheckpoint::trials_done`], the whole
    /// `trial_rng` cursor).
    pub seed: u64,
    /// Round size the study was launched with.
    pub batch_size: usize,
    /// The non-dominated set so far.
    pub archive: ParetoArchive,
    /// Best guide scalar so far (`NaN` before the first valid trial).
    pub best_guide: f64,
    /// Guide best-so-far curve over completed trials.
    pub guide_convergence: Vec<f64>,
    /// Safe-search rejections so far.
    pub invalid_trials: usize,
    /// Completed trials, in proposal order.
    pub trials: Vec<MultiTrial>,
    /// Optimizer state at the boundary.
    pub optimizer: OptimizerState,
    /// Screening state — `Some` iff the study ran with
    /// [`crate::Fidelity::Screened`].
    pub fidelity: Option<FidelityCheckpoint>,
}

impl ParetoCheckpoint {
    /// Number of completed trials — the `trial_rng(seed, index)` cursor.
    #[must_use]
    pub fn trials_done(&self) -> usize {
        self.trials.len()
    }
}

impl Encode for ParetoCheckpoint {
    fn encode(&self, w: &mut Writer) {
        let ParetoCheckpoint {
            seed,
            batch_size,
            archive,
            best_guide,
            guide_convergence,
            invalid_trials,
            trials,
            optimizer,
            fidelity,
        } = self;
        seed.encode(w);
        batch_size.encode(w);
        archive.encode(w);
        best_guide.encode(w);
        guide_convergence.encode(w);
        invalid_trials.encode(w);
        trials.encode(w);
        optimizer.encode(w);
        fidelity.encode(w);
    }
}

impl Decode for ParetoCheckpoint {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(ParetoCheckpoint {
            seed: Decode::decode(r)?,
            batch_size: Decode::decode(r)?,
            archive: Decode::decode(r)?,
            best_guide: Decode::decode(r)?,
            guide_convergence: Decode::decode(r)?,
            invalid_trials: Decode::decode(r)?,
            trials: Decode::decode(r)?,
            optimizer: Decode::decode(r)?,
            fidelity: Decode::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pareto::MetricDirection::{Maximize, Minimize};

    #[test]
    fn optimizer_states_round_trip() {
        let states = [
            OptimizerState::Random,
            OptimizerState::Opaque,
            OptimizerState::Lcs {
                population: 4,
                personal: vec![None, Some((vec![1, 2], 3.0))],
                global: Some((vec![1, 2], 3.0)),
                next_particle: 2,
                pull_global: 0.35,
                mutate: 0.15,
                pending: vec![(0, vec![5, 6])],
            },
            OptimizerState::Tpe {
                history: vec![(vec![1], Some(2.0)), (vec![0], None)],
                gamma: 0.25,
                candidates: 24,
                startup: 16,
            },
            OptimizerState::Seeded {
                seeds: vec![vec![9, 9]],
                next: 1,
                inner: Box::new(OptimizerState::Random),
            },
        ];
        for s in states {
            assert_eq!(OptimizerState::from_bytes(&s.to_bytes()).unwrap(), s);
        }
    }

    #[test]
    fn archive_round_trips_with_internal_order_preserved() {
        let mut a = ParetoArchive::new(&[Maximize, Minimize]);
        a.insert(vec![0], vec![1.0, 5.0]);
        a.insert(vec![1], vec![2.0, 6.0]);
        a.insert(vec![2], vec![0.5, 1.0]);
        let back = ParetoArchive::from_bytes(&a.to_bytes()).unwrap();
        assert_eq!(back.entries(), a.entries(), "internal order must survive");
        assert_eq!(back.frontier(), a.frontier());
        assert_eq!(back.directions(), a.directions());
    }

    #[test]
    fn archive_decode_rejects_dominated_sets() {
        // Hand-craft an encoding whose entries are not mutually
        // non-dominated: decode must refuse rather than resurrect a
        // corrupt archive.
        let mut w = Writer::new();
        vec![Maximize, Minimize].encode(&mut w);
        vec![
            FrontierPoint { point: vec![0], metrics: vec![2.0, 1.0] },
            FrontierPoint { point: vec![1], metrics: vec![1.0, 2.0] }, // dominated
        ]
        .encode(&mut w);
        assert!(ParetoArchive::from_bytes(&w.into_bytes()).is_err());
    }

    #[test]
    fn pareto_checkpoint_round_trips() {
        let mut archive = ParetoArchive::new(&[Maximize, Minimize]);
        archive.insert(vec![3], vec![1.0, 2.0]);
        let ck = ParetoCheckpoint {
            seed: 7,
            batch_size: 8,
            archive,
            best_guide: 0.5,
            guide_convergence: vec![f64::NAN, 0.5],
            invalid_trials: 1,
            trials: vec![
                MultiTrial { point: vec![0], result: MultiObjective::Invalid },
                MultiTrial { point: vec![3], result: MultiObjective::valid(vec![1.0, 2.0], 0.5) },
            ],
            optimizer: OptimizerState::Random,
            fidelity: None,
        };
        let back = ParetoCheckpoint::from_bytes(&ck.to_bytes()).unwrap();
        assert_eq!(back.seed, ck.seed);
        assert_eq!(back.trials, ck.trials);
        assert_eq!(back.trials_done(), 2);
        assert_eq!(back.archive.frontier(), ck.archive.frontier());
        // NaN round-trips bit-exactly (PartialEq would reject it).
        assert!(back.guide_convergence[0].is_nan());
        assert_eq!(back.guide_convergence[1].to_bits(), 0.5f64.to_bits());
    }

    #[test]
    fn scalar_checkpoint_round_trips() {
        let ck = StudyCheckpoint {
            seed: 3,
            batch_size: 4,
            best: Some((vec![1, 2], 9.0)),
            convergence: vec![9.0],
            invalid_trials: 0,
            trials: vec![Trial { point: vec![1, 2], result: TrialResult::Valid(9.0) }],
            optimizer: OptimizerState::Tpe {
                history: vec![(vec![1, 2], Some(9.0))],
                gamma: 0.25,
                candidates: 24,
                startup: 16,
            },
            fidelity: None,
        };
        assert_eq!(StudyCheckpoint::from_bytes(&ck.to_bytes()).unwrap(), ck);
    }

    #[test]
    fn fidelity_checkpoint_round_trips_inside_a_scalar_checkpoint() {
        let fid = FidelityCheckpoint {
            keep_fraction: 0.25,
            min_full: 2,
            tier: SurrogateTier::S0,
            full_evals: 6,
            screened_out: 2,
            pairs: vec![(1.5, 2.5), (f64::NEG_INFINITY, 0.0)],
            screened: vec![(3, 0.75), (5, f64::NEG_INFINITY)],
        };
        let ck = StudyCheckpoint {
            seed: 11,
            batch_size: 4,
            best: Some((vec![0], 1.0)),
            convergence: vec![1.0],
            invalid_trials: 0,
            trials: vec![Trial { point: vec![0], result: TrialResult::Valid(1.0) }],
            optimizer: OptimizerState::Random,
            fidelity: Some(fid),
        };
        assert_eq!(StudyCheckpoint::from_bytes(&ck.to_bytes()).unwrap(), ck);
    }

    #[test]
    fn surrogate_outcomes_and_fidelity_configs_round_trip() {
        for result in [
            MultiObjective::Surrogate { guide: 2.5 },
            MultiObjective::Surrogate { guide: f64::NEG_INFINITY },
        ] {
            let mut w = Writer::new();
            result.encode(&mut w);
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes);
            assert_eq!(MultiObjective::decode(&mut r).unwrap(), result);
            assert!(r.is_done());
        }
        for fidelity in [
            Fidelity::Exact,
            Fidelity::Screened { keep_fraction: 0.125, min_full: 2, tier: SurrogateTier::S0 },
            Fidelity::Screened { keep_fraction: 1.0, min_full: 0, tier: SurrogateTier::S0 },
        ] {
            let mut w = Writer::new();
            fidelity.encode(&mut w);
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes);
            assert_eq!(Fidelity::decode(&mut r).unwrap(), fidelity);
            assert!(r.is_done());
        }
        let err = SurrogateTier::decode(&mut Reader::new(&[1])).unwrap_err();
        assert!(err.what.contains("SurrogateTier tag 1"), "{}", err.what);
    }

    #[test]
    fn fidelity_report_round_trips() {
        for report in [
            FidelityReport {
                tier: SurrogateTier::S0,
                keep_fraction: 0.25,
                min_full: 2,
                full_evals: 12,
                screened_out: 36,
                pairs: 12,
                spearman: Some(0.93),
                kendall: Some(0.81),
            },
            FidelityReport {
                tier: SurrogateTier::S0,
                keep_fraction: 1.0,
                min_full: 0,
                full_evals: 48,
                screened_out: 0,
                pairs: 0,
                spearman: None,
                kendall: None,
            },
        ] {
            let mut w = Writer::new();
            report.encode(&mut w);
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes);
            assert_eq!(FidelityReport::decode(&mut r).unwrap(), report);
            assert!(r.is_done());
        }
    }
}
