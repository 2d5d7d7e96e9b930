//! Multi-fidelity jobs over the wire: a spec carrying
//! [`Fidelity::Screened`] must stream surrogate accounting (per-round
//! full-sim counts, per-scenario [`FidelityReport`]s) and still produce a
//! result bit-identical to a single-process screened sweep of the same
//! spec — while an [`Fidelity::Exact`] job streams no surrogate fields at
//! all. A spec naming a surrogate tier this build does not know — over the
//! wire or in the journal — is hostile input: a typed reject or a damaged
//! job, never a panic.

mod common;

use common::{b0, expected_points, outcome_points, retire_tier, scratch, spec_one, ServerProc};
use fast_core::{Fidelity, JobJournal, JobState, SurrogateTier};
use fast_serve::{JobEvent, JobPhase, Request, Response};
use serde::bin::{read_envelope, write_envelope};

// 32 trials at batch 8: an 8-trial burn-in round, then three screened
// rounds keeping 2 of 8 — 14 full sims, a 2.3x thinning.
const TRIALS: usize = 32;

fn screened_spec(name: &str) -> fast_core::JobSpec {
    let mut spec = spec_one(name, b0(), TRIALS, 8);
    spec.config.fidelity =
        Fidelity::Screened { keep_fraction: 0.25, min_full: 2, tier: SurrogateTier::S0 };
    spec
}

#[test]
fn screened_job_streams_fidelity_and_matches_a_single_process_sweep() {
    let spec = screened_spec("screened-e2e");
    let expected = expected_points(&spec);
    let journal = scratch("screened-e2e");

    let server = ServerProc::spawn(&journal, &["--max-inflight", "1"]);
    let mut client = server.client();
    client.set_read_timeout(None).expect("stream timeout off");
    let outcome = client.run(&spec).expect("screened job completes");

    // Bit-identity: the served screened frontier is exactly what one
    // process computes — screening is part of the determinism contract.
    assert_eq!(outcome_points(&outcome), expected);

    // Every Round event of a screened job reports its full-sim count, and
    // the count never decreases and never exceeds trials evaluated.
    let mut last_full = 0usize;
    let mut rounds = 0usize;
    for ev in &outcome.events {
        if let JobEvent::Round { trials_done, full_evals, .. } = ev {
            let full = full_evals.expect("screened rounds carry full_evals");
            assert!(full >= last_full, "full-sim count must be monotone");
            assert!(full <= *trials_done, "cannot fully simulate more than proposed");
            last_full = full;
            rounds += 1;
        }
    }
    assert!(rounds > 0, "watched job must stream rounds");

    // The terminal scenario event and the durable record agree on the
    // fidelity accounting, and the screening actually thinned simulation.
    let streamed = outcome
        .events
        .iter()
        .find_map(|ev| match ev {
            JobEvent::ScenarioFinished { fidelity, .. } => Some(fidelity.clone()),
            _ => None,
        })
        .expect("scenario finished on stream");
    let recorded = outcome.scenarios[0].fidelity.clone();
    assert_eq!(streamed, recorded);
    let fid = recorded.expect("screened scenario records a FidelityReport");
    assert_eq!(fid.full_evals + fid.screened_out, TRIALS);
    assert!(
        fid.savings_factor() >= 2.0,
        "keep 0.25 of {TRIALS} trials must at least halve full sims, got {}",
        fid.full_evals
    );
    assert_eq!(fid.full_evals, last_full, "stream and report count the same sims");
}

#[test]
fn exact_job_streams_no_surrogate_fields() {
    let spec = spec_one("exact-e2e", b0(), 8, 4);
    let journal = scratch("exact-e2e");

    let server = ServerProc::spawn(&journal, &["--max-inflight", "1"]);
    let mut client = server.client();
    client.set_read_timeout(None).expect("stream timeout off");
    let outcome = client.run(&spec).expect("exact job completes");

    for ev in &outcome.events {
        match ev {
            JobEvent::Round { full_evals, .. } => {
                assert_eq!(*full_evals, None, "exact rounds carry no full-sim count");
            }
            JobEvent::ScenarioFinished { fidelity, .. } => {
                assert_eq!(*fidelity, None, "exact scenarios carry no FidelityReport");
            }
            _ => {}
        }
    }
    assert!(outcome.scenarios.iter().all(|s| s.fidelity.is_none()));
}

#[test]
fn journaled_job_with_a_retired_tier_restarts_as_damaged() {
    let root = scratch("screened-retired-journal");
    let journal = JobJournal::open(&root).expect("journal");
    let id = journal.create(&screened_spec("retired-journal")).expect("job journaled");
    // Rewrite the tier inside the spec file, keeping its envelope intact
    // so only the payload decode can notice.
    let path = journal.job_dir(id).join("job.bin");
    let file = std::fs::read(&path).expect("spec file");
    let magic: [u8; 8] = file[..8].try_into().expect("8-byte magic");
    let version = u32::from_le_bytes(file[8..12].try_into().expect("4-byte version"));
    let mut payload = read_envelope(magic, version, &file).expect("intact spec file").to_vec();
    retire_tier(&mut payload);
    std::fs::write(&path, write_envelope(magic, version, &payload)).expect("rewrite spec");

    let jobs = journal.jobs().expect("journal lists");
    let JobState::Damaged(what) = &jobs[0].state else {
        panic!("expected Damaged, got {:?}", jobs[0].state)
    };
    assert!(what.contains("SurrogateTier tag 1"), "{what}");

    // A daemon restarted on the journal lists the job as damaged instead of
    // resuming it, and keeps serving.
    let server = ServerProc::spawn(&root, &[]);
    let mut client = server.client();
    match client.request(&Request::List).expect("answered") {
        Response::Jobs { jobs } => match &jobs[..] {
            [(job, JobPhase::Damaged { what })] if *job == id.0 => {
                assert!(what.contains("SurrogateTier tag 1"), "{what}");
            }
            other => panic!("expected one damaged job, got {other:?}"),
        },
        other => panic!("expected a job list, got {other:?}"),
    }
    client.ping().expect("daemon still answers");
}
