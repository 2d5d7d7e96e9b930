//! `sweep-ilp`: in-process `SweepRunner::run_session` over the 18-scenario
//! bench matrix, Random optimizer, batch 8, on an evaluator built with the
//! exact fusion path (`FusionOptions::default()`). The only workload where
//! the ILP solver (presolve, simplex, branch and bound) and the cross-point
//! warm-start tier run, under heavy cross-scenario tier reuse.
//!
//! Units: a *job* is one session (the whole matrix) on a fresh evaluation
//! cache, graph cache warm, at its own seed; a *round* is the gap between
//! observer `Round` events, for the rounds that computed something new; a
//! *trial* is such a round's gap divided by the trials it proposed; the
//! *warm trial* re-scores one frontier design on the session's warm
//! evaluator. A *pass* sets up a new prototype evaluator and runs every
//! session of the run; each pass repeats the same sessions.
//!
//! About nine rounds in ten are answered from the cache or rejected before
//! simulation in ~0.1 ms; the rest map, assemble and fuse for 0.3–5 ms. A
//! 90th percentile over both populations sits on the edge between them
//! and swings with the share of cold rounds, so the round and trial
//! percentiles cover the cold rounds, and the cached ones count in
//! `wall_s` and `job_s` only.

use std::path::Path;
use std::time::Instant;

use fast_arch::Budget;
use fast_bench::pareto_figs::bench_matrix;
use fast_core::{
    points_table, CompletedScenario, Evaluator, FastSpace, Fidelity, Objective, StagedCacheStats,
    SweepEvent, SweepResult, SweepRunner, SweepSession,
};
use fast_fusion::FusionOptions;

use crate::metrics::{EndToEnd, Passes, PASSES};
use crate::stack::{
    add_staged, not_run, snapshot_bytes, stage_metrics, sweep_config, timed, warm_graph_cache,
};
use crate::stats::{digest_of, ratio, Samples};
use crate::trace::Tracer;
use crate::{Ctx, Outcome};

/// Trials per scenario. Exact-fusion solves vary in cost by orders of
/// magnitude from design to design, so a run is many short sessions rather
/// than a few long ones: at 400 trials a session's time varied by half
/// around its mean, and the mean of a run's sessions by a fifth from seed
/// to seed.
const TRIALS: usize = 96;
/// Sessions per ten seconds asked for, in each of the run's passes (about
/// 0.06 s each on one Xeon core).
const SESSIONS_PER_10S: u64 = 55;
const SETUP_REPEATS: usize = 12;
/// `serve-jobs` episodes the traced run adds, for the serve and surrogate
/// layers.
const SERVE_EPISODES: u64 = 2;

/// Creates the prototype evaluator the sessions share graphs with, and
/// builds every bench-matrix graph at every native batch into its graph
/// cache.
fn setup() -> Evaluator {
    let base = Evaluator::new(Vec::new(), Objective::Qps, Budget::paper_default())
        .with_fusion(FusionOptions::default());
    let mut workloads = Vec::new();
    for domain in &bench_matrix().domains {
        for &w in &domain.workloads {
            if !workloads.contains(&w) {
                workloads.push(w);
            }
        }
    }
    warm_graph_cache(&base, &workloads);
    base
}

/// What the observer saw, with arrival times.
enum Seen {
    Started,
    Round { trials_done: usize, misses: u64 },
    Finished,
}

/// One observed session.
struct Session {
    result: SweepResult,
    wall_s: f64,
    /// `(gap, trials proposed)` of every round that computed something new.
    cold_rounds: Vec<(f64, usize)>,
}

/// Runs session `k` on `evaluator`, recording scenario and round spans
/// under a `session` span when tracing.
fn run_session(ctx: &Ctx, k: u64, evaluator: &Evaluator, tracer: &mut Tracer) -> Session {
    let runner =
        SweepRunner::new(bench_matrix(), sweep_config(TRIALS, ctx.unit_seed(k), Fidelity::Exact));
    let mut seen: Vec<(Instant, Seen)> = Vec::new();
    let mut observe = |ev: &SweepEvent| {
        let now = Instant::now();
        seen.push((
            now,
            match ev {
                SweepEvent::ScenarioStarted { .. } => Seen::Started,
                SweepEvent::Round { trials_done, .. } => {
                    // Misses in any tier so far: a round that adds none was
                    // answered from the cache or rejected before simulation.
                    let s = evaluator.staged_cache_stats();
                    Seen::Round {
                        trials_done: *trials_done,
                        misses: s.op.misses + s.sim.misses + s.fuse.misses,
                    }
                }
                SweepEvent::ScenarioFinished { .. } => Seen::Finished,
            },
        ));
    };
    let span = tracer.begin("session", k);
    let start = Instant::now();
    let result = runner.run_session(SweepSession {
        evaluator: Some(evaluator),
        observer: Some(&mut observe),
        ..SweepSession::default()
    });
    let wall_s = start.elapsed().as_secs_f64();
    tracer.end(span);

    let mut cold_rounds = Vec::new();
    // Round spans wait for their scenario's span, which closes last.
    let mut open: Vec<(Instant, Instant)> = Vec::new();
    let (mut started, mut prev, mut prev_trials, mut prev_misses) = (start, start, 0, 0);
    for (at, what) in seen {
        match what {
            Seen::Started => (started, prev, prev_trials) = (at, at, 0),
            Seen::Round { trials_done, misses } => {
                if misses > prev_misses {
                    cold_rounds.push(((at - prev).as_secs_f64(), trials_done - prev_trials));
                }
                open.push((prev, at));
                (prev, prev_trials, prev_misses) = (at, trials_done, misses);
            }
            Seen::Finished => {
                let scenario = tracer.record("scenario", k, started, at, span);
                for (from, to) in open.drain(..) {
                    tracer.record("round", k, from, to, scenario);
                }
            }
        }
    }
    Session { result, wall_s, cold_rounds }
}

/// Re-scores every frontier design on the session's warm evaluator; each
/// answer must repeat the frontier's objective, TDP and area bits.
fn rescore(
    session: &Session,
    evaluator: &Evaluator,
    warm_us: &mut Samples,
    tracer: &mut Tracer,
    k: u64,
) -> Result<(), String> {
    let space = FastSpace::table3();
    for s in &session.result.scenarios {
        let sc = &s.scenario;
        let e = evaluator.for_scenario(sc.domain.workloads.clone(), sc.objective, sc.budget);
        for (fd, fp) in s.frontier.iter().zip(&s.frontier_points) {
            let span = tracer.begin("core.evaluate.warm", k);
            let t = Instant::now();
            let r = e.evaluate_point(&space, &fd.point);
            warm_us.push_duration(t.elapsed(), 1e6);
            tracer.end(span);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            match r {
                Ok(d) if bits(&[d.objective_value, d.tdp_w, d.area_mm2]) == bits(&fp.metrics) => {}
                _ => return Err(format!("{}: a frontier design re-scores differently", sc.name)),
            }
        }
    }
    Ok(())
}

fn records(result: &SweepResult) -> Vec<CompletedScenario> {
    result.scenarios.iter().map(|s| s.record()).collect()
}

/// Snapshot save and load of a session's final tiers: `(save ms, load ms,
/// bytes)`. The load must adopt every entry the save wrote.
fn snapshot(
    evaluator: &Evaluator,
    fresh: &Evaluator,
    dir: &Path,
    tracer: &mut Tracer,
    k: u64,
) -> Result<(f64, f64, u64), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join("eval_cache.bin");
    let span = tracer.begin("core.snapshot.save", k);
    let t = Instant::now();
    let (op, fuse) = evaluator.save_eval_cache(&path).map_err(|e| format!("save: {e}"))?;
    let save_ms = t.elapsed().as_secs_f64() * 1e3;
    tracer.end(span);
    let bytes = snapshot_bytes(dir);
    let span = tracer.begin("core.snapshot.load", k);
    let t = Instant::now();
    let report = fresh.load_eval_cache(&path);
    let load_ms = t.elapsed().as_secs_f64() * 1e3;
    tracer.end(span);
    let _ = std::fs::remove_dir_all(dir);
    if report.warning.is_some() || report.op_loaded != op || report.fuse_loaded != fuse {
        return Err(format!("session {k}: the snapshot did not load back whole: {report:?}"));
    }
    Ok((save_ms, load_ms, bytes))
}

/// One pass over the run's sessions.
#[derive(Default)]
struct Pass {
    setup_s: f64,
    e2e: EndToEnd,
    /// `(session, digest)` of every session.
    digests: Vec<(u64, u64)>,
    invalid: u64,
    trials: u64,
    frontier_points: u64,
    staged: StagedCacheStats,
    snapshots: Vec<(f64, f64, u64)>,
}

fn run_pass(ctx: &Ctx, tracer: &mut Tracer, out: &mut Outcome, snapshots: bool) -> Pass {
    let mut pass = Pass::default();
    let start = Instant::now();
    let base = setup();
    pass.setup_s = start.elapsed().as_secs_f64();
    for k in 0..ctx.units(SESSIONS_PER_10S) {
        pass.e2e.calib.tick();
        let evaluator = base.fresh_eval_cache();
        let session = run_session(ctx, k, &evaluator, tracer);
        out.attempted += 1;
        pass.e2e.job_s.push(session.wall_s);
        pass.e2e.wall_s.push(session.wall_s);
        for &(gap, trials) in &session.cold_rounds {
            pass.e2e.round_ms.push(gap * 1e3);
            pass.e2e.trial_ms.push(gap * 1e3 / trials.max(1) as f64);
        }
        if let Err(e) = rescore(&session, &evaluator, &mut pass.e2e.warm_trial_us, tracer, k) {
            out.fail(format!("session {k}: {e}"));
        }
        let records = records(&session.result);
        pass.digests.push((k, digest_of(points_table(&records).as_bytes())));
        for r in &records {
            pass.invalid += r.invalid_trials as u64;
            pass.trials += TRIALS as u64;
            pass.frontier_points += r.frontier_points.len() as u64;
        }
        add_staged(&mut pass.staged, &session.result.total_staged);
        if snapshots {
            let dir = ctx.scratch().join(format!("sweep-{k}"));
            match snapshot(&evaluator, &base.fresh_eval_cache(), &dir, tracer, k) {
                Ok(s) => pass.snapshots.push(s),
                Err(e) => out.fail(e),
            }
        }
    }
    pass
}

pub fn run(ctx: &Ctx, tracer: &mut Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut untraced = Tracer::new(false);
    let mut passes = Passes { setup_s: timed(SETUP_REPEATS, setup).1, ..Passes::default() };
    // Each session's fastest time over the passes.
    let mut exact_s = vec![f64::INFINITY; ctx.units(SESSIONS_PER_10S) as usize];
    for _ in 0..PASSES {
        let pass = run_pass(ctx, &mut untraced, &mut out, false);
        out.check_pass(&pass.digests);
        for (best, s) in exact_s.iter_mut().zip(pass.e2e.job_s.values()) {
            *best = best.min(*s);
        }
        passes.setup_s.push(pass.setup_s);
        passes.passes.push(pass.e2e);
    }
    passes.peak_rss_mb = crate::metrics::peak_rss_mib("self").unwrap_or(0.0);
    passes.record(&mut out)?;
    if !ctx.trace {
        return Ok(out);
    }

    let traced = run_pass(ctx, tracer, &mut out, true);
    out.check_pass(&traced.digests);
    // The paired heuristic-only sweep: the Random optimizer proposes the
    // same points, so only Stage C differs.
    let heuristic = setup().with_fusion(FusionOptions::heuristic_only());
    let exact_s: Samples = (0..ctx.units(SESSIONS_PER_10S))
        .zip(exact_s)
        .map(|(k, exact)| {
            exact - run_session(ctx, k, &heuristic.fresh_eval_cache(), &mut untraced).wall_s
        })
        .collect::<Vec<_>>()
        .into();

    let snap = |i: usize| -> Samples {
        traced.snapshots.iter().map(|s| [s.0, s.1, s.2 as f64][i]).collect::<Vec<_>>().into()
    };
    let sessions = traced.e2e.job_s.len().max(1) as f64;
    let m = &mut out.metrics;
    m.insert("trace.overhead_s", traced.e2e.pass_s() - passes.fastest_pass_s());
    m.insert("fusion.exact_s", exact_s.median());
    stage_metrics(m, &traced.staged, sessions);
    m.insert("core.snapshot_save_ms", snap(0).median());
    m.insert("core.snapshot_load_ms", snap(1).median());
    m.insert("core.snapshot_bytes", snap(2).median());
    m.insert("search.invalid_frac", ratio(traced.invalid, traced.trials));
    m.insert("search.frontier_points", traced.frontier_points as f64 / sessions);
    not_run(
        m,
        &[
            "models.build_ms",
            "sim.map_us",
            "sim.assemble_us",
            "sim.schedule_fail_frac",
            "fusion.greedy_us",
            "core.score_us",
        ],
    );
    out.samples.insert("fusion.exact_s", exact_s.len());
    out.samples.insert("core.snapshot", traced.snapshots.len());
    // `serve-jobs` is not one of the benchmark's workloads (see README.md),
    // so this traced run also carries the serve and surrogate layers.
    crate::serve_jobs::serve_layers(ctx, SERVE_EPISODES, tracer, &mut out)?;
    Ok(out)
}
