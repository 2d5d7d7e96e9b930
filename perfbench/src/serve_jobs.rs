//! `serve-jobs`: a `fast-serve` child process (from the same release
//! build) on a fresh journal, `--max-inflight 1`, and one client connection
//! that submits a fixed sequence of bench-matrix jobs and watches each:
//! `Fidelity::Exact` at a new seed, then `Screened { S0 }` at the same seed,
//! repeated. The workload that writes as well as reads: every round that
//! computes something new rewrites the whole shared tier into the job's
//! directory. Heuristic fusion only.
//!
//! Units: an *episode* is one daemon's life (spawn, the job sequence,
//! shutdown); a *job* is an exact job, from submit to `Done`; a *trial* is
//! an exact job's latency divided by the trials it proposed; a *round* is
//! a screened replay's latency, whose full evaluations all hit the cache,
//! divided by the round events it streamed, and a *warm trial* is the
//! replay's latency divided by its trials. Round events reach the client
//! in bursts, so the gaps between them time the client, not the daemon.

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use fast_arch::Budget;
use fast_bench::pareto_figs::bench_matrix;
use fast_core::{
    points_table, CacheStats, Evaluator, Fidelity, JobSpec, Objective, SolverStats,
    StagedCacheStats, SurrogateTier, SweepRunner, SweepSession,
};
use fast_serve::{Client, JobEvent, ListenAddr, Response, StagedTraffic, Traffic};

use crate::calib::Calibration;
use crate::metrics::{EndToEnd, Passes, PASSES};
use crate::stack::{add_staged, not_run, snapshot_bytes, stage_metrics, sweep_config, BATCH};
use crate::stats::{digest_of, ratio, Samples};
use crate::trace::Tracer;
use crate::{Ctx, Outcome};

/// Trials per scenario: short jobs, so that a run holds many of them. The
/// exact jobs' latencies vary with the seed, mostly through how large the
/// snapshots they rewrite grow.
const TRIALS: usize = 96;
// Every round proposes a full batch.
const _: () = assert!(TRIALS.is_multiple_of(BATCH));
/// Exact-then-screened pairs per episode, each at its own seed.
const PAIRS: u64 = 3;
/// Jobs per episode.
const JOBS: u64 = 2 * PAIRS;
/// Episodes per ten seconds asked for, in each of the run's passes (about
/// 0.7 s each on one Xeon core).
const EPISODES_PER_10S: u64 = 5;
const PINGS: usize = 5;
/// Extra daemon start-ups per run, so `setup_s` is a median of several.
const SETUP_PROBES: u64 = 4;
const SCREENED: Fidelity =
    Fidelity::Screened { keep_fraction: 0.25, min_full: 2, tier: SurrogateTier::S0 };

/// Job `j` of the run: exact when `j` is even, then screened at the same
/// seed. Episode `e` runs jobs `JOBS * e` to `JOBS * (e + 1) - 1`, so every
/// episode of a pass draws new seeds, and every pass repeats them.
fn spec(ctx: &Ctx, j: u64) -> JobSpec {
    let fidelity = if j.is_multiple_of(2) { Fidelity::Exact } else { SCREENED };
    JobSpec {
        name: format!("perfbench-{j}"),
        matrix: bench_matrix(),
        config: sweep_config(TRIALS, ctx.unit_seed(j / 2), fidelity),
    }
}

/// A running daemon; dropping it kills and reaps the process if it is
/// still alive.
struct Daemon {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    addr: ListenAddr,
}

impl Daemon {
    fn spawn(bin: &Path, journal: &Path) -> Result<Daemon, String> {
        let mut child = Command::new(bin)
            .arg("--journal")
            .arg(journal)
            .args(["--listen", "tcp:127.0.0.1:0", "--max-inflight", "1"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line.trim().strip_prefix("fast-serve listening on ").map(ListenAddr::parse);
        match (read, addr) {
            (Ok(_), Some(Ok(addr))) => Ok(Daemon { child, _stdout: stdout, addr }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("fast-serve did not announce its address (got {line:?})"))
            }
        }
    }

    /// Asks the daemon to drain and waits for it to exit.
    fn shutdown(mut self, client: &mut Client) -> Result<(), String> {
        client.shutdown().map_err(|e| format!("shutdown: {e}"))?;
        let deadline = Instant::now() + Duration::from_secs(30);
        while Instant::now() < deadline {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("fast-serve exited with {status}")),
                Ok(None) => std::thread::sleep(Duration::from_millis(5)),
                Err(e) => return Err(format!("waiting for fast-serve: {e}")),
            }
        }
        Err("fast-serve did not exit after shutdown".to_string())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One watched job, timed at the client.
struct Job {
    j: u64,
    submit: Instant,
    accepted: Instant,
    done: Instant,
    /// Client receipt time of every streamed event.
    events: Vec<(Instant, JobEvent)>,
    table: String,
    staged: StagedCacheStats,
    snapshot_bytes: u64,
    full_evals: u64,
    screened_out: u64,
    spearman: Vec<f64>,
    invalid: u64,
    frontier_points: u64,
}

fn run_job(ctx: &Ctx, client: &mut Client, journal: &Path, j: u64) -> Result<Job, String> {
    let spec = spec(ctx, j);
    let submit = Instant::now();
    let (id, _) = client.submit(&spec, true).map_err(|e| format!("job {j}: submit: {e}"))?;
    let accepted = Instant::now();
    let mut events = Vec::new();
    loop {
        let response = client.read_response().map_err(|e| format!("job {j}: {e}"))?;
        let now = Instant::now();
        match response {
            Response::Event { id: ev_id, event } if ev_id == id => events.push((now, event)),
            Response::Done { id: done_id, scenarios, staged, .. } if done_id == id => {
                let dir = journal.join("jobs").join(format!("job-{id:06}"));
                let mut job = Job {
                    j,
                    submit,
                    accepted,
                    done: now,
                    events,
                    table: points_table(&scenarios),
                    staged: staged_stats(&staged),
                    snapshot_bytes: snapshot_bytes(&dir),
                    full_evals: 0,
                    screened_out: 0,
                    spearman: Vec::new(),
                    invalid: 0,
                    frontier_points: 0,
                };
                for s in &scenarios {
                    job.invalid += s.invalid_trials as u64;
                    job.frontier_points += s.frontier_points.len() as u64;
                    if let Some(f) = &s.fidelity {
                        job.full_evals += f.full_evals as u64;
                        job.screened_out += f.screened_out as u64;
                        job.spearman.extend(f.spearman);
                    }
                }
                return Ok(job);
            }
            Response::Rejected { reason } => return Err(format!("job {j}: rejected: {reason}")),
            other => return Err(format!("job {j}: unexpected response {other:?}")),
        }
    }
}

/// The wire form of the per-stage counters, back in the core type.
fn staged_stats(t: &StagedTraffic) -> StagedCacheStats {
    let c = |t: Traffic| CacheStats { hits: t.hits, misses: t.misses };
    let s = &t.solver;
    StagedCacheStats {
        op: c(t.op),
        sim: c(t.sim),
        fuse: c(t.fuse),
        solver: SolverStats {
            warm_hits: s.warm_hits,
            warm_misses: s.warm_misses,
            warm_nodes: s.warm_nodes,
            cold_nodes: s.cold_nodes,
            lp_pivots: s.lp_pivots,
        },
    }
}

/// One episode: daemon start-up, pings, the job sequence, shutdown.
struct Episode {
    setup_s: f64,
    ping_us: Vec<f64>,
    jobs: Vec<Job>,
    peak_rss_mb: f64,
}

/// Starts a daemon on a fresh journal and connects to it; returns the time
/// from spawn to the first `Pong`.
fn start(ctx: &Ctx, journal: &Path) -> Result<(Daemon, Client, f64), String> {
    let _ = std::fs::remove_dir_all(journal);
    let start = Instant::now();
    let daemon = Daemon::spawn(&ctx.serve_bin, journal)?;
    let mut client =
        Client::connect(&daemon.addr).map_err(|err| format!("connect {:?}: {err}", daemon.addr))?;
    client.ping().map_err(|err| format!("first ping: {err}"))?;
    Ok((daemon, client, start.elapsed().as_secs_f64()))
}

/// Start-up times of daemons that run no job.
fn setup_probes(ctx: &Ctx) -> Result<Vec<f64>, String> {
    (0..SETUP_PROBES)
        .map(|p| {
            let journal = ctx.scratch().join(format!("serve-probe-{p}"));
            let (daemon, mut client, setup_s) = start(ctx, &journal)?;
            daemon.shutdown(&mut client)?;
            let _ = std::fs::remove_dir_all(&journal);
            Ok(setup_s)
        })
        .collect()
}

fn run_episode(ctx: &Ctx, e: u64) -> Result<Episode, String> {
    let journal = ctx.scratch().join(format!("serve-{e}"));
    let (daemon, mut client, setup_s) = start(ctx, &journal)?;
    let mut ping_us = Vec::new();
    for _ in 0..PINGS {
        let t = Instant::now();
        client.ping().map_err(|err| format!("ping: {err}"))?;
        ping_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let mut jobs = Vec::new();
    for j in e * JOBS..(e + 1) * JOBS {
        jobs.push(run_job(ctx, &mut client, &journal, j)?);
    }
    let pid = daemon.child.id().to_string();
    let peak_rss_mb = crate::metrics::peak_rss_mib(&pid).unwrap_or(0.0);
    daemon.shutdown(&mut client)?;
    let _ = std::fs::remove_dir_all(&journal);
    Ok(Episode { setup_s, ping_us, jobs, peak_rss_mb })
}

/// Round gaps of a job (seconds), each from the previous round or the
/// scenario start.
fn round_gaps(job: &Job) -> Vec<f64> {
    let mut out = Vec::new();
    let mut prev = job.accepted;
    for (at, ev) in &job.events {
        match ev {
            JobEvent::ScenarioStarted { .. } => prev = *at,
            JobEvent::Round { .. } => {
                out.push((*at - prev).as_secs_f64());
                prev = *at;
            }
            _ => {}
        }
    }
    out
}

/// Job, scenario and round spans from the client's receipt times.
fn trace_job(job: &Job, tracer: &mut Tracer) {
    let id = tracer.record("job", job.j, job.submit, job.done, None);
    tracer.record("serve.accept", job.j, job.submit, job.accepted, id);
    let mut started = job.accepted;
    let mut prev = job.accepted;
    let mut open = Vec::new();
    for (at, ev) in &job.events {
        match ev {
            JobEvent::ScenarioStarted { .. } => (started, prev) = (*at, *at),
            JobEvent::Round { .. } => {
                open.push((prev, *at));
                prev = *at;
            }
            JobEvent::ScenarioFinished { .. } => {
                let sc = tracer.record("scenario", job.j, started, *at, id);
                for (from, to) in open.drain(..) {
                    tracer.record("round", job.j, from, to, sc);
                }
            }
            _ => {}
        }
    }
}

/// Runs the first `count` episodes of the run once, timing the
/// calibration kernel between episodes.
fn run_pass(
    ctx: &Ctx,
    count: u64,
    out: &mut Outcome,
) -> Result<(Vec<Episode>, Calibration), String> {
    let mut calib = Calibration::default();
    let mut episodes = Vec::new();
    for e in 0..count {
        calib.tick();
        let episode = run_episode(ctx, e)?;
        out.attempted += episode.jobs.len() as u64;
        episodes.push(episode);
    }
    Ok((episodes, calib))
}

/// Wall time from an episode's first submit to its last `Done`.
fn episode_wall_s(episode: &Episode) -> f64 {
    match (episode.jobs.first(), episode.jobs.last()) {
        (Some(first), Some(last)) => (last.done - first.submit).as_secs_f64(),
        _ => 0.0,
    }
}

/// Adds an episode's end-to-end samples to `e2e`. Exact jobs and screened
/// replays are separate populations: a percentile over both would sit
/// between them. Exact rounds are split again by the snapshot rewrites, so
/// rounds are timed on the replays.
fn add_end_to_end(e2e: &mut EndToEnd, episode: &Episode) {
    e2e.wall_s.push(episode_wall_s(episode));
    let trials_per_job = (bench_matrix().len() * TRIALS) as f64;
    for job in &episode.jobs {
        let latency = (job.done - job.submit).as_secs_f64();
        if job.j.is_multiple_of(2) {
            e2e.job_s.push(latency);
            e2e.trial_ms.push(latency / trials_per_job * 1e3);
        } else {
            let rounds = job.events.iter().filter(|(_, ev)| matches!(ev, JobEvent::Round { .. }));
            e2e.round_ms.push(latency / rounds.count().max(1) as f64 * 1e3);
            e2e.warm_trial_us.push(latency / trials_per_job * 1e6);
        }
    }
}

/// The frontier table of the first `count` job specs, from in-process
/// sweeps.
fn expected_tables(ctx: &Ctx, count: u64) -> Vec<String> {
    let oracle = Evaluator::new(Vec::new(), Objective::Qps, Budget::paper_default());
    (0..count)
        .map(|j| {
            let spec = spec(ctx, j);
            let result = SweepRunner::new(spec.matrix, spec.config)
                .run_session(SweepSession { evaluator: Some(&oracle), ..SweepSession::default() });
            let records: Vec<_> = result.scenarios.iter().map(|s| s.record()).collect();
            points_table(&records)
        })
        .collect()
}

/// Each served job's frontier table must equal the in-process one.
fn check(expected: &[String], episodes: &[Episode], out: &mut Outcome) {
    for (e, episode) in episodes.iter().enumerate() {
        for job in &episode.jobs {
            if job.table != expected[job.j as usize] {
                out.fail(format!(
                    "episode {e} job {}: the served frontier differs from an in-process sweep",
                    job.j
                ));
            }
        }
    }
}

/// Runs the first `count` episodes with spans, checked against
/// `expected`.
fn traced_pass(
    ctx: &Ctx,
    count: u64,
    expected: &[String],
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Result<Vec<Episode>, String> {
    let (traced, _) = run_pass(ctx, count, out)?;
    check(expected, &traced, out);
    for job in traced.iter().flat_map(|e| &e.jobs) {
        trace_job(job, tracer);
    }
    Ok(traced)
}

/// The serve and surrogate layers' metrics of traced episodes.
fn record_serve_layers(traced: &[Episode], out: &mut Outcome) {
    let all: Vec<&Job> = traced.iter().flat_map(|e| &e.jobs).collect();
    let median = |f: &dyn Fn(&Job) -> f64| -> f64 {
        Samples::from(all.iter().map(|j| f(j)).collect::<Vec<_>>()).median()
    };
    let ping: Samples = traced.iter().flat_map(|e| e.ping_us.clone()).collect::<Vec<_>>().into();
    let gaps: Samples =
        all.iter().flat_map(|j| round_gaps(j)).map(|g| g * 1e3).collect::<Vec<_>>().into();
    let sum = |f: &dyn Fn(&Job) -> u64| -> u64 { all.iter().map(|j| f(j)).sum() };
    let spearman: Samples =
        all.iter().flat_map(|j| j.spearman.iter().copied()).collect::<Vec<_>>().into();
    let full = sum(&|j| j.full_evals);
    // Replays compute nothing new and write no snapshot.
    let exact_snapshots: Samples = all
        .iter()
        .filter(|j| j.j.is_multiple_of(2))
        .map(|j| j.snapshot_bytes as f64)
        .collect::<Vec<_>>()
        .into();
    let m = &mut out.metrics;
    m.insert("surrogate.full_frac", ratio(full, full + sum(&|j| j.screened_out)));
    m.insert("surrogate.spearman", spearman.mean());
    m.insert("serve.ping_us", ping.median());
    m.insert("serve.accept_ms", median(&|j| (j.accepted - j.submit).as_secs_f64() * 1e3));
    m.insert("serve.round_gap_ms.p50", gaps.median());
    m.insert(
        "serve.done_ms",
        median(&|j| {
            let last = j.events.last().map_or(j.accepted, |(at, _)| *at);
            (j.done - last).as_secs_f64() * 1e3
        }),
    );
    m.insert("serve.snapshot_bytes", exact_snapshots.median());
    out.samples.insert("serve.ping_us", ping.len());
    out.samples.insert("serve.round_gap_ms", gaps.len());
}

/// The serve and surrogate layers for another workload's traced run:
/// `count` episodes with spans, each job checked against an in-process
/// sweep.
pub fn serve_layers(
    ctx: &Ctx,
    count: u64,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let expected = expected_tables(ctx, count * JOBS);
    let traced = traced_pass(ctx, count, &expected, tracer, out)?;
    record_serve_layers(&traced, out);
    Ok(())
}

pub fn run(ctx: &Ctx, tracer: &mut Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let episodes = ctx.units(EPISODES_PER_10S);
    let expected = expected_tables(ctx, episodes * JOBS);
    for (j, table) in expected.iter().enumerate() {
        out.digests.push((j as u64, digest_of(table.as_bytes())));
    }
    let mut passes = Passes { setup_s: setup_probes(ctx)?.into(), ..Passes::default() };
    let mut rss = Samples::default();
    for _ in 0..PASSES {
        let (pass, calib) = run_pass(ctx, episodes, &mut out)?;
        check(&expected, &pass, &mut out);
        let mut e2e = EndToEnd { calib, ..EndToEnd::default() };
        for episode in &pass {
            add_end_to_end(&mut e2e, episode);
            passes.setup_s.push(episode.setup_s);
            rss.push(episode.peak_rss_mb);
        }
        passes.passes.push(e2e);
    }
    passes.peak_rss_mb = rss.median();
    passes.record(&mut out)?;
    out.samples.insert("peak_rss_mb", rss.len());
    if !ctx.trace {
        return Ok(out);
    }

    let traced = traced_pass(ctx, episodes, &expected, tracer, &mut out)?;
    record_serve_layers(&traced, &mut out);
    let all: Vec<&Job> = traced.iter().flat_map(|e| &e.jobs).collect();
    let n = all.len().max(1) as f64;
    let sum = |f: &dyn Fn(&Job) -> u64| -> u64 { all.iter().map(|j| f(j)).sum() };
    let mut staged = StagedCacheStats::default();
    for job in &all {
        add_staged(&mut staged, &job.staged);
    }
    let trials = (all.len() * bench_matrix().len() * TRIALS) as u64;
    let m = &mut out.metrics;
    m.insert(
        "trace.overhead_s",
        traced.iter().map(episode_wall_s).sum::<f64>() - passes.fastest_pass_s(),
    );
    stage_metrics(m, &staged, n);
    m.insert("search.invalid_frac", ratio(sum(&|j| j.invalid), trials));
    m.insert("search.frontier_points", sum(&|j| j.frontier_points) as f64 / n);
    not_run(
        m,
        &[
            "models.build_ms",
            "sim.map_us",
            "sim.assemble_us",
            "sim.schedule_fail_frac",
            "fusion.greedy_us",
            "fusion.exact_s",
            "core.score_us",
            "core.snapshot_save_ms",
            "core.snapshot_load_ms",
            "core.snapshot_bytes",
        ],
    );
    Ok(out)
}
