//! `zoo-cold`: seeded Table-3 points scored cold across all 17 zoo graphs,
//! each then re-scored once warm. Single-threaded; every trial pays Stage A
//! mapping, Stage B assembly and greedy fusion, with no ILP, no tier reuse,
//! no disk and no wire.
//!
//! Units: a *job* is the first 64 seeded draws that the paper budget
//! admits (about a fifth of all draws); a *round* is 8 consecutive
//! admitted points; a *trial* is one admitted point scored on a fresh
//! evaluation cache (graph cache warm), and the *warm trial* is its
//! immediate re-score. A *pass* sets up a new evaluator and scores every
//! job of the run; each pass repeats the same jobs.

use std::collections::HashMap;
use std::time::Instant;

use fast_arch::{Budget, DatapathConfig};
use fast_core::{DesignEval, EvalError, Evaluator, FastSpace, Objective, StagedCacheStats};
use fast_fusion::{fuse_workload, FusionOptions};
use fast_ir::Graph;
use fast_models::Workload;
use fast_sim::{simulate_staged, MapperCache, SimOptions};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::metrics::{EndToEnd, Passes, PASSES};
use crate::stack::{add_staged, not_run, stage_metrics, timed, warm_graph_cache, BATCHES};
use crate::stats::{ratio, Digest};
use crate::trace::Tracer;
use crate::{Ctx, Outcome};

/// Admitted points per job: a fixed count, so every seed does the same
/// amount of work.
const POINTS_PER_JOB: usize = 64;
const ROUND_POINTS: usize = 8;
/// Jobs per ten seconds asked for, in each of the run's passes (about
/// 0.4 s each on one Xeon core).
const JOBS_PER_10S: u64 = 8;
const SETUP_REPEATS: usize = 6;

/// The 17 zoo graphs: the paper's 13-workload suite plus the four serving
/// families.
fn zoo() -> Vec<Workload> {
    let mut v = Workload::suite();
    v.extend(Workload::serving_suite());
    v
}

/// Creates the evaluator and builds every zoo graph at every native batch
/// into its graph cache.
fn setup() -> Evaluator {
    let base = Evaluator::new(zoo(), Objective::PerfPerTdp, Budget::paper_default());
    warm_graph_cache(&base, &zoo());
    base
}

/// The graphs the decomposed layer calls run on, built with
/// `Workload::build` under a `models.build` span each.
fn build_graphs(tracer: &mut Tracer) -> Result<HashMap<(Workload, u64), Graph>, String> {
    let mut graphs = HashMap::new();
    for b in BATCHES {
        for w in zoo() {
            let span = tracer.begin("models.build", b);
            let g = w.build(b).map_err(|e| format!("building {w} at batch {b}: {e}"))?;
            tracer.end(span);
            graphs.insert((w, b), g);
        }
    }
    Ok(graphs)
}

/// The admitted points of job `job`: the first seeded draws that decode
/// to a valid datapath inside the paper budget.
fn admitted(ctx: &Ctx, job: u64) -> Vec<(DatapathConfig, SimOptions)> {
    let space = FastSpace::table3();
    let budget = Budget::paper_default();
    let mut rng = StdRng::seed_from_u64(ctx.unit_seed(job));
    std::iter::repeat_with(|| space.decode(&space.space().sample(&mut rng)))
        .filter(|(cfg, _)| cfg.validate().is_ok() && budget.admits(cfg))
        .take(POINTS_PER_JOB)
        .collect()
}

/// The bits of an evaluation that must repeat exactly: the objective, the
/// geomean and every per-workload step time, or the error.
fn result_bytes(r: &Result<DesignEval, EvalError>) -> Vec<u8> {
    match r {
        Ok(e) => {
            let mut out = Vec::with_capacity(8 * (2 + e.workloads.len()));
            out.extend(e.objective_value.to_bits().to_le_bytes());
            out.extend(e.geomean_qps.to_bits().to_le_bytes());
            for w in &e.workloads {
                out.extend(w.step_seconds.to_bits().to_le_bytes());
            }
            out
        }
        Err(err) => format!("error: {err}").into_bytes(),
    }
}

/// One pass over the run's jobs.
#[derive(Default)]
struct Pass {
    setup_s: f64,
    e2e: EndToEnd,
    staged: StagedCacheStats,
    /// The cold result of every trial, in order.
    cold: Vec<Result<DesignEval, EvalError>>,
    /// `(job, digest)` of every job.
    digests: Vec<(u64, u64)>,
}

/// Sets up an evaluator and scores every admitted point of the run cold
/// and then warm, checking that the warm answer repeats the cold one and,
/// when `monolithic` is set, that the monolithic reference path agrees on
/// one point per job.
fn score_pass(ctx: &Ctx, tracer: &mut Tracer, out: &mut Outcome, monolithic: bool) -> Pass {
    let mut pass = Pass::default();
    let start = Instant::now();
    let base = setup();
    pass.setup_s = start.elapsed().as_secs_f64();
    for job in 0..ctx.units(JOBS_PER_10S) {
        pass.e2e.calib.tick();
        let job_span = tracer.begin("job", job);
        let job_start = Instant::now();
        let mut round_start = job_start;
        let mut digest = Digest::default();
        let points = admitted(ctx, job);
        for (i, (cfg, sim)) in points.iter().enumerate() {
            let op = job * 1000 + i as u64;
            let trial_span = tracer.begin("trial", op);
            let e = base.fresh_eval_cache();
            let span = tracer.begin("core.evaluate.cold", op);
            let t0 = Instant::now();
            let cold = e.evaluate(cfg, sim);
            let t1 = Instant::now();
            tracer.end(span);
            let span = tracer.begin("core.evaluate.warm", op);
            let t2 = Instant::now();
            let warm = e.evaluate(cfg, sim);
            let t3 = Instant::now();
            tracer.end(span);
            tracer.end(trial_span);
            pass.e2e.trial_ms.push_duration(t1 - t0, 1e3);
            pass.e2e.warm_trial_us.push_duration(t3 - t2, 1e6);
            add_staged(&mut pass.staged, &e.staged_cache_stats());

            let bytes = result_bytes(&cold);
            digest.bytes(&bytes);
            out.attempted += 1;
            if result_bytes(&warm) != bytes {
                out.fail(format!("job {job} point {i}: the warm re-score differs from cold"));
            }
            pass.cold.push(cold);
            if (i + 1) % ROUND_POINTS == 0 {
                let now = Instant::now();
                pass.e2e.round_ms.push_duration(now - round_start, 1e3);
                round_start = now;
            }
        }
        let job_s = job_start.elapsed().as_secs_f64();
        pass.e2e.job_s.push(job_s);
        pass.e2e.wall_s.push(job_s);
        tracer.end(job_span);
        pass.digests.push((job, digest.finish()));

        // The uncached monolithic pipeline is the staged pipeline's
        // reference; one point per job keeps this check cheap.
        if let Some((cfg, sim)) = points.first().filter(|_| monolithic) {
            let reference = base.fresh_eval_cache().monolithic().evaluate(cfg, sim);
            let cold = &pass.cold[pass.cold.len() - points.len()];
            if result_bytes(&reference) != result_bytes(cold) {
                out.fail(format!("job {job} point 0: staged result differs from monolithic"));
            }
        }
    }
    pass
}

/// Per-layer counters of the decomposed pass.
#[derive(Default)]
struct Decomposed {
    trials: u64,
    sims: u64,
    sim_failures: u64,
}

/// Re-runs every trial as separate layer calls — `map_batch` on an empty
/// mapper cache, `simulate_staged` on the now-warm one, `fuse_workload`
/// and the scoring arithmetic — each under its own span, and checks that
/// they reproduce `Evaluator::evaluate` bit for bit.
fn decompose(
    ctx: &Ctx,
    graphs: &HashMap<(Workload, u64), Graph>,
    cold: &[Result<DesignEval, EvalError>],
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Decomposed {
    let mut d = Decomposed::default();
    let heuristic = FusionOptions::heuristic_only();
    let workloads = zoo();
    let mut cold = cold.iter();
    for job in 0..ctx.units(JOBS_PER_10S) {
        for (i, (cfg, sim)) in admitted(ctx, job).iter().enumerate() {
            let op = job * 1000 + i as u64;
            let expected = cold.next().expect("one cold result per decomposed trial");
            let mapper = MapperCache::new();
            let span = tracer.begin("core.score", op);
            let tdp = fast_arch::tdp(cfg).total_w;
            let mut steps = Vec::with_capacity(workloads.len());
            let mut log_qps_sum = 0.0;
            let mut schedule_failed = false;
            for &w in &workloads {
                let graph = &graphs[&(w, cfg.native_batch)];
                let s = tracer.begin("sim.map", op);
                let (nests, names): (Vec<_>, Vec<&str>) = graph
                    .nodes()
                    .filter_map(|n| graph.loop_nest(n.id()).map(|nest| (nest, n.name())))
                    .unzip();
                let mapped = mapper.map_batch(&nests, cfg, sim, &names);
                tracer.end(s);
                std::hint::black_box(mapped);
                let s = tracer.begin("sim.assemble", op);
                let perf = simulate_staged(graph, cfg, sim, &mapper);
                tracer.end(s);
                d.sims += 1;
                let Ok(perf) = perf else {
                    d.sim_failures += 1;
                    schedule_failed = true;
                    break;
                };
                let s = tracer.begin("fusion.greedy", op);
                let fused = fuse_workload(&perf, cfg, &heuristic);
                tracer.end(s);
                let step = fused.total_seconds;
                steps.push(step.to_bits());
                log_qps_sum += ((perf.batch_per_core * perf.cores) as f64 / step).ln();
            }
            let objective = (log_qps_sum / workloads.len() as f64).exp() / tdp;
            tracer.end(span);
            d.trials += 1;

            let agrees = match expected {
                Ok(e) => {
                    !schedule_failed
                        && e.objective_value.to_bits() == objective.to_bits()
                        && e.workloads.iter().map(|w| w.step_seconds.to_bits()).eq(steps)
                }
                Err(EvalError::ScheduleFailure(_)) => schedule_failed,
                Err(_) => false,
            };
            if !agrees {
                out.fail(format!(
                    "job {job} point {i}: the decomposed layer calls do not reproduce \
                     Evaluator::evaluate"
                ));
            }
        }
    }
    d
}

pub fn run(ctx: &Ctx, tracer: &mut Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    // The untraced passes give the end-to-end metrics; the traced run adds
    // one traced pass, for the overhead, and then decomposes its trials.
    let mut untraced = Tracer::new(false);
    let mut passes = Passes { setup_s: timed(SETUP_REPEATS, setup).1, ..Passes::default() };
    for p in 0..PASSES {
        let pass = score_pass(ctx, &mut untraced, &mut out, p == 0);
        out.check_pass(&pass.digests);
        passes.setup_s.push(pass.setup_s);
        passes.passes.push(pass.e2e);
    }
    passes.peak_rss_mb = crate::metrics::peak_rss_mib("self").unwrap_or(0.0);
    passes.record(&mut out)?;
    if !ctx.trace {
        return Ok(out);
    }

    let (graphs, build_s) = timed(SETUP_REPEATS, || build_graphs(tracer));
    let graphs = graphs?;
    let traced = score_pass(ctx, tracer, &mut out, false);
    out.check_pass(&traced.digests);
    let d = decompose(ctx, &graphs, &traced.cold, tracer, &mut out);
    let layers = tracer.layers();
    let per_trial_us =
        |name: &str| layers.get(name).map_or(0.0, |l| l.self_s) / d.trials.max(1) as f64 * 1e6;
    let m = &mut out.metrics;
    m.insert("trace.overhead_s", traced.e2e.pass_s() - passes.fastest_pass_s());
    m.insert("models.build_ms", build_s.median() * 1e3);
    m.insert("sim.map_us", per_trial_us("sim.map"));
    m.insert("sim.assemble_us", per_trial_us("sim.assemble"));
    m.insert("sim.schedule_fail_frac", ratio(d.sim_failures, d.sims));
    m.insert("fusion.greedy_us", per_trial_us("fusion.greedy"));
    m.insert("core.score_us", per_trial_us("core.score"));
    // Cache and solver traffic per trial.
    stage_metrics(m, &traced.staged, traced.cold.len().max(1) as f64);
    not_run(
        m,
        &[
            "fusion.exact_s",
            "core.snapshot_save_ms",
            "core.snapshot_load_ms",
            "core.snapshot_bytes",
            "search.invalid_frac",
            "search.frontier_points",
            "surrogate.full_frac",
            "surrogate.spearman",
            "serve.ping_us",
            "serve.accept_ms",
            "serve.round_gap_ms.p50",
            "serve.done_ms",
            "serve.snapshot_bytes",
        ],
    );
    out.samples.insert("decomposed_trials", d.trials as usize);
    Ok(out)
}
