//! Helpers the workloads share: graph-cache warm-up, cache-counter sums
//! and the per-stage metrics they feed.

use std::path::Path;
use std::time::Instant;

use fast_arch::presets;
use fast_bench::pareto_figs::bench_config;
use fast_core::{Evaluator, Fidelity, OptimizerKind, StagedCacheStats, SweepConfig};
use fast_models::Workload;
use fast_sim::{CacheStats, SimOptions};

use crate::metrics::Metrics;
use crate::stats::{ratio, Samples};

/// Every native batch size Table 3 can draw.
pub const BATCHES: [u64; 9] = [1, 2, 4, 8, 16, 32, 64, 128, 256];
/// Trials per sweep round.
pub const BATCH: usize = 8;

/// A bench-matrix sweep configuration with every field pinned: the bench
/// crate's `bench_config()` reads `FAST_TRIALS`, so nothing is left to it
/// but the seed designs.
pub fn sweep_config(trials: usize, seed: u64, fidelity: Fidelity) -> SweepConfig {
    SweepConfig {
        trials,
        batch: BATCH,
        seed,
        optimizer: OptimizerKind::Random,
        fidelity,
        ..bench_config()
    }
}

/// Runs `f` `repeats` times; returns the last result and the seconds each
/// run took.
pub fn timed<T>(repeats: usize, mut f: impl FnMut() -> T) -> (T, Samples) {
    let mut seconds = Samples::default();
    let mut last = None;
    for _ in 0..repeats {
        let t = Instant::now();
        last = Some(f());
        seconds.push_duration(t.elapsed(), 1.0);
    }
    (last.expect("at least one repeat"), seconds)
}

/// Builds every graph of `workloads` at every native batch into the
/// evaluator's graph cache, by one warm-up simulation per graph.
pub fn warm_graph_cache(base: &Evaluator, workloads: &[Workload]) {
    let mut warm = presets::fast_large();
    for b in BATCHES {
        warm.native_batch = b;
        for &w in workloads {
            // Only the graph build matters here; the preset cannot schedule
            // every graph at every batch.
            let _ = base.simulate_workload(w, &warm, &SimOptions::default());
        }
    }
}

fn add(a: CacheStats, b: CacheStats) -> CacheStats {
    CacheStats { hits: a.hits + b.hits, misses: a.misses + b.misses }
}

/// `total += s`, stage by stage.
pub fn add_staged(total: &mut StagedCacheStats, s: &StagedCacheStats) {
    total.op = add(total.op, s.op);
    total.sim = add(total.sim, s.sim);
    total.fuse = add(total.fuse, s.fuse);
    let (t, d) = (&mut total.solver, &s.solver);
    t.warm_hits += d.warm_hits;
    t.warm_misses += d.warm_misses;
    t.warm_nodes += d.warm_nodes;
    t.cold_nodes += d.cold_nodes;
    t.lp_pivots += d.lp_pivots;
}

/// The cache and solver metrics of `staged`; counts are divided by `per`
/// (the sessions or jobs they summed over).
pub fn stage_metrics(m: &mut Metrics, staged: &StagedCacheStats, per: f64) {
    let hit_rate = |c: CacheStats| ratio(c.hits, c.hits + c.misses);
    let solver = &staged.solver;
    let exact_solves = solver.warm_hits + solver.warm_misses;
    m.insert("sim.map_hits", staged.op.hits as f64 / per);
    m.insert("sim.map_misses", staged.op.misses as f64 / per);
    m.insert("core.op_hit_rate", hit_rate(staged.op));
    m.insert("core.sim_hit_rate", hit_rate(staged.sim));
    m.insert("core.fuse_hit_rate", hit_rate(staged.fuse));
    m.insert("ilp.exact_solves", exact_solves as f64 / per);
    m.insert("ilp.nodes", (solver.warm_nodes + solver.cold_nodes) as f64 / per);
    m.insert("ilp.lp_pivots", solver.lp_pivots as f64 / per);
    m.insert("fusion.warm_hit_rate", ratio(solver.warm_hits, exact_solves));
}

/// Records `names` as 0: layers the workload does not run.
pub fn not_run(m: &mut Metrics, names: &[&'static str]) {
    for &name in names {
        m.insert(name, 0.0);
    }
}

/// Total size of the `eval_cache*.bin` files in `dir`.
pub fn snapshot_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter(|e| {
            let name = e.file_name();
            let name = name.to_string_lossy();
            name.starts_with("eval_cache") && name.ends_with(".bin")
        })
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .sum()
}
