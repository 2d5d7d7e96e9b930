//! Tier **S0**: the analytical roofline estimator.
//!
//! For a candidate datapath the roofline tier bounds every workload's step
//! time from below by the classic two-term model
//!
//! ```text
//! step >= max(FLOPs / peak_FLOPs_per_core, DRAM_bytes / DRAM_bw_per_core)
//! ```
//!
//! with traffic accounted under [`FusionStrategy::XlaDefault`] — the
//! "partially fused" graph every FAST candidate at least achieves. The
//! per-workload QPS upper bounds are geomeaned (matching the simulator's
//! objective assembly) and optionally divided by the TDP model for a
//! Perf/TDP-style guide. No mapper, no ILP: scoring a point costs a handful
//! of float ops once the graph aggregates are cached.

use fast_arch::{cost, DatapathConfig};
use fast_ir::{dram_traffic, FusionStrategy, Graph};

/// Which study guide the surrogate mimics. Mirrors the simulator's
/// objective axis without depending on `fast-core` (which depends on us).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum GuideMetric {
    /// Geomean queries/second across workloads.
    Qps,
    /// Geomean QPS divided by modeled TDP (the paper's headline metric).
    #[default]
    PerfPerTdp,
}

/// Immutable per-`(workload, batch)` aggregates the S0 tier consumes.
///
/// Everything a score needs from the IR is folded into these few floats, so
/// graph construction and traversal happen once per batch size, not once
/// per candidate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GraphLoad {
    /// Batch size the graph was built at.
    pub batch: u64,
    /// Total FLOPs of one step.
    pub flops: f64,
    /// DRAM bytes of one step under XLA-default fusion.
    pub dram_bytes: f64,
}

impl GraphLoad {
    /// Aggregate a built workload graph, recording the batch it was built at.
    #[must_use]
    pub fn at_batch(graph: &Graph, batch: u64) -> Self {
        GraphLoad {
            batch,
            flops: graph.total_flops() as f64,
            dram_bytes: dram_traffic(graph, FusionStrategy::XlaDefault) as f64,
        }
    }
}

/// Roofline lower bound on one core's step time (seconds) for `load`.
#[must_use]
pub fn step_seconds_bound(cfg: &DatapathConfig, load: &GraphLoad) -> f64 {
    let compute = load.flops / (cfg.peak_flops() / cfg.cores as f64);
    let memory = load.dram_bytes / cfg.dram_bytes_per_sec_per_core();
    compute.max(memory)
}

/// Roofline upper bound on chip QPS for `load` (all cores serve disjoint
/// batches, as in the simulator).
#[must_use]
pub fn qps_bound(cfg: &DatapathConfig, load: &GraphLoad) -> f64 {
    (load.batch * cfg.cores) as f64 / step_seconds_bound(cfg, load)
}

/// The S0 guide: geomean of per-workload QPS bounds, divided by modeled TDP
/// for [`GuideMetric::PerfPerTdp`]. An optimistic but rank-preserving proxy
/// for the simulator's objective value.
#[must_use]
pub fn roofline_guide(cfg: &DatapathConfig, loads: &[GraphLoad], metric: GuideMetric) -> f64 {
    if loads.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = loads.iter().map(|l| qps_bound(cfg, l).ln()).sum();
    let geomean = (log_sum / loads.len() as f64).exp();
    match metric {
        GuideMetric::Qps => geomean,
        GuideMetric::PerfPerTdp => geomean / cost::tdp(cfg).total_w,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fast_models::Workload;

    fn load(w: Workload, batch: u64) -> GraphLoad {
        GraphLoad::at_batch(&w.build(batch).expect("in-tree workloads build"), batch)
    }

    #[test]
    fn graph_load_aggregates_are_consistent() {
        let l = load(Workload::Bert { seq_len: 128 }, 8);
        assert_eq!(l.batch, 8);
        assert!(l.flops > 0.0);
        assert!(l.dram_bytes > 0.0);
    }

    #[test]
    fn doubling_compute_and_bandwidth_never_hurts_the_bound() {
        let small = fast_arch::presets::tpu_v3();
        let mut big = small;
        big.pes_x *= 2;
        big.dram_channels *= 2;
        let workloads = [
            Workload::EfficientNet(fast_models::EfficientNet::B0),
            Workload::Bert { seq_len: 128 },
            Workload::ResNet50,
        ];
        for w in workloads {
            let l = load(w, small.native_batch);
            assert!(
                qps_bound(&big, &l) >= qps_bound(&small, &l),
                "{w:?}: bigger datapath must not lower the roofline bound"
            );
        }
    }

    #[test]
    fn guide_metrics_diverge_by_exactly_tdp() {
        let cfg = fast_arch::presets::tpu_v3();
        let loads = [
            load(Workload::Bert { seq_len: 128 }, cfg.native_batch),
            load(Workload::ResNet50, cfg.native_batch),
        ];
        let qps = roofline_guide(&cfg, &loads, GuideMetric::Qps);
        let ppt = roofline_guide(&cfg, &loads, GuideMetric::PerfPerTdp);
        assert!(qps > 0.0 && ppt > 0.0);
        let tdp = cost::tdp(&cfg).total_w;
        assert!((qps / ppt - tdp).abs() / tdp < 1e-9);
    }

    #[test]
    fn empty_workload_set_scores_zero() {
        let cfg = fast_arch::presets::tpu_v3();
        assert_eq!(roofline_guide(&cfg, &[], GuideMetric::Qps), 0.0);
    }
}
