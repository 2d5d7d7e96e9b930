//! Operational-intensity analytics (Figure 3 of the paper).
//!
//! Operational intensity is the ratio of compute (FLOPs) to DRAM traffic
//! (bytes). A model whose intensity sits below an accelerator's *ridgepoint*
//! (peak FLOPS ÷ peak bandwidth) is memory-bandwidth-bound — §4.1. Fusion
//! raises intensity by keeping intermediate tensors on chip; this module
//! evaluates the strategies the paper compares in Figure 3.

use crate::fusion_regions::{build_regions, RegionGraph};
use crate::graph::Graph;
use crate::ops::OpKind;
use serde::{Deserialize, Serialize};

/// A fusion strategy whose DRAM traffic we account for analytically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FusionStrategy {
    /// No fusion: every op round-trips activations through DRAM.
    None,
    /// XLA default fusion: element-wise chains merged, at most one matrix op
    /// per region; region boundary tensors round-trip through DRAM.
    XlaDefault,
    /// Hypothetical template fusing each depthwise conv with the following
    /// 1×1 (pointwise) convolution.
    DepthwiseSeparableTemplate,
    /// Hypothetical template fusing entire tagged blocks (MBConv blocks for
    /// EfficientNet; encoder sublayers for BERT).
    BlockTemplate,
    /// Ideal weight pinning: all weights resident on chip, all intermediates
    /// fused; only the model input and final output touch DRAM.
    WeightPinnedIdeal,
}

impl FusionStrategy {
    /// All strategies in Figure-3 order.
    pub const ALL: [FusionStrategy; 5] = [
        FusionStrategy::None,
        FusionStrategy::XlaDefault,
        FusionStrategy::DepthwiseSeparableTemplate,
        FusionStrategy::BlockTemplate,
        FusionStrategy::WeightPinnedIdeal,
    ];

    /// Display label used by the Figure-3 bench binary.
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            FusionStrategy::None => "no fusion",
            FusionStrategy::XlaDefault => "XLA fusion",
            FusionStrategy::DepthwiseSeparableTemplate => "DSConv template",
            FusionStrategy::BlockTemplate => "block template",
            FusionStrategy::WeightPinnedIdeal => "weights pinned (ideal)",
        }
    }
}

/// Result of an operational-intensity evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IntensityReport {
    /// Total model FLOPs per inference.
    pub flops: u64,
    /// DRAM bytes moved per inference under the strategy.
    pub dram_bytes: u64,
    /// FLOPs per DRAM byte.
    pub intensity: f64,
}

/// Computes the model's operational intensity under `strategy`.
///
/// The graph's batch size is whatever the model was built with; batching
/// amortizes weight traffic, which is why Figure 3 sweeps batch sizes.
#[must_use]
pub fn operational_intensity(graph: &Graph, strategy: FusionStrategy) -> IntensityReport {
    let flops = graph.total_flops();
    let dram_bytes = dram_traffic(graph, strategy);
    IntensityReport {
        flops,
        dram_bytes,
        intensity: if dram_bytes == 0 { f64::INFINITY } else { flops as f64 / dram_bytes as f64 },
    }
}

/// DRAM bytes per inference under `strategy`.
#[must_use]
pub fn dram_traffic(graph: &Graph, strategy: FusionStrategy) -> u64 {
    match strategy {
        FusionStrategy::None => graph
            .nodes()
            .filter(|n| !matches!(n.kind(), OpKind::Input))
            .map(|n| {
                graph.node_input_bytes(n.id())
                    + graph.node_output_bytes(n.id())
                    + graph.node_accessed_weight_bytes(n.id())
            })
            .sum(),
        FusionStrategy::XlaDefault => region_traffic(&build_regions(graph)),
        FusionStrategy::DepthwiseSeparableTemplate => {
            let rg = build_regions(graph);
            let merged = coalesce_dsconv(graph, &rg);
            region_traffic(&merged)
        }
        FusionStrategy::BlockTemplate => {
            let rg = build_regions(graph);
            let merged = rg.coalesce_by(graph, |r| r.group.map(u64::from));
            region_traffic(&merged)
        }
        FusionStrategy::WeightPinnedIdeal => {
            let input_bytes: u64 = graph
                .nodes()
                .filter(|n| matches!(n.kind(), OpKind::Input))
                .map(|n| graph.node_output_bytes(n.id()))
                .sum();
            let output_bytes: u64 =
                graph.outputs().iter().map(|&o| graph.node_output_bytes(o)).sum();
            input_bytes + output_bytes
        }
    }
}

fn region_traffic(rg: &RegionGraph) -> u64 {
    rg.compute_regions().map(crate::fusion_regions::Region::dram_bytes).sum()
}

/// Merges each depthwise-conv region with its sole-consumer pointwise-conv
/// successor (the hypothetical "depthwise-separable" template of Figure 3).
fn coalesce_dsconv(graph: &Graph, rg: &RegionGraph) -> RegionGraph {
    // Pair id for each region: a dwconv region and its pointwise successor
    // share a pair id; everything else is solo.
    let mut pair: Vec<Option<u64>> = vec![None; rg.len()];
    let mut next_pair = 0u64;
    for r in rg.compute_regions() {
        let Some(m) = r.matrix_op else { continue };
        if !matches!(graph.node(m).kind(), OpKind::DepthwiseConv2d(_)) {
            continue;
        }
        let outs = rg.fan_out(r.id());
        if outs.len() != 1 {
            continue;
        }
        let succ = rg.region(outs[0].to);
        let Some(sm) = succ.matrix_op else { continue };
        let is_pointwise = matches!(
            graph.node(sm).kind(),
            OpKind::Conv2d(g) if g.kh == 1 && g.kw == 1
        );
        if is_pointwise && pair[succ.id().index()].is_none() && pair[r.id().index()].is_none() {
            pair[r.id().index()] = Some(next_pair);
            pair[succ.id().index()] = Some(next_pair);
            next_pair += 1;
        }
    }
    rg.coalesce_by(graph, |r| pair[r.id().index()])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::DepthwiseConv2dGeom;
    use crate::{Conv2dGeom, DType};

    /// dwconv -> swish -> pointwise conv: a depthwise-separable pair.
    fn ds_graph() -> Graph {
        let mut g = Graph::new("ds", DType::Bf16);
        let x = g.input("x", [1, 28, 28, 96]);
        g.begin_group("block");
        let d = g.depthwise_conv2d("dw", x, DepthwiseConv2dGeom::same(28, 28, 96, 3, 1)).unwrap();
        let s = g.swish("sw", d).unwrap();
        let p = g.conv2d("pw", s, Conv2dGeom::same(28, 28, 96, 32, 1, 1)).unwrap();
        g.end_group();
        g.mark_output(p);
        g
    }

    #[test]
    fn fusion_strictly_reduces_traffic() {
        let g = ds_graph();
        let none = dram_traffic(&g, FusionStrategy::None);
        let xla = dram_traffic(&g, FusionStrategy::XlaDefault);
        let ds = dram_traffic(&g, FusionStrategy::DepthwiseSeparableTemplate);
        let block = dram_traffic(&g, FusionStrategy::BlockTemplate);
        let ideal = dram_traffic(&g, FusionStrategy::WeightPinnedIdeal);
        assert!(none > xla, "XLA should remove the swish round-trip");
        assert!(xla > ds, "DS template should remove the dw->pw boundary");
        assert!(ds >= block);
        assert!(block > ideal);
        assert!(ideal > 0);
    }

    #[test]
    fn intensity_monotone_in_strategy() {
        let g = ds_graph();
        let mut last = 0.0;
        for s in FusionStrategy::ALL {
            let r = operational_intensity(&g, s);
            assert!(r.intensity >= last, "{}: {} < {last}", s.label(), r.intensity);
            last = r.intensity;
        }
    }

    #[test]
    fn ideal_traffic_is_io_only() {
        let g = ds_graph();
        let ideal = dram_traffic(&g, FusionStrategy::WeightPinnedIdeal);
        assert_eq!(ideal, 28 * 28 * 96 * 2 + 28 * 28 * 32 * 2);
    }

    #[test]
    fn labels_nonempty() {
        for s in FusionStrategy::ALL {
            assert!(!s.label().is_empty());
        }
    }
}
