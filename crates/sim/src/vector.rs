//! VPU cost models for non-MAC ("vector") operations.
//!
//! The datapath template includes a TPU-like vector processing unit within
//! each PE (§5.4); its width is `sa_x × vector_multiplier` lanes. All
//! element-wise, reduction, normalization and softmax ops are costed here —
//! the paper's simulator does the same ("All other ops, such as vector ops
//! used in softmax, are modeled using our simulator's custom cost models",
//! §6.1).

use fast_arch::DatapathConfig;
use fast_ir::{EwKind, NormKind, OpKind, PoolKind, SoftmaxGeom};
use serde::{Deserialize, Serialize};

/// Lane-operations needed for one transcendental evaluation (look-up table +
/// Taylor refinement — Nilsson et al., cited in §5.6).
pub const TRANSCENDENTAL_LANE_OPS: u64 = 8;

/// Lane-operations for one simple ALU element operation.
pub const SIMPLE_LANE_OPS: u64 = 1;

/// Softmax evaluation strategy (§5.6).
///
/// The numerically-stable reference needs three passes over the vector
/// (max, exp+sum, divide); the two-pass online algorithm (Milakov &
/// Gimelshein) fuses the first two at the cost of up to `2N` extra
/// exponentials. Which is faster depends on the machine's bandwidth-to-VPU
/// balance, so FAST searches over the choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum SoftmaxMode {
    /// Three-pass numerically-stable softmax (Algorithm 1).
    #[default]
    ThreePass,
    /// Two-pass online-normalizer softmax (Algorithm 2).
    TwoPass,
}

impl SoftmaxMode {
    /// Both modes in search order.
    pub const ALL: [SoftmaxMode; 2] = [SoftmaxMode::ThreePass, SoftmaxMode::TwoPass];

    /// Lane-operations per input element.
    #[must_use]
    pub const fn lane_ops_per_element(self) -> u64 {
        match self {
            // max + exp + sum + div.
            SoftmaxMode::ThreePass => 2 * SIMPLE_LANE_OPS + TRANSCENDENTAL_LANE_OPS + 2,
            // running max/sum with renormalization: up to 3 exps per element.
            SoftmaxMode::TwoPass => 2 * SIMPLE_LANE_OPS + 3 * TRANSCENDENTAL_LANE_OPS,
        }
    }

    /// Intermediate DRAM round-trips per element **beyond** reading the input
    /// and writing the output once, charged only when the vector does not fit
    /// on chip: the three-pass form spills the exp'd temporary.
    #[must_use]
    pub const fn extra_spill_accesses_per_element(self) -> u64 {
        match self {
            SoftmaxMode::ThreePass => 2, // write temp + read temp
            SoftmaxMode::TwoPass => 1,   // re-read input on pass 2
        }
    }
}

/// VPU cost of one op: compute cycles on one core plus any extra DRAM bytes
/// beyond the op's nominal input/output traffic (softmax spills).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct VectorCost {
    /// Compute cycles on the core's full VPU complement.
    pub compute_cycles: u64,
    /// Extra DRAM traffic for intermediate spills (bytes).
    pub spill_bytes: u64,
}

/// Total VPU lanes in one core.
#[must_use]
pub fn lanes_per_core(cfg: &DatapathConfig) -> u64 {
    cfg.pes_per_core() * cfg.vpu_lanes_per_pe()
}

/// Lane-operations for an element-wise kind.
#[must_use]
pub fn ew_lane_ops(kind: EwKind) -> u64 {
    if kind.is_transcendental() {
        TRANSCENDENTAL_LANE_OPS
    } else {
        SIMPLE_LANE_OPS
    }
}

/// Costs a non-matrix op on the VPU.
///
/// `out_elements` / `in_elements` come from the graph; `softmax_fits_on_chip`
/// tells the softmax model whether its working vector spills to DRAM.
#[must_use]
pub fn cost_vector_op(
    kind: &OpKind,
    cfg: &DatapathConfig,
    out_elements: u64,
    in_elements: u64,
    softmax_mode: SoftmaxMode,
    softmax_fits_on_chip: bool,
) -> VectorCost {
    VectorWork::of(kind, out_elements, in_elements).cost(cfg, softmax_mode, softmax_fits_on_chip)
}

/// The graph-only half of [`cost_vector_op`]: an op's VPU work before a
/// datapath turns it into cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VectorWork {
    /// No VPU cycles: pure traffic (the engine charges the bytes), or a
    /// matrix op, which never reaches the VPU path.
    Free,
    /// A fixed number of lane-operations.
    LaneOps(u64),
    /// A softmax over this many elements; its lane-operations and spills
    /// depend on the [`SoftmaxMode`].
    Softmax(u64),
}

impl VectorWork {
    /// The work of one op with the given output and input element counts.
    #[must_use]
    pub fn of(kind: &OpKind, out_elements: u64, in_elements: u64) -> VectorWork {
        match kind {
            OpKind::Softmax(SoftmaxGeom { rows, cols }) => VectorWork::Softmax(rows * cols),
            // Two reduction passes + normalize/scale.
            OpKind::Norm(NormKind::LayerNorm) => VectorWork::LaneOps(out_elements * 6),
            OpKind::Elementwise(k) => VectorWork::LaneOps(out_elements * ew_lane_ops(*k)),
            // One add per input element.
            OpKind::Pool(g) if matches!(g.kind, PoolKind::GlobalAvg) => {
                VectorWork::LaneOps(in_elements.max(out_elements))
            }
            OpKind::Pool(g) => VectorWork::LaneOps(out_elements * (g.k * g.k)),
            OpKind::Embedding { .. }
            | OpKind::DataMovement
            | OpKind::Concat
            | OpKind::Input
            | OpKind::Conv2d(_)
            | OpKind::DepthwiseConv2d(_)
            | OpKind::MatMul(_)
            | OpKind::BatchMatMul(_) => VectorWork::Free,
        }
    }

    /// The cost of this work on `cfg`'s VPU.
    #[must_use]
    pub fn cost(
        self,
        cfg: &DatapathConfig,
        softmax_mode: SoftmaxMode,
        softmax_fits_on_chip: bool,
    ) -> VectorCost {
        let lanes = lanes_per_core(cfg).max(1);
        let cycles = |lane_ops: u64| lane_ops.div_ceil(lanes).max(1);
        match self {
            VectorWork::Free => VectorCost { compute_cycles: 0, spill_bytes: 0 },
            VectorWork::LaneOps(n) => VectorCost { compute_cycles: cycles(n), spill_bytes: 0 },
            VectorWork::Softmax(n) => {
                let compute = cycles(n * softmax_mode.lane_ops_per_element());
                let spill = if softmax_fits_on_chip {
                    0
                } else {
                    n * softmax_mode.extra_spill_accesses_per_element() * 2 // bf16
                };
                VectorCost { compute_cycles: compute, spill_bytes: spill }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fast_arch::presets;
    use fast_ir::SoftmaxGeom;

    #[test]
    fn lane_counts() {
        assert_eq!(lanes_per_core(&presets::tpu_v3()), 2 * 512);
        assert_eq!(lanes_per_core(&presets::fast_large()), 64 * 32);
    }

    #[test]
    fn softmax_threepass_vs_twopass_tradeoff() {
        // Two-pass does more compute but fewer spills.
        let three = SoftmaxMode::ThreePass;
        let two = SoftmaxMode::TwoPass;
        assert!(two.lane_ops_per_element() > three.lane_ops_per_element());
        assert!(two.extra_spill_accesses_per_element() < three.extra_spill_accesses_per_element());
    }

    #[test]
    fn softmax_spills_only_when_too_big() {
        let cfg = presets::tpu_v3();
        let kind = OpKind::Softmax(SoftmaxGeom { rows: 12 * 1024, cols: 1024 });
        let n = 12 * 1024 * 1024;
        let fits = cost_vector_op(&kind, &cfg, n, n, SoftmaxMode::ThreePass, true);
        let spills = cost_vector_op(&kind, &cfg, n, n, SoftmaxMode::ThreePass, false);
        assert_eq!(fits.spill_bytes, 0);
        assert_eq!(spills.spill_bytes, n * 2 * 2);
        assert_eq!(fits.compute_cycles, spills.compute_cycles);
    }

    #[test]
    fn transcendentals_cost_more() {
        let cfg = presets::fast_large();
        let relu = cost_vector_op(
            &OpKind::Elementwise(EwKind::Relu),
            &cfg,
            1 << 20,
            1 << 20,
            SoftmaxMode::ThreePass,
            true,
        );
        let gelu = cost_vector_op(
            &OpKind::Elementwise(EwKind::Gelu),
            &cfg,
            1 << 20,
            1 << 20,
            SoftmaxMode::ThreePass,
            true,
        );
        assert!(gelu.compute_cycles > relu.compute_cycles);
    }

    #[test]
    fn matrix_ops_cost_nothing_here() {
        let cfg = presets::fast_large();
        let c = cost_vector_op(
            &OpKind::MatMul(fast_ir::MatMulGeom { k: 8, n: 8 }),
            &cfg,
            64,
            64,
            SoftmaxMode::ThreePass,
            true,
        );
        assert_eq!(c.compute_cycles, 0);
    }
}
