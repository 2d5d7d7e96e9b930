//! Stage B split at the graph/datapath seam.
//!
//! Most of what workload assembly reads depends on the graph alone: the
//! XLA-style region table, each region's primary input, the matrix ops'
//! loop nests and the vector ops' VPU work. A [`SimPlan`] extracts
//! all of it once per graph; [`SimPlan::assemble`] then does only the
//! per-datapath work — one [`MapperCache::map_batch`], the VPU costs, the
//! cycles-to-seconds conversion and the per-region arithmetic — and
//! returns the slim [`SimStats`] the fusion stage consumes.
//! [`SimPlan::simulate`] adds the per-node [`NodePerf`] detail that reports
//! read, giving exactly what [`crate::simulate_staged`] returns.

use crate::cache::MapperCache;
use crate::engine::{NodePerf, RegionPerf, SimOptions, WorkloadPerf};
use crate::error::SimError;
use crate::vector::VectorWork;
use fast_arch::DatapathConfig;
use fast_ir::{build_regions, Graph, LoopNest, NodeId, OpKind, RegionId};
use std::ops::Range;

/// What one node's cost is computed from.
#[derive(Debug, Clone, Copy)]
enum NodeWork {
    /// A matrix op, priced by the mapper (its nest is the plan's next one).
    Matrix,
    /// A VPU op; `working_set` decides whether a softmax spills.
    Vector { work: VectorWork, working_set: u64 },
}

/// One compute region's graph-only statistics. Plans live as long as the
/// graphs they were built from, so members and names sit in plan-wide
/// arenas rather than in per-region allocations.
#[derive(Debug)]
struct RegionPlan {
    region: RegionId,
    /// Member nodes in topological order, in [`SimPlan::members`].
    members: Range<u32>,
    /// Display name, in [`SimPlan::names`].
    name: Range<u32>,
    group: Option<u32>,
    flops: u64,
    in_bytes: u64,
    primary_in_bytes: u64,
    out_bytes: u64,
    weight_bytes: u64,
    weight_store_bytes: u64,
    primary_input: Option<u32>,
    row_streamable: bool,
}

/// Everything Stage B reads from a graph and never from the datapath,
/// extracted once per graph. Assembling a plan is bit-identical to
/// [`crate::simulate_staged`] on the graph it was built from.
///
/// ```
/// use fast_arch::presets;
/// use fast_models::Workload;
/// use fast_sim::{simulate_staged, MapperCache, SimOptions, SimPlan};
///
/// # fn main() -> Result<(), fast_sim::SimError> {
/// let graph = Workload::ResNet50.build(8).expect("build");
/// let plan = SimPlan::new(&graph);
/// let mapper = MapperCache::new();
/// let (cfg, opts) = (presets::fast_large(), SimOptions::default());
/// let stats = plan.assemble(&cfg, &opts, &mapper)?;
/// let perf = simulate_staged(&graph, &cfg, &opts, &mapper)?;
/// assert_eq!(stats.prefusion_seconds.to_bits(), perf.prefusion_seconds.to_bits());
/// assert_eq!(stats.regions.len(), perf.regions.len());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct SimPlan {
    workload: String,
    batch: u64,
    total_flops: u64,
    matrix_flops: u64,
    /// Loop nests of the matrix ops, in node order.
    nests: Vec<LoopNest>,
    /// Execution-order index of each matrix op's region, parallel to
    /// `nests`. A region holds at most one matrix op and is named after it,
    /// so this names the op when it fails to map.
    op_regions: Vec<u32>,
    /// One entry per graph node, in node order.
    nodes: Vec<NodeWork>,
    /// Compute regions in execution order.
    regions: Vec<RegionPlan>,
    /// The regions' members, concatenated.
    members: Vec<NodeId>,
    /// The regions' names, concatenated.
    names: String,
}

/// The slim Stage-B product: region statistics plus summary scalars, with
/// no per-node detail. Its fields mean what the same-named
/// [`WorkloadPerf`] fields mean.
#[derive(Debug, Clone)]
pub struct SimStats {
    /// Workload name.
    pub workload: String,
    /// Batch size per core the graph was built at.
    pub batch_per_core: u64,
    /// Number of cores.
    pub cores: u64,
    /// Per-region detail in execution order.
    pub regions: Vec<RegionPerf>,
    /// Σ region compute seconds.
    pub compute_seconds: f64,
    /// Σ region DRAM transfer seconds with every boundary tensor in DRAM.
    pub dram_seconds: f64,
    /// Pre-fusion step time, `max(Σ compute, Σ DRAM)`.
    pub prefusion_seconds: f64,
    /// Total FLOPs per step (one core's batch).
    pub total_flops: u64,
    /// FLOPs executed on the systolic arrays.
    pub matrix_flops: u64,
    /// Peak FLOPS of one core.
    pub peak_flops_per_core: f64,
    /// DRAM bytes per step before fusion.
    pub prefusion_dram_bytes: u64,
}

/// One node's per-datapath cost.
#[derive(Debug, Clone, Copy)]
struct NodeCost {
    seconds: f64,
    spill_bytes: u64,
    /// `Some` exactly for matrix ops.
    sa_utilization: Option<f64>,
}

impl SimPlan {
    /// Extracts the graph-only half of Stage B from `graph`.
    #[must_use]
    pub fn new(graph: &Graph) -> SimPlan {
        let region_graph = build_regions(graph);
        // Execution-order index of every compute region.
        let mut order_of = vec![None; region_graph.len()];
        for (k, r) in region_graph.compute_regions().enumerate() {
            order_of[r.id().index()] = Some(k as u32);
        }
        let primary = region_graph.primary_edges();
        let mut region_of_node = vec![0u32; graph.len()];
        let mut members = Vec::with_capacity(graph.len());
        let mut names = String::new();
        let mut regions = Vec::with_capacity(order_of.len());
        for (k, r) in region_graph.compute_regions().enumerate() {
            let edge = primary[r.id().index()];
            let first_member = members.len() as u32;
            for &n in &r.nodes {
                region_of_node[n.index()] = k as u32;
                members.push(n);
            }
            let first_char = names.len() as u32;
            names.push_str(&r.name);
            regions.push(RegionPlan {
                region: r.id(),
                members: first_member..members.len() as u32,
                name: first_char..names.len() as u32,
                group: r.group,
                flops: r.flops,
                in_bytes: r.external_in_bytes,
                primary_in_bytes: edge.map_or(0, |e| e.bytes).min(r.external_in_bytes),
                out_bytes: r.output_bytes,
                weight_bytes: r.weight_bytes,
                weight_store_bytes: r.weight_store_bytes,
                primary_input: edge.and_then(|e| order_of[e.from.index()]),
                row_streamable: r.nodes.iter().all(|&n| {
                    matches!(
                        graph.node(n).kind(),
                        OpKind::BatchMatMul(_)
                            | OpKind::Softmax(_)
                            | OpKind::Norm(_)
                            | OpKind::Elementwise(_)
                            | OpKind::DataMovement
                    )
                }),
            });
        }

        let mut nests = Vec::new();
        let mut op_regions = Vec::new();
        let mut matrix_flops = 0;
        let nodes = graph
            .nodes()
            .map(|node| {
                let id = node.id();
                if let Some(nest) = graph.loop_nest(id) {
                    nests.push(nest);
                    op_regions.push(region_of_node[id.index()]);
                    matrix_flops += graph.node_flops(id);
                    return NodeWork::Matrix;
                }
                let in_elements =
                    node.inputs().iter().map(|&i| graph.node(i).shape().elements()).sum();
                NodeWork::Vector {
                    work: VectorWork::of(node.kind(), node.shape().elements(), in_elements),
                    working_set: graph.node_working_set(id),
                }
            })
            .collect();
        nests.shrink_to_fit();
        op_regions.shrink_to_fit();
        members.shrink_to_fit();
        names.shrink_to_fit();
        regions.shrink_to_fit();

        let batch = graph
            .nodes()
            .find(|n| matches!(n.kind(), OpKind::Input))
            .map(|n| *n.shape().dims().first().unwrap_or(&1))
            .unwrap_or(1);
        SimPlan {
            workload: graph.name().to_string(),
            batch,
            total_flops: graph.total_flops(),
            matrix_flops,
            nests,
            op_regions,
            nodes,
            regions,
            members,
            names,
        }
    }

    /// Stage B for one datapath: prices every op (matrix ops through
    /// `mapper`, in one batch) and assembles the region statistics.
    ///
    /// # Errors
    /// Returns the [`SimError`] of the first unschedulable matrix op in
    /// node order (constraint Eq. 5).
    pub fn assemble(
        &self,
        cfg: &DatapathConfig,
        opts: &SimOptions,
        mapper: &MapperCache,
    ) -> Result<SimStats, SimError> {
        let costs = self.node_costs(cfg, opts, mapper)?;
        Ok(self.stats(cfg, &costs))
    }

    /// [`SimPlan::assemble`] plus the per-node detail, read from `graph` —
    /// the graph this plan was built from.
    ///
    /// # Errors
    /// As [`SimPlan::assemble`].
    ///
    /// # Panics
    /// Panics if `graph` has a different node count than the plan's graph.
    pub fn simulate(
        &self,
        graph: &Graph,
        cfg: &DatapathConfig,
        opts: &SimOptions,
        mapper: &MapperCache,
    ) -> Result<WorkloadPerf, SimError> {
        assert_eq!(graph.len(), self.nodes.len(), "a plan simulates only its own graph");
        let costs = self.node_costs(cfg, opts, mapper)?;
        let bw = cfg.dram_bytes_per_sec_per_core();
        let nodes = graph
            .nodes()
            .zip(&costs)
            .map(|(node, cost)| {
                let id = node.id();
                let own_dram = graph.node_input_bytes(id)
                    + graph.node_output_bytes(id)
                    + graph.node_accessed_weight_bytes(id)
                    + cost.spill_bytes;
                NodePerf {
                    node: id,
                    name: node.name().to_string(),
                    class: node.kind().class_name().to_string(),
                    group: node.group(),
                    compute_seconds: cost.seconds,
                    unfused_seconds: cost.seconds.max(own_dram as f64 / bw),
                    flops: graph.node_flops(id),
                    sa_utilization: cost.sa_utilization,
                }
            })
            .collect();
        let s = self.stats(cfg, &costs);
        Ok(WorkloadPerf {
            workload: s.workload,
            batch_per_core: s.batch_per_core,
            cores: s.cores,
            nodes,
            regions: s.regions,
            compute_seconds: s.compute_seconds,
            dram_seconds: s.dram_seconds,
            prefusion_seconds: s.prefusion_seconds,
            total_flops: s.total_flops,
            matrix_flops: s.matrix_flops,
            peak_flops_per_core: s.peak_flops_per_core,
            prefusion_dram_bytes: s.prefusion_dram_bytes,
        })
    }

    /// Every node's cost on `cfg`, in node order. Matrix ops are priced in
    /// one mapper batch; results come back in node order, so the first
    /// error is exactly the op a per-node walk would have stopped at.
    fn node_costs(
        &self,
        cfg: &DatapathConfig,
        opts: &SimOptions,
        mapper: &MapperCache,
    ) -> Result<Vec<NodeCost>, SimError> {
        let clock_hz = cfg.clock_ghz * 1e9 * opts.schedule_quality.efficiency();
        let on_chip_bytes = cfg.global_memory_bytes()
            + cfg.pes_per_core() * cfg.l1_bytes_per_pe()
            + cfg.pes_per_core() * cfg.l2_bytes_per_pe();
        let op_names: Vec<&str> =
            self.op_regions.iter().map(|&k| self.name(&self.regions[k as usize])).collect();
        let mut mapped = mapper.map_batch(&self.nests, cfg, opts, &op_names).into_iter();
        self.nodes
            .iter()
            .map(|work| match *work {
                NodeWork::Matrix => {
                    let mapping = mapped.next().expect("one batched mapping per matrix op")?;
                    Ok(NodeCost {
                        seconds: mapping.compute_cycles as f64 / clock_hz,
                        spill_bytes: 0,
                        sa_utilization: Some(mapping.utilization),
                    })
                }
                NodeWork::Vector { work, working_set } => {
                    let cost = work.cost(cfg, opts.softmax, working_set <= on_chip_bytes);
                    Ok(NodeCost {
                        seconds: cost.compute_cycles as f64 / clock_hz,
                        spill_bytes: cost.spill_bytes,
                        sa_utilization: None,
                    })
                }
            })
            .collect()
    }

    fn name(&self, r: &RegionPlan) -> &str {
        &self.names[r.name.start as usize..r.name.end as usize]
    }

    /// The region statistics and summary scalars for per-node `costs`.
    fn stats(&self, cfg: &DatapathConfig, costs: &[NodeCost]) -> SimStats {
        let bw = cfg.dram_bytes_per_sec_per_core();
        let gm = cfg.global_memory_bytes();
        let mut regions = Vec::with_capacity(self.regions.len());
        let mut compute_total = 0.0;
        let mut dram_seconds_total = 0.0;
        let mut dram_total = 0u64;
        for r in &self.regions {
            // Within a fused region the VPU runs concurrently with the
            // systolic array (element-wise epilogues stream through as
            // matrix results drain), so region compute is the max of the two
            // pipelines.
            let members = &self.members[r.members.start as usize..r.members.end as usize];
            let member_costs = || members.iter().map(|n| &costs[n.index()]);
            let matrix_seconds: f64 =
                member_costs().filter(|c| c.sa_utilization.is_some()).map(|c| c.seconds).sum();
            let vector_seconds: f64 =
                member_costs().filter(|c| c.sa_utilization.is_none()).map(|c| c.seconds).sum();
            let compute_seconds = matrix_seconds.max(vector_seconds);
            let spill_bytes: u64 = member_costs().map(|c| c.spill_bytes).sum();
            let t_in = r.primary_in_bytes as f64 / bw;
            let t_fixed = (spill_bytes + (r.in_bytes - r.primary_in_bytes)) as f64 / bw;
            let t_out = r.out_bytes as f64 / bw;
            let t_weight = r.weight_bytes as f64 / bw;
            let t_min = compute_seconds.max(t_fixed);
            let t_max = compute_seconds.max(t_fixed + t_in + t_out + t_weight);
            let resident_buffer_bytes =
                if gm == 0 { 0 } else { (r.in_bytes + r.out_bytes).min(gm / 8) };
            compute_total += compute_seconds;
            dram_seconds_total += t_fixed + t_in + t_out + t_weight;
            dram_total += r.in_bytes + r.out_bytes + r.weight_bytes + spill_bytes;
            regions.push(RegionPerf {
                region: r.region,
                name: self.name(r).to_string(),
                group: r.group,
                compute_seconds,
                flops: r.flops,
                in_bytes: r.in_bytes,
                primary_in_bytes: r.primary_in_bytes,
                out_bytes: r.out_bytes,
                weight_bytes: r.weight_bytes,
                weight_store_bytes: r.weight_store_bytes,
                spill_bytes,
                t_min,
                t_max,
                t_in,
                t_fixed,
                t_out,
                t_weight,
                resident_buffer_bytes,
                primary_input: r.primary_input.map(|k| k as usize),
                row_streamable: r.row_streamable,
            });
        }
        SimStats {
            workload: self.workload.clone(),
            batch_per_core: self.batch,
            cores: cfg.cores,
            regions,
            compute_seconds: compute_total,
            dram_seconds: dram_seconds_total,
            prefusion_seconds: compute_total.max(dram_seconds_total),
            total_flops: self.total_flops,
            matrix_flops: self.matrix_flops,
            peak_flops_per_core: cfg.peak_flops() / cfg.cores as f64,
            prefusion_dram_bytes: dram_total,
        }
    }
}
