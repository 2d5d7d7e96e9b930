//! Stage B differential test: the cached-plan path ([`SimPlan`]) against
//! the per-node reference walk it replaced, bit for bit, over the whole
//! model zoo.
//!
//! The reference walks the graph once per simulation: it prices every node,
//! builds the region graph and scans its edges for each region's primary
//! input. The plan path extracts that graph-only work once per graph and
//! repeats only the per-datapath arithmetic. Every float is compared with
//! `to_bits`, every error by value (so the first failing op's name too),
//! and the op tier must see the same hits and misses on either path.

use std::collections::HashMap;

use fast_arch::{presets, DatapathConfig};
use fast_ir::{build_regions, Graph, OpKind, RegionGraph, RegionId};
use fast_models::Workload;
use fast_sim::{
    cost_vector_op, simulate_staged, MapperCache, NodePerf, RegionPerf, SimError, SimOptions,
    SimPlan, SimStats, SoftmaxMode, WorkloadPerf,
};

/// The per-node Stage B walk: every graph-only quantity recomputed on
/// every call.
fn reference_walk(
    graph: &Graph,
    cfg: &DatapathConfig,
    opts: &SimOptions,
    mapper: &MapperCache,
) -> Result<WorkloadPerf, SimError> {
    let clock_hz = cfg.clock_ghz * 1e9 * opts.schedule_quality.efficiency();
    let bw = cfg.dram_bytes_per_sec_per_core();
    let on_chip_bytes = cfg.global_memory_bytes()
        + cfg.pes_per_core() * cfg.l1_bytes_per_pe()
        + cfg.pes_per_core() * cfg.l2_bytes_per_pe();

    let mut nodes = Vec::with_capacity(graph.len());
    let mut node_compute = vec![0.0f64; graph.len()];
    let mut node_is_matrix = vec![false; graph.len()];
    let mut node_spill = vec![0u64; graph.len()];

    let mut matrix_nests = Vec::new();
    let mut matrix_ops = Vec::new();
    for node in graph.nodes() {
        if let Some(nest) = graph.loop_nest(node.id()) {
            matrix_nests.push(nest);
            matrix_ops.push(node.name());
        }
    }
    let mut mapped = mapper.map_batch(&matrix_nests, cfg, opts, &matrix_ops).into_iter();

    for node in graph.nodes() {
        let id = node.id();
        let (compute_seconds, sa_util, spill) = if graph.loop_nest(id).is_some() {
            let mapping = mapped.next().expect("one batched mapping per matrix op")?;
            (mapping.compute_cycles as f64 / clock_hz, Some(mapping.utilization), 0u64)
        } else {
            let in_elements: u64 =
                node.inputs().iter().map(|&i| graph.node(i).shape().elements()).sum();
            let fits = graph.node_working_set(id) <= on_chip_bytes;
            let cost = cost_vector_op(
                node.kind(),
                cfg,
                node.shape().elements(),
                in_elements,
                opts.softmax,
                fits,
            );
            (cost.compute_cycles as f64 / clock_hz, None, cost.spill_bytes)
        };
        node_compute[id.index()] = compute_seconds;
        node_is_matrix[id.index()] = sa_util.is_some();
        node_spill[id.index()] = spill;

        let own_dram = graph.node_input_bytes(id)
            + graph.node_output_bytes(id)
            + graph.node_accessed_weight_bytes(id)
            + spill;
        let unfused_seconds = compute_seconds.max(own_dram as f64 / bw);
        nodes.push(NodePerf {
            node: id,
            name: node.name().to_string(),
            class: node.kind().class_name().to_string(),
            group: node.group(),
            compute_seconds,
            unfused_seconds,
            flops: graph.node_flops(id),
            sa_utilization: sa_util,
        });
    }

    let region_graph: RegionGraph = build_regions(graph);
    let mut order_of: HashMap<RegionId, usize> = HashMap::new();
    for (k, r) in region_graph.compute_regions().enumerate() {
        order_of.insert(r.id(), k);
    }
    let gm = cfg.global_memory_bytes();
    let mut regions = Vec::new();
    let mut compute_total = 0.0;
    let mut dram_seconds_total = 0.0;
    let mut dram_total = 0u64;
    for r in region_graph.compute_regions() {
        let matrix_seconds: f64 = r
            .nodes
            .iter()
            .filter(|n| node_is_matrix[n.index()])
            .map(|n| node_compute[n.index()])
            .sum();
        let vector_seconds: f64 = r
            .nodes
            .iter()
            .filter(|n| !node_is_matrix[n.index()])
            .map(|n| node_compute[n.index()])
            .sum();
        let compute_seconds = matrix_seconds.max(vector_seconds);
        let spill_bytes: u64 = r.nodes.iter().map(|n| node_spill[n.index()]).sum();
        let primary_in_bytes = region_graph
            .fan_in(r.id())
            .into_iter()
            .map(|e| e.bytes)
            .max()
            .unwrap_or(0)
            .min(r.external_in_bytes);
        let t_in = primary_in_bytes as f64 / bw;
        let t_fixed = (spill_bytes + (r.external_in_bytes - primary_in_bytes)) as f64 / bw;
        let t_out = r.output_bytes as f64 / bw;
        let t_weight = r.weight_bytes as f64 / bw;
        let t_min = compute_seconds.max(t_fixed);
        let t_max = compute_seconds.max(t_fixed + t_in + t_out + t_weight);
        let resident_buffer_bytes =
            if gm == 0 { 0 } else { (r.external_in_bytes + r.output_bytes).min(gm / 8) };
        let primary_input =
            region_graph.primary_input(r.id()).and_then(|p| order_of.get(&p).copied());
        let row_streamable = r.nodes.iter().all(|&n| {
            matches!(
                graph.node(n).kind(),
                OpKind::BatchMatMul(_)
                    | OpKind::Softmax(_)
                    | OpKind::Norm(_)
                    | OpKind::Elementwise(_)
                    | OpKind::DataMovement
            )
        });
        compute_total += compute_seconds;
        dram_seconds_total += t_fixed + t_in + t_out + t_weight;
        dram_total += r.dram_bytes() + spill_bytes;
        regions.push(RegionPerf {
            region: r.id(),
            name: r.name.clone(),
            group: r.group,
            compute_seconds,
            flops: r.flops,
            in_bytes: r.external_in_bytes,
            primary_in_bytes,
            out_bytes: r.output_bytes,
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
            primary_input,
            row_streamable,
        });
    }

    let batch = graph
        .nodes()
        .find(|n| matches!(n.kind(), OpKind::Input))
        .map(|n| *n.shape().dims().first().unwrap_or(&1))
        .unwrap_or(1);
    let matrix_flops: u64 =
        graph.nodes().filter(|n| n.kind().is_matrix_op()).map(|n| graph.node_flops(n.id())).sum();

    Ok(WorkloadPerf {
        workload: graph.name().to_string(),
        batch_per_core: batch,
        cores: cfg.cores,
        nodes,
        regions,
        compute_seconds: compute_total,
        dram_seconds: dram_seconds_total,
        prefusion_seconds: compute_total.max(dram_seconds_total),
        total_flops: graph.total_flops(),
        matrix_flops,
        peak_flops_per_core: cfg.peak_flops() / cfg.cores as f64,
        prefusion_dram_bytes: dram_total,
    })
}

fn assert_same_region(a: &RegionPerf, b: &RegionPerf, ctx: &str) {
    // Destructured without `..`: a new field fails to compile here until
    // it is compared.
    let RegionPerf {
        region,
        name,
        group,
        compute_seconds,
        flops,
        in_bytes,
        primary_in_bytes,
        out_bytes,
        weight_bytes,
        weight_store_bytes,
        spill_bytes,
        t_min,
        t_max,
        t_in,
        t_fixed,
        t_out,
        t_weight,
        resident_buffer_bytes,
        primary_input,
        row_streamable,
    } = a;
    let ctx = format!("{ctx}, region {region}");
    assert_eq!(*region, b.region, "{ctx}");
    assert_eq!(*name, b.name, "{ctx}");
    assert_eq!(*group, b.group, "{ctx}");
    assert_eq!(
        [*compute_seconds, *t_min, *t_max, *t_in, *t_fixed, *t_out, *t_weight].map(f64::to_bits),
        [b.compute_seconds, b.t_min, b.t_max, b.t_in, b.t_fixed, b.t_out, b.t_weight]
            .map(f64::to_bits),
        "{ctx}"
    );
    assert_eq!(
        [
            *flops,
            *in_bytes,
            *primary_in_bytes,
            *out_bytes,
            *weight_bytes,
            *weight_store_bytes,
            *spill_bytes,
            *resident_buffer_bytes
        ],
        [
            b.flops,
            b.in_bytes,
            b.primary_in_bytes,
            b.out_bytes,
            b.weight_bytes,
            b.weight_store_bytes,
            b.spill_bytes,
            b.resident_buffer_bytes
        ],
        "{ctx}"
    );
    assert_eq!(*primary_input, b.primary_input, "{ctx}");
    assert_eq!(*row_streamable, b.row_streamable, "{ctx}");
}

fn assert_same_node(a: &NodePerf, b: &NodePerf, ctx: &str) {
    let NodePerf {
        node,
        name,
        class,
        group,
        compute_seconds,
        unfused_seconds,
        flops,
        sa_utilization,
    } = a;
    let ctx = format!("{ctx}, node {name}");
    assert_eq!(*node, b.node, "{ctx}");
    assert_eq!(*name, b.name, "{ctx}");
    assert_eq!(*class, b.class, "{ctx}");
    assert_eq!(*group, b.group, "{ctx}");
    assert_eq!(compute_seconds.to_bits(), b.compute_seconds.to_bits(), "{ctx}");
    assert_eq!(unfused_seconds.to_bits(), b.unfused_seconds.to_bits(), "{ctx}");
    assert_eq!(*flops, b.flops, "{ctx}");
    assert_eq!(sa_utilization.map(f64::to_bits), b.sa_utilization.map(f64::to_bits), "{ctx}");
}

/// The slim product against the full one: every field `SimStats` shares
/// with `WorkloadPerf`.
fn assert_same_stats(s: &SimStats, p: &WorkloadPerf, ctx: &str) {
    let SimStats {
        workload,
        batch_per_core,
        cores,
        regions,
        compute_seconds,
        dram_seconds,
        prefusion_seconds,
        total_flops,
        matrix_flops,
        peak_flops_per_core,
        prefusion_dram_bytes,
    } = s;
    assert_eq!(*workload, p.workload, "{ctx}");
    assert_eq!(
        [*batch_per_core, *cores, *total_flops, *matrix_flops, *prefusion_dram_bytes],
        [p.batch_per_core, p.cores, p.total_flops, p.matrix_flops, p.prefusion_dram_bytes],
        "{ctx}"
    );
    assert_eq!(
        [*compute_seconds, *dram_seconds, *prefusion_seconds, *peak_flops_per_core]
            .map(f64::to_bits),
        [p.compute_seconds, p.dram_seconds, p.prefusion_seconds, p.peak_flops_per_core]
            .map(f64::to_bits),
        "{ctx}"
    );
    assert_eq!(regions.len(), p.regions.len(), "{ctx}");
    for (a, b) in regions.iter().zip(&p.regions) {
        assert_same_region(a, b, ctx);
    }
}

fn assert_same_perf(a: &WorkloadPerf, b: &WorkloadPerf, ctx: &str) {
    let WorkloadPerf {
        workload,
        batch_per_core,
        cores,
        nodes,
        regions,
        compute_seconds,
        dram_seconds,
        prefusion_seconds,
        total_flops,
        matrix_flops,
        peak_flops_per_core,
        prefusion_dram_bytes,
    } = a;
    let slim = SimStats {
        workload: workload.clone(),
        batch_per_core: *batch_per_core,
        cores: *cores,
        regions: regions.clone(),
        compute_seconds: *compute_seconds,
        dram_seconds: *dram_seconds,
        prefusion_seconds: *prefusion_seconds,
        total_flops: *total_flops,
        matrix_flops: *matrix_flops,
        peak_flops_per_core: *peak_flops_per_core,
        prefusion_dram_bytes: *prefusion_dram_bytes,
    };
    assert_same_stats(&slim, b, ctx);
    assert_eq!(nodes.len(), b.nodes.len(), "{ctx}");
    for (x, y) in nodes.iter().zip(&b.nodes) {
        assert_same_node(x, y, ctx);
    }
}

fn zoo() -> Vec<Workload> {
    let mut v = Workload::suite();
    v.extend(Workload::serving_suite());
    v
}

/// TPU-v3 with L1 partitions too small for any systolic tile: every
/// matrix op fails to map.
fn unschedulable() -> DatapathConfig {
    let mut cfg = presets::tpu_v3();
    cfg.l1_input_kib = 1;
    cfg.l1_weight_kib = 1;
    cfg.l1_output_kib = 1;
    cfg
}

#[test]
fn plan_assembly_is_bit_identical_to_the_reference_walk() {
    let configs = [("fast_large", presets::fast_large()), ("tpu_v3", presets::tpu_v3())];
    let configs = configs.into_iter().chain([("unschedulable", unschedulable())]);
    let configs: Vec<(&str, DatapathConfig)> = configs.collect();
    let options = [
        ("default", SimOptions::default()),
        ("tpu_baseline", SimOptions::tpu_baseline()),
        ("two-pass", SimOptions { softmax: SoftmaxMode::TwoPass, ..SimOptions::default() }),
    ];
    // One mapper per path, so each sees the same op stream in the same
    // order and must count the same hits and misses.
    let reference_mapper = MapperCache::new();
    let plan_mapper = MapperCache::new();
    let slim_mapper = MapperCache::new();
    let fresh_mapper = MapperCache::new();
    let mut failures = 0;
    for w in zoo() {
        let mut plans: HashMap<u64, (Graph, SimPlan)> = HashMap::new();
        for (cfg_name, cfg) in &configs {
            let (graph, plan) = plans.entry(cfg.native_batch).or_insert_with(|| {
                let g = w.build(cfg.native_batch).expect("zoo graphs build");
                let plan = SimPlan::new(&g);
                (g, plan)
            });
            for (opts_name, opts) in &options {
                let ctx = format!("{w} on {cfg_name} with {opts_name}");
                let expected = reference_walk(graph, cfg, opts, &reference_mapper);
                // One plan assembled at every datapath equals fresh walks…
                let planned = plan.simulate(graph, cfg, opts, &plan_mapper);
                let slim = plan.assemble(cfg, opts, &slim_mapper);
                // …and so does the public plan-per-call entry point.
                let fresh = simulate_staged(graph, cfg, opts, &fresh_mapper);
                match (&expected, &planned, &slim, &fresh) {
                    (Ok(e), Ok(p), Ok(s), Ok(f)) => {
                        assert_same_perf(e, p, &ctx);
                        assert_same_perf(e, f, &ctx);
                        assert_same_stats(s, e, &ctx);
                    }
                    (Err(e), Err(p), Err(s), Err(f)) => {
                        assert_eq!(e, p, "{ctx}");
                        assert_eq!(e, s, "{ctx}");
                        assert_eq!(e, f, "{ctx}");
                        failures += 1;
                    }
                    _ => panic!("{ctx}: the paths disagree on schedulability"),
                }
                let stats = reference_mapper.stats();
                assert_eq!(plan_mapper.stats(), stats, "{ctx}: op-tier traffic");
                assert_eq!(slim_mapper.stats(), stats, "{ctx}: op-tier traffic");
                assert_eq!(fresh_mapper.stats(), stats, "{ctx}: op-tier traffic");
            }
        }
    }
    // The unschedulable config fails every graph under every option set.
    assert!(failures >= zoo().len() * options.len(), "only {failures} failures");
}
