//! Hierarchical-partitioning benchmark: flat k = 8 vs the hierarchical
//! solver on `[4, 2]` and `[2, 2, 2]` machines, on a clustered mesh and a
//! cluster-drift dynamic workload, emitting `BENCH_hierarchy.json` in the
//! current directory. The committed copy is the repository's hierarchy
//! baseline: cuts, communication volumes, and migration fractions are
//! deterministic; wall-clock fields are machine-dependent context, not a
//! regression gate.
//!
//! The question the benchmark answers is the paper's processor-aware one:
//! when blocks are mapped onto nodes (contiguous pairs/quads of flat block
//! ids — exactly `geographer_spmv::owner_of_block`'s mapping), does
//! solving the hierarchy *recursively* put less traffic on the expensive
//! inter-node links than slicing a flat k = 8 solution into node groups?
//! The per-level metrics of `geographer_graph::evaluate_levels` measure
//! both, and the two-tier α–β model prices them.
//!
//! ```console
//! $ cargo run --release -p geographer_bench --bin bench_hierarchy
//! $ cargo run --release -p geographer_bench --bin bench_hierarchy -- --smoke
//! ```

use std::fmt::Write as _;

use geographer::{Config, HierarchySpec};
use geographer_bench::{
    level_metrics_json, run_plan_chain, scaled, solve_plan_view, write_bench_json, PlanRecipe,
    TieredCostModel, Tool,
};
use geographer_graph::{evaluate_levels, imbalance, LevelMetrics};
use geographer_mesh::{families::bubbles_like, DynamicWorkload, Mesh, Scenario};
use geographer_planner::MeshView;

/// Everything one config row reports.
struct ConfigRow {
    name: String,
    machine: String,
    wall_s: f64,
    wall_max_rank_s: f64,
    imbalance: f64,
    levels: Vec<LevelMetrics>,
    inter_node_volume: u64,
    intra_node_volume: u64,
    modeled_exchange_s: f64,
}

fn row_for(
    name: &str,
    mesh: &Mesh<2>,
    assignment: &[u32],
    spec: &HierarchySpec,
    wall_s: f64,
    wall_max_rank_s: f64,
    model: &TieredCostModel,
) -> ConfigRow {
    let levels = evaluate_levels(&mesh.graph, assignment, &spec.level_groups());
    let leaf_vol = levels.last().unwrap().total_comm_volume;
    let inter = levels[0].total_comm_volume;
    let intra = leaf_vol - inter;
    ConfigRow {
        name: name.to_string(),
        machine: format!("{:?}", spec.arities()),
        wall_s,
        wall_max_rank_s,
        imbalance: imbalance(assignment, &mesh.weights, spec.total_blocks()),
        modeled_exchange_s: model.exchange_seconds(8 * intra, 8 * inter),
        inter_node_volume: inter,
        intra_node_volume: intra,
        levels,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let n = if smoke { 3_000 } else { scaled(12_000) };
    let steps = if smoke { 3 } else { 6 };
    let seed = 33;
    let cfg = Config { sampling_init: false, ..Config::default() };
    let model = TieredCostModel::default();

    // --- Static comparison on a clustered mesh -------------------------
    let mesh = bubbles_like(n, seed);

    let flat_recipe = PlanRecipe::flat("flat-k8", Tool::Geographer, 8, cfg.clone());
    let flat = solve_plan_view(MeshView::from(&mesh), &flat_recipe, 1, None);

    let mut rows: Vec<ConfigRow> = Vec::new();
    for arities in [vec![4usize, 2], vec![2, 2, 2]] {
        let spec = HierarchySpec::uniform(&arities);
        rows.push(row_for(
            "flat-k8",
            &mesh,
            &flat.plan.assignment,
            &spec,
            flat.wall_seconds,
            flat.wall_max_rank_s,
            &model,
        ));
        let recipe = PlanRecipe::hierarchical(
            format!("hier-{arities:?}").replace(' ', ""),
            spec.clone(),
            cfg.clone(),
        );
        let hier = solve_plan_view(MeshView::from(&mesh), &recipe, 1, None);
        let stats = hier.plan.stats.as_ref().expect("hierarchical plan carries stats");
        assert!(stats.balance_achieved, "hierarchical solve must balance every node");
        rows.push(row_for(
            &recipe.name,
            &mesh,
            &hier.plan.assignment,
            &spec,
            hier.wall_seconds,
            hier.wall_max_rank_s,
            &model,
        ));
    }
    // The acceptance inequality of ISSUE 4 / tests/hierarchy_props.rs: on
    // the clustered mesh, [4,2]'s inter-node volume beats flat k=8's under
    // the same node mapping.
    assert!(
        rows[1].inter_node_volume < rows[0].inter_node_volume,
        "hier-[4,2] inter-node volume {} must beat flat {}",
        rows[1].inter_node_volume,
        rows[0].inter_node_volume
    );

    let mut rows_json = String::new();
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            rows_json,
            "{}    {{\"config\": \"{}\", \"machine\": \"{}\", \"wall_s\": {:.4}, \
             \"wall_max_rank_s\": {:.4}, \"ns_per_point\": {:.1}, \
             \"imbalance\": {:.5}, \"inter_node_volume\": {}, \"intra_node_volume\": {}, \
             \"modeled_exchange_s\": {:.6},\n     \"levels\": [{}]}}",
            if i > 0 { ",\n" } else { "" },
            r.name,
            r.machine,
            r.wall_s,
            r.wall_max_rank_s,
            geographer_bench::harness::ns_per_point(r.wall_max_rank_s, n),
            r.imbalance,
            r.inter_node_volume,
            r.intra_node_volume,
            r.modeled_exchange_s,
            level_metrics_json(&r.levels)
        );
        eprintln!(
            "{:<14} machine={:<9} inter-node vol={:<6} intra-node vol={:<6} modeled \
             exchange={:.1}us imb={:.4}",
            r.name,
            r.machine,
            r.inter_node_volume,
            r.intra_node_volume,
            r.modeled_exchange_s * 1e6,
            r.imbalance
        );
    }

    // --- Dynamic workload: warm hierarchical vs warm flat --------------
    let spec = HierarchySpec::uniform(&[4, 2]);
    let workload = DynamicWorkload::new(
        bubbles_like(n, seed + 1),
        Scenario::ClusterDrift { clusters: 5, speed: 0.01 },
        seed + 1,
    );
    let hier_chain = run_plan_chain(
        &workload,
        &PlanRecipe::hierarchical("hier", spec.clone(), cfg.clone()).warm(),
        1,
        steps,
    );
    let flat_chain = run_plan_chain(
        &workload,
        &PlanRecipe::flat("flat", Tool::Geographer, 8, cfg.clone()).warm(),
        1,
        steps,
    );
    let (mut hier_mig, mut flat_mig) = (0.0f64, 0.0f64);
    let (mut hier_vol, mut flat_vol) = (0u64, 0u64);
    let mut steps_json = String::new();
    for (h, f) in hier_chain.iter().zip(&flat_chain) {
        let step = h.step;
        let graph = &workload.base.graph;
        // The hierarchical plan already evaluated its levels; the flat
        // assignment is sliced into the same node groups here.
        let h_inter =
            h.plan.levels.as_ref().expect("hier plan has levels")[0].total_comm_volume;
        let f_inter = evaluate_levels(graph, &f.plan.assignment, &spec.level_groups())[0]
            .total_comm_volume;
        let (h_mig, f_mig) = (h.migrated_point_fraction, f.migrated_point_fraction);
        let _ = write!(
            steps_json,
            "{}    {{\"step\": {step}, \"hier_inter_node_volume\": {h_inter}, \
             \"flat_inter_node_volume\": {f_inter}, \"hier_migration\": {h_mig:.5}, \
             \"flat_migration\": {f_mig:.5}}}",
            if step > 0 { ",\n" } else { "" },
        );
        hier_vol += h_inter;
        flat_vol += f_inter;
        hier_mig += h_mig;
        flat_mig += f_mig;
    }
    let resteps = (steps - 1).max(1) as f64;
    eprintln!(
        "dynamic ({steps} steps): hier inter-node vol Σ={hier_vol} migr={:.3} | flat \
         inter-node vol Σ={flat_vol} migr={:.3}",
        hier_mig / resteps,
        flat_mig / resteps
    );

    let json = format!(
        "{{\n  \"bench\": \"hierarchy\",\n  \
         \"mesh\": {{\"kind\": \"bubbles_like\", \"n\": {n}, \"seed\": {seed}}},\n  \
         \"epsilon\": {:.2},\n  \
         \"cost_model\": {{\"inter\": {{\"alpha_s\": {:.1e}, \"beta_s_per_byte\": {:.1e}}}, \
         \"intra\": {{\"alpha_s\": {:.1e}, \"beta_s_per_byte\": {:.1e}}}}},\n  \
         \"static\": [\n{rows_json}\n  ],\n  \
         \"dynamic\": {{\"scenario\": \"cluster-drift\", \"machine\": \"[4, 2]\", \
         \"steps\": {steps}, \"warm\": true,\n   \
         \"hier_inter_node_volume_sum\": {hier_vol}, \
         \"flat_inter_node_volume_sum\": {flat_vol}, \
         \"hier_mean_migration\": {:.5}, \"flat_mean_migration\": {:.5},\n   \
         \"steps_detail\": [\n{steps_json}\n   ]}}\n}}\n",
        cfg.epsilon,
        model.inter.alpha,
        model.inter.beta,
        model.intra.alpha,
        model.intra.beta,
        hier_mig / resteps,
        flat_mig / resteps,
    );
    // Smoke runs (CI) must not clobber the committed full-scale baseline.
    let path = write_bench_json("hierarchy", smoke, &json);
    println!("{json}");
    println!("wrote {path}");
}
