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

use geographer::{Config, HierarchySpec};
use geographer_analyze::json::Value;
use geographer_bench::harness::ns_per_point;
use geographer_bench::{
    level_metrics_value, num, obj, run_plan_chain, scaled, solve_plan_view, write_bench_json, Cli,
    CostModel, PlanRecipe, PlanRun, SpmdBackend, TieredCostModel, Tool,
};
use geographer_graph::{evaluate_levels, imbalance};
use geographer_mesh::{families::bubbles_like, DynamicWorkload, Mesh, Scenario};
use geographer_planner::MeshView;

/// One row of the static comparison — `run`'s assignment sliced onto the
/// nodes of `spec` — and its inter-node volume, which the acceptance
/// check reads.
fn static_row(
    name: &str,
    mesh: &Mesh<2>,
    run: &PlanRun<2>,
    spec: &HierarchySpec,
    model: &TieredCostModel,
) -> (Value, u64) {
    let assignment = &run.plan.assignment;
    let levels = evaluate_levels(&mesh.graph, assignment, &spec.level_groups());
    let inter = levels[0].total_comm_volume;
    let intra = levels.last().unwrap().total_comm_volume - inter;
    let machine = format!("{:?}", spec.arities());
    let imb = imbalance(assignment, &mesh.weights, spec.total_blocks());
    let modeled_exchange_s = model.exchange_seconds(8 * intra, 8 * inter);
    eprintln!(
        "{name:<14} machine={machine:<9} inter-node vol={inter:<6} intra-node vol={intra:<6} \
         modeled exchange={:.1}us imb={imb:.4}",
        modeled_exchange_s * 1e6,
    );
    let row = obj([
        ("config", name.into()),
        ("machine", machine.into()),
        ("wall_s", num(run.wall_seconds)),
        ("wall_max_rank_s", num(run.wall_max_rank_s)),
        ("ns_per_point", num(ns_per_point(run.wall_max_rank_s, mesh.n()))),
        ("imbalance", num(imb)),
        ("inter_node_volume", inter.into()),
        ("intra_node_volume", intra.into()),
        ("modeled_exchange_s", num(modeled_exchange_s)),
        ("levels", level_metrics_value(&levels)),
    ]);
    (row, inter)
}

fn main() {
    let cli = Cli::from_env(&["--smoke"], &[]);
    let n = if cli.smoke { 3_000 } else { scaled(12_000) };
    let steps = if cli.smoke { 3 } else { 6 };
    let seed = 33;
    let cfg = Config { sampling_init: false, ..Config::default() };
    let model = TieredCostModel::default();

    // --- Static comparison on a clustered mesh -------------------------
    let mesh = bubbles_like(n, seed);

    let flat_recipe = PlanRecipe::flat("flat-k8", Tool::Geographer, 8, cfg.clone());
    let flat = solve_plan_view(MeshView::from(&mesh), &flat_recipe, 1, None);

    let mut rows: Vec<(Value, u64)> = Vec::new();
    for arities in [vec![4usize, 2], vec![2, 2, 2]] {
        let spec = HierarchySpec::uniform(&arities);
        rows.push(static_row("flat-k8", &mesh, &flat, &spec, &model));
        let recipe = PlanRecipe::hierarchical(
            format!("hier-{arities:?}").replace(' ', ""),
            spec.clone(),
            cfg.clone(),
        );
        let hier = solve_plan_view(MeshView::from(&mesh), &recipe, 1, None);
        let stats = hier.plan.stats.as_ref().expect("hierarchical plan carries stats");
        assert!(stats.balance_achieved, "hierarchical solve must balance every node");
        rows.push(static_row(&recipe.name, &mesh, &hier, &spec, &model));
    }
    // The acceptance inequality of ISSUE 4 / tests/hierarchy_props.rs: on
    // the clustered mesh, [4,2]'s inter-node volume beats flat k=8's under
    // the same node mapping.
    assert!(
        rows[1].1 < rows[0].1,
        "hier-[4,2] inter-node volume {} must beat flat {}",
        rows[1].1,
        rows[0].1
    );
    let rows_json: Vec<Value> = rows.into_iter().map(|(row, _)| row).collect();

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
    let mut steps_json = Vec::new();
    for (h, f) in hier_chain.iter().zip(&flat_chain) {
        let graph = &workload.base.graph;
        // The hierarchical plan already evaluated its levels; the flat
        // assignment is sliced into the same node groups here.
        let h_inter =
            h.plan.levels.as_ref().expect("hier plan has levels")[0].total_comm_volume;
        let f_inter = evaluate_levels(graph, &f.plan.assignment, &spec.level_groups())[0]
            .total_comm_volume;
        let (h_mig, f_mig) = (h.migrated_point_fraction, f.migrated_point_fraction);
        steps_json.push(obj([
            ("step", h.step.into()),
            ("hier_inter_node_volume", h_inter.into()),
            ("flat_inter_node_volume", f_inter.into()),
            ("hier_migration", num(h_mig)),
            ("flat_migration", num(f_mig)),
        ]));
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

    let tier = |m: &CostModel| obj([("alpha_s", m.alpha.into()), ("beta_s_per_byte", m.beta.into())]);
    let record = obj([
        ("bench", "hierarchy".into()),
        ("mesh", obj([("kind", "bubbles_like".into()), ("n", n.into()), ("seed", seed.into())])),
        ("epsilon", cfg.epsilon.into()),
        ("cost_model", obj([("inter", tier(&model.inter)), ("intra", tier(&model.intra))])),
        ("static", rows_json.into()),
        (
            "dynamic",
            obj([
                ("scenario", "cluster-drift".into()),
                ("machine", "[4, 2]".into()),
                ("steps", steps.into()),
                ("warm", true.into()),
                ("hier_inter_node_volume_sum", hier_vol.into()),
                ("flat_inter_node_volume_sum", flat_vol.into()),
                ("hier_mean_migration", num(hier_mig / resteps)),
                ("flat_mean_migration", num(flat_mig / resteps)),
                ("steps_detail", Value::Arr(steps_json)),
            ]),
        ),
    ]);
    write_bench_json("hierarchy", cli.smoke, SpmdBackend::Thread, &[1], &record);
}
