//! Planner benchmark: the stacked configuration the planner makes possible
//! — warm hierarchical solve with a multilevel V-cycle applied at the leaf
//! level under the hierarchy's per-level targets — against every
//! single-subsystem configuration (warm-only, hierarchy-only,
//! multilevel-only) on a warm cluster-drift chain at equal ε, emitting
//! `BENCH_planner.json` in the current directory. The committed copy is the
//! repository's planner baseline: cuts, inter-node volumes, and migration
//! fractions are deterministic; wall-clock fields are machine-dependent
//! context, not a regression gate.
//!
//! Before the planner, this stacked combination was impossible: the warm
//! hierarchy path and the multilevel refiner lived behind different entry
//! points with no shared state threading. Now it is one
//! [`geographer_bench::PlanRecipe`] row in the table below, and the ISSUE 6
//! acceptance inequality is checked right here: the stacked plan must show
//! strictly lower mean edge cut AND mean inter-node volume than the best
//! single-subsystem plan.
//!
//! ```console
//! $ cargo run --release -p geographer_bench --bin bench_planner
//! $ cargo run --release -p geographer_bench --bin bench_planner -- --smoke
//! ```

use geographer::{Config, HierarchySpec};
use geographer_analyze::json::Value;
use geographer_bench::harness::{mean, ns_per_point};
use geographer_bench::{
    level_metrics_value, num, obj, run_plan_chain, scaled, write_bench_json, ChainStep, Cli,
    PlanRecipe, SpmdBackend, TextTable, Tool,
};
use geographer_graph::{evaluate_levels, CsrGraph};
use geographer_mesh::{
    delaunay_edges,
    density::sample_by_density,
    DynamicWorkload, Mesh, Scenario,
};
use geographer_planner::RefineMode;
use geographer_refine::MultilevelConfig;

/// Eight refinement bubbles in a 4×2 grid: four vertical strips of two
/// bubbles each, matching the `[4, 2]` machine the benchmark solves for.
/// This is the shape hierarchical partitioning is *for* — node groups that
/// correspond to real spatial structure — and it makes the stacked
/// configuration's advantage measurable instead of drowned in noise.
fn bubble_grid(n: usize, seed: u64) -> Mesh<2> {
    let mut centers = Vec::new();
    for i in 0..4 {
        for j in 0..2 {
            centers.push((0.125 + 0.25 * i as f64, 0.25 + 0.5 * j as f64, 0.08));
        }
    }
    // Same bubble profile as `bubbles_density`, but a 4× sparser background
    // so the gaps between bubbles are genuinely cheap cut surfaces: the
    // interesting question is then *which* gaps a configuration cuts, not
    // how well it grinds down a dense boundary.
    let density = move |p: geographer_geometry::Point<2>| {
        let mut d: f64 = 0.005;
        for &(cx, cy, r) in &centers {
            let dist = ((p[0] - cx).powi(2) + (p[1] - cy).powi(2)).sqrt();
            if dist < r {
                let t = (dist / r).powi(2);
                d = d.max(0.1 + 0.9 * t);
            }
        }
        d
    };
    let points = sample_by_density(n, seed, density);
    let edges = delaunay_edges(&points);
    let graph = CsrGraph::from_edges(n, &edges);
    Mesh { points, weights: vec![1.0; n], graph }
}

/// Aggregates of one configuration over the whole chain.
struct Summary {
    name: String,
    /// Uses the warm / hierarchy / multilevel subsystem?
    subsystems: &'static str,
    /// Counts toward the "best single-subsystem plan" the stacked config
    /// must beat.
    single_subsystem: bool,
    mean_cut: f64,
    mean_inter: f64,
    mean_migration: f64,
    max_imbalance: f64,
    total_wall: f64,
    total_max_rank_wall: f64,
    /// What refinement did over the chain, in counts: top-down sweeps,
    /// V-cycles run, coarse levels built, sweep rounds (all zero for a
    /// configuration that does not refine), and rank 0's seconds in it.
    refine_counts: [usize; 4],
    refine_seconds: f64,
    /// Per-step JSON rows.
    steps: Vec<Value>,
}

fn summarize(
    name: &str,
    subsystems: &'static str,
    single_subsystem: bool,
    workload: &DynamicWorkload,
    spec: &HierarchySpec,
    chain: &[ChainStep<2>],
) -> Summary {
    // Hierarchical plans already evaluated their levels; flat
    // assignments are sliced into the same node groups here.
    let inter_of = |s: &ChainStep<2>| match &s.plan.levels {
        Some(levels) => levels[0].total_comm_volume,
        None => {
            evaluate_levels(&workload.base.graph, &s.plan.assignment, &spec.level_groups())[0]
                .total_comm_volume
        }
    };
    let inter: Vec<u64> = chain.iter().map(inter_of).collect();
    let step_json = |(s, &inter): (&ChainStep<2>, &u64)| {
        obj([
            ("step", s.step.into()),
            ("edge_cut", s.edge_cut.into()),
            ("inter_node_volume", inter.into()),
            ("migration", num(s.migrated_point_fraction)),
            ("imbalance", num(s.imbalance)),
        ])
    };
    let mut refine_counts = [0usize; 4];
    for plan in chain.iter().map(|s| &s.plan) {
        let work = plan.refine_work.unwrap_or_default();
        let rounds = plan.refine.map_or(0, |r| r.rounds);
        for (sum, x) in
            refine_counts.iter_mut().zip([work.sweeps, work.vcycles, work.coarse_levels, rounds])
        {
            *sum += x;
        }
    }
    Summary {
        name: name.to_string(),
        subsystems,
        single_subsystem,
        mean_cut: mean(chain.iter().map(|s| s.edge_cut as f64)),
        mean_inter: mean(inter.iter().map(|&v| v as f64)),
        mean_migration: mean(chain[1..].iter().map(|s| s.migrated_point_fraction)),
        max_imbalance: chain.iter().map(|s| s.imbalance).fold(0.0, f64::max),
        total_wall: chain.iter().map(|s| s.wall_seconds).sum(),
        total_max_rank_wall: chain.iter().map(|s| s.wall_max_rank_s).sum(),
        refine_counts,
        refine_seconds: chain.iter().map(|s| s.plan.refine_seconds).sum(),
        steps: chain.iter().zip(&inter).map(step_json).collect(),
    }
}

fn main() {
    let cli = Cli::from_env(&["--smoke"], &[]);
    let n = if cli.smoke { 3_000 } else { scaled(12_000) };
    let steps = if cli.smoke { 3 } else { 8 };
    let (k, p) = (8, 2);
    let seed = 40;
    let cfg = Config { sampling_init: false, ..Config::default() };
    let spec = HierarchySpec::uniform(&[4, 2]);
    let ml = RefineMode::Multilevel(MultilevelConfig::default());
    let workload = DynamicWorkload::new(
        bubble_grid(n, seed),
        Scenario::ClusterDrift { clusters: 8, speed: 0.003 },
        seed,
    );

    // The recipe table. "Subsystems" = which of warm / hierarchy /
    // multilevel-refine each configuration uses; the stacked row uses all
    // three and must beat the best single-subsystem row on cut AND
    // inter-node volume.
    let rows: Vec<(PlanRecipe, &'static str, bool)> = vec![
        (PlanRecipe::flat("cold-flat", Tool::Geographer, k, cfg.clone()), "none", false),
        (PlanRecipe::flat("warm-flat", Tool::Geographer, k, cfg.clone()).warm(), "warm", true),
        (PlanRecipe::hierarchical("hier-cold", spec.clone(), cfg.clone()), "hierarchy", true),
        (
            PlanRecipe::flat("ml-cold", Tool::Geographer, k, cfg.clone())
                .with_refine(ml.clone()),
            "multilevel",
            true,
        ),
        (
            PlanRecipe::hierarchical("hier-warm", spec.clone(), cfg.clone()).warm(),
            "warm+hierarchy",
            false,
        ),
        (
            PlanRecipe::hierarchical("stacked", spec.clone(), cfg.clone())
                .with_refine(ml.clone())
                .warm(),
            "warm+hierarchy+multilevel",
            false,
        ),
    ];

    let mut summaries: Vec<Summary> = Vec::new();
    let mut stacked_levels = Value::Null;
    for (recipe, subsystems, single) in &rows {
        let chain = run_plan_chain(&workload, recipe, p, steps);
        if recipe.name == "stacked" {
            let last = chain.last().unwrap();
            stacked_levels =
                level_metrics_value(last.plan.levels.as_ref().expect("stacked plan has levels"));
        }
        summaries.push(summarize(&recipe.name, subsystems, *single, &workload, &spec, &chain));
    }

    let mut table = TextTable::new(vec![
        "config", "subsystems", "meanCut", "meanInterNodeVol", "meanMigration", "maxImb", "wall",
    ]);
    for s in &summaries {
        table.row(vec![
            s.name.clone(),
            s.subsystems.to_string(),
            format!("{:.1}", s.mean_cut),
            format!("{:.1}", s.mean_inter),
            format!("{:.3}", s.mean_migration),
            format!("{:.4}", s.max_imbalance),
            format!("{:.2}s", s.total_wall),
        ]);
    }
    eprint!("{}", table.render());

    // --- The ISSUE 6 acceptance inequality ----------------------------
    let stacked = summaries.iter().find(|s| s.name == "stacked").unwrap();
    let best_cut = summaries
        .iter()
        .filter(|s| s.single_subsystem)
        .map(|s| s.mean_cut)
        .fold(f64::INFINITY, f64::min);
    let best_inter = summaries
        .iter()
        .filter(|s| s.single_subsystem)
        .map(|s| s.mean_inter)
        .fold(f64::INFINITY, f64::min);
    assert!(
        stacked.mean_cut < best_cut,
        "stacked mean cut {:.1} must be strictly below the best single-subsystem {:.1}",
        stacked.mean_cut,
        best_cut
    );
    assert!(
        stacked.mean_inter < best_inter,
        "stacked mean inter-node volume {:.1} must be strictly below the best \
         single-subsystem {:.1}",
        stacked.mean_inter,
        best_inter
    );
    // Equal-ε check: flat configs guarantee ε at the leaf; hierarchical
    // configs guarantee ε per level, which compounds to (1+ε)^levels − 1
    // at the leaf (see DESIGN.md §5).
    let hier_eps = (1.0 + cfg.epsilon).powi(spec.levels.len() as i32) - 1.0;
    for (s, (recipe, ..)) in summaries.iter().zip(&rows) {
        let bound = if recipe.hierarchy.is_some() { hier_eps } else { cfg.epsilon };
        assert!(
            s.max_imbalance <= bound + 1e-6,
            "{}: imbalance {} above its ε bound {}",
            s.name,
            s.max_imbalance,
            bound
        );
    }
    eprintln!(
        "stacked cut {:.1} < best single-subsystem {:.1}; inter-node {:.1} < {:.1}",
        stacked.mean_cut, best_cut, stacked.mean_inter, best_inter
    );

    let config_json = |s: &Summary| {
        let step_wall = s.total_max_rank_wall / s.steps.len().max(1) as f64;
        obj([
            ("config", s.name.as_str().into()),
            ("subsystems", s.subsystems.into()),
            ("single_subsystem", s.single_subsystem.into()),
            ("mean_edge_cut", num(s.mean_cut)),
            ("mean_inter_node_volume", num(s.mean_inter)),
            ("mean_migration", num(s.mean_migration)),
            ("max_imbalance", num(s.max_imbalance)),
            ("wall_s", num(s.total_wall)),
            ("wall_max_rank_s", num(s.total_max_rank_wall)),
            ("ns_per_point", num(ns_per_point(step_wall, n))),
            (
                "refine",
                obj([
                    ("sweeps", s.refine_counts[0].into()),
                    ("vcycles", s.refine_counts[1].into()),
                    ("coarse_levels", s.refine_counts[2].into()),
                    ("rounds", s.refine_counts[3].into()),
                    (
                        "ns_per_point",
                        num(ns_per_point(s.refine_seconds / s.steps.len().max(1) as f64, n)),
                    ),
                ]),
            ),
            ("steps", Value::Arr(s.steps.clone())),
        ])
    };
    let record = obj([
        ("bench", "planner".into()),
        ("mesh", obj([("kind", "bubble_grid_4x2".into()), ("n", n.into()), ("seed", seed.into())])),
        (
            "scenario",
            obj([
                ("kind", "cluster-drift".into()),
                ("clusters", 8usize.into()),
                ("speed", Value::Num(0.003)),
                ("steps", steps.into()),
            ]),
        ),
        ("k", k.into()),
        ("p", p.into()),
        ("machine", "[4, 2]".into()),
        ("epsilon", cfg.epsilon.into()),
        (
            "stacked_vs_best_single",
            obj([
                ("stacked_mean_cut", num(stacked.mean_cut)),
                ("best_single_mean_cut", num(best_cut)),
                ("stacked_mean_inter_node_volume", num(stacked.mean_inter)),
                ("best_single_mean_inter_node_volume", num(best_inter)),
            ]),
        ),
        ("stacked_final_levels", stacked_levels),
        ("configs", Value::Arr(summaries.iter().map(config_json).collect())),
    ]);
    write_bench_json("planner", cli.smoke, SpmdBackend::Thread, &[p], &record);
}
