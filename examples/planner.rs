//! The unified planner: every pillar of the reproduction behind one call.
//!
//! `Planner::solve(&PlanSpec, Option<&PlanState>, &comm)` subsumes the
//! cold pipeline, warm-start repartitioning, hierarchical processor-aware
//! solves, and multilevel refinement (DESIGN.md §8). This example walks
//! the three shapes on one drifting workload:
//!
//! 1. a **cold flat** solve — the paper's plain pipeline;
//! 2. a **warm restart** on the drifted points from the plan's own
//!    [`PlanState`] — no new driver code, just pass the state back in
//!    (one shape for every spec: a flat plan is the hierarchy `[k]`, its
//!    state one node);
//! 3. the **stacked** configuration — warm hierarchical solve over a
//!    `[4, 2]` machine with a multilevel V-cycle at every hierarchy
//!    level, one `PlanSpec`.
//!
//! ```sh
//! cargo run --release --example planner
//! ```

use geographer::{Config, HierarchySpec};
use geographer_graph::edge_cut;
use geographer_mesh::{
    dynamic::{DynamicWorkload, Scenario},
    families::bubbles_like,
};
use geographer_parcomm::run_spmd;
use geographer_planner::{MeshView, PlanSpec, Planner, RefineMode, Tool};
use geographer_refine::MultilevelConfig;

fn main() {
    let (n, k, p, seed) = (6_000, 8, 2, 42);
    let base = bubbles_like(n, seed);
    let workload = DynamicWorkload::new(
        base.clone(),
        Scenario::ClusterDrift { clusters: k, speed: 0.004 },
        seed,
    );
    let cfg = Config { sampling_init: false, ..Config::default() };
    println!("clustered mesh: n = {n}, k = {k}, p = {p} SPMD ranks");

    // --- 1. Cold flat solve -------------------------------------------
    let spec = PlanSpec::flat(MeshView::from(&base), Tool::Geographer, k, cfg.clone());
    let cold = run_spmd(p, |comm| Planner::solve(&spec, None, &comm)).remove(0);
    let cold_stats = cold.stats.as_ref().expect("geographer reports stats");
    println!(
        "\ncold flat     cut {:>5}  imb {:.4}  ({} movement iterations)",
        edge_cut(&base.graph, &cold.assignment),
        cold.imbalance,
        cold_stats.movement_iterations,
    );

    // --- 2. Warm restarts from the plan's own state -------------------
    // On *unmoved* points the warm restart is a bitwise fixed point: the
    // solve resumes from its own converged centers and has nothing left
    // to move (the regression-tested contract of DESIGN.md §8).
    let state = cold.state.expect("stateful tool returns a PlanState");
    let fixed = run_spmd(p, |comm| Planner::solve(&spec, Some(&state), &comm)).remove(0);
    assert_eq!(
        fixed.assignment, cold.assignment,
        "warm restart on unmoved points must reproduce the plan bitwise"
    );
    println!("warm restart on unmoved points reproduces the assignment bitwise");

    // On drifted points the same call warm-starts k-means from the old
    // centers instead of re-running the SFC bootstrap.
    let drifted = workload.mesh_at(3);
    let spec = PlanSpec::flat(MeshView::from(&drifted), Tool::Geographer, k, cfg.clone());
    let warm = run_spmd(p, |comm| Planner::solve(&spec, Some(&state), &comm)).remove(0);
    let warm_stats = warm.stats.as_ref().expect("geographer reports stats");
    assert!(warm_stats.converged, "the warm solve must still converge");
    println!(
        "warm restart  cut {:>5}  imb {:.4}  (after 3 drift steps, no re-bootstrap)",
        edge_cut(&drifted.graph, &warm.assignment),
        warm.imbalance,
    );

    // --- 3. The stacked configuration ---------------------------------
    // A [4, 2] machine (4 nodes × 2 cores), solved hierarchically and
    // refined with the per-level multilevel V-cycle — the combination
    // that used to need bespoke glue is now just a spec.
    let hierarchy = HierarchySpec::uniform(&[4, 2]);
    let spec = PlanSpec::hierarchical(MeshView::from(&drifted), hierarchy, cfg.clone())
        .with_refine(RefineMode::Multilevel(MultilevelConfig::default()));
    let stacked = run_spmd(p, |comm| Planner::solve(&spec, None, &comm)).remove(0);
    let levels = stacked.levels.as_ref().expect("hierarchy specs report per-level metrics");
    println!(
        "stacked       cut {:>5}  imb {:.4}  (hierarchical [4,2] + per-level V-cycle)",
        edge_cut(&drifted.graph, &stacked.assignment),
        stacked.imbalance,
    );
    println!("  per-level view (level 0 = inter-node tier):");
    for (l, m) in levels.iter().enumerate() {
        println!(
            "    level {l}: {:>2} groups  cut {:>5}  max volume {:>5}",
            m.groups, m.edge_cut, m.max_comm_volume
        );
    }
    for r in stacked.level_refine.as_ref().expect("stacked plans report per-level refinement") {
        println!(
            "    refine: cut {:>5} -> {:>5}  ({} moves, {} sweeps)",
            r.cut_before, r.cut_after, r.moves, r.rounds
        );
    }

    // Illegal combinations fail with a typed error, not a panic deep in a
    // driver: a flat plan's state (the hierarchy [8]) cannot warm-start
    // the hierarchy [4, 2].
    let bad = PlanSpec::hierarchical(
        MeshView::from(&drifted),
        HierarchySpec::uniform(&[4, 2]),
        cfg,
    );
    let err = bad.validate(Some(&state)).expect_err("flat state + hierarchy is illegal");
    println!("\nillegal spec rejected: {err}");
}
