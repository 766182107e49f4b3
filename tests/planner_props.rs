//! Planner contract properties: the fixed-point regression of ISSUE 6 and
//! the cross-cutting guarantees of `Planner::solve` that no single crate's
//! unit tests can see end to end.
//!
//! The central property is **warm-restart idempotence**: a converged
//! [`Plan`] fed back through its own [`PlanState`] on *unmoved* points must
//! reproduce its assignment bitwise — for flat, hierarchical, and
//! multilevel-refined (stacked) specs alike. The solve phase restarts from
//! its own converged centers and influences, so k-means has nothing left to
//! move; the refinement phase is deterministic on the assembled assignment;
//! therefore the whole plan is a fixed point. A violation means warm state
//! is leaking information that differs from what the solve converged to —
//! exactly the class of bug the unified state enum is meant to prevent.

use geographer::{Config, HierarchySpec};
use geographer_bench::{solve_plan_proc_view, solve_plan_view, PlanRecipe, Tool};
use geographer_graph::evaluate_levels;
use geographer_mesh::{climate25d, delaunay_unit_square, families::bubbles_like, Mesh};
use geographer_planner::{MeshView, RefineMode};
use geographer_refine::MultilevelConfig;

fn cfg() -> Config {
    Config { sampling_init: false, ..Config::default() }
}

/// Solve `recipe` cold, then warm-restart from the returned state on the
/// same mesh, and require the assignment to reproduce bitwise.
fn assert_fixed_point(mesh: &Mesh<2>, recipe: &PlanRecipe, p: usize) {
    let first = solve_plan_view(MeshView::from(mesh), recipe, p, None).plan;
    let state = first
        .state
        .clone()
        .unwrap_or_else(|| panic!("{}: stateful recipe must return a PlanState", recipe.name));
    let second = solve_plan_view(MeshView::from(mesh), recipe, p, Some(&state)).plan;
    assert_eq!(
        second.assignment, first.assignment,
        "{}: warm restart on unmoved points must be a bitwise fixed point",
        recipe.name
    );
    // The refreshed state must describe the same hierarchy, so it can be
    // threaded again.
    let refreshed = second.state.expect("warm solve returns refreshed state");
    assert_eq!(refreshed.arities, state.arities, "{}: state arities stable", recipe.name);
}

#[test]
fn warm_restart_is_a_fixed_point_for_a_flat_spec() {
    let mesh = delaunay_unit_square(1_400, 71);
    assert_fixed_point(&mesh, &PlanRecipe::flat("flat", Tool::Geographer, 6, cfg()), 2);
}

#[test]
fn warm_restart_is_a_fixed_point_for_a_hierarchical_spec() {
    let mesh = bubbles_like(1_600, 72);
    let spec = HierarchySpec::uniform(&[3, 2]);
    assert_fixed_point(&mesh, &PlanRecipe::hierarchical("hier", spec, cfg()), 2);
}

#[test]
fn warm_restart_is_a_fixed_point_for_multilevel_refined_specs() {
    // Refinement happens *after* the solve and the state snapshot, so the
    // fixed point must survive it: the warm solve reproduces the raw
    // assignment, and the deterministic refiner maps it to the same
    // refined assignment — for both the flat V-cycle and the stacked
    // hierarchy-aware one.
    let mesh = bubbles_like(1_600, 73);
    let ml = RefineMode::Multilevel(MultilevelConfig::default());
    assert_fixed_point(
        &mesh,
        &PlanRecipe::flat("flat+ml", Tool::Geographer, 4, cfg()).with_refine(ml.clone()),
        2,
    );
    let spec = HierarchySpec::uniform(&[2, 2]);
    assert_fixed_point(
        &mesh,
        &PlanRecipe::hierarchical("stacked", spec, cfg()).with_refine(ml),
        2,
    );
}

#[test]
fn planner_spmd_ranks_agree_with_serial_for_the_stacked_spec() {
    // Rank-redundant refinement plus the ≥ 99.5 % solver agreement policy
    // of DESIGN.md §1, end to end through Planner::solve.
    let mesh = bubbles_like(1_200, 74);
    let spec = HierarchySpec::uniform(&[2, 2]);
    let recipe = PlanRecipe::hierarchical("stacked", spec, cfg())
        .with_refine(RefineMode::Multilevel(MultilevelConfig::default()));
    let serial = solve_plan_view(MeshView::from(&mesh), &recipe, 1, None).plan;
    for p in [2, 4] {
        let spmd = solve_plan_view(MeshView::from(&mesh), &recipe, p, None).plan;
        let same = serial
            .assignment
            .iter()
            .zip(&spmd.assignment)
            .filter(|(a, b)| a == b)
            .count();
        let agree = same as f64 / mesh.n() as f64;
        assert!(agree >= 0.995, "p={p}: only {:.2}% agreement with serial", agree * 100.0);
    }
}

#[test]
fn planner_process_ranks_match_thread_ranks_for_the_stacked_spec() {
    // The full planner stack — hierarchy, multilevel refinement, state
    // assembly — on forked worker processes. Both backends run identical
    // collective algorithms with identical reduction trees, so at equal p
    // the stacked spec must reproduce the thread backend's assignment
    // bitwise; against serial the usual ≥ 99.5 % policy applies.
    let mesh = bubbles_like(1_200, 74);
    let spec = HierarchySpec::uniform(&[2, 2]);
    let recipe = PlanRecipe::hierarchical("stacked", spec, cfg())
        .with_refine(RefineMode::Multilevel(MultilevelConfig::default()));
    let serial = solve_plan_view(MeshView::from(&mesh), &recipe, 1, None).plan;
    for p in [2, 4] {
        let threads = solve_plan_view(MeshView::from(&mesh), &recipe, p, None).plan;
        let procs = solve_plan_proc_view(MeshView::from(&mesh), &recipe, p)
            .unwrap_or_else(|e| panic!("p={p}: proc job failed: {e}"));
        assert_eq!(
            procs.assignment, threads.assignment,
            "p={p}: process ranks must match thread ranks bitwise"
        );
        let same = serial
            .assignment
            .iter()
            .zip(&procs.assignment)
            .filter(|(a, b)| a == b)
            .count();
        let agree = same as f64 / mesh.n() as f64;
        assert!(agree >= 0.995, "p={p}: only {:.2}% agreement with serial", agree * 100.0);
    }
}

#[test]
fn stacked_plans_keep_every_hierarchy_level_balanced() {
    let mesh = bubbles_like(2_000, 75);
    let spec = HierarchySpec::uniform(&[2, 2]);
    let config = cfg();
    let unrefined = solve_plan_view(
        MeshView::from(&mesh),
        &PlanRecipe::hierarchical("hier", spec.clone(), config.clone()),
        2,
        None,
    )
    .plan;
    let stacked = solve_plan_view(
        MeshView::from(&mesh),
        &PlanRecipe::hierarchical("stacked", spec.clone(), config.clone())
            .with_refine(RefineMode::Multilevel(MultilevelConfig::default())),
        2,
        None,
    )
    .plan;

    // Refinement must lower (or hold) every level's cut...
    let groups = spec.level_groups();
    let before = evaluate_levels(&mesh.graph, &unrefined.assignment, &groups);
    let after = evaluate_levels(&mesh.graph, &stacked.assignment, &groups);
    for l in 0..groups.len() {
        assert!(
            after[l].edge_cut <= before[l].edge_cut,
            "level {l}: refinement raised the cut {} -> {}",
            before[l].edge_cut,
            after[l].edge_cut
        );
    }
    assert!(stacked.level_refine.is_some(), "stacked plan reports per-level refinement");

    // ...while keeping every level inside the solver's own balance floor:
    // max((1+ε)·target, target + w_max) against the parent's actual weight.
    let w_max = mesh.weights.iter().copied().fold(0.0, f64::max);
    let mut parent_w = vec![mesh.weights.iter().sum::<f64>()];
    for (l, map) in groups.iter().enumerate() {
        let arity = spec.levels[l].arity;
        let eps = spec.levels[l].epsilon.unwrap_or(config.epsilon);
        let mut gw = vec![0.0f64; parent_w.len() * arity];
        for (&b, &w) in stacked.assignment.iter().zip(&mesh.weights) {
            gw[map[b as usize] as usize] += w;
        }
        for (gi, &w) in gw.iter().enumerate() {
            let target = parent_w[gi / arity] / arity as f64;
            let allowed = ((1.0 + eps) * target).max(target + w_max);
            assert!(w <= allowed + 1e-9, "level {l} group {gi}: {w} > {allowed}");
        }
        parent_w = gw;
    }
}

#[test]
fn power_of_two_weight_scaling_leaves_the_partition_bitwise_unchanged() {
    // Metamorphic: k-means' grid follows `w_max`, so scaling every weight
    // by 2^j scales every pre-rounded term, sum, target and bound by 2^j
    // exactly, and the partition — sampling on, one rank or three — is the
    // same bit pattern.
    let mesh = climate25d(1500, 30, 23);
    let recipe = PlanRecipe::flat("geographer", Tool::Geographer, 6, Config::default());
    let solve = |weights: &[f64], p: usize| {
        let view = MeshView { points: &mesh.points, weights, graph: None };
        solve_plan_view(view, &recipe, p, None).plan.assignment
    };
    let reference = solve(&mesh.weights, 1);
    for j in [-20, 3, 40] {
        let scaled: Vec<f64> = mesh.weights.iter().map(|w| w * 2f64.powi(j)).collect();
        for p in [1, 3] {
            assert_eq!(solve(&scaled, p), reference, "weights × 2^{j} at p = {p}");
        }
    }
}
