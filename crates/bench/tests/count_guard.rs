//! Tier-1 count guard, the clock-free companion of `perf_gate.rs`: on the
//! same gate instance (n = 100k, p = 1, k = 8, seed 77) the default config
//! and the `soa_kernel: false` reference must do the same iterations,
//! visit and Hamerly-skip the same points, and produce the same partition,
//! while the default config evaluates strictly fewer distances.
//!
//! Equal `points_visited` pins that no pass visits a point outside the
//! round's active set — the AoS scan visits exactly the active list —
//! and fewer `distance_evals` at equal skips that the blocked kernel's
//! per-block bound prunes in the rounds it serves, sampling rounds
//! included (under `soa_kernel: true` the AoS branch of
//! `assign_and_balance` is the `else` of that switch: unreachable).
//! Counts repeat exactly, so there is no envelope.

use geographer::Config;
use geographer_bench::{solve_plan_view, PlanRecipe, Tool};
use geographer_mesh::density::sample_by_density;
use geographer_planner::MeshView;

#[test]
fn default_config_matches_reference_counts_with_fewer_distance_evals() {
    let (n, k) = (100_000, 8);
    let points = sample_by_density(n, 77, |_| 1.0);
    let weights = vec![1.0f64; n];
    let view = MeshView { points: &points, weights: &weights, graph: None };
    let solve = |cfg: Config| {
        solve_plan_view(view, &PlanRecipe::flat("count_guard", Tool::Geographer, k, cfg), 1, None)
            .plan
    };
    let soa = solve(Config::default());
    let aos = solve(Config { soa_kernel: false, ..Config::default() });
    assert_eq!(soa.assignment, aos.assignment);
    let (s, a) = (soa.stats.expect("stats"), aos.stats.expect("stats"));
    assert_eq!(s.movement_iterations, a.movement_iterations);
    assert_eq!(s.balance_iterations, a.balance_iterations);
    assert_eq!(s.hamerly_skips, a.hamerly_skips);
    assert_eq!(s.points_visited, a.points_visited);
    assert!(
        s.distance_evals < a.distance_evals,
        "block pruning must save distance evaluations: {} vs {}",
        s.distance_evals,
        a.distance_evals
    );
}
