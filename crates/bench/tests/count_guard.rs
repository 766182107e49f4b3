//! Tier-1 count guard, the clock-free companion of `perf_gate.rs`: on the
//! same gate instance (n = 100k, p = 1, k = 8, seed 77) the default config
//! must do exactly the iterations, point visits and Hamerly skips — and
//! produce exactly the partition — recorded at commit bd8a563, the last
//! one that still carried the per-point AoS reference scan (which did the
//! same iterations, visits and skips there, with 3 945 528 distance
//! evaluations). Those four trajectory counts and the digest have not
//! moved since.
//!
//! `points_visited` pins that no pass visits a point outside the round's
//! active set; `distance_evals` and `bbox_breaks` at equal skips pin what
//! the blocked kernel's box bounds prune, sampling rounds included. They
//! were re-recorded once, when the per-block center shortlist went in:
//! the per-point bound alone evaluated 2 361 162 distances and cut
//! 480 133 scans short here. Counts repeat exactly, so there is no
//! envelope.

use geographer::Config;
use geographer_bench::{solve_plan_view, PlanRecipe, Tool};
use geographer_mesh::density::sample_by_density;
use geographer_planner::MeshView;

#[test]
fn default_config_repeats_the_recorded_counts_and_partition() {
    let (n, k) = (100_000, 8);
    let points = sample_by_density(n, 77, |_| 1.0);
    let weights = vec![1.0f64; n];
    let view = MeshView { points: &points, weights: &weights, graph: None };
    let recipe = PlanRecipe::flat("count_guard", Tool::Geographer, k, Config::default());
    let plan = solve_plan_view(view, &recipe, 1, None).plan;
    let s = plan.stats.expect("stats");
    assert_eq!(s.movement_iterations, 35);
    assert_eq!(s.balance_iterations, 183);
    assert_eq!(s.points_visited, 3_542_200);
    assert_eq!(s.hamerly_skips, 3_049_009);
    assert_eq!(s.distance_evals, 1_270_726);
    assert!(s.distance_evals < 2_361_162, "the shortlist prunes less than the per-point bound did");
    assert_eq!(s.bbox_breaks, 488_033);
    // FNV-1a over the assignment's little-endian block ids.
    let digest = plan
        .assignment
        .iter()
        .flat_map(|b| b.to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3));
    assert_eq!(digest, 0x3787_4eca_8c3c_fd14, "partition digest {digest:#018x}");
}
