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

use geographer::{Config, KMeansStats};
use geographer_bench::{solve_plan_view, PlanRecipe, Tool};
use geographer_graph::CsrGraph;
use geographer_mesh::density::sample_by_density;
use geographer_mesh::{DynamicWorkload, Mesh, Scenario};
use geographer_planner::{MeshView, PlanState};

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

/// The warm companion: a cold boot at step 0 of a cluster-drift workload
/// (uniform points in generator order, n = 50k, k = 16, p = 1 — the
/// shape of the repo benchmark's `warm_drift_p1`), then four warm
/// re-steps, each resuming from the state the step before returned.
/// Counts are summed over the four re-steps, the digest chains their
/// assignments.
#[test]
fn warm_chain_repeats_the_recorded_counts_and_partitions() {
    let (n, k, seed) = (50_000, 16, 77);
    let base = Mesh {
        points: sample_by_density(n, seed, |_| 1.0),
        weights: vec![1.0; n],
        graph: CsrGraph::from_edges(n, &[]),
    };
    let scenario = Scenario::ClusterDrift { clusters: 4, speed: 0.01 };
    let workload = DynamicWorkload::new(base, scenario, seed);
    let cfg = Config { sampling_init: false, ..Config::default() };
    let recipe = PlanRecipe::flat("count_guard_warm", Tool::Geographer, k, cfg);
    let weights = workload.weights_at(0);
    let solve = |t: usize, state: Option<&PlanState<2>>| {
        let points = workload.points_at(t);
        let view = MeshView { points: &points, weights: &weights, graph: None };
        solve_plan_view(view, &recipe, 1, state).plan
    };
    let mut state = solve(0, None).state;
    let mut sum = KMeansStats::default();
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for t in 1..=4 {
        let plan = solve(t, state.as_ref());
        let s = plan.stats.expect("stats");
        sum.movement_iterations += s.movement_iterations;
        sum.balance_iterations += s.balance_iterations;
        sum.points_visited += s.points_visited;
        sum.hamerly_skips += s.hamerly_skips;
        sum.distance_evals += s.distance_evals;
        sum.bbox_breaks += s.bbox_breaks;
        digest = plan
            .assignment
            .iter()
            .flat_map(|b| b.to_le_bytes())
            .fold(digest, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3));
        state = plan.state;
    }
    // Recorded at d18cb9a, where the warm arm solved the points in
    // generator order: the trajectory and the four partitions are what
    // they were there — the local curve order changes which centers a
    // block's box rules out, never what a point is assigned to.
    assert_eq!(sum.movement_iterations, 23);
    assert_eq!(sum.balance_iterations, 38);
    assert_eq!(sum.points_visited, 1_900_000);
    assert_eq!(sum.hamerly_skips, 1_571_668);
    assert_eq!(digest, 0xf6e6_7b5b_e059_38e4, "chain digest {digest:#018x}");
    // There every block's box spanned the domain: 5 253 312 evaluations
    // and not one bound cut.
    assert_eq!(sum.distance_evals, 1_000_082);
    assert!(sum.distance_evals * 3 <= 5_253_312, "the local order prunes less than a third");
    assert_eq!(sum.bbox_breaks, 328_332);
}
