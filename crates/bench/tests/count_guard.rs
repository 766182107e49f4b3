//! Tier-1 count guard, the clock-free companion of `perf_gate.rs`: on the
//! same gate instance (n = 100k, k = 8, seed 77) the default config must
//! do exactly the recorded iterations, point visits and Hamerly skips, and
//! produce exactly the recorded partition — at p = 1 and on two ranks
//! alike, since k-means' sums are exact and its sample is keyed by the
//! points (DESIGN.md §2). Visits and skips are summed over the ranks.
//!
//! `points_visited` pins that no pass visits a point outside the round's
//! active set; `distance_evals` and `bbox_breaks` at equal skips pin what
//! the blocked kernel's box bounds prune, sampling rounds included — per
//! p, since they depend on the blocks each rank's points form. Counts
//! repeat exactly, so there is no envelope.

use geographer::{Config, KMeansStats};
use geographer_bench::{solve_plan_view, PlanRecipe, Tool};
use geographer_graph::CsrGraph;
use geographer_mesh::density::sample_by_density;
use geographer_mesh::{DynamicWorkload, Mesh, Scenario};
use geographer_parcomm::run_spmd;
use geographer_planner::{MeshView, PlanState, Planner};

/// FNV-1a over the assignment's little-endian block ids, continuing `h`.
fn fnv(h: u64, assignment: &[u32]) -> u64 {
    assignment
        .iter()
        .flat_map(|b| b.to_le_bytes())
        .fold(h, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

#[test]
fn default_config_repeats_the_recorded_counts_and_partition() {
    let (n, k) = (100_000, 8);
    let points = sample_by_density(n, 77, |_| 1.0);
    let weights = vec![1.0f64; n];
    let view = MeshView { points: &points, weights: &weights, graph: None };
    let recipe = PlanRecipe::flat("count_guard", Tool::Geographer, k, Config::default());
    // Rank 0's assignment (the global one) and the ranks' counters summed
    // (the iteration counts are replicated: rank 0's).
    let solve = |p: usize| {
        let plans = run_spmd(p, |comm| Planner::solve(&recipe.spec_view(view), None, &comm));
        let stats: Vec<KMeansStats> = plans.iter().map(|plan| plan.stats.expect("stats")).collect();
        let sum = |f: fn(&KMeansStats) -> u64| stats.iter().map(f).sum::<u64>();
        let counts = [
            stats[0].movement_iterations,
            stats[0].balance_iterations,
            sum(|s| s.points_visited),
            sum(|s| s.hamerly_skips),
        ];
        let pruning = [sum(|s| s.distance_evals), sum(|s| s.bbox_breaks)];
        (fnv(0xcbf2_9ce4_8422_2325, &plans[0].assignment), counts, pruning)
    };
    for (p, pruning) in [(1, [1_025_393, 399_643]), (2, [1_002_611, 401_560])] {
        let (digest, counts, got) = solve(p);
        assert_eq!(digest, 0x7221_00ed_34dc_8a56, "p = {p}: partition digest {digest:#018x}");
        assert_eq!(counts, [32, 88, 3_066_687, 2_664_778], "p = {p}: trajectory");
        assert_eq!(got, pruning, "p = {p}: distance evaluations and box breaks");
    }
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
        digest = fnv(digest, &plan.assignment);
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
