//! Properties and the headline quality claim of the repartitioning
//! subsystem (DESIGN.md §5): warm starts are fixed points on unmoved
//! inputs, migration metrics are relabel-free-symmetric, dynamic scenario
//! generators are step-deterministic — and on a cluster-drift workload,
//! warm-start repartitioning migrates a ≥ 2× smaller point fraction than
//! cold re-runs at the same balance bound (the paper's reuse argument).

use geographer::Config;
use geographer_bench::{run_plan_chain, PlanRecipe, Tool};
use geographer_geometry::Point;
use geographer_graph::{migration, relabel_free_migration};
use geographer_mesh::{delaunay_unit_square, DynamicWorkload, Scenario};
use geographer_parcomm::SelfComm;
use geographer_planner::{MeshView, PlanSpec, Planner};
use proptest::prelude::*;

fn arb_points(max_n: usize) -> impl Strategy<Value = Vec<Point<2>>> {
    prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), 60..max_n)
        .prop_map(|v| v.into_iter().map(|(x, y)| Point::new([x, y])).collect())
}

fn arb_scenario() -> impl Strategy<Value = Scenario> {
    (0u32..4, 0.002f64..0.08, 0.05f64..0.95, 1usize..6).prop_map(
        |(which, speed, shape, clusters)| match which {
            0 => Scenario::Advection { velocity: [speed, speed * shape] },
            1 => Scenario::Rotation { omega: speed * 10.0 },
            2 => Scenario::ClusterDrift { clusters, speed },
            _ => Scenario::HotspotChurn {
                radius: 0.05 + 0.25 * shape,
                boost: 0.5 + 8.0 * shape,
            },
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Repartitioning an *unmoved* point set from a converged previous
    /// solve migrates zero points (and zero weight).
    #[test]
    fn unmoved_points_migrate_nothing(pts in arb_points(250), k in 2usize..6) {
        let weights = vec![1.0; pts.len()];
        let view = MeshView { points: &pts, weights: &weights, graph: None };
        let cfg = Config { sampling_init: false, max_iterations: 250, ..Config::default() };
        let spec = PlanSpec::flat(view, Tool::Geographer, k, cfg);
        let cold = Planner::solve(&spec, None, &SelfComm);
        // The fixed-point contract is stated for converged solves; 250
        // movement iterations make non-convergence essentially impossible
        // on these inputs, but skip (rather than fail) if it happens.
        if !cold.stats.expect("Geographer plans carry stats").converged {
            return Ok(());
        }
        let warm = Planner::solve(&spec, cold.state.as_ref(), &SelfComm);
        let m = migration(&cold.assignment, &warm.assignment, &weights);
        prop_assert_eq!(m.migrated_points, 0, "fractions {:?}", m);
        prop_assert_eq!(m.migrated_weight, 0.0);
    }

    /// Relabel-free migration is symmetric in its two assignments, for
    /// both the point and the weight fraction.
    #[test]
    fn relabel_free_migration_is_symmetric(
        labels in prop::collection::vec((0u32..5, 0u32..5, 0.01f64..10.0), 10..200),
    ) {
        let prev: Vec<u32> = labels.iter().map(|(a, _, _)| *a).collect();
        let next: Vec<u32> = labels.iter().map(|(_, b, _)| *b).collect();
        let w: Vec<f64> = labels.iter().map(|(_, _, w)| *w).collect();
        let ab = relabel_free_migration(&prev, &next, &w, 5);
        let ba = relabel_free_migration(&next, &prev, &w, 5);
        prop_assert_eq!(ab.migrated_points, ba.migrated_points);
        prop_assert!(
            (ab.migrated_weight - ba.migrated_weight).abs() < 1e-9,
            "weight asymmetry: {} vs {}", ab.migrated_weight, ba.migrated_weight
        );
        // And a permutation of the labels is never counted as migration.
        let relabeled: Vec<u32> = prev.iter().map(|&b| (b + 2) % 5).collect();
        prop_assert_eq!(relabel_free_migration(&prev, &relabeled, &w, 5).migrated_points, 0);
    }

    /// Dynamic scenario generators are step-deterministic: the same
    /// (base, scenario, seed, step) always produces identical points and
    /// weights, from the same instance or a freshly built one.
    #[test]
    fn dynamic_generators_are_step_deterministic(
        scenario in arb_scenario(),
        seed in any::<u64>(),
        t in 0usize..25,
    ) {
        let base = delaunay_unit_square(150, 5);
        let wl = DynamicWorkload::new(base.clone(), scenario.clone(), seed);
        let fresh = DynamicWorkload::new(base, scenario, seed);
        prop_assert_eq!(wl.points_at(t), fresh.points_at(t));
        prop_assert_eq!(wl.weights_at(t), fresh.weights_at(t));
        prop_assert_eq!(wl.points_at(t), wl.points_at(t), "repeat call must be pure");
    }
}

/// The paper's reuse claim, pinned as a committed test (ISSUE 3 acceptance
/// criterion): over cluster-drift workloads, warm-start repartitioning
/// achieves at least 2× lower migrated-point fraction than cold re-runs at
/// the *same* imbalance bound ε. Aggregated over several seeds because any
/// single cold run may coincidentally land near its predecessor; the
/// aggregate gap is what the reuse argument predicts (measured ≈ 5–7× on
/// this scenario; 2× is the conservative floor).
#[test]
fn warm_repartitioning_halves_migration_on_cluster_drift() {
    let cfg = Config { sampling_init: false, ..Config::default() };
    let (n, k, steps) = (2000usize, 8usize, 5usize);
    let mut warm_sum = 0.0;
    let mut cold_sum = 0.0;
    let mut transitions = 0usize;
    for seed in [7u64, 99, 3, 17] {
        let wl = DynamicWorkload::new(
            delaunay_unit_square(n, seed),
            Scenario::ClusterDrift { clusters: 5, speed: 0.005 },
            seed,
        );
        let cold = PlanRecipe::flat("cold", Tool::Geographer, k, cfg.clone());
        let warm = PlanRecipe::flat("warm", Tool::Geographer, k, cfg.clone()).warm();
        for (recipe, sum) in [(&warm, &mut warm_sum), (&cold, &mut cold_sum)] {
            let rows = run_plan_chain(&wl, recipe, 1, steps);
            for r in &rows {
                // Equal imbalance bound: every step of both modes must
                // meet the configured ε.
                assert!(
                    r.imbalance <= cfg.epsilon + 1e-6,
                    "{} seed {seed} step {}: imbalance {}",
                    recipe.name,
                    r.step,
                    r.imbalance
                );
            }
            *sum += rows[1..].iter().map(|r| r.migrated_point_fraction).sum::<f64>();
        }
        transitions += steps - 1;
    }
    let warm_mean = warm_sum / transitions as f64;
    let cold_mean = cold_sum / transitions as f64;
    assert!(
        cold_mean >= 2.0 * warm_mean,
        "reuse claim violated: cold migrates {:.4}, warm {:.4} (ratio {:.2} < 2)",
        cold_mean,
        warm_mean,
        cold_mean / warm_mean.max(1e-12)
    );
}

/// The committed benchmark artifact must record the cold-vs-warm wall
/// times next to the migration numbers (the speed axis of the reuse
/// claim). Regenerate with
/// `cargo run --release -p geographer_bench --bin bench_repartition`.
#[test]
fn bench_repartition_artifact_records_cold_vs_warm() {
    let json = std::fs::read_to_string("BENCH_repartition.json")
        .expect("BENCH_repartition.json must be committed at the repo root");
    for field in [
        "\"bench\": \"repartition\"",
        "cold_resteps_wall_s",
        "warm_resteps_wall_s",
        "warm_speedup",
        "cold_migration",
        "warm_migration",
        "Geographer-warm",
        "Geographer-cold",
    ] {
        assert!(json.contains(field), "BENCH_repartition.json missing {field}");
    }
}
