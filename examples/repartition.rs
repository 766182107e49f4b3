//! Repartitioning a drifting point set: warm starts vs cold re-runs.
//!
//! A cluster-drift workload evolves a Delaunay mesh over 8 time steps.
//! At every step the partition is recomputed two ways — cold (the full
//! SFC + k-means pipeline from scratch) and warm (the same `Planner::solve`
//! handed the previous step's plan state: balanced k-means warm-started
//! from the previous centers and influences) — and the
//! relabel-free migrated-point fraction between consecutive assignments is
//! printed for both. Warm starts track the drift, so far fewer points
//! change block (the paper's reuse argument; DESIGN.md §5).
//!
//! ```sh
//! cargo run --release --example repartition
//! ```

use geographer::Config;
use geographer_graph::relabel_free_migration;
use geographer_mesh::{delaunay_unit_square, DynamicWorkload, Scenario};
use geographer_parcomm::SelfComm;
use geographer_planner::{MeshView, PlanSpec, Planner, Tool};

fn main() {
    let (n, k, steps, seed) = (10_000, 8, 8, 17);
    let workload = DynamicWorkload::new(
        delaunay_unit_square(n, seed),
        Scenario::ClusterDrift { clusters: 5, speed: 0.005 },
        seed,
    );
    let cfg = Config { sampling_init: false, ..Config::default() };
    println!("cluster-drift workload: n = {n}, k = {k}, {steps} steps, ε = {}", cfg.epsilon);
    println!("{:>4}  {:>12} {:>10}  {:>12} {:>10}", "step", "warm migr.", "time", "cold migr.", "time");

    // Step 0 bootstraps both chains with the same cold solve.
    let mesh0 = workload.mesh_at(0);
    let spec0 = PlanSpec::flat(MeshView::from(&mesh0), Tool::Geographer, k, cfg.clone());
    let t = std::time::Instant::now();
    let first = Planner::solve(&spec0, None, &SelfComm);
    println!("{:>4}  {:>12} {:>9.3}s  (shared cold bootstrap)", 0, "—", t.elapsed().as_secs_f64());

    let mut warm_prev = first.clone();
    let mut cold_prev_asg = first.assignment;
    let (mut warm_total, mut cold_total) = (0.0f64, 0.0f64);
    for step in 1..steps {
        let mesh = workload.mesh_at(step);
        let spec = PlanSpec::flat(MeshView::from(&mesh), Tool::Geographer, k, cfg.clone());

        // Warm: the same solve, handed the previous plan's state.
        let t = std::time::Instant::now();
        let warm = Planner::solve(&spec, warm_prev.state.as_ref(), &SelfComm);
        let warm_secs = t.elapsed().as_secs_f64();
        let warm_mig =
            relabel_free_migration(&warm_prev.assignment, &warm.assignment, &mesh.weights, k);

        let t = std::time::Instant::now();
        let cold = Planner::solve(&spec, None, &SelfComm);
        let cold_secs = t.elapsed().as_secs_f64();
        let cold_mig = relabel_free_migration(&cold_prev_asg, &cold.assignment, &mesh.weights, k);

        println!(
            "{:>4}  {:>11.1}% {:>9.3}s  {:>11.1}% {:>9.3}s",
            step,
            warm_mig.point_fraction * 100.0,
            warm_secs,
            cold_mig.point_fraction * 100.0,
            cold_secs,
        );
        assert!(warm.imbalance <= cfg.epsilon + 1e-9, "warm step {step} must stay within ε");
        warm_total += warm_mig.point_fraction;
        cold_total += cold_mig.point_fraction;
        warm_prev = warm;
        cold_prev_asg = cold.assignment;
    }

    let resteps = (steps - 1) as f64;
    println!(
        "\nmean migrated-point fraction: warm {:.1}%, cold {:.1}%",
        warm_total / resteps * 100.0,
        cold_total / resteps * 100.0,
    );
    assert!(
        warm_total <= cold_total,
        "warm starts should not migrate more than cold re-runs on drift"
    );
}
