//! Quickstart: partition a Delaunay mesh into 8 balanced blocks with
//! Geographer and print the quality metrics.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use geographer::Config;
use geographer_graph::evaluate_partition;
use geographer_mesh::delaunay_unit_square;
use geographer_parcomm::SelfComm;
use geographer_planner::{MeshView, PlanSpec, Planner, Tool};

fn main() {
    // 1. Generate a mesh: a Delaunay triangulation of 20 000 random points
    //    (the paper's delaunayX family, laptop-sized).
    let mesh = delaunay_unit_square(20_000, 42);
    println!("mesh: n = {}, m = {}", mesh.n(), mesh.m());

    // 2. Partition its coordinates into k = 8 blocks, at most 3 % imbalance.
    let k = 8;
    let cfg = Config::default();
    //    `Planner::solve` is the one solve API; `SelfComm` is the single-rank
    //    communicator (see `spmd_cluster` for ranks).
    let spec = PlanSpec::flat(MeshView::from(&mesh), Tool::Geographer, k, cfg.clone());
    let t = std::time::Instant::now();
    let result = Planner::solve(&spec, None, &SelfComm);
    let stats = result.stats.expect("Geographer plans carry solver counters");
    println!(
        "partitioned in {:.3}s ({} k-means iterations, {} converged, skip rate {:.0}%)",
        t.elapsed().as_secs_f64(),
        stats.movement_iterations,
        if stats.converged { "" } else { "not " },
        stats.skip_rate() * 100.0,
    );

    // 3. Evaluate with the paper's graph metrics.
    let metrics = evaluate_partition(&mesh.graph, &result.assignment, &mesh.weights, k);
    println!("edge cut:          {}", metrics.edge_cut);
    println!("max comm volume:   {}", metrics.max_comm_volume);
    println!("total comm volume: {}", metrics.total_comm_volume);
    println!("harmonic diameter: {:.1}", metrics.harmonic_diameter);
    println!("imbalance:         {:.4} (ε = {})", metrics.imbalance, cfg.epsilon);
    assert!(metrics.imbalance <= cfg.epsilon + 1e-9, "balance constraint violated");
}
