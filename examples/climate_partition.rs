//! The paper's motivating 2.5D scenario (Sec. 1): partition a climate-model
//! ocean mesh whose node weights encode the vertical column height, so the
//! *weighted* load is balanced — not the vertex count.
//!
//! ```sh
//! cargo run --release --example climate_partition
//! ```

use geographer::Config;
use geographer_graph::evaluate_partition;
use geographer_mesh::climate25d;
use geographer_parcomm::SelfComm;
use geographer_planner::{MeshView, PlanSpec, Planner, Tool};

fn main() {
    // Ocean mesh: coastal refinement + depth-proportional node weights.
    let mesh = climate25d(15_000, 40, 7);
    let total_w: f64 = mesh.weights.iter().sum();
    println!(
        "climate mesh: n = {}, m = {}, total weight = {:.0} (≈3D grid points)",
        mesh.n(),
        mesh.m(),
        total_w
    );

    let k = 12;
    let spec = PlanSpec::flat(MeshView::from(&mesh), Tool::Geographer, k, Config::default());
    let result = Planner::solve(&spec, None, &SelfComm);

    // Per-block loads: weight balanced within ε even though vertex counts
    // differ strongly (deep-ocean blocks hold fewer, heavier vertices).
    let mut w_per_block = vec![0.0f64; k];
    let mut n_per_block = vec![0usize; k];
    for (&b, &w) in result.assignment.iter().zip(&mesh.weights) {
        w_per_block[b as usize] += w;
        n_per_block[b as usize] += 1;
    }
    println!("\nblock  vertices  weight   weight/avg");
    let avg = total_w / k as f64;
    for b in 0..k {
        println!(
            "{b:>5}  {:>8}  {:>7.0}  {:>9.3}",
            n_per_block[b],
            w_per_block[b],
            w_per_block[b] / avg
        );
    }
    let metrics = evaluate_partition(&mesh.graph, &result.assignment, &mesh.weights, k);
    println!("\nweighted imbalance: {:.4} (≤ 0.03 required)", metrics.imbalance);
    println!("total comm volume:  {}", metrics.total_comm_volume);
    assert!(metrics.imbalance <= 0.03 + 1e-9);

    let count_spread = n_per_block.iter().max().unwrap() - n_per_block.iter().min().unwrap();
    println!(
        "vertex-count spread across blocks: {count_spread} (weights, not counts, are balanced)"
    );
}
