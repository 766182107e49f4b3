//! Measure the paper's Sec. 4.3 dismissal of nearest-neighbour structures:
//! "Nearest-neighbor data structures like kd-trees are outperformed by
//! simpler distance bounds in most published experiments."
//!
//! We time one full assignment pass over n points against k centers with
//! warped (influence-weighted) distances, three ways:
//!
//! * naive — evaluate all k centers per point;
//! * kd-tree — [`kdtree::CenterTree`] with effective-distance
//!   pruning (rebuilt once per pass, as it would be after every center
//!   movement);
//! * Hamerly bounds — the per-pass *average* cost inside the real solver,
//!   whose bounds persist across iterations (read from its counters).

mod kdtree;

use std::time::Instant;

use geographer::{balanced_kmeans, Config};
use geographer_bench::{scaled, Cli, TextTable};
use geographer_geometry::Point;
use geographer_mesh::delaunay_unit_square;
use geographer_parcomm::SelfComm;

use kdtree::{CenterTree, TreeCursor};

fn main() {
    Cli::from_env(&[], &[]);
    let n = scaled(100_000);
    let k = 64;
    println!("# Ablation: kd-tree vs distance bounds (n = {n}, k = {k})");
    let mesh = delaunay_unit_square(n, 91);
    let pts = &mesh.points;
    // A mid-run state: spread centers, mildly varied influences.
    let centers: Vec<Point<2>> = (0..k).map(|i| pts[i * n / k + n / (2 * k)]).collect();
    let influence: Vec<f64> = (0..k).map(|i| 0.9 + 0.2 * ((i % 5) as f64 / 4.0)).collect();

    let mut table = TextTable::new(vec!["method", "pass time", "dist evals", "evals/point"]);

    // Naive pass.
    let t = Instant::now();
    let mut checksum = 0u64;
    for p in pts {
        let mut best = (f64::INFINITY, 0u32);
        for (c, (ctr, i)) in centers.iter().zip(&influence).enumerate() {
            let e = p.dist(ctr) / i;
            if e < best.0 {
                best = (e, c as u32);
            }
        }
        checksum = checksum.wrapping_add(best.1 as u64);
    }
    let naive_t = t.elapsed().as_secs_f64();
    table.row(vec![
        "naive".to_string(),
        format!("{:.1}ms", naive_t * 1e3),
        format!("{}", n * k),
        format!("{k}.0"),
    ]);

    // kd-tree pass (build + batched queries over blocks of spatially
    // adjacent points, one reusable cursor — the tree's best case).
    let t = Instant::now();
    let tree = CenterTree::build(&centers, &influence);
    let mut kd_evals = 0u64;
    let mut kd_checksum = 0u64;
    let mut cursor = TreeCursor::default();
    let mut block = Vec::new();
    for chunk in pts.chunks(256) {
        tree.nearest_batch(chunk, &mut cursor, &mut block);
        for r in &block {
            kd_evals += r.evals as u64;
            kd_checksum = kd_checksum.wrapping_add(r.center as u64);
        }
    }
    let kd_t = t.elapsed().as_secs_f64();
    assert_eq!(checksum, kd_checksum, "kd-tree must agree with naive");
    table.row(vec![
        "kd-tree".to_string(),
        format!("{:.1}ms", kd_t * 1e3),
        kd_evals.to_string(),
        format!("{:.1}", kd_evals as f64 / n as f64),
    ]);

    // Hamerly-bounds solver: per-pass average from a real run.
    let cfg = Config { sampling_init: false, max_iterations: 25, ..Config::default() };
    let t = Instant::now();
    let out = balanced_kmeans(&SelfComm, pts, &mesh.weights, k, centers.clone(), &cfg);
    let solver_t = t.elapsed().as_secs_f64();
    let passes = out.stats.balance_iterations.max(1);
    table.row(vec![
        "hamerly bounds (solver avg)".to_string(),
        format!("{:.1}ms", solver_t * 1e3 / passes as f64),
        format!("{}", out.stats.distance_evals / passes),
        format!("{:.1}", out.stats.distance_evals as f64 / passes as f64 / n as f64),
    ]);

    table.print();
    println!(
        "\n(paper's claim: the simple bounds beat kd-trees — the bounds amortize\n\
         across iterations and pay no per-pass rebuild/traversal overhead)"
    );
}
