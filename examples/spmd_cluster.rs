//! Run Geographer the way the paper runs it: SPMD, one rank per "process",
//! each owning a shard of the points — here with threads as ranks via
//! `geographer_parcomm`. Shows per-phase timings (the Components breakdown
//! of Sec. 5.3.2) and the communication counters.
//!
//! ```sh
//! cargo run --release --example spmd_cluster
//! ```

use geographer::{partition_spmd, Config};
use geographer_mesh::delaunay_unit_square;
use geographer_parcomm::{run_spmd, Collective, Comm, CommStats};

fn main() {
    let mesh = delaunay_unit_square(40_000, 3);
    let p = 8; // ranks
    let k = 8; // blocks (independent of p in general; equal here, as in the paper)
    println!("SPMD run: n = {}, p = {p} ranks, k = {k} blocks", mesh.n());

    let n = mesh.n();
    let points = &mesh.points;
    let weights = &mesh.weights;
    let results = run_spmd(p, |comm| {
        let lo = comm.rank() * n / p;
        let hi = (comm.rank() + 1) * n / p;
        let res = partition_spmd(&comm, &points[lo..hi], &weights[lo..hi], k, None, &Config::default());
        let stats = res.stats.reduce(&comm);
        (res, stats, comm.stats())
    });

    let (res0, global_stats, _) = &results[0];
    // Each rank reports its own counters; the job-wide view sums the bytes.
    let views: Vec<CommStats> = results.iter().map(|(_, _, view)| *view).collect();
    let comm_stats = CommStats::from_rank_views(&views);
    println!("\nphase timings (rank 0):");
    println!("  hilbert indexing: {:>8.2} ms", res0.timings.sfc_index * 1e3);
    println!("  sort+redistribute:{:>8.2} ms", res0.timings.redistribute * 1e3);
    println!("  balanced k-means: {:>8.2} ms", res0.timings.kmeans * 1e3);
    println!("\nglobal k-means counters:");
    println!("  movement iterations: {}", global_stats.movement_iterations);
    println!("  balance iterations:  {}", global_stats.balance_iterations);
    println!("  distance evals:      {}", global_stats.distance_evals);
    println!("  Hamerly skip rate:   {:.1}%", global_stats.skip_rate() * 100.0);
    println!(
        "\ncommunication: {} collectives, {} rounds, {} bytes received per rank",
        comm_stats.collectives(),
        comm_stats.rounds(),
        comm_stats.bytes_per_rank()
    );
    for kind in Collective::ALL {
        let op = comm_stats.op(kind);
        if op.ops > 0 {
            println!(
                "  {:<10} {:>6} ops  {:>6} rounds  {:>12} bytes",
                kind.name(),
                op.ops,
                op.rounds,
                op.bytes
            );
        }
    }

    // Every rank returns its shard's assignment; verify global balance.
    let mut sizes = vec![0usize; k];
    for (res, _, _) in &results {
        for &b in &res.assignment {
            sizes[b as usize] += 1;
        }
    }
    println!("\nblock sizes: {sizes:?}");
    let max = *sizes.iter().max().unwrap() as f64;
    assert!(max / (n as f64 / k as f64) - 1.0 <= 0.03 + 1e-9);
    println!("balance constraint (ε = 3%) satisfied");
}
