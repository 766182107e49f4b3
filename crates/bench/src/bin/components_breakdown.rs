//! Sec. 5.3.2 "Components" reproduction: how Geographer's running time
//! splits between Hilbert indexing, redistribution, and the balanced
//! k-means iterations, as the rank count grows.
//!
//! Paper observation: at small scale indexing + k-means dominate; as p
//! grows the redistribution takes an increasing share (32 % → 46 % of the
//! time on Delaunay2B between 1 024 and 16 384 ranks, with k-means going
//! from 47 % to 42 %).

use geographer::{partition_spmd, Config, PhaseComm};
use geographer_bench::{scaled, TextTable};
use geographer_mesh::delaunay_unit_square;
use geographer_parcomm::{run_spmd, CommStats};

fn main() {
    let n = scaled(60_000);
    println!("# Components breakdown: Geographer on Delaunay n = {n}");
    let mesh = delaunay_unit_square(n, 31);
    let cfg = Config::default();
    let mut table = TextTable::new(vec![
        "p", "sfcIndex%", "redistribute%", "kmeans%", "total(serialized)",
    ]);
    for p in [1usize, 2, 4, 8, 16] {
        let chunk = n / p;
        let points = &mesh.points;
        let weights = &mesh.weights;
        let results = run_spmd(p, |comm| {
            use geographer_parcomm::Comm;
            let lo = comm.rank() * chunk;
            let hi = if comm.rank() == p - 1 { n } else { lo + chunk };
            let res = partition_spmd(&comm, &points[lo..hi], &weights[lo..hi], p.max(2), None, &cfg);
            (res.timings, res.phase_comm)
        });
        // Phases are synchronized by collectives: sum across ranks gives the
        // serialized share of each phase.
        let sfc: f64 = results.iter().map(|(t, _)| t.sfc_index).sum();
        let redist: f64 = results.iter().map(|(t, _)| t.redistribute).sum();
        let kmeans: f64 = results.iter().map(|(t, _)| t.kmeans).sum();
        let total = sfc + redist + kmeans;
        table.row(vec![
            p.to_string(),
            format!("{:.1}", 100.0 * sfc / total),
            format!("{:.1}", 100.0 * redist / total),
            format!("{:.1}", 100.0 * kmeans / total),
            format!("{total:.3}s"),
        ]);
        // Per-phase communication structure, job-wide (each rank reports
        // its own view): the redistribution phase is volume-heavy, k-means
        // is round-heavy.
        let job = |phase: fn(&PhaseComm) -> CommStats| {
            let views: Vec<CommStats> = results.iter().map(|(_, pc)| phase(pc)).collect();
            CommStats::from_rank_views(&views)
        };
        let (sfc, redist, kmeans) =
            (job(|pc| pc.sfc_index), job(|pc| pc.redistribute), job(|pc| pc.kmeans));
        eprintln!(
            "  p={p}: comm rounds sfc={} redistribute={} kmeans={} | \
             bytes/rank sfc={} redistribute={} kmeans={}",
            sfc.rounds(),
            redist.rounds(),
            kmeans.rounds(),
            sfc.bytes_per_rank(),
            redist.bytes_per_rank(),
            kmeans.bytes_per_rank(),
        );
    }
    table.print();
    println!("\n(expected: redistribution share grows with p, k-means share shrinks)");
}
