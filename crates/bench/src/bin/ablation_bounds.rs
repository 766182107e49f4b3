//! Ablation of the geometric optimizations (Sec. 4.3–4.4): Hamerly-style
//! distance bounds and bounding-box pruning. The paper claims the inner
//! loop is skipped "in about 80 % of the cases, more in the later phases".
//!
//! All four configurations must produce the *identical* partition (the
//! optimizations are exact); they differ only in distance evaluations and
//! wall time.

use geographer::{partition_spmd, Config};
use geographer_bench::{scaled, TextTable};
use geographer_mesh::delaunay_unit_square;
use geographer_parcomm::SelfComm;

fn main() {
    let n = scaled(40_000);
    let k = 16;
    println!("# Ablation: Hamerly bounds & bbox pruning (Delaunay n = {n}, k = {k})");
    let mesh = delaunay_unit_square(n, 51);
    let wp = mesh.weighted_points();

    let base = Config { sampling_init: false, ..Config::default() };
    let variants: [(&str, Config); 4] = [
        ("both on", base.clone()),
        ("no hamerly", Config { hamerly_bounds: false, ..base.clone() }),
        ("no bbox", Config { bbox_pruning: false, ..base.clone() }),
        (
            "both off",
            Config { hamerly_bounds: false, bbox_pruning: false, ..base.clone() },
        ),
    ];

    let mut table = TextTable::new(vec![
        "variant", "wall", "distEvals", "skipRate%", "bboxBreaks", "sameResult",
    ]);
    let mut reference: Option<Vec<u32>> = None;
    for (name, cfg) in &variants {
        let t = std::time::Instant::now();
        let res = partition_spmd(&SelfComm, &wp.points, &wp.weights, k, None, cfg);
        let wall = t.elapsed().as_secs_f64();
        let same = match &reference {
            None => {
                reference = Some(res.assignment.clone());
                "ref".to_string()
            }
            Some(r) => (r == &res.assignment).to_string(),
        };
        table.row(vec![
            name.to_string(),
            format!("{wall:.3}s"),
            res.stats.distance_evals.to_string(),
            format!("{:.1}", res.stats.skip_rate() * 100.0),
            res.stats.bbox_breaks.to_string(),
            same,
        ]);
    }
    table.print();
    println!("\n(paper: skip rate ≈ 80 %; identical results across variants)");

    // The bounding-box pruning is a *per-process* optimization: a rank's
    // local box only excludes far-away centers when each rank holds a small
    // spatial region, i.e. in SPMD mode. Show it firing at p = 8.
    use geographer_parcomm::{run_spmd, Comm};
    let pts = &wp.points;
    let w = &wp.weights;
    let p = 8;
    let stats = run_spmd(p, |comm| {
        let lo = comm.rank() * n / p;
        let hi = (comm.rank() + 1) * n / p;
        partition_spmd(&comm, &pts[lo..hi], &w[lo..hi], k, None, &base)
            .stats
            .reduce(&comm)
    });
    let s = &stats[0];
    println!(
        "\nSPMD p = {p}: {} bbox early-breaks over {} full evaluations \
         ({:.1}% of inner loops cut short), skip rate {:.1}%",
        s.bbox_breaks,
        s.points_visited - s.hamerly_skips,
        100.0 * s.bbox_breaks as f64 / (s.points_visited - s.hamerly_skips).max(1) as f64,
        s.skip_rate() * 100.0,
    );
}
