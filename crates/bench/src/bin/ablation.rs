//! Ablations of the solver's design choices, one section each, all through
//! one variant loop and one table (a variant is a `Config`, optionally with
//! explicit initial centers):
//!
//! * `bounds` — the geometric optimizations (Sec. 4.3–4.4): Hamerly-style
//!   distance bounds and bounding-box pruning. The paper claims the inner
//!   loop is skipped "in about 80 % of the cases, more in the later
//!   phases". All four configurations must produce the *identical*
//!   partition (the optimizations are exact); they differ only in distance
//!   evaluations and wall time.
//! * `features` — influence erosion (Sec. 4.2) and the sampling
//!   initialization (Sec. 4.5), on the heterogeneous climate mesh where
//!   erosion matters ("In very heterogeneous point distributions ...
//!   anomalies such as empty or absurdly large clusters might occur").
//! * `seeding` — the initial-center choice. The paper bootstraps centers
//!   from the space-filling-curve order (Algorithm 2, line 7: equidistant
//!   positions along the sorted points) and argues this "yields a
//!   beneficial geometric spread"; it dismisses k-means++-style seeding as
//!   too expensive (Sec. 3.3). Compared: `sfc-spread` (the paper's
//!   choice), `first-k` (the first k points: clumped) and `strided` (every
//!   (n/k)-th point in *input* order: random spread).
//!
//! ```console
//! $ cargo run --release -p geographer_bench --bin ablation            # all three
//! $ cargo run --release -p geographer_bench --bin ablation -- bounds
//! ```

use std::time::Instant;

use geographer::{balanced_kmeans, partition_spmd, Config};
use geographer_bench::{scaled, Cli, TextTable};
use geographer_geometry::{Aabb, Point};
use geographer_graph::evaluate_partition;
use geographer_mesh::families::bubbles_like;
use geographer_mesh::{climate25d, delaunay_unit_square, Mesh};
use geographer_parcomm::{run_spmd, Comm, SelfComm};
use geographer_sfc::HilbertMapper;

/// One ablation variant: the full pipeline under `config`, or — with
/// `centers` — balanced k-means alone from those initial centers.
struct Variant {
    name: &'static str,
    config: Config,
    centers: Option<Vec<Point<2>>>,
}

fn variant(name: &'static str, config: Config) -> Variant {
    Variant { name, config, centers: None }
}

/// Solve every variant on one rank and print the work counters, the
/// quality of the induced partition, and whether it equals the first
/// variant's.
fn ablate(mesh: &Mesh<2>, k: usize, variants: &[Variant]) {
    let mut table = TextTable::new(vec![
        "variant", "wall", "iters", "balanceIters", "distEvals", "skipRate%", "bboxBreaks",
        "imbalance", "cut", "totCommVol", "emptyBlocks", "sameResult",
    ]);
    let (pts, w) = (&mesh.points, &mesh.weights);
    let mut reference: Option<Vec<u32>> = None;
    for v in variants {
        let t = Instant::now();
        let (assignment, stats) = match &v.centers {
            None => {
                let res = partition_spmd(&SelfComm, pts, w, k, None, &v.config);
                (res.assignment, res.stats)
            }
            Some(centers) => {
                let out = balanced_kmeans(&SelfComm, pts, w, k, centers.clone(), &v.config);
                (out.assignment, out.stats)
            }
        };
        let wall = t.elapsed().as_secs_f64();
        let m = evaluate_partition(&mesh.graph, &assignment, w, k);
        let mut counts = vec![0usize; k];
        for &b in &assignment {
            counts[b as usize] += 1;
        }
        table.row(vec![
            v.name.to_string(),
            format!("{wall:.3}s"),
            stats.movement_iterations.to_string(),
            stats.balance_iterations.to_string(),
            stats.distance_evals.to_string(),
            format!("{:.1}", stats.skip_rate() * 100.0),
            stats.bbox_breaks.to_string(),
            format!("{:.4}", stats.final_imbalance),
            m.edge_cut.to_string(),
            m.total_comm_volume.to_string(),
            counts.iter().filter(|&&c| c == 0).count().to_string(),
            match &reference {
                None => "ref".to_string(),
                Some(r) => (r == &assignment).to_string(),
            },
        ]);
        reference.get_or_insert(assignment);
    }
    table.print();
}

fn bounds() {
    let n = scaled(40_000);
    let k = 16;
    println!("# Ablation: Hamerly bounds & bbox pruning (Delaunay n = {n}, k = {k})");
    let mesh = delaunay_unit_square(n, 51);
    let base = Config { sampling_init: false, ..Config::default() };
    ablate(
        &mesh,
        k,
        &[
            variant("both on", base.clone()),
            variant("no hamerly", Config { hamerly_bounds: false, ..base.clone() }),
            variant("no bbox", Config { bbox_pruning: false, ..base.clone() }),
            variant(
                "both off",
                Config { hamerly_bounds: false, bbox_pruning: false, ..base.clone() },
            ),
        ],
    );
    println!("\n(paper: skip rate ≈ 80 %; identical results across variants)");

    // The bounding-box pruning is a *per-process* optimization: a rank's
    // local box only excludes far-away centers when each rank holds a small
    // spatial region, i.e. in SPMD mode. Show it firing at p = 8.
    let (pts, w) = (&mesh.points, &mesh.weights);
    let p = 8;
    let stats = run_spmd(p, |comm| {
        let lo = comm.rank() * n / p;
        let hi = (comm.rank() + 1) * n / p;
        partition_spmd(&comm, &pts[lo..hi], &w[lo..hi], k, None, &base).stats.reduce(&comm)
    });
    let s = &stats[0];
    println!(
        "\nSPMD p = {p}: a box bound ruled out a center for {} of {} evaluated \
         points ({:.1}%), skip rate {:.1}%",
        s.bbox_breaks,
        s.points_visited - s.hamerly_skips,
        100.0 * s.bbox_breaks as f64 / (s.points_visited - s.hamerly_skips).max(1) as f64,
        s.skip_rate() * 100.0,
    );
}

fn features() {
    let n = scaled(25_000);
    let k = 16;
    println!("# Ablation: influence erosion & sampling init (climate mesh n = {n}, k = {k})");
    ablate(
        &climate25d(n, 40, 61),
        k,
        &[
            variant("erosion+sampling", Config::default()),
            variant("no erosion", Config { influence_erosion: false, ..Config::default() }),
            variant("no sampling", Config { sampling_init: false, ..Config::default() }),
            variant(
                "neither",
                Config { influence_erosion: false, sampling_init: false, ..Config::default() },
            ),
        ],
    );
    println!("\n(expected: all variants balanced; erosion/sampling reduce iterations/time)");
}

fn seeding() {
    let n = scaled(20_000);
    let k = 16;
    println!("# Ablation: initial center seeding (bubbles-like mesh, n = {n}, k = {k})");
    let mesh = bubbles_like(n, 81);
    let pts = &mesh.points;

    // The paper's seeding: equidistant along the Hilbert order.
    let order = HilbertMapper::new(Aabb::from_points(pts).unwrap(), 16).order(pts);
    let mid = |i: usize| i * n / k + n / (2 * k);

    let config = Config { sampling_init: false, max_iterations: 300, ..Config::default() };
    let seeded = |name, centers| Variant { name, config: config.clone(), centers: Some(centers) };
    ablate(
        &mesh,
        k,
        &[
            seeded("sfc-spread", (0..k).map(|i| pts[order[mid(i)] as usize]).collect()),
            seeded("first-k", pts[..k].to_vec()),
            seeded("strided", (0..k).map(|i| pts[mid(i)]).collect()),
        ],
    );
    println!("\n(observed at reproduction scale: final quality and balance are");
    println!(" insensitive to the seeding — the influence mechanism repairs even");
    println!(" clumped seeds — while iteration counts vary; the SFC seeding's");
    println!(" value in the paper is at scale, where extra iterations are global");
    println!(" synchronizations and clumped seeds would need many more of them");
    println!(" *before* the sampling rounds can help)");
}

fn main() {
    Cli::run_sections(&[("bounds", bounds), ("features", features), ("seeding", seeding)]);
}
