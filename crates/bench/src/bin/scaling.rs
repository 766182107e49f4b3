//! Scaling experiments on the Delaunay series, one section each:
//!
//! * `weak` — Fig. 3a: points per rank stay fixed while p = k doubles.
//!   Expected shape (paper): Geographer, MultiJagged and HSFC scale almost
//!   flat; the recursive methods (RCB, RIB) grow with every doubling.
//! * `strong` — Fig. 3b: fixed n, growing p = k (the paper notes this is
//!   not strictly strong scaling since k grows with p, and we follow that
//!   setup). Expected: near-perfect scaling for Geographer/MJ/HSFC up to
//!   the point where collective latency dominates; RCB and RIB flatten
//!   out much earlier and end up slowest.
//! * `components` — Sec. 5.3.2: how Geographer's running time splits
//!   between Hilbert indexing, redistribution, and the balanced k-means
//!   iterations as the rank count grows. Paper observation: at small scale
//!   indexing + k-means dominate; as p grows the redistribution takes an
//!   increasing share (32 % → 46 % of the time on Delaunay2B between 1 024
//!   and 16 384 ranks, with k-means going from 47 % to 42 %).
//!
//! Fig. 3 times are the α–β-modeled parallel time (measured communication
//! structure + perfectly scaled compute; see `geographer_bench::cost`).
//! `--proc` runs every Fig. 3 solve on the multi-process backend (forked
//! workers over Unix-domain sockets) and replaces the default α–β
//! constants with values *measured* on that substrate by the calibration
//! probe.
//!
//! ```console
//! $ cargo run --release -p geographer_bench --bin scaling             # all three
//! $ cargo run --release -p geographer_bench --bin scaling -- weak --proc
//! ```

use geographer::{partition_spmd, Config, PhaseComm, PipelineTimings};
use geographer_bench::{scaled, Cli, CostModel, PlanRecipe, SpmdBackend, TextTable, Tool};
use geographer_mesh::{delaunay_unit_square, Mesh};
use geographer_parcomm::{measure_alpha_beta, run_spmd, Collective, Comm, CommStats};
use geographer_planner::MeshView;

fn main() {
    let cli = Cli::from_env(&["--proc"], &["weak", "strong", "components"]);
    if cli.runs("weak") || cli.runs("strong") {
        fig3_sections(&cli);
    }
    if cli.runs("components") {
        components();
    }
}

/// Figs. 3a/3b under one cost model: the default constants, or the
/// calibration probe's under `--proc`.
fn fig3_sections(cli: &Cli) {
    let backend = cli.backend;
    let model = match backend {
        SpmdBackend::Thread => CostModel::default(),
        SpmdBackend::Proc => {
            let m = measure_alpha_beta(50).expect("calibration probe");
            eprintln!(
                "# measured socket substrate: alpha={:.2}us/round beta={:.3}ns/B",
                m.alpha * 1e6,
                m.beta * 1e9
            );
            CostModel { alpha: m.alpha, beta: m.beta }
        }
    };
    if cli.runs("weak") {
        let per_rank = scaled(4000);
        let ps = [1usize, 2, 4, 8, 16, 32];
        println!(
            "# Fig. 3a weak scaling: Delaunay series, {per_rank} points/rank, k = p \
             [{} backend]",
            backend.name()
        );
        let meshes = ps.map(|p| delaunay_unit_square(per_rank * p, 7 + p as u64));
        let rows: Vec<_> = ps.iter().zip(&meshes).map(|(&p, mesh)| (p, p.max(2), mesh)).collect();
        fig3(&rows, backend, &model);
        println!("\n(modeled parallel ms per run; flat rows = perfect weak scaling)");
    }
    if cli.runs("strong") {
        let n = scaled(120_000);
        println!("# Fig. 3b strong scaling: Delaunay n = {n}, k = p [{} backend]", backend.name());
        let mesh = delaunay_unit_square(n, 99);
        fig3(&[4usize, 8, 16, 32, 64].map(|p| (p, p, &mesh)), backend, &model);
        println!("\n(modeled parallel ms; halving per row = perfect strong scaling)");
    }
}

/// One Fig. 3 table: the modeled parallel milliseconds of every tool, one
/// row per `(p, k, mesh)`.
fn fig3(rows: &[(usize, usize, &Mesh<2>)], backend: SpmdBackend, model: &CostModel) {
    let cfg = Config::default();
    let mut table = TextTable::new(
        std::iter::once("p=k".to_string())
            .chain(Tool::ALL.iter().map(|t| format!("{} [ms]", t.name())))
            .collect::<Vec<_>>(),
    );
    for &(p, k, mesh) in rows {
        let mut cells = vec![p.to_string()];
        for tool in Tool::ALL {
            let recipe = PlanRecipe::flat(tool.name(), tool, k, cfg.clone());
            let out = backend.solve_cold(MeshView::from(mesh), &recipe, p);
            let modeled = model.modeled_seconds(out.wall_seconds, p, &out.comm);
            cells.push(format!("{:.2}", modeled * 1e3));
            let red = out.comm.op(Collective::Allreduce);
            let a2a = out.comm.op(Collective::Alltoallv);
            eprintln!(
                "  p={p} {}: wall(serialized)={:.2}s ops={} rounds={} bytes/rank={} \
                 (allreduce {} ops / {} rounds / {} B; alltoallv {} ops / {} B)",
                tool.name(),
                out.wall_seconds,
                out.comm.collectives(),
                out.comm.rounds(),
                out.comm.bytes_per_rank(),
                red.ops,
                red.rounds,
                red.bytes,
                a2a.ops,
                a2a.bytes
            );
        }
        table.row(cells);
    }
    table.print();
}

/// Sec. 5.3.2: Geographer's per-phase time shares and per-phase
/// communication structure over growing p.
fn components() {
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
            let lo = comm.rank() * chunk;
            let hi = if comm.rank() == p - 1 { n } else { lo + chunk };
            let res = partition_spmd(&comm, &points[lo..hi], &weights[lo..hi], p.max(2), None, &cfg);
            (res.timings, res.phase_comm)
        });
        // Each rank's own phase times, summed: the serialized share of each.
        let sum = results.iter().fold(PipelineTimings::default(), |s, (t, _)| {
            s.zip_with(*t, |a, b| a + b)
        });
        let total = sum.total();
        table.row(vec![
            p.to_string(),
            format!("{:.1}", 100.0 * sum.sfc_index / total),
            format!("{:.1}", 100.0 * sum.redistribute / total),
            format!("{:.1}", 100.0 * sum.kmeans / total),
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
