//! Fig. 3b reproduction: strong scaling on the largest Delaunay instance —
//! fixed n, growing p = k (the paper notes this is not strictly strong
//! scaling since k grows with p, and we follow that setup).
//!
//! Expected shape: near-perfect scaling for Geographer/MJ/HSFC up to the
//! point where collective latency dominates; RCB and RIB flatten out much
//! earlier and end up slowest.
//!
//! `--proc` runs every solve on the multi-process backend (forked workers
//! over Unix-domain sockets) and replaces the default α–β constants with
//! values *measured* on that substrate by the calibration probe.

use geographer::Config;
use geographer_bench::{scaled, CostModel, PlanRecipe, SpmdBackend, TextTable, Tool};
use geographer_mesh::delaunay_unit_square;
use geographer_parcomm::{measure_alpha_beta, Collective};
use geographer_planner::MeshView;

fn main() {
    let n = scaled(120_000);
    let ps = [4usize, 8, 16, 32, 64];
    let backend = SpmdBackend::from_cli_args();
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
    let cfg = Config::default();
    println!("# Fig. 3b strong scaling: Delaunay n = {n}, k = p [{} backend]", backend.name());
    let mesh = delaunay_unit_square(n, 99);
    let mut table = TextTable::new(
        std::iter::once("p=k".to_string())
            .chain(Tool::ALL.iter().map(|t| format!("{} [ms]", t.name())))
            .collect::<Vec<_>>(),
    );
    for &p in &ps {
        let mut cells = vec![p.to_string()];
        for tool in Tool::ALL {
            let recipe = PlanRecipe::flat(tool.name(), tool, p, cfg.clone());
            let out = backend.solve_cold(MeshView::from(&mesh), &recipe, p);
            let modeled = model.modeled_seconds(out.wall_seconds, p, &out.comm);
            cells.push(format!("{:.2}", modeled * 1e3));
            let red = out.comm.op(Collective::Allreduce);
            let a2a = out.comm.op(Collective::Alltoallv);
            eprintln!(
                "  p={p} {}: wall(serialized)={:.2}s rounds={} bytes/rank={} \
                 (allreduce {} rounds / {} B; alltoallv {} ops / {} B)",
                tool.name(),
                out.wall_seconds,
                out.comm.rounds(),
                out.comm.bytes_per_rank(),
                red.rounds,
                red.bytes,
                a2a.ops,
                a2a.bytes
            );
        }
        table.row(cells);
    }
    table.print();
    println!("\n(modeled parallel ms; halving per row = perfect strong scaling)");
}
