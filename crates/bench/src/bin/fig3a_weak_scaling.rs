//! Fig. 3a reproduction: weak scaling on the Delaunay series. Points per
//! rank stay fixed while p = k doubles. Reported time is the α–β-modeled
//! parallel time (measured communication structure + perfectly scaled
//! compute; see `geographer_bench::cost`).
//!
//! Expected shape (paper): Geographer, MultiJagged and HSFC scale almost
//! flat; the recursive methods (RCB, RIB) grow with every doubling.
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
    let per_rank = scaled(4000);
    let ps = [1usize, 2, 4, 8, 16, 32];
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
    println!(
        "# Fig. 3a weak scaling: Delaunay series, {per_rank} points/rank, k = p \
         [{} backend]",
        backend.name()
    );
    let mut table = TextTable::new(
        std::iter::once("p=k".to_string())
            .chain(Tool::ALL.iter().map(|t| format!("{} [ms]", t.name())))
            .collect::<Vec<_>>(),
    );
    for &p in &ps {
        let n = per_rank * p;
        let mesh = delaunay_unit_square(n, 7 + p as u64);
        let mut cells = vec![p.to_string()];
        for tool in Tool::ALL {
            let recipe = PlanRecipe::flat(tool.name(), tool, p.max(2), cfg.clone());
            let out = backend.solve_cold(MeshView::from(&mesh), &recipe, p);
            let modeled = model.modeled_seconds(out.wall_seconds, p, &out.comm);
            cells.push(format!("{:.2}", modeled * 1e3));
            let red = out.comm.op(Collective::Allreduce);
            eprintln!(
                "  p={p} {}: wall(serialized)={:.2}s ops={} rounds={} \
                 bytes/rank={} (allreduce: {} ops, {} rounds, {} B)",
                tool.name(),
                out.wall_seconds,
                out.comm.collectives(),
                out.comm.rounds(),
                out.comm.bytes_per_rank(),
                red.ops,
                red.rounds,
                red.bytes
            );
        }
        table.row(cells);
    }
    table.print();
    println!("\n(modeled parallel ms per run; flat rows = perfect weak scaling)");
}
