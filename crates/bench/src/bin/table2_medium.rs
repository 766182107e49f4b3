//! Table 2 reproduction: per-instance metric rows for the small/medium
//! graphs. Paper: k = p = 64; reproduction: k = 16 at laptop scale.
//! Best value per column is marked with `*`.

use geographer::Config;
use geographer_bench::{
    evaluate_run, scaled, solve_plan_view, PlanRecipe, TextTable, Tool, ToolRow,
};
use geographer_mesh::families::{climate_suite, dimacs2d_suite, three_d_suite};
use geographer_mesh::Mesh;
use geographer_planner::MeshView;

fn emit_rows(name: &str, rows: &[ToolRow], n: usize, table: &mut TextTable) {
    let best_cut = rows.iter().map(|r| r.metrics.edge_cut).min().unwrap();
    let best_max = rows.iter().map(|r| r.metrics.max_comm_volume).min().unwrap();
    let best_tot = rows.iter().map(|r| r.metrics.total_comm_volume).min().unwrap();
    let best_spmv = rows
        .iter()
        .map(|r| r.spmv_comm_seconds)
        .fold(f64::INFINITY, f64::min);
    let mark = |v: String, best: bool| if best { format!("{v}*") } else { v };
    for (i, r) in rows.iter().enumerate() {
        let diam = r.metrics.harmonic_diameter;
        table.row(vec![
            if i == 0 { format!("{name} (n={n})") } else { String::new() },
            r.tool.to_string(),
            format!("{:.3}s", r.time),
            mark(r.metrics.edge_cut.to_string(), r.metrics.edge_cut == best_cut),
            mark(
                r.metrics.max_comm_volume.to_string(),
                r.metrics.max_comm_volume == best_max,
            ),
            mark(
                r.metrics.total_comm_volume.to_string(),
                r.metrics.total_comm_volume == best_tot,
            ),
            if diam.is_finite() { format!("{diam:.0}") } else { "inf".into() },
            mark(
                format!("{:.1}us", r.spmv_comm_seconds * 1e6),
                (r.spmv_comm_seconds - best_spmv).abs() < 1e-12,
            ),
            format!("{:.3}", r.metrics.imbalance),
        ]);
    }
}

fn run_mesh<const D: usize>(name: &str, mesh: &Mesh<D>, k: usize, table: &mut TextTable) {
    let cfg = Config::default();
    eprintln!("running {name} ...");
    let rows: Vec<ToolRow> = Tool::ALL
        .iter()
        .map(|&tool| {
            let recipe = PlanRecipe::flat(tool.name(), tool, k, cfg.clone());
            let run = solve_plan_view(MeshView::from(mesh), &recipe, 4, None);
            evaluate_run(mesh, &recipe, &run, 10)
        })
        .collect();
    emit_rows(name, &rows, mesh.n(), table);
}

fn main() {
    let k = 16;
    println!("# Table 2 reproduction: small/medium graphs, k = {k} (paper: k = p = 64)");
    println!("('*' marks the best value per column and instance; harmDiam shown)");
    let mut table = TextTable::new(vec![
        "graph", "tool", "time", "cut", "maxCommVol", "totCommVol", "harmDiam",
        "timeSpMVComm", "imbalance",
    ]);
    for inst in dimacs2d_suite(scaled(20_000), 21) {
        run_mesh(inst.name, &inst.mesh, k, &mut table);
    }
    for inst in climate_suite(scaled(15_000), 22) {
        run_mesh(inst.name, &inst.mesh, k, &mut table);
    }
    for inst in three_d_suite(scaled(12_000), 23) {
        run_mesh(inst.name, &inst.mesh, k, &mut table);
    }
    table.print();
}
