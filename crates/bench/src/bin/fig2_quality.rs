//! Fig. 2 reproduction: aggregated metric ratios per graph class, baseline
//! Geographer (= 1.0). Three classes — (a) 2D DIMACS-like, (b) 2.5D
//! climate, (c) 3D — and five metrics: edgeCut, maxCommVol, totCommVol,
//! harmDiam, timeComm. Aggregation is the geometric mean of per-instance
//! ratios (the paper's aggregation; the diameter is itself the harmonic
//! mean over blocks).
//!
//! Expected shape (paper Sec. 5.3.1): Geographer has the lowest total
//! communication volume in every class, most pronounced on the 2D class;
//! MultiJagged wins edge cut on 3D; no tool dominates everywhere.

#![allow(clippy::needless_range_loop)] // metric-index loops over parallel tables

use geographer::Config;
use geographer_bench::{
    evaluate_run, scaled, solve_plan_view, PlanRecipe, TextTable, Tool, ToolRow,
};
use geographer_graph::geometric_mean;
use geographer_mesh::families::{climate_suite, dimacs2d_suite, three_d_suite};
use geographer_mesh::Mesh;
use geographer_planner::MeshView;

const METRICS: [&str; 5] = ["edgeCut", "maxCommVol", "totCommVol", "harmDiam", "timeComm"];

fn metric_values(row: &ToolRow) -> [f64; 5] {
    [
        row.metrics.edge_cut as f64,
        row.metrics.max_comm_volume as f64,
        row.metrics.total_comm_volume as f64,
        row.metrics.harmonic_diameter,
        row.spmv_comm_seconds.max(1e-9),
    ]
}

fn run_class<const D: usize>(name: &str, meshes: &[(&str, Mesh<D>)], k: usize, p: usize) {
    let cfg = Config::default();
    // ratios[tool][metric] = per-instance ratios vs Geographer.
    let mut ratios: Vec<Vec<Vec<f64>>> = vec![vec![Vec::new(); METRICS.len()]; Tool::ALL.len()];
    for (iname, mesh) in meshes {
        let rows: Vec<ToolRow> = Tool::ALL
            .iter()
            .map(|&tool| {
                let recipe = PlanRecipe::flat(tool.name(), tool, k, cfg.clone());
                let run = solve_plan_view(MeshView::from(mesh), &recipe, p, None);
                evaluate_run(mesh, &recipe, &run, 5)
            })
            .collect();
        let base = metric_values(&rows[0]);
        eprintln!("  {iname}: done (geo cut = {})", rows[0].metrics.edge_cut);
        for (t, row) in rows.iter().enumerate() {
            let vals = metric_values(row);
            for m in 0..METRICS.len() {
                let r = if base[m] > 0.0 { vals[m] / base[m] } else { 1.0 };
                if r.is_finite() && r > 0.0 {
                    ratios[t][m].push(r);
                }
            }
        }
    }
    println!("\n## Fig. 2 ({name}), k = {k} — ratios vs Geographer (geometric mean)");
    let mut table = TextTable::new(
        std::iter::once("tool".to_string())
            .chain(METRICS.iter().map(|m| m.to_string()))
            .collect::<Vec<_>>(),
    );
    for (t, tool) in Tool::ALL.iter().enumerate() {
        let mut cells = vec![tool.name().to_string()];
        for m in 0..METRICS.len() {
            cells.push(if ratios[t][m].is_empty() {
                "-".to_string()
            } else {
                format!("{:.3}", geometric_mean(&ratios[t][m]))
            });
        }
        table.row(cells);
    }
    table.print();
}

fn main() {
    let k = 16;
    let p = 4;
    println!("# Fig. 2 reproduction (scaled: k = {k} instead of 64)");

    let suite = dimacs2d_suite(scaled(8000), 1);
    let meshes: Vec<(&str, Mesh<2>)> =
        suite.into_iter().map(|i| (i.name, i.mesh)).collect();
    run_class("a: DIMACS-like 2D", &meshes, k, p);

    let suite = climate_suite(scaled(6000), 2);
    let meshes: Vec<(&str, Mesh<2>)> =
        suite.into_iter().map(|i| (i.name, i.mesh)).collect();
    run_class("b: climate 2.5D", &meshes, k, p);

    let suite = three_d_suite(scaled(5000), 3);
    let meshes: Vec<(&str, Mesh<3>)> =
        suite.into_iter().map(|i| (i.name, i.mesh)).collect();
    run_class("c: 3D", &meshes, k, p);
}
