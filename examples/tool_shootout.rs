//! Compare all five partitioners on one mesh — a single-instance slice of
//! the paper's Table 2.
//!
//! ```sh
//! cargo run --release --example tool_shootout
//! ```

use geographer::Config;
use geographer_bench::{evaluate_run, solve_plan_view, PlanRecipe, Tool};
use geographer_mesh::families::trace_like;
use geographer_planner::MeshView;

fn main() {
    let mesh = trace_like(15_000, 9);
    let k = 16;
    println!(
        "tool shootout on trace-like mesh: n = {}, m = {}, k = {k}\n",
        mesh.n(),
        mesh.m()
    );
    println!(
        "{:<12} {:>9} {:>8} {:>11} {:>11} {:>9} {:>12}",
        "tool", "time", "cut", "maxCommVol", "totCommVol", "harmDiam", "spmvComm"
    );
    for tool in Tool::ALL {
        let recipe = PlanRecipe::flat(tool.name(), tool, k, Config::default());
        let run = solve_plan_view(MeshView::from(&mesh), &recipe, 4, None);
        let row = evaluate_run(&mesh, &recipe, &run, 10);
        println!(
            "{:<12} {:>8.3}s {:>8} {:>11} {:>11} {:>9.1} {:>10.1}us",
            row.tool,
            row.time,
            row.metrics.edge_cut,
            row.metrics.max_comm_volume,
            row.metrics.total_comm_volume,
            row.metrics.harmonic_diameter,
            row.spmv_comm_seconds * 1e6,
        );
    }
    println!("\n(expected: Geographer lowest totCommVol; every tool within 3% balance)");
}
