//! Extension experiment: the graph-based local refinement the paper points
//! to in Sec. 2 ("a graph-based postprocessing, for example based on the
//! Fiduccia-Mattheyses local refinement heuristic, is easily possible, but
//! outside the scope of this paper"). We run every geometric tool, then
//! apply the FM-style boundary refinement of `geographer-refine` and
//! report the edge-cut improvement.

use geographer::Config;
use geographer_bench::{scaled, solve_plan_view, PlanRecipe, TextTable, Tool};
use geographer_graph::imbalance;
use geographer_mesh::families::{trace_like, tric_like};
use geographer_planner::{MeshView, RefineMode};
use geographer_refine::RefineConfig;

fn main() {
    let n = scaled(20_000);
    let k = 16;
    println!("# Extension: FM-style refinement after geometric partitioning (k = {k})");
    let meshes = [("tric-like", tric_like(n, 71)), ("trace-like", trace_like(n, 72))];
    let mut table = TextTable::new(vec![
        "mesh", "tool", "cutBefore", "cutAfter", "improvement%", "moves", "imbalanceAfter",
    ]);
    // The refinement post-pass is an opt-in of the recipe: every plan
    // then carries its before/after cut.
    let refine = RefineMode::Single(RefineConfig::default());
    for (name, mesh) in &meshes {
        for tool in Tool::ALL {
            let recipe = PlanRecipe::flat(tool.name(), tool, k, Config::default())
                .with_refine(refine.clone());
            let plan = solve_plan_view(MeshView::from(mesh), &recipe, 2, None).plan;
            let report = plan.refine.expect("refine post-pass was requested");
            let imb = imbalance(&plan.assignment, &mesh.weights, k);
            table.row(vec![
                name.to_string(),
                tool.name().to_string(),
                report.cut_before.to_string(),
                report.cut_after.to_string(),
                format!(
                    "{:.1}",
                    100.0 * (report.cut_before - report.cut_after) as f64
                        / report.cut_before.max(1) as f64
                ),
                report.moves.to_string(),
                format!("{imb:.4}"),
            ]);
        }
    }
    table.print();
    println!("\n(geometric partitions leave a few percent of cut on the table;");
    println!(" the wrinkled HSFC boundaries should gain the most)");
}
