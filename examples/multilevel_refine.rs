//! Multilevel refinement: coarsen, refine where the graph is small,
//! project back, re-refine.
//!
//! An HSFC partition of a clustered mesh is refined two ways at the same
//! ε, by the recipe's `RefineMode::Multilevel`: the V-cycle at one level
//! (`max_levels: 1`, one flat boundary sweep) and at its default depth.
//! The flat sweep only reaches minima that single-vertex moves can reach;
//! the full V-cycle relocates whole clusters at the coarse levels and
//! recovers strictly more cut at comparable cost (DESIGN.md §7).
//!
//! ```sh
//! cargo run --release --example multilevel_refine
//! ```

use geographer::Config;
use geographer_bench::{solve_plan_view, PlanRecipe, Tool};
use geographer_graph::imbalance;
use geographer_mesh::families::bubbles_like;
use geographer_planner::{MeshView, RefineMode};
use geographer_refine::MultilevelConfig;

fn main() {
    let (n, k, seed) = (8_000, 16, 55);
    let mesh = bubbles_like(n, seed);
    let core = Config { sampling_init: false, ..Config::default() };
    println!("clustered mesh: n = {n}, k = {k}, ε = {}", core.epsilon);

    let mut outcomes = Vec::new();
    for (name, max_levels) in [("one sweep", 1), ("V-cycle", MultilevelConfig::default().max_levels)]
    {
        let mcfg = MultilevelConfig { max_levels, ..MultilevelConfig::default() };
        let recipe = PlanRecipe::flat("hsfc", Tool::Hsfc, k, core.clone())
            .with_refine(RefineMode::Multilevel(mcfg));
        let out = solve_plan_view(MeshView::from(&mesh), &recipe, 2, None).plan;
        let report = out.refine.expect("refine post-pass was requested");
        println!(
            "\n{name:<11} cut {} -> {}  ({:.1}% of the initial cut recovered, {} moves, imb {:.4})",
            report.cut_before,
            report.cut_after,
            100.0 * (report.cut_before - report.cut_after) as f64 / report.cut_before as f64,
            report.moves,
            imbalance(&out.assignment, &mesh.weights, k),
        );
        let work = out.refine_work.expect("refinement reports its work");
        let (levels, rounds) = (work.coarse_levels, report.rounds);
        println!("  {levels} coarse levels below the mesh, {rounds} boundary rounds");
        outcomes.push(report.cut_after);
    }
    assert!(
        outcomes[1] < outcomes[0],
        "the V-cycle must reach a strictly lower cut ({} vs {})",
        outcomes[1],
        outcomes[0]
    );
    println!(
        "\nmultilevel ends {:.1}% below the single-level pass at the same ε",
        100.0 * (outcomes[0] - outcomes[1]) as f64 / outcomes[0] as f64
    );
}
