//! Fig. 1 reproduction: partition a hugetric-like refined mesh into 8
//! blocks with every tool and render the results as SVGs.
//!
//! The paper's visual finding: RCB/RIB produce thin, long blocks; MJ
//! produces better-aspect rectangles; HSFC has wrinkled boundaries;
//! Geographer produces curved, compact blocks.

use geographer::Config;
use geographer_bench::{out_dir, scaled, solve_plan_view, Cli, PlanRecipe, Tool};
use geographer_mesh::families::tric_like;
use geographer_planner::MeshView;
use geographer_viz::render_partition_svg;

fn main() {
    Cli::from_env(&[], &[]);
    let n = scaled(8000);
    let k = 8;
    println!("# Fig. 1 gallery: tric-like mesh, n = {n}, k = {k}");
    let mesh = tric_like(n, 42);
    let dir = out_dir();
    let cfg = Config::default();

    let input = render_partition_svg(&mesh.points, &vec![0; n], 1, 600, "input");
    let path = dir.join("fig1_input.svg");
    std::fs::write(&path, input).expect("write svg");
    println!("wrote {}", path.display());

    for tool in Tool::ALL {
        let recipe = PlanRecipe::flat(tool.name(), tool, k, cfg.clone());
        let out = solve_plan_view(MeshView::from(&mesh), &recipe, 1, None);
        let svg =
            render_partition_svg(&mesh.points, &out.plan.assignment, k, 600, tool.name());
        let path = dir.join(format!("fig1_{}.svg", tool.name().to_lowercase()));
        std::fs::write(&path, svg).expect("write svg");
        println!("wrote {} ({:.2}s)", path.display(), out.wall_seconds);
    }
}
