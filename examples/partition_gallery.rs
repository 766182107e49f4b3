//! Render the block shapes of every tool as SVGs (the paper's Fig. 1) for
//! a mesh of your choice.
//!
//! ```sh
//! cargo run --release --example partition_gallery [n] [k]
//! ```

use geographer::Config;
use geographer_bench::{solve_plan_view, PlanRecipe, Tool};
use geographer_mesh::families::bubbles_like;
use geographer_planner::MeshView;
use geographer_viz::render_partition_svg;

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(6000);
    let k: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(8);
    let mesh = bubbles_like(n, 17);
    let dir = std::path::Path::new("target/gallery");
    std::fs::create_dir_all(dir).expect("create output dir");
    println!("rendering bubbles-like mesh, n = {n}, k = {k} -> {}", dir.display());

    for tool in Tool::ALL {
        let recipe = PlanRecipe::flat(tool.name(), tool, k, Config::default());
        let out = solve_plan_view(MeshView::from(&mesh), &recipe, 1, None);
        let svg = render_partition_svg(&mesh.points, &out.plan.assignment, k, 640, tool.name());
        let path = dir.join(format!("{}.svg", tool.name().to_lowercase()));
        std::fs::write(&path, svg).expect("write svg");
        println!("  {} ({:.2}s)", path.display(), out.wall_seconds);
    }
    println!("open the SVGs to compare block shapes (cf. paper Fig. 1)");
}
