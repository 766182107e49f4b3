//! Table 1 reproduction: per-instance metric rows for the *large* graphs.
//! Paper: k = p = 1024 on instances up to 2·10⁹ vertices; reproduction:
//! k = p = 32 on the largest instances that fit the CI box. Best value per
//! column is marked with `*`.

use geographer::Config;
use geographer_bench::{
    evaluate_run, scaled, solve_plan_view, PlanRecipe, TextTable, Tool, ToolRow,
};
use geographer_mesh::families::{bubbles_like, trace_like};
use geographer_mesh::knn3d::PointCloud;
use geographer_mesh::{climate25d, delaunay_unit_square, knn3d, Mesh};
use geographer_planner::MeshView;

enum AnyMesh {
    D2(Mesh<2>),
    D3(Mesh<3>),
}

fn tool_row<const D: usize>(tool: Tool, mesh: &Mesh<D>, k: usize, p: usize) -> ToolRow {
    let recipe = PlanRecipe::flat(tool.name(), tool, k, Config::default());
    let run = solve_plan_view(MeshView::from(mesh), &recipe, p, None);
    evaluate_run(mesh, &recipe, &run, 10)
}

fn run_instance(name: &str, mesh: &AnyMesh, k: usize, p: usize, table: &mut TextTable) {
    let rows: Vec<ToolRow> = Tool::ALL
        .iter()
        .map(|&tool| match mesh {
            AnyMesh::D2(m) => tool_row(tool, m, k, p),
            AnyMesh::D3(m) => tool_row(tool, m, k, p),
        })
        .collect();
    let n = match mesh {
        AnyMesh::D2(m) => m.n(),
        AnyMesh::D3(m) => m.n(),
    };
    // Mark best (minimum) per column.
    let best_cut = rows.iter().map(|r| r.metrics.edge_cut).min().unwrap();
    let best_max = rows.iter().map(|r| r.metrics.max_comm_volume).min().unwrap();
    let best_tot = rows.iter().map(|r| r.metrics.total_comm_volume).min().unwrap();
    let best_spmv = rows
        .iter()
        .map(|r| r.spmv_comm_seconds)
        .fold(f64::INFINITY, f64::min);
    let mark = |v: String, best: bool| if best { format!("{v}*") } else { v };
    for (i, r) in rows.iter().enumerate() {
        let diam = match r
            .metrics
            .diameters
            .iter()
            .map(|d| d.map(|x| x as i64).unwrap_or(-1))
            .max()
        {
            Some(-1) | None => "inf".to_string(),
            Some(d) => d.to_string(),
        };
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
            diam,
            mark(
                format!("{:.1}us", r.spmv_comm_seconds * 1e6),
                (r.spmv_comm_seconds - best_spmv).abs() < 1e-12,
            ),
            format!("{:.3}", r.metrics.imbalance),
        ]);
    }
}

fn main() {
    let k = 32;
    let p = 8; // ranks for the partitioning run (oversubscribing 1 core further buys nothing)
    println!("# Table 1 reproduction: large graphs, k = {k} (paper: k = p = 1024)");
    println!("('*' marks the best value per column and instance; time is serialized wall)");
    let mut table = TextTable::new(vec![
        "graph", "tool", "time", "cut", "maxCommVol", "totCommVol", "maxDiam",
        "timeSpMVComm", "imbalance",
    ]);

    let instances: Vec<(&str, AnyMesh)> = vec![
        ("delaunay-large", AnyMesh::D2(delaunay_unit_square(scaled(100_000), 11))),
        ("trace-like-large", AnyMesh::D2(trace_like(scaled(80_000), 12))),
        ("bubbles-like-large", AnyMesh::D2(bubbles_like(scaled(80_000), 13))),
        ("fesom-like-large", AnyMesh::D2(climate25d(scaled(60_000), 40, 14))),
        (
            "delaunay3d-like-large",
            AnyMesh::D3(knn3d(scaled(50_000), 6, PointCloud::Uniform, 15)),
        ),
        (
            "alya-like-large",
            AnyMesh::D3(knn3d(scaled(50_000), 6, PointCloud::Clustered { clusters: 5 }, 16)),
        ),
    ];
    for (name, mesh) in &instances {
        eprintln!("running {name} ...");
        run_instance(name, mesh, k, p, &mut table);
    }
    table.print();
}
