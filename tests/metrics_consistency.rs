//! Integration: cross-checks between independently implemented metrics —
//! the graph-metric communication volume must equal the bytes the SpMV
//! substrate actually moves, per Sec. 2's definitions.

use geographer::Config;
use geographer_bench::{solve_plan_view, PlanRecipe, Tool};
use geographer_graph::evaluate_partition;
use geographer_mesh::{delaunay_unit_square, grid3d, Mesh};
use geographer_parcomm::run_spmd;
use geographer_planner::MeshView;
use geographer_spmv::spmv_comm_time;

/// `tool`'s default-config partition of `mesh` into `k` blocks on `p` ranks.
fn assignment<const D: usize>(tool: Tool, mesh: &Mesh<D>, k: usize, p: usize) -> Vec<u32> {
    let recipe = PlanRecipe::flat(tool.name(), tool, k, Config::default());
    solve_plan_view(MeshView::from(mesh), &recipe, p, None).plan.assignment
}

#[test]
fn spmv_bytes_equal_comm_volume_2d() {
    let mesh = delaunay_unit_square(1500, 30);
    let k = 6;
    for tool in Tool::ALL {
        let asg = assignment(tool, &mesh, k, 2);
        let metrics = evaluate_partition(&mesh.graph, &asg, &mesh.weights, k);
        let reports = run_spmd(k, |c| spmv_comm_time(&c, &mesh.graph, &asg, k, 2));
        let bytes: u64 = reports.iter().map(|r| r.bytes_sent_per_iter).sum();
        assert_eq!(
            bytes,
            8 * metrics.total_comm_volume,
            "{}: SpMV bytes disagree with the comm-volume metric",
            tool.name()
        );
    }
}

#[test]
fn spmv_bytes_equal_comm_volume_3d() {
    let mesh = grid3d(10, 10, 10, 0.2, 31);
    let k = 4;
    let asg = assignment(Tool::MultiJagged, &mesh, k, 2);
    let metrics = evaluate_partition(&mesh.graph, &asg, &mesh.weights, k);
    let reports = run_spmd(k, |c| spmv_comm_time(&c, &mesh.graph, &asg, k, 2));
    let bytes: u64 = reports.iter().map(|r| r.bytes_sent_per_iter).sum();
    assert_eq!(bytes, 8 * metrics.total_comm_volume);
}

#[test]
fn diameters_bounded_by_graph_diameter() {
    // A block's diameter lower bound can never exceed a (loose) upper bound
    // on the whole graph's diameter: n.
    let mesh = delaunay_unit_square(800, 32);
    let asg = assignment(Tool::Geographer, &mesh, 5, 1);
    let metrics = evaluate_partition(&mesh.graph, &asg, &mesh.weights, 5);
    for d in metrics.diameters.iter().flatten() {
        assert!((*d as usize) < mesh.n());
    }
}
