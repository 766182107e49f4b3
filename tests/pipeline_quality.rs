//! Integration: the full Geographer pipeline on every mesh family, checked
//! against the paper's hard requirements (balance ≤ ε) and structural
//! metric invariants.

use geographer::Config;
use geographer_graph::evaluate_partition;
use geographer_mesh::families::{climate_suite, dimacs2d_suite, three_d_suite};
use geographer_mesh::Mesh;
use geographer_parcomm::SelfComm;
use geographer_planner::{MeshView, PlanSpec, Planner, Tool};

fn check_mesh<const D: usize>(name: &str, mesh: &Mesh<D>, k: usize) {
    let cfg = Config::default();
    let spec = PlanSpec::flat(MeshView::from(mesh), Tool::Geographer, k, cfg.clone());
    let res = Planner::solve(&spec, None, &SelfComm);
    assert_eq!(res.assignment.len(), mesh.n(), "{name}: assignment length");
    let m = evaluate_partition(&mesh.graph, &res.assignment, &mesh.weights, k);

    // The paper's hard constraint: ε respected ("which was respected by all
    // tools", Sec. 5.2.5).
    assert!(
        m.imbalance <= cfg.epsilon + 1e-9,
        "{name}: imbalance {} > ε",
        m.imbalance
    );

    // Structural invariants of the metrics:
    // each cut edge contributes at most 2 vertex-block boundary pairs.
    assert!(
        m.total_comm_volume <= 2 * m.edge_cut,
        "{name}: totCommVol {} > 2·cut {}",
        m.total_comm_volume,
        m.edge_cut
    );
    assert!(m.max_comm_volume <= m.total_comm_volume);
    // A connected mesh partitioned into k ≥ 2 blocks must have a nonzero
    // cut.
    assert!(m.edge_cut > 0, "{name}: zero cut for k ≥ 2");
    // No block may be empty on these healthy instances.
    let mut counts = vec![0usize; k];
    for &b in &res.assignment {
        counts[b as usize] += 1;
    }
    assert!(counts.iter().all(|&c| c > 0), "{name}: empty block {counts:?}");
}

#[test]
fn dimacs2d_families_partition_within_epsilon() {
    for inst in dimacs2d_suite(3000, 1) {
        check_mesh(inst.name, &inst.mesh, 8);
    }
}

#[test]
fn climate_families_partition_within_epsilon() {
    for inst in climate_suite(2500, 2) {
        check_mesh(inst.name, &inst.mesh, 6);
    }
}

#[test]
fn three_d_families_partition_within_epsilon() {
    for inst in three_d_suite(2000, 3) {
        check_mesh(inst.name, &inst.mesh, 6);
    }
}

#[test]
fn awkward_k_values() {
    let inst = &dimacs2d_suite(2000, 4)[0];
    for k in [2usize, 3, 7, 13] {
        check_mesh(inst.name, &inst.mesh, k);
    }
}
