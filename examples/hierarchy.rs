//! Hierarchical (processor-aware) partitioning: put the big cut on the
//! cheap links.
//!
//! A clustered mesh is partitioned two ways for a machine of 4 nodes × 2
//! cores: flat k = 8 (blocks then sliced onto nodes in contiguous pairs,
//! the `owner_of_block` mapping) and hierarchically (split into 4 node
//! blocks first, then 2 core blocks inside each). The per-level metrics
//! show the hierarchical solve moving traffic off the inter-node links
//! and onto the intra-node ones, which the two-tier α–β model prices
//! (DESIGN.md §6).
//!
//! ```sh
//! cargo run --release --example hierarchy
//! ```

use geographer::{Config, HierarchySpec};
use geographer_bench::TieredCostModel;
use geographer_graph::evaluate_levels;
use geographer_mesh::families::bubbles_like;
use geographer_parcomm::SelfComm;
use geographer_planner::{MeshView, PlanSpec, Planner, Tool};

fn main() {
    let (n, seed) = (6_000, 33);
    let mesh = bubbles_like(n, seed);
    let view = MeshView::from(&mesh);
    let spec = HierarchySpec::uniform(&[4, 2]);
    let cfg = Config { sampling_init: false, ..Config::default() };
    let model = TieredCostModel::default();
    println!("clustered mesh: n = {n}, machine = 4 nodes x 2 cores, ε = {}", cfg.epsilon);

    let flat =
        Planner::solve(&PlanSpec::flat(view, Tool::Geographer, 8, cfg.clone()), None, &SelfComm);
    let hier =
        Planner::solve(&PlanSpec::hierarchical(view, spec.clone(), cfg.clone()), None, &SelfComm);
    let stats = hier.stats.expect("hierarchical plans carry solver counters");
    assert!(stats.balance_achieved, "every node solve must balance");
    println!(
        "block 5 sits at hierarchy path {:?} (node 2, core 1)",
        spec.path_of_block(5)
    );

    println!(
        "\n{:<12} {:>15} {:>15} {:>12} {:>18}",
        "config", "inter-node vol", "intra-node vol", "flat cut", "modeled exchange"
    );
    let mut inter_vols = Vec::new();
    for (name, asg) in [("flat-k8", &flat.assignment), ("hier-[4,2]", &hier.assignment)] {
        let levels = evaluate_levels(&mesh.graph, asg, &spec.level_groups());
        let inter = levels[0].total_comm_volume;
        let intra = levels.last().unwrap().total_comm_volume - inter;
        println!(
            "{:<12} {:>15} {:>15} {:>12} {:>16.1}us",
            name,
            inter,
            intra,
            levels.last().unwrap().edge_cut,
            model.exchange_seconds(8 * intra, 8 * inter) * 1e6
        );
        inter_vols.push(inter);
    }
    assert!(
        inter_vols[1] < inter_vols[0],
        "the hierarchical solve must put less volume on the inter-node links"
    );
    println!(
        "\nhierarchical solving cuts the inter-node volume by {:.0}%",
        100.0 * (1.0 - inter_vols[1] as f64 / inter_vols[0] as f64)
    );
}
