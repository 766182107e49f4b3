//! Properties and the acceptance criterion of the hierarchical
//! partitioning subsystem (DESIGN.md §6):
//!
//! * `owner_of_block` is contiguous and surjective onto ranks for every
//!   `p ≤ k ≤ 64`;
//! * the hierarchical flatten is a bijection between leaf paths and flat
//!   block ids (path-lexicographic order = increasing flat id);
//! * a `[4, 2]` solve meets the balance bound at *every* level (leaf
//!   blocks against their node's weight, node aggregates against the
//!   total), and on a clustered mesh its inter-node communication volume
//!   is strictly below flat k = 8's volume restricted to the same node
//!   mapping — the committed ISSUE 4 acceptance test, mirrored by
//!   `BENCH_hierarchy.json`.

use geographer::{Config, HierarchySpec};
use geographer_graph::evaluate_levels;
use geographer_mesh::families::bubbles_like;
use geographer_parcomm::SelfComm;
use geographer_planner::{MeshView, PlanSpec, Planner, Tool};
use geographer_spmv::owner_of_block;
use proptest::prelude::*;

#[test]
fn owner_of_block_contiguous_and_surjective_for_all_p_up_to_k_64() {
    for k in 1..=64usize {
        for p in 1..=k {
            let owners: Vec<usize> =
                (0..k as u32).map(|b| owner_of_block(b, k, p)).collect();
            // In range.
            assert!(owners.iter().all(|&r| r < p), "k={k} p={p}: owner out of range");
            // Contiguous: non-decreasing block → rank mapping (each rank
            // owns one contiguous range of block ids).
            assert!(
                owners.windows(2).all(|w| w[0] <= w[1]),
                "k={k} p={p}: mapping not contiguous: {owners:?}"
            );
            // Surjective: every rank owns at least one block.
            let mut seen = vec![false; p];
            for &r in &owners {
                seen[r] = true;
            }
            assert!(seen.iter().all(|&s| s), "k={k} p={p}: some rank owns no block");
            // Anchored: first block on rank 0, last on rank p−1.
            assert_eq!(owners[0], 0);
            assert_eq!(*owners.last().unwrap(), p - 1);
        }
    }
}

proptest! {
    /// The flatten is a bijection: enumerating all leaf paths in
    /// lexicographic order (a mixed-radix counter) yields exactly the flat
    /// ids 0, 1, 2, … and `path_of_block` inverts `block_of_path`.
    #[test]
    fn hierarchical_flatten_is_a_bijection(
        arities in prop::collection::vec(1usize..5, 1..5)
    ) {
        let spec = HierarchySpec::uniform(&arities);
        let total = spec.total_blocks();
        // Mixed-radix counter over the arities = lexicographic path order.
        let mut path = vec![0u32; arities.len()];
        for flat in 0..total as u32 {
            prop_assert_eq!(spec.block_of_path(&path), flat);
            prop_assert_eq!(spec.path_of_block(flat), path.clone());
            // Increment the counter (least-significant = innermost level).
            for l in (0..arities.len()).rev() {
                path[l] += 1;
                if (path[l] as usize) < arities[l] {
                    break;
                }
                path[l] = 0;
            }
        }
        // The counter wrapped to all zeros: every path was visited once.
        prop_assert!(path.iter().all(|&c| c == 0));
    }

    /// `level_groups` is consistent with the paths: a block's level-l
    /// group is the flat number of its path prefix, and sibling leaves
    /// (same prefix) get contiguous flat ids.
    #[test]
    fn level_groups_follow_path_prefixes(
        arities in prop::collection::vec(1usize..5, 1..4)
    ) {
        let spec = HierarchySpec::uniform(&arities);
        let groups = spec.level_groups();
        for b in 0..spec.total_blocks() as u32 {
            let path = spec.path_of_block(b);
            let mut acc = 0usize;
            for (l, &a) in arities.iter().enumerate() {
                acc = acc * a + path[l] as usize;
                prop_assert_eq!(groups[l][b as usize] as usize, acc);
            }
        }
        // Each level-l group is a contiguous run of flat ids.
        for map in &groups {
            prop_assert!(map.windows(2).all(|w| w[0] <= w[1] && w[1] - w[0] <= 1));
        }
    }
}

/// ISSUE 4 acceptance: `[4, 2]` balances every level and beats flat k = 8
/// on inter-node communication volume on a clustered mesh. Deterministic:
/// single-rank solves of a seeded mesh.
#[test]
fn hierarchy_4x2_balances_every_level_and_beats_flat_inter_node_volume() {
    let mesh = bubbles_like(6_000, 33);
    let view = MeshView::from(&mesh);
    let spec = HierarchySpec::uniform(&[4, 2]);
    let cfg = Config { sampling_init: false, ..Config::default() };

    let hier =
        Planner::solve(&PlanSpec::hierarchical(view, spec.clone(), cfg.clone()), None, &SelfComm);
    assert!(hier.stats.expect("hierarchical plans carry stats").balance_achieved);

    // Balance at *every* level, recomputed from the assignment alone:
    // node aggregates against total/4, leaves against their node's
    // weight/2, each with the max((1+ε)·target, target + w_max) floor.
    let groups = spec.level_groups();
    let total: f64 = mesh.weights.iter().sum();
    let w_max = mesh.weights.iter().copied().fold(0.0, f64::max);
    let mut node_w = [0.0f64; 4];
    let mut leaf_w = [0.0f64; 8];
    for (&b, &w) in hier.assignment.iter().zip(&mesh.weights) {
        node_w[groups[0][b as usize] as usize] += w;
        leaf_w[b as usize] += w;
    }
    for (g, &w) in node_w.iter().enumerate() {
        let target = total / 4.0;
        let allowed = ((1.0 + cfg.epsilon) * target).max(target + w_max);
        assert!(w <= allowed + 1e-9, "node {g}: {w} > {allowed}");
    }
    for (b, &w) in leaf_w.iter().enumerate() {
        let target = node_w[b / 2] / 2.0;
        let allowed = ((1.0 + cfg.epsilon) * target).max(target + w_max);
        assert!(w <= allowed + 1e-9, "leaf {b}: {w} > {allowed}");
    }

    // Inter-node communication volume: strictly below flat k = 8 under
    // the same contiguous node mapping (blocks 2b, 2b+1 → node b).
    let flat =
        Planner::solve(&PlanSpec::flat(view, Tool::Geographer, 8, cfg.clone()), None, &SelfComm);
    let hier_inter =
        evaluate_levels(&mesh.graph, &hier.assignment, &groups)[0].total_comm_volume;
    let flat_inter =
        evaluate_levels(&mesh.graph, &flat.assignment, &groups)[0].total_comm_volume;
    assert!(
        hier_inter < flat_inter,
        "hierarchical inter-node volume {hier_inter} must be strictly below flat {flat_inter}"
    );
}
