//! Properties of the multilevel coarsening subsystem (ISSUE 5): matching
//! validity, exact weight conservation under contraction, the
//! coarse-cut = projected-fine-cut invariant the V-cycle rests on, the
//! single-core edge-cut cross-check, and the committed acceptance
//! inequality (multilevel strictly below single-level at equal ε on two
//! mesh families).

use geographer::Config;
use geographer_bench::{solve_plan_view, PlanRecipe, Tool};
use geographer_graph::coarsen::{CoarsenScratch, LevelView, WeightedCsrGraph};
use geographer_graph::{evaluate_partition, CsrGraph};
use geographer_mesh::{delaunay_unit_square, families::bubbles_like};
use geographer_planner::MeshView;
use geographer_refine::{
    refine_multilevel, refine_partition, MultilevelConfig, RefineConfig,
};
use proptest::prelude::*;

/// Random sparse graph + integer-valued vertex weights (exactly
/// representable, so weight conservation can be asserted with `==`),
/// built from plain sampled values (the vendored proptest shim has no
/// `prop_flat_map`).
fn build_weighted_graph(n: usize, raw: &[(u32, u32)], wseed: u64) -> (CsrGraph, Vec<f64>) {
    let edges: Vec<(u32, u32)> =
        raw.iter().map(|&(a, b)| (a % n as u32, b % n as u32)).collect();
    let g = CsrGraph::from_edges(n, &edges);
    let mut rng = geographer_geometry::SplitMix64::new(wseed ^ 0x9E37_79B9);
    let vwgt: Vec<f64> = (0..n).map(|_| (1 + rng.next_u64() % 5) as f64).collect();
    (g, vwgt)
}

/// One coarsening step of `level`: the coarse graph and the fine → coarse
/// map.
fn coarsen(level: LevelView<'_>, labels: Option<&[u32]>) -> (WeightedCsrGraph, Vec<u32>) {
    let (mut coarse, mut coarse_of_fine) = (WeightedCsrGraph::default(), Vec::new());
    CoarsenScratch::default().coarsen(level, labels, &mut coarse, &mut coarse_of_fine);
    (coarse, coarse_of_fine)
}

/// Strategy for the raw ingredients of [`build_weighted_graph`].
fn arb_graph_parts() -> impl Strategy<Value = (usize, Vec<(u32, u32)>, u64)> {
    (
        2usize..80,
        prop::collection::vec((0u32..1000, 0u32..1000), 0..240),
        0u64..1_000_000,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The heavy-edge matching is a valid matching, read off the
    /// contraction's map: every coarse vertex covers one fine vertex, or
    /// two adjacent ones that (when labels are given) share a label.
    #[test]
    fn matching_is_valid(gen in arb_graph_parts(), lseed in 0u32..5) {
        let (g, vwgt) = build_weighted_graph(gen.0, &gen.1, gen.2);
        let labels: Vec<u32> = (0..g.n() as u32).map(|v| (v.wrapping_mul(2654435761) ^ lseed) % (lseed + 2)).collect();
        for lab in [None, Some(&labels[..])] {
            let (coarse, cof) = coarsen(LevelView::unit(&g, &vwgt), lab);
            prop_assert_eq!(cof.len(), g.n());
            let mut covers: Vec<Vec<u32>> = vec![Vec::new(); coarse.n()];
            for (v, &cv) in cof.iter().enumerate() {
                covers[cv as usize].push(v as u32);
            }
            for (cv, fine) in covers.iter().enumerate() {
                match fine[..] {
                    [_] => {}
                    [a, b] => {
                        // Only across existing edges.
                        prop_assert!(
                            g.neighbors(a).binary_search(&b).is_ok(),
                            "{}-{} matched without an edge", a, b
                        );
                        if let Some(l) = lab {
                            prop_assert_eq!(l[a as usize], l[b as usize]);
                        }
                    }
                    _ => prop_assert!(false, "coarse vertex {} covers {:?}", cv, fine),
                }
            }
        }
    }

    /// Contraction conserves total vertex weight exactly (integer-valued
    /// weights: float addition is exact, so `==`, not a tolerance).
    #[test]
    fn contraction_preserves_total_weight(gen in arb_graph_parts()) {
        let (g, vwgt) = build_weighted_graph(gen.0, &gen.1, gen.2);
        let (coarse, cof) = coarsen(LevelView::unit(&g, &vwgt), None);
        prop_assert_eq!(coarse.total_vertex_weight(), vwgt.iter().sum::<f64>());
        // And per fine vertex: its coarse vertex covers exactly its pair.
        prop_assert_eq!(cof.len(), g.n());
        let mut covered = vec![0.0f64; coarse.n()];
        for (v, &cv) in cof.iter().enumerate() {
            covered[cv as usize] += vwgt[v];
        }
        prop_assert_eq!(covered, coarse.vwgt.clone());
    }

    /// The V-cycle invariant: for ANY coarse assignment, the weighted cut
    /// of the coarse graph equals the weighted cut of its projection onto
    /// the fine graph — from the unit-weight fine level (where it is the
    /// plain fine edge cut) and from an edge-weighted coarse level alike.
    #[test]
    fn coarse_cut_equals_projected_fine_cut(gen in arb_graph_parts(), kseed in 1u32..7) {
        let (g, vwgt) = build_weighted_graph(gen.0, &gen.1, gen.2);
        let (coarse, cof) = coarsen(LevelView::unit(&g, &vwgt), None);
        let (coarser, cof2) = coarsen(coarse.view(), None);
        // Pseudo-random assignment of the coarsest level with kseed+1 blocks.
        let casg: Vec<u32> = (0..coarser.n() as u32)
            .map(|v| v.wrapping_mul(2246822519).wrapping_add(kseed) % (kseed + 1))
            .collect();
        let mid_asg: Vec<u32> = cof2.iter().map(|&c| casg[c as usize]).collect();
        let fine_asg: Vec<u32> = cof.iter().map(|&c| mid_asg[c as usize]).collect();
        prop_assert_eq!(coarser.view().edge_cut(&casg), coarse.view().edge_cut(&mid_asg));
        prop_assert_eq!(coarse.view().edge_cut(&mid_asg), geographer_graph::edge_cut(&g, &fine_asg));
    }

    /// The historical edge-cut implementations (the metric core's, the
    /// level view's on unit weights, and the partition metrics') sit on one
    /// core and must agree everywhere.
    #[test]
    fn edge_cut_implementations_agree(gen in arb_graph_parts(), k in 1u32..6) {
        let (g, vwgt) = build_weighted_graph(gen.0, &gen.1, gen.2);
        let asg: Vec<u32> = (0..g.n() as u32).map(|v| v.wrapping_mul(40503) % k).collect();
        let from_graph = geographer_graph::edge_cut(&g, &asg);
        let from_level = LevelView::unit(&g, &vwgt).edge_cut(&asg);
        let from_metrics = evaluate_partition(&g, &asg, &vwgt, k as usize).edge_cut;
        prop_assert_eq!(from_graph, from_level);
        prop_assert_eq!(from_level, from_metrics);
    }
}

/// The committed ISSUE 5 acceptance: on two benchmark mesh families, the
/// multilevel V-cycle reaches a strictly lower edge cut than the
/// single-level pass from the same HSFC partition at equal ε, with
/// balance within the feasibility floor.
#[test]
fn multilevel_beats_single_level_on_two_mesh_families() {
    let n = 6_000;
    let k = 16usize;
    let cfg = Config { sampling_init: false, ..Config::default() };
    let rcfg = RefineConfig::default();
    for (name, mesh) in [
        ("bubbles-like", bubbles_like(n, 55)),
        ("delaunay", delaunay_unit_square(n, 56)),
    ] {
        let recipe = PlanRecipe::flat("hsfc", Tool::Hsfc, k, cfg.clone());
        let out = solve_plan_view(MeshView::from(&mesh), &recipe, 2, None).plan;
        let mut single = out.assignment.clone();
        let sr = refine_partition(&mesh.graph, &mut single, &mesh.weights, k, &rcfg);
        let mut multi = out.assignment.clone();
        let mr = refine_multilevel(
            &mesh.graph,
            &mut multi,
            &mesh.weights,
            k,
            &MultilevelConfig { refine: rcfg.clone(), ..MultilevelConfig::default() },
        );
        assert_eq!(sr.cut_before, mr.cut_before, "{name}: same starting partition");
        assert!(
            mr.cut_after < sr.cut_after,
            "{name}: multilevel {} must be strictly below single-level {}",
            mr.cut_after,
            sr.cut_after
        );
        // Balance within the floor, measured with the (fixed) metric.
        let total: f64 = mesh.weights.iter().sum();
        let floor = ((1.0 + rcfg.epsilon) * total / k as f64).max(total / k as f64 + 1.0);
        let mut bw = vec![0.0f64; k];
        for (&b, &w) in multi.iter().zip(&mesh.weights) {
            bw[b as usize] += w;
        }
        for (b, &w) in bw.iter().enumerate() {
            assert!(w <= floor + 1e-9, "{name}: block {b} weight {w} > floor {floor}");
        }
    }
}

/// The matching, contraction, and full V-cycle are pure functions of the
/// input.
#[test]
fn multilevel_is_deterministic() {
    let mesh = delaunay_unit_square(4_000, 77);
    let k = 8usize;
    let init: Vec<u32> = (0..4_000u32).map(|v| v % k as u32).collect();
    let run = || {
        let mut asg = init.clone();
        let r = refine_multilevel(
            &mesh.graph,
            &mut asg,
            &mesh.weights,
            k,
            &MultilevelConfig { coarsest_vertices: 500, ..MultilevelConfig::default() },
        );
        (asg, r)
    };
    let (a1, r1) = run();
    let (a2, r2) = run();
    assert_eq!(a1, a2, "V-cycle must be bitwise deterministic");
    assert_eq!(r1, r2);
}
