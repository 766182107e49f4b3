//! Hierarchy-aware multilevel refinement: the stacked combination of a
//! hierarchical solve and the multilevel V-cycle.
//!
//! A hierarchical solve minimizes each level's cut *geometrically*; the
//! multilevel V-cycle of `geographer_refine` minimizes the flat cut
//! *graph-locally* — but running the flat V-cycle on a hierarchical
//! assignment would happily trade an expensive inter-node edge for two
//! cheap intra-node ones and drift blocks across their per-level capacity
//! targets. [`refine_hierarchy_multilevel`] composes the two correctly:
//! it walks the hierarchy **top-down**, and at each level `l` refines the
//! level-`l` *digit* of the flat block id, one parent group at a time, on
//! the subgraph induced by the parent's vertices.
//!
//! Why this is exact and safe (DESIGN.md §8):
//!
//! * **Per-parent induced subgraphs give exact level-`l` gains.** An edge
//!   whose endpoints lie in different level-`(l-1)` groups is cut at level
//!   `l` no matter how the children move, so dropping it changes no gain;
//!   every accepted coarse move is a real reduction of the level-`l` cut.
//! * **Per-level capacities are the solver's own.** Each parent's child
//!   capacities use that level's ε and capacity fractions against the
//!   parent's *actual* weight — the same
//!   `max((1+ε)·target, target + w_max)` floor the hierarchical solver
//!   enforces, so refinement preserves the balance the solve achieved.
//! * **Top-down never un-does finished levels.** Refining digit `l+1`
//!   moves vertices only between siblings below one level-`l` group, so
//!   level-`l` group weights and cuts are final once level `l` is done.
//!   A level-`l` move does carry a vertex's old *lower* digits into its
//!   new group; a deterministic pre-pass at each level re-seats any child
//!   pushed over its capacity before the V-cycle runs.
//! * **Deterministic.** Parents are processed in path-lexicographic
//!   order, vertices in input order, and the V-cycle itself is
//!   deterministic — results are independent of thread count, which is
//!   what lets the planner run refinement redundantly on every rank.

use geographer::{HierarchySpec, LevelSpec};
use geographer_graph::CsrGraph;
use geographer_refine::{block_capacities, refine_multilevel, MultilevelConfig, RefineReport};

/// Move vertices out of over-capacity children into the least-loaded
/// sibling until every child respects `allowed`. Needed because an
/// upper-level move carries its vertex's stale lower digits into the new
/// group, which can push a child past the floor refinement itself would
/// never cross. Picks, per repair step, the in-order first vertex of the
/// heaviest child whose departure loses the least local cut (ties to the
/// lower vertex id) — deterministic.
fn repair_capacities(
    g: &CsrGraph,
    digits: &mut [u32],
    weights: &[f64],
    allowed: &[f64],
    block_w: &mut [f64],
) {
    loop {
        let Some(over) = (0..allowed.len())
            .filter(|&b| block_w[b] > allowed[b] + 1e-9)
            .max_by(|&a, &b| {
                (block_w[a] - allowed[a]).partial_cmp(&(block_w[b] - allowed[b])).unwrap()
            })
        else {
            return;
        };
        let to = (0..allowed.len())
            .filter(|&b| b != over)
            .min_by(|&a, &b| block_w[a].partial_cmp(&block_w[b]).unwrap())
            .expect("arity >= 2 when a capacity can be exceeded");
        // Cheapest vertex to re-seat: minimal (edges kept in `over`) minus
        // (edges toward `to`).
        let mut best: Option<(i64, usize)> = None;
        for v in 0..g.n() {
            if digits[v] as usize != over {
                continue;
            }
            let mut loss = 0i64;
            for &u in g.neighbors(v as u32) {
                let d = digits[u as usize] as usize;
                if d == over {
                    loss += 1;
                } else if d == to {
                    loss -= 1;
                }
            }
            if best.map(|(bl, _)| loss < bl).unwrap_or(true) {
                best = Some((loss, v));
            }
        }
        let Some((_, v)) = best else { return };
        digits[v] = to as u32;
        block_w[over] -= weights[v];
        block_w[to] += weights[v];
    }
}

/// Upper bound on top-down refinement sweeps. A compound move — a vertex
/// that must change its parent digit *and* its child digit to reach its
/// best block — needs one sweep per digit, so iterating the top-down pass
/// until it stops moving recovers moves a single pass structurally cannot
/// make. Convergence is guaranteed (each level's V-cycle never increases
/// its own level cut and the pass is deterministic); the cap only bounds
/// the tail.
const MAX_SWEEPS: usize = 4;

/// Refine a hierarchical flat-leaf assignment in place with multilevel
/// V-cycles per hierarchy level, top-down, honoring each level's ε and
/// capacity fractions (see the module docs for the contract). The
/// top-down pass is iterated until a full sweep moves nothing (at most
/// `MAX_SWEEPS` times): an upper-level move changes which sibling moves
/// are profitable below, and vice versa, so a single pass leaves compound
/// gains on the table. Each sweep is followed by a `cross_parent_pass`
/// that takes the leaf moves no per-level digit refinement can express —
/// a vertex whose best block lies under a different parent but whose
/// parent-digit move alone has zero gain. `base` supplies the V-cycle
/// shape and the default ε
/// for levels that don't pin their own; its `refine.target_fractions` must
/// be `None` — per-level capacities come from the spec, exactly as in the
/// hierarchical solver.
///
/// Returns one aggregated [`RefineReport`] per level (cuts in that level's
/// induced-subgraph units: intra-parent edges crossing a level-`l` group
/// boundary — cross-parent edges are excluded because no level-`l` move
/// can uncut them; `cut_before` from the first sweep, `cut_after` from the
/// last, moves and rounds summed over sweeps).
pub fn refine_hierarchy_multilevel(
    g: &CsrGraph,
    assignment: &mut [u32],
    weights: &[f64],
    spec: &HierarchySpec,
    base: &MultilevelConfig,
) -> Vec<RefineReport> {
    assert_eq!(assignment.len(), g.n());
    assert_eq!(weights.len(), g.n());
    assert!(
        base.refine.target_fractions.is_none(),
        "geographer config: hierarchical solves take capacity fractions from the \
         HierarchySpec's levels; Config::target_fractions must be None"
    );
    spec.validate();
    let mut reports =
        vec![RefineReport { cut_before: 0, cut_after: 0, moves: 0, rounds: 0 }; spec.depth()];
    for sweep in 0..MAX_SWEEPS {
        let pass = sweep_top_down(g, assignment, weights, spec, base);
        let swept: usize = pass.iter().map(|r| r.moves).sum();
        for (agg, r) in reports.iter_mut().zip(&pass) {
            if sweep == 0 {
                agg.cut_before = r.cut_before;
            }
            agg.cut_after = r.cut_after;
            agg.moves += r.moves;
            agg.rounds += r.rounds;
        }
        // Cross-parent leaf moves the digit sweeps cannot express; a
        // productive pass re-triggers the sweep so the reported cuts come
        // from a sweep over the final assignment.
        let crossed = cross_parent_pass(g, assignment, weights, spec, base);
        if let Some(leaf) = reports.last_mut() {
            leaf.moves += crossed;
        }
        if swept == 0 && crossed == 0 {
            break;
        }
    }
    reports
}

/// Leaf moves the per-level digit sweeps structurally cannot make: a
/// vertex whose best leaf block lies under a *different* parent, where the
/// upper-level digit move alone has zero gain (so no level's V-cycle takes
/// it) but the combined move lowers the leaf cut. The pass accepts a move
/// `cur → nb` only when it (1) strictly reduces the leaf cut, (2) does not
/// increase any upper level's cut (the vertex must have at least as many
/// neighbors under every ancestor group of `nb` as under the matching
/// ancestor of `cur`), and (3) keeps every affected group at every level —
/// including siblings whose targets shift because their parent's weight
/// changed — within the solver's own `max((1+ε)·target, target + w_max)`
/// floor. Vertices are visited in input order and the best candidate is
/// chosen by leaf gain (ties to the lower block id) — deterministic.
/// Returns the number of moves made.
fn cross_parent_pass(
    g: &CsrGraph,
    assignment: &mut [u32],
    weights: &[f64],
    spec: &HierarchySpec,
    base: &MultilevelConfig,
) -> usize {
    let depth = spec.depth();
    if depth < 2 {
        return 0;
    }
    let n = g.n();
    let k = spec.total_blocks();
    let total: f64 = weights.iter().sum();
    let w_max = weights.iter().copied().fold(0.0, f64::max);

    // Per-level digit stride, ε, and normalized capacity fractions.
    let strides: Vec<usize> =
        (0..depth).map(|l| spec.levels[l + 1..].iter().map(|s| s.arity).product()).collect();
    let eps: Vec<f64> =
        spec.levels.iter().map(|lv| lv.epsilon.unwrap_or(base.refine.epsilon)).collect();
    let fractions: Vec<Vec<f64>> =
        spec.levels.iter().map(LevelSpec::normalized_fractions).collect();
    let group_of = |b: usize, l: usize| b / strides[l];

    // Group weights per level, maintained incrementally.
    let mut gw: Vec<Vec<f64>> = (0..depth).map(|l| vec![0.0f64; spec.groups_at(l)]).collect();
    for (&b, &w) in assignment.iter().zip(weights) {
        for l in 0..depth {
            gw[l][group_of(b as usize, l)] += w;
        }
    }
    let allowed = |l: usize, grp: usize, gw: &[Vec<f64>]| -> f64 {
        let arity = spec.levels[l].arity;
        let parent_w = if l == 0 { total } else { gw[l - 1][grp / arity] };
        let target = parent_w * fractions[l][grp % arity];
        ((1.0 + eps[l]) * target).max(target + w_max)
    };

    let mut moves = 0usize;
    let mut cnt = vec![0i64; k];
    const MAX_ROUNDS: usize = 8;
    for _round in 0..MAX_ROUNDS {
        let mut moved_this_round = 0usize;
        for v in 0..n {
            let cur = assignment[v] as usize;
            cnt.iter_mut().for_each(|c| *c = 0);
            let mut touched: Vec<usize> = Vec::new();
            for &u in g.neighbors(v as u32) {
                let b = assignment[u as usize] as usize;
                if cnt[b] == 0 {
                    touched.push(b);
                }
                cnt[b] += 1;
            }
            touched.sort_unstable();
            let mut best: Option<(i64, usize)> = None;
            for &nb in &touched {
                if nb == cur || group_of(nb, depth - 2) == group_of(cur, depth - 2) {
                    continue; // same parent: the digit sweeps own these
                }
                let leaf_gain = cnt[nb] - cnt[cur];
                if leaf_gain <= 0 {
                    continue;
                }
                // Upper levels must not get worse: the move needs at
                // least as many neighbors under every ancestor of `nb` as
                // under the matching ancestor of `cur`.
                let upper_ok = (0..depth - 1).all(|l| {
                    let (gc, gn) = (group_of(cur, l), group_of(nb, l));
                    gc == gn || {
                        let in_group = |gx: usize| -> i64 {
                            (0..k).filter(|&b| group_of(b, l) == gx).map(|b| cnt[b]).sum()
                        };
                        in_group(gn) >= in_group(gc)
                    }
                });
                if !upper_ok || best.map(|(bg, _)| leaf_gain <= bg).unwrap_or(false) {
                    continue;
                }
                // Capacity at every level, with post-move weights and
                // post-move (parent-dependent) floors.
                let w = weights[v];
                for l in 0..depth {
                    gw[l][group_of(cur, l)] -= w;
                    gw[l][group_of(nb, l)] += w;
                }
                let fits = (0..depth).all(|l| {
                    let arity = spec.levels[l].arity;
                    let mut check: Vec<usize> = if l == 0 {
                        vec![group_of(cur, 0), group_of(nb, 0)]
                    } else {
                        // All children of both changed parents: their
                        // targets moved with the parent weights.
                        let (pc, pn) = (group_of(cur, l - 1), group_of(nb, l - 1));
                        (pc * arity..(pc + 1) * arity)
                            .chain(pn * arity..(pn + 1) * arity)
                            .collect()
                    };
                    check.dedup();
                    check.into_iter().all(|grp| gw[l][grp] <= allowed(l, grp, &gw) + 1e-9)
                });
                for l in 0..depth {
                    gw[l][group_of(cur, l)] += w;
                    gw[l][group_of(nb, l)] -= w;
                }
                if fits {
                    best = Some((leaf_gain, nb));
                }
            }
            if let Some((_, nb)) = best {
                let w = weights[v];
                for l in 0..depth {
                    gw[l][group_of(cur, l)] -= w;
                    gw[l][group_of(nb, l)] += w;
                }
                assignment[v] = nb as u32;
                moved_this_round += 1;
            }
        }
        moves += moved_this_round;
        if moved_this_round == 0 {
            break;
        }
    }
    moves
}

/// One top-down pass over all levels (see [`refine_hierarchy_multilevel`]).
fn sweep_top_down(
    g: &CsrGraph,
    assignment: &mut [u32],
    weights: &[f64],
    spec: &HierarchySpec,
    base: &MultilevelConfig,
) -> Vec<RefineReport> {
    let n = g.n();
    let mut reports = Vec::with_capacity(spec.depth());

    for l in 0..spec.depth() {
        let lv = &spec.levels[l];
        let arity = lv.arity;
        // Flat-id stride of one level-l digit, and of one parent group.
        let stride: usize = spec.levels[l + 1..].iter().map(|s| s.arity).product();
        let parent_div = arity * stride;
        let parents = if l == 0 { 1 } else { spec.groups_at(l - 1) };
        let epsilon = lv.epsilon.unwrap_or(base.refine.epsilon);

        if arity == 1 {
            reports.push(RefineReport { cut_before: 0, cut_after: 0, moves: 0, rounds: 0 });
            continue;
        }

        // Bucket vertices by parent group (input order within each bucket)
        // and assign local ids.
        let mut members: Vec<Vec<u32>> = vec![Vec::new(); parents];
        let mut local_of = vec![0u32; n];
        for v in 0..n {
            let p = assignment[v] as usize / parent_div;
            local_of[v] = members[p].len() as u32;
            members[p].push(v as u32);
        }
        // One pass over the edges, routed to the owning parent (edges that
        // cross parents are cut at this level regardless — dropped).
        let mut edges: Vec<Vec<(u32, u32)>> = vec![Vec::new(); parents];
        for v in 0..n as u32 {
            let pv = assignment[v as usize] as usize / parent_div;
            for &u in g.neighbors(v) {
                if v < u && assignment[u as usize] as usize / parent_div == pv {
                    edges[pv].push((local_of[v as usize], local_of[u as usize]));
                }
            }
        }

        let mut level = RefineReport { cut_before: 0, cut_after: 0, moves: 0, rounds: 0 };
        for p in 0..parents {
            let idx = &members[p];
            if idx.is_empty() {
                continue;
            }
            let sub_g = CsrGraph::from_edges(idx.len(), &edges[p]);
            let sub_w: Vec<f64> = idx.iter().map(|&v| weights[v as usize]).collect();
            let mut digits: Vec<u32> = idx
                .iter()
                .map(|&v| (assignment[v as usize] as usize / stride % arity) as u32)
                .collect();

            // Re-seat any child an upper-level move pushed over its floor.
            let total: f64 = sub_w.iter().sum();
            let w_max = sub_w.iter().copied().fold(0.0, f64::max);
            let allowed = block_capacities(total, w_max, arity, epsilon, &lv.fractions);
            let mut block_w = vec![0.0f64; arity];
            for (&d, &w) in digits.iter().zip(&sub_w) {
                block_w[d as usize] += w;
            }
            repair_capacities(&sub_g, &mut digits, &sub_w, &allowed, &mut block_w);

            let mcfg = MultilevelConfig {
                refine: geographer_refine::RefineConfig {
                    epsilon,
                    target_fractions: lv.fractions.clone(),
                    ..base.refine.clone()
                },
                ..base.clone()
            };
            let r = refine_multilevel(&sub_g, &mut digits, &sub_w, arity, &mcfg);
            level.cut_before += r.cut_before;
            level.cut_after += r.cut_after;
            level.moves += r.moves;
            level.rounds += r.levels.iter().map(|lr| lr.rounds).sum::<usize>();

            // Write the refined digit back into the flat ids.
            for (&v, &d) in idx.iter().zip(&digits) {
                let old = assignment[v as usize] as usize;
                let below = old % stride;
                assignment[v as usize] = (p * parent_div + d as usize * stride + below) as u32;
            }
        }
        reports.push(level);
    }
    reports
}

#[cfg(test)]
mod tests {
    use super::*;
    use geographer::{partition_hierarchical_spmd, Config, LevelSpec};
    use geographer_graph::evaluate_levels;
    use geographer_mesh::families::bubbles_like;
    use geographer_mesh::Mesh;
    use geographer_parcomm::SelfComm;

    /// Cold single-rank hierarchical assignment of `mesh`.
    fn solve(mesh: &Mesh<2>, spec: &HierarchySpec, cfg: &Config) -> Vec<u32> {
        partition_hierarchical_spmd(&SelfComm, &mesh.points, &mesh.weights, spec, None, cfg)
            .assignment
    }

    fn hier_balanced(asg: &[u32], weights: &[f64], spec: &HierarchySpec, eps: f64) {
        let groups = spec.level_groups();
        let w_max = weights.iter().copied().fold(0.0, f64::max);
        let mut parent_w = vec![weights.iter().sum::<f64>()];
        for (l, map) in groups.iter().enumerate() {
            let gcount = spec.groups_at(l);
            let mut gw = vec![0.0f64; gcount];
            for (&b, &w) in asg.iter().zip(weights) {
                gw[map[b as usize] as usize] += w;
            }
            let arity = spec.levels[l].arity;
            let e = spec.levels[l].epsilon.unwrap_or(eps);
            let fractions: Vec<f64> = match &spec.levels[l].fractions {
                None => vec![1.0 / arity as f64; arity],
                Some(f) => {
                    let sum: f64 = f.iter().sum();
                    f.iter().map(|x| x / sum).collect()
                }
            };
            for (gi, &w) in gw.iter().enumerate() {
                let target = parent_w[gi / arity] * fractions[gi % arity];
                let allowed = ((1.0 + e) * target).max(target + w_max);
                assert!(w <= allowed + 1e-9, "level {l} group {gi}: {w} > {allowed}");
            }
            parent_w = gw;
        }
    }

    #[test]
    fn lowers_leaf_cut_without_raising_inter_node_cut_or_breaking_balance() {
        let mesh = bubbles_like(6_000, 41);
        let spec = HierarchySpec::uniform(&[4, 2]);
        let cfg = Config { sampling_init: false, ..Config::default() };
        let mut asg = solve(&mesh, &spec, &cfg);

        let before = evaluate_levels(&mesh.graph, &asg, &spec.level_groups());
        let reports = refine_hierarchy_multilevel(
            &mesh.graph,
            &mut asg,
            &mesh.weights,
            &spec,
            &MultilevelConfig::default(),
        );
        let after = evaluate_levels(&mesh.graph, &asg, &spec.level_groups());

        assert_eq!(reports.len(), 2);
        // Every level's own cut must not increase, and something must move.
        for l in 0..2 {
            assert!(
                after[l].edge_cut <= before[l].edge_cut,
                "level {l}: {} -> {}",
                before[l].edge_cut,
                after[l].edge_cut
            );
        }
        assert!(
            after[1].edge_cut < before[1].edge_cut,
            "leaf cut must actually improve: {} -> {}",
            before[1].edge_cut,
            after[1].edge_cut
        );
        assert!(reports.iter().any(|r| r.moves > 0));
        hier_balanced(&asg, &mesh.weights, &spec, cfg.epsilon);
        // Block ids stay in range.
        assert!(asg.iter().all(|&b| b < 8));
    }

    #[test]
    fn is_deterministic() {
        let mesh = bubbles_like(2_500, 42);
        let spec = HierarchySpec::uniform(&[2, 2]);
        let cfg = Config { sampling_init: false, ..Config::default() };
        let mut a = solve(&mesh, &spec, &cfg);
        let mut b = a.clone();
        let ra = refine_hierarchy_multilevel(
            &mesh.graph,
            &mut a,
            &mesh.weights,
            &spec,
            &MultilevelConfig::default(),
        );
        let rb = refine_hierarchy_multilevel(
            &mesh.graph,
            &mut b,
            &mesh.weights,
            &spec,
            &MultilevelConfig::default(),
        );
        assert_eq!(a, b);
        assert_eq!(ra, rb);
    }

    #[test]
    fn honors_per_level_fractions() {
        let mesh = bubbles_like(4_000, 43);
        let spec = HierarchySpec {
            levels: vec![
                LevelSpec { arity: 2, epsilon: Some(0.02), fractions: Some(vec![3.0, 1.0]) },
                LevelSpec::uniform(2),
            ],
        };
        let cfg = Config { sampling_init: false, max_iterations: 200, ..Config::default() };
        let mut asg = solve(&mesh, &spec, &cfg);
        refine_hierarchy_multilevel(
            &mesh.graph,
            &mut asg,
            &mesh.weights,
            &spec,
            &MultilevelConfig::default(),
        );
        hier_balanced(&asg, &mesh.weights, &spec, cfg.epsilon);
        // The deliberate 3:1 skew survives refinement.
        let groups = spec.level_groups();
        let mut gw = [0.0f64; 2];
        for (&b, &w) in asg.iter().zip(&mesh.weights) {
            gw[groups[0][b as usize] as usize] += w;
        }
        assert!(gw[0] > 2.5 * gw[1], "3:1 skew erased: {gw:?}");
    }

    #[test]
    fn cross_parent_pass_takes_zero_upper_gain_compound_moves() {
        // Hierarchy [2, 2], blocks {0,1} under parent 0 and {2,3} under
        // parent 1, a clique per block. Vertex 9 sits in block 1 with two
        // neighbors in each of blocks 0 and 1 (four under parent 0) and
        // four in block 2 (four under parent 1): the parent-digit move has
        // zero level-0 gain and the sibling move has zero level-1 gain, so
        // no per-level V-cycle touches it — but moving it to block 2 drops
        // the leaf cut from 6 to 4 at unchanged inter-parent cut.
        let mut edges = vec![];
        for (lo, hi) in [(0u32, 5u32), (5, 9), (10, 15), (15, 20)] {
            for a in lo..hi {
                for b in a + 1..hi {
                    edges.push((a, b));
                }
            }
        }
        edges.extend([(9, 0), (9, 1), (9, 5), (9, 6), (9, 10), (9, 11), (9, 12), (9, 13)]);
        let g = CsrGraph::from_edges(20, &edges);
        let mut asg: Vec<u32> =
            (0..20).map(|v| if v < 5 { 0 } else if v < 10 { 1 } else if v < 15 { 2 } else { 3 }).collect();
        let spec = HierarchySpec::uniform(&[2, 2]);
        let weights = [1.0; 20];

        let before = evaluate_levels(&g, &asg, &spec.level_groups());
        let reports = refine_hierarchy_multilevel(
            &g,
            &mut asg,
            &weights,
            &spec,
            &MultilevelConfig::default(),
        );
        let after = evaluate_levels(&g, &asg, &spec.level_groups());

        assert_eq!(asg[9], 2, "vertex 9 must cross to block 2 under the other parent");
        assert_eq!(before[1].edge_cut, 6);
        assert_eq!(after[1].edge_cut, 4, "leaf cut must drop via the compound move");
        assert_eq!(after[0].edge_cut, before[0].edge_cut, "inter-parent cut unchanged");
        assert!(reports[1].moves >= 1);
        hier_balanced(&asg, &weights, &spec, Config::default().epsilon);
    }

    #[test]
    fn noop_on_an_already_optimal_split() {
        // Two 4-cliques joined by one edge, hierarchy [2]: the clique split
        // is optimal; nothing may move.
        let mut edges = vec![];
        for a in 0..4u32 {
            for b in a + 1..4 {
                edges.push((a, b));
                edges.push((a + 4, b + 4));
            }
        }
        edges.push((3, 4));
        let g = CsrGraph::from_edges(8, &edges);
        let mut asg = vec![0, 0, 0, 0, 1, 1, 1, 1];
        let before = asg.clone();
        let spec = HierarchySpec::uniform(&[2]);
        let reports = refine_hierarchy_multilevel(
            &g,
            &mut asg,
            &[1.0; 8],
            &spec,
            &MultilevelConfig::default(),
        );
        assert_eq!(asg, before);
        assert_eq!(reports[0].moves, 0);
        assert_eq!(reports[0].cut_before, 1);
        assert_eq!(reports[0].cut_after, 1);
    }
}
