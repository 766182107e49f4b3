//! Hierarchy-aware multilevel refinement, the one refinement pass of every
//! plan: the multilevel V-cycle stacked over the solve's hierarchy (a flat
//! plan's is `[k]`: one V-cycle over the whole graph, one sweep).
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
//!   new group; a deterministic pre-pass before every V-cycle (a flat
//!   plan's too) re-seats any child pushed over its capacity.
//! * **Deterministic.** Vertices are visited in input order and the
//!   V-cycle itself is deterministic, so a parent's refined digits are a
//!   pure function of the assembled assignment — whichever rank computes
//!   them.
//!
//! **What is SPMD and what is redundant.** The parents of one level are
//! independent subproblems: each reads and writes only its own members'
//! level-`l` digit. A level with more than one parent therefore deals its
//! parents round-robin to the ranks (`parent % p == rank`), and one
//! allgather per level per sweep hands every rank every parent's digits
//! and report — the same code at every `p`, the identity on one rank,
//! idle ranks when `p` exceeds the parents. Level 0 (one parent: the whole
//! graph) and `cross_parent_pass` (whose moves couple the parents) run
//! redundantly on every rank, as does the bucketing. The result is the
//! serial one bit for bit (`tests/stacked_refine.rs`).

use geographer::{HierarchySpec, LevelSpec};
use geographer_graph::CsrGraph;
use geographer_parcomm::Comm;
use geographer_refine::{
    block_capacities, capacity, MultilevelConfig, RefineConfig, RefineReport, RefineScratch,
};

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
/// best block — needs one sweep per digit, so the pass runs again while a
/// level above the leaf or the cross-parent pass moved. Leaf moves alone
/// change no subproblem, so a flat plan (`[k]`) runs exactly one sweep.
/// Convergence is guaranteed (each level's V-cycle never increases its own
/// level cut and the pass is deterministic); the cap only bounds the tail.
const MAX_SWEEPS: usize = 4;

/// How much work a refinement did, in counts (the same on every rank and
/// at every rank count): what `bench_planner`'s `refine` breakdown
/// reports next to the seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RefineWork {
    /// Top-down sweeps over the hierarchy (1 for a flat refinement).
    pub sweeps: usize,
    /// V-cycles run: one per non-empty parent per level per sweep.
    pub vcycles: usize,
    /// Coarse levels built, summed over the V-cycles.
    pub coarse_levels: usize,
}

/// Everything hierarchical refinement allocates per V-cycle, owned across
/// parents, levels and sweeps.
struct Scratch {
    refine: RefineScratch,
    /// `members[p]` = the vertices under parent `p`, ascending;
    /// `parent_of[v]` = `v`'s parent, `local_of[v]` its position there.
    members: Vec<Vec<u32>>,
    parent_of: Vec<u32>,
    local_of: Vec<u32>,
    /// The parent being refined: induced subgraph and vertex weights.
    sub: CsrGraph,
    sub_w: Vec<f64>,
}

/// Refine a hierarchical flat-leaf assignment in place with multilevel
/// V-cycles per hierarchy level, top-down, honoring each level's ε and
/// capacity fractions (see the module docs for the contract, and for which
/// part is dealt to the ranks of `comm` — a collective call: every rank
/// passes the same arguments and returns the same result). Each sweep is
/// followed by a `cross_parent_pass` that takes the leaf moves no
/// per-level digit refinement can express — a vertex whose best block
/// lies under a different parent but whose parent-digit move alone has
/// zero gain. The sweep runs again while a level above the leaf or the
/// cross-parent pass moved (at most `MAX_SWEEPS` times): an upper-level
/// move changes which sibling moves are profitable below, so a single pass
/// leaves compound gains on the table. A flat plan is the hierarchy `[k]`:
/// one level, one V-cycle, one sweep. `base` supplies the V-cycle shape
/// and the default ε for levels that don't pin their own; its
/// `refine.target_fractions` must be `None` — per-level capacities come
/// from the spec, exactly as in the hierarchical solver.
///
/// Returns one aggregated [`RefineReport`] per level (cuts in that level's
/// induced-subgraph units: intra-parent edges crossing a level-`l` group
/// boundary — cross-parent edges are excluded because no level-`l` move
/// can uncut them; `cut_before` from the first sweep, `cut_after` from the
/// last, moves and rounds summed over sweeps) and the work counters.
pub fn refine_hierarchy_multilevel<C: Comm>(
    comm: &C,
    g: &CsrGraph,
    assignment: &mut [u32],
    weights: &[f64],
    spec: &HierarchySpec,
    base: &MultilevelConfig,
) -> (Vec<RefineReport>, RefineWork) {
    assert_eq!(assignment.len(), g.n());
    assert_eq!(weights.len(), g.n());
    assert!(base.refine.target_fractions.is_none(), "{}", crate::PlanError::RefineFractions);
    spec.validate().unwrap_or_else(|e| panic!("{e}"));
    let mut scratch = Scratch {
        refine: RefineScratch::default(),
        members: Vec::new(),
        parent_of: vec![0; g.n()],
        local_of: vec![0; g.n()],
        sub: CsrGraph { xadj: vec![0], adj: Vec::new() },
        sub_w: Vec::new(),
    };
    let mut reports =
        vec![RefineReport { cut_before: 0, cut_after: 0, moves: 0, rounds: 0 }; spec.depth()];
    let mut work = RefineWork::default();
    for sweep in 0..MAX_SWEEPS {
        work.sweeps += 1;
        let pass =
            sweep_top_down(comm, g, assignment, weights, spec, base, &mut scratch, &mut work);
        let swept: usize = pass[..spec.depth() - 1].iter().map(|r| r.moves).sum();
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
        reports[spec.depth() - 1].moves += crossed;
        if swept == 0 && crossed == 0 {
            break;
        }
    }
    (reports, work)
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
    let total: f64 = weights.iter().sum();
    let w_max = weights.iter().copied().fold(0.0, f64::max);

    // Per-level group of every leaf block, ε, and normalized capacity
    // fractions.
    let groups = spec.level_groups();
    let eps: Vec<f64> =
        spec.levels.iter().map(|lv| lv.epsilon.unwrap_or(base.refine.epsilon)).collect();
    let fractions: Vec<Vec<f64>> =
        spec.levels.iter().map(LevelSpec::normalized_fractions).collect();
    let group_of = |b: usize, l: usize| groups[l][b] as usize;

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
        capacity(parent_w * fractions[l][grp % arity], eps[l], w_max)
    };

    let mut moves = 0usize;
    // Neighbors of the current vertex per leaf block (`cnt[depth - 1]`)
    // and per group of every upper level, all reset sparsely through
    // `touched`.
    let mut cnt: Vec<Vec<i64>> = (0..depth).map(|l| vec![0i64; spec.groups_at(l)]).collect();
    let mut touched: Vec<usize> = Vec::new();
    const MAX_ROUNDS: usize = 8;
    for _round in 0..MAX_ROUNDS {
        let mut moved_this_round = 0usize;
        // geo-analyze: hot-loop
        for v in 0..n {
            let cur = assignment[v] as usize;
            let parent = group_of(cur, depth - 2);
            let nbrs = g.neighbors(v as u32);
            if nbrs.iter().all(|&u| group_of(assignment[u as usize] as usize, depth - 2) == parent) {
                continue; // no block under another parent: the digit sweeps own the rest
            }
            touched.clear();
            for &u in nbrs {
                let b = assignment[u as usize] as usize;
                if cnt[depth - 1][b] == 0 {
                    touched.push(b);
                }
                for l in 0..depth {
                    cnt[l][group_of(b, l)] += 1;
                }
            }
            touched.sort_unstable();
            let mut best: Option<(i64, usize)> = None;
            for &nb in &touched {
                if nb == cur || group_of(nb, depth - 2) == parent {
                    continue; // same parent: the digit sweeps own these
                }
                let leaf_gain = cnt[depth - 1][nb] - cnt[depth - 1][cur];
                if leaf_gain <= 0 {
                    continue;
                }
                // Upper levels must not get worse: the move needs at
                // least as many neighbors under every ancestor of `nb` as
                // under the matching ancestor of `cur`.
                let upper_ok = (0..depth - 1)
                    .all(|l| cnt[l][group_of(nb, l)] >= cnt[l][group_of(cur, l)]);
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
                    let (gc, gn) = (group_of(cur, l), group_of(nb, l));
                    // Level 0: the two groups whose weight changed. Below:
                    // all children of both changed parents, whose targets
                    // moved with the parent weights (once, if one parent).
                    let (first, second) = if l == 0 {
                        (gc..gc + 1, gn..gn + 1)
                    } else {
                        let arity = spec.levels[l].arity;
                        let (pc, pn) = (gc / arity, gn / arity);
                        let second = if pn == pc { 0..0 } else { pn * arity..(pn + 1) * arity };
                        (pc * arity..(pc + 1) * arity, second)
                    };
                    first.chain(second).all(|grp| gw[l][grp] <= allowed(l, grp, &gw) + 1e-9)
                });
                for l in 0..depth {
                    gw[l][group_of(cur, l)] += w;
                    gw[l][group_of(nb, l)] -= w;
                }
                if fits {
                    best = Some((leaf_gain, nb));
                }
            }
            for &b in &touched {
                for l in 0..depth {
                    cnt[l][group_of(b, l)] = 0;
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

/// The subgraph of `g` induced by `members` (ascending ids, all under
/// parent `p`), written into `sub`. `local_of` is monotone on the members,
/// so each filtered row of the parent CSR is already sorted and
/// duplicate-free: no edge list, no counting pass, no sort.
fn induced_rows(
    g: &CsrGraph,
    members: &[u32],
    p: u32,
    parent_of: &[u32],
    local_of: &[u32],
    sub: &mut CsrGraph,
) {
    sub.xadj.clear();
    sub.xadj.push(0);
    sub.adj.clear();
    // geo-analyze: hot-loop
    for &v in members {
        for &u in g.neighbors(v) {
            if parent_of[u as usize] == p {
                sub.adj.push(local_of[u as usize]);
            }
        }
        sub.xadj.push(sub.adj.len());
    }
}

/// One parent's result as it travels through the allgather: the parent,
/// its members' refined digits, and `[cut_before, cut_after, moves,
/// rounds, coarse levels built]` of its V-cycle.
type ParentResult = (u32, Vec<u32>, [u64; 5]);

/// Repair and refine the level-`l` digits of one parent's members on its
/// induced subgraph.
fn refine_parent(
    scratch: &mut RefineScratch,
    sub: &CsrGraph,
    sub_w: &[f64],
    digits: &mut [u32],
    arity: usize,
    mcfg: &MultilevelConfig,
) -> [u64; 5] {
    // Re-seat any child an upper-level move pushed over its floor.
    let total: f64 = sub_w.iter().sum();
    let w_max = sub_w.iter().copied().fold(0.0, f64::max);
    let allowed =
        block_capacities(total, w_max, arity, mcfg.refine.epsilon, &mcfg.refine.target_fractions);
    let mut block_w = vec![0.0f64; arity];
    for (&d, &w) in digits.iter().zip(sub_w) {
        block_w[d as usize] += w;
    }
    repair_capacities(sub, digits, sub_w, &allowed, &mut block_w);

    let r = scratch.refine_multilevel(sub, digits, sub_w, arity, mcfg);
    let rounds: usize = r.levels.iter().map(|lr| lr.rounds).sum();
    [r.cut_before, r.cut_after, r.moves as u64, rounds as u64, r.levels.len() as u64 - 1]
}

/// One top-down pass over all levels (see [`refine_hierarchy_multilevel`]).
#[allow(clippy::too_many_arguments, reason = "graph, hierarchy and scratch side by side")]
fn sweep_top_down<C: Comm>(
    comm: &C,
    g: &CsrGraph,
    assignment: &mut [u32],
    weights: &[f64],
    spec: &HierarchySpec,
    base: &MultilevelConfig,
    scratch: &mut Scratch,
    work: &mut RefineWork,
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

        if arity == 1 {
            reports.push(RefineReport { cut_before: 0, cut_after: 0, moves: 0, rounds: 0 });
            continue;
        }
        let mcfg = MultilevelConfig {
            refine: RefineConfig {
                epsilon: lv.epsilon.unwrap_or(base.refine.epsilon),
                target_fractions: lv.fractions.clone(),
                ..base.refine.clone()
            },
            ..base.clone()
        };
        let digit_of = |b: u32| (b as usize / stride % arity) as u32;

        let results: Vec<Vec<ParentResult>> = if parents == 1 {
            // The whole graph under the root: no bucketing, no subgraph,
            // and nothing to deal — every rank refines it.
            let mut digits: Vec<u32> = assignment.iter().map(|&b| digit_of(b)).collect();
            let r = refine_parent(&mut scratch.refine, g, weights, &mut digits, arity, &mcfg);
            vec![vec![(0, digits, r)]]
        } else {
            // Bucket vertices by parent group (input order within each
            // bucket) and assign local ids.
            let Scratch { refine, members, parent_of, local_of, sub, sub_w } = &mut *scratch;
            members.resize_with(members.len().max(parents), Vec::new);
            members[..parents].iter_mut().for_each(Vec::clear);
            for v in 0..n {
                let p = assignment[v] as usize / parent_div;
                parent_of[v] = p as u32;
                local_of[v] = members[p].len() as u32;
                members[p].push(v as u32);
            }
            // This rank's share of the parents; edges that cross parents
            // are cut at this level regardless — dropped.
            let mut mine: Vec<ParentResult> = Vec::new();
            for p in (comm.rank()..parents).step_by(comm.size()) {
                let idx = &members[p];
                if idx.is_empty() {
                    continue;
                }
                induced_rows(g, idx, p as u32, parent_of, local_of, sub);
                sub_w.clear();
                sub_w.extend(idx.iter().map(|&v| weights[v as usize]));
                let mut digits: Vec<u32> =
                    idx.iter().map(|&v| digit_of(assignment[v as usize])).collect();
                let r = refine_parent(refine, sub, sub_w, &mut digits, arity, &mcfg);
                mine.push((p as u32, digits, r));
            }
            comm.allgather(mine)
        };

        // Write every parent's refined digits back into the flat ids.
        let mut level = RefineReport { cut_before: 0, cut_after: 0, moves: 0, rounds: 0 };
        for (p, digits, [cut_before, cut_after, moves, rounds, coarse]) in
            results.into_iter().flatten()
        {
            level.cut_before += cut_before;
            level.cut_after += cut_after;
            level.moves += moves as usize;
            level.rounds += rounds as usize;
            work.vcycles += 1;
            work.coarse_levels += coarse as usize;
            let base_id = p as usize * parent_div;
            let write = |b: &mut u32, d: u32| {
                *b = (base_id + d as usize * stride + *b as usize % stride) as u32;
            };
            if parents == 1 {
                assignment.iter_mut().zip(digits).for_each(|(b, d)| write(b, d));
            } else {
                for (&v, d) in scratch.members[p as usize].iter().zip(digits) {
                    write(&mut assignment[v as usize], d);
                }
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
    use geographer_geometry::SplitMix64;
    use geographer_mesh::{delaunay_unit_square, families::bubbles_like, Mesh};
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
        let (reports, work) = refine_hierarchy_multilevel(
            &SelfComm,
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
        // One V-cycle for the root and one per node, every sweep; the
        // root's 6 000 vertices are above the coarsening floor.
        assert!(work.sweeps >= 2, "a sweep that moved is followed by another: {work:?}");
        assert_eq!(work.vcycles, 5 * work.sweeps);
        assert!(work.coarse_levels >= work.sweeps);
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
            &SelfComm,
            &mesh.graph,
            &mut a,
            &mesh.weights,
            &spec,
            &MultilevelConfig::default(),
        );
        let rb = refine_hierarchy_multilevel(
            &SelfComm,
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
            &SelfComm,
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
        let (reports, work) = refine_hierarchy_multilevel(
            &SelfComm,
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
        assert_eq!((work.vcycles, work.coarse_levels), (3 * work.sweeps, 0));
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
        let (reports, work) = refine_hierarchy_multilevel(
            &SelfComm,
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
        assert_eq!(work, RefineWork { sweeps: 1, vcycles: 1, coarse_levels: 0 });
    }

    #[test]
    fn flat_refinement_repairs_an_overfull_start_into_the_floor() {
        // One capacity semantics: a flat plan is the hierarchy `[4]`, and
        // its V-cycle runs after the same repair as every stacked level.
        // x-stripes of widths 1:1:2:1 put ~40 % of the weight in block 2,
        // far above its floor; refinement must end inside every floor.
        let mesh = delaunay_unit_square(2_000, 44);
        let spec = HierarchySpec::uniform(&[4]);
        let mut asg: Vec<u32> = mesh
            .points
            .iter()
            .map(|p| match p.0[0] {
                x if x < 0.2 => 0,
                x if x < 0.4 => 1,
                x if x < 0.8 => 2,
                _ => 3,
            })
            .collect();
        let base = MultilevelConfig::default();
        let eps = base.refine.epsilon;
        let w_max = mesh.weights.iter().copied().fold(0.0, f64::max);
        let target = mesh.weights.iter().sum::<f64>() / 4.0;
        let wide: f64 =
            asg.iter().zip(&mesh.weights).filter(|(&b, _)| b == 2).map(|(_, w)| w).sum();
        assert!(wide > capacity(target, eps, w_max), "the start must break the floor");
        let (reports, work) = refine_hierarchy_multilevel(
            &SelfComm,
            &mesh.graph,
            &mut asg,
            &mesh.weights,
            &spec,
            &base,
        );
        assert_eq!((reports.len(), work.sweeps, work.vcycles), (1, 1, 1));
        hier_balanced(&asg, &mesh.weights, &spec, eps);
    }

    /// `cross_parent_pass` as it was before its counts were kept sparse
    /// and per level: all `k` counters zeroed per vertex, a fresh
    /// `touched` per vertex, an O(k) filter per candidate per level, a
    /// `check` vector per level. The oracle of the pass.
    fn cross_parent_pass_oracle(
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

    /// Random connected-ish graph, a random hierarchy of depth 2 or 3 and
    /// a random leaf assignment with non-integer weights.
    fn random_instance(rng: &mut SplitMix64) -> (CsrGraph, Vec<f64>, HierarchySpec, Vec<u32>) {
        let n = 20 + rng.next_below(180) as usize;
        let mut edges: Vec<(u32, u32)> = (1..n as u32).map(|v| (v - 1, v)).collect();
        for _ in 0..rng.next_below(4 * n as u64) {
            edges.push((rng.next_below(n as u64) as u32, rng.next_below(n as u64) as u32));
        }
        let g = CsrGraph::from_edges(n, &edges);
        let weights: Vec<f64> = (0..n).map(|_| 0.5 + rng.next_f64()).collect();
        let arities: Vec<usize> =
            (0..2 + rng.next_below(2)).map(|_| 1 + rng.next_below(3) as usize).collect();
        let mut spec = HierarchySpec::uniform(&arities);
        if rng.next_below(2) == 0 {
            let a = spec.levels[0].arity;
            spec.levels[0].fractions = Some((0..a).map(|i| 1.0 + i as f64).collect());
            spec.levels[1].epsilon = Some(0.2);
        }
        let k = spec.total_blocks() as u64;
        // Mostly contiguous runs of blocks, so that there is a boundary
        // structure to work on, with some noise.
        let asg: Vec<u32> = (0..n as u64)
            .map(|v| if rng.next_below(5) == 0 { rng.next_below(k) } else { v * k / n as u64 } as u32)
            .collect();
        (g, weights, spec, asg)
    }

    #[test]
    fn cross_parent_pass_equals_its_oracle_on_random_hierarchies() {
        let mut rng = SplitMix64::new(0xC2055);
        let mut moved = 0;
        for case in 0..300 {
            let (g, weights, spec, start) = random_instance(&mut rng);
            let base = MultilevelConfig {
                refine: RefineConfig { epsilon: [0.03, 0.3, 1.0][case % 3], ..RefineConfig::default() },
                ..MultilevelConfig::default()
            };
            let (mut want, mut got) = (start.clone(), start);
            let want_moves = cross_parent_pass_oracle(&g, &mut want, &weights, &spec, &base);
            let got_moves = cross_parent_pass(&g, &mut got, &weights, &spec, &base);
            assert_eq!(got, want, "case {case}: {:?}", spec.levels);
            assert_eq!(got_moves, want_moves, "case {case}");
            moved += got_moves;
        }
        assert!(moved > 100, "the corpus must exercise accepted moves: {moved}");
    }

    #[test]
    fn induced_rows_equal_the_induced_subgraph() {
        let mut rng = SplitMix64::new(0x1D5);
        let mut sub = CsrGraph { xadj: vec![0], adj: Vec::new() };
        for case in 0..100 {
            let (g, _, _, asg) = random_instance(&mut rng);
            let parents = 1 + rng.next_below(5) as u32;
            let parent_of: Vec<u32> = asg.iter().map(|&b| b % parents).collect();
            let mut members: Vec<Vec<u32>> = vec![Vec::new(); parents as usize];
            let mut local_of = vec![0u32; g.n()];
            for v in 0..g.n() {
                local_of[v] = members[parent_of[v] as usize].len() as u32;
                members[parent_of[v] as usize].push(v as u32);
            }
            for p in 0..parents {
                let idx = &members[p as usize];
                induced_rows(&g, idx, p, &parent_of, &local_of, &mut sub);
                assert_eq!(sub, g.induced_subgraph(idx), "case {case}, parent {p}");
            }
        }
    }
}
