//! Graph-based local refinement of geometric partitions.
//!
//! The paper explicitly leaves this on the table (Sec. 2): "a graph-based
//! postprocessing, for example based on the Fiduccia-Mattheyses local
//! refinement heuristic, is easily possible, but outside the scope of this
//! paper." This crate implements that postprocessing as an extension: a
//! balance-constrained greedy boundary refinement in the FM spirit —
//! vertices on block boundaries move to the neighbouring block with the
//! highest edge-gain, as long as the balance constraint stays intact.
//!
//! Moves are only accepted with strictly positive gain, so the edge cut
//! decreases monotonically and the procedure terminates.
//!
//! There is one refinement path, [`refine_multilevel`]: a V-cycle that
//! coarsens by heavy-edge matching, refines the coarse graph (where one
//! move relocates a whole cluster), projects back and re-refines — which
//! reaches strictly deeper minima than single-vertex moves at comparable
//! cost (DESIGN.md §7). At `max_levels: 1` it is one flat boundary sweep,
//! [`refine_partition`].

use geographer::{Config, LevelSpec};
use geographer_graph::coarsen::LevelView;
use geographer_graph::CsrGraph;

pub mod multilevel;

pub use multilevel::{
    refine_multilevel, LevelReport, MultilevelConfig, MultilevelReport, RefineScratch,
};

/// Parameters of the refinement pass.
#[derive(Debug, Clone)]
pub struct RefineConfig {
    /// Maximum sweeps over the boundary (each sweep only moves vertices
    /// with positive gain; convergence is usually reached in a handful).
    pub max_rounds: usize,
    /// Balance slack ε: no block may exceed
    /// `max((1+ε)·target, target + w_max)` after a move — the same
    /// feasibility floor as the partitioners' balance constraint.
    pub epsilon: f64,
    /// Per-block target weight fractions, for refining partitions produced
    /// with heterogeneous targets (`Config::target_fractions` in
    /// `geographer`): `None` = uniform `total/k` targets; `Some` must have
    /// length `k` and positive entries (normalized to sum to 1). Without
    /// this, refinement of a deliberately skewed partition would "rebalance"
    /// it toward uniform, silently violating the balance the solver was
    /// asked for.
    pub target_fractions: Option<Vec<f64>>,
}

impl Default for RefineConfig {
    fn default() -> Self {
        RefineConfig { max_rounds: 10, epsilon: 0.03, target_fractions: None }
    }
}

/// Outcome of a refinement run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefineReport {
    /// Edge cut before refinement.
    pub cut_before: u64,
    /// Edge cut after refinement.
    pub cut_after: u64,
    /// Number of vertex moves performed.
    pub moves: usize,
    /// Number of sweeps executed.
    pub rounds: usize,
}

/// The capacity of a block with weight target `target`:
/// `max((1+ε)·target, target + w_max)` — the same feasibility floor as
/// `geographer`'s kmeans.rs. The one spelling of it in refinement: every
/// level of the V-cycle (through [`block_capacities`]) and the planner's
/// cross-parent pass call it.
#[inline]
pub fn capacity(target: f64, epsilon: f64, w_max: f64) -> f64 {
    ((1.0 + epsilon) * target).max(target + w_max)
}

/// Per-block [`capacity`] with targets either uniform or the configured
/// heterogeneous fractions of the total. Shared by every level of the
/// multilevel V-cycle (which passes the *fine* level's `w_max` so no
/// coarse move can overshoot the bound the caller asked for) and the
/// planner's per-parent hierarchical sweep.
pub fn block_capacities(
    total: f64,
    w_max: f64,
    k: usize,
    epsilon: f64,
    target_fractions: &Option<Vec<f64>>,
) -> Vec<f64> {
    // Checked and normalized by `geographer` itself, as a flat solve's
    // fractions and one level of k blocks, so the texts are the solver's.
    let config = Config { target_fractions: target_fractions.clone(), ..Config::default() };
    config.validate(k).unwrap_or_else(|e| panic!("{e}"));
    let level = LevelSpec { arity: k, epsilon: None, fractions: config.target_fractions };
    level.normalized_fractions().iter().map(|frac| capacity(total * frac, epsilon, w_max)).collect()
}

/// The arrays one call of [`refine_sweeps`] works in, owned by the caller
/// across levels and V-cycles.
#[derive(Debug, Default)]
pub(crate) struct SweepScratch {
    /// Edge weight towards each block seen at the current vertex (sparse:
    /// reset only the touched entries).
    cnt: Vec<u64>,
    touched: Vec<u32>,
    /// `due[v]` = the round in which `v` has to be evaluated next.
    due: Vec<u32>,
    /// Weight of every block, summed in vertex order at entry and kept
    /// current move by move.
    block_w: Vec<f64>,
}

/// What a run of sweeps did. `gain` is the summed gain of the accepted
/// moves — exactly the cut it removed, since a move's gain *is* its change
/// of the weighted cut.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SweepOutcome {
    pub moves: usize,
    pub rounds: usize,
    pub gain: u64,
}

/// One bounded sequence of greedy boundary sweeps over a (possibly
/// edge-weighted) level: the single refinement kernel, run at every level
/// of [`refine_multilevel`] (unit weights on the fine level, gains in
/// accumulated fine-edge units below it).
/// Moves with strictly positive gain that respect `allowed` are applied in
/// ascending vertex order — deterministic and thread-count independent.
///
/// The sweeps follow the boundary. A vertex's evaluation — best foreign
/// block and its gain — is a function of its own block and its
/// neighbours' blocks, so after the first round (everything) a vertex is
/// evaluated again only if one of those changed since, or if it had a
/// positive-gain move that a capacity refused (block weights may have
/// shifted since). A vertex that moves puts its later neighbours into the
/// current round and itself and its earlier neighbours into the next, so
/// every evaluation that could accept a move happens exactly when the
/// all-vertex loop would have made it: moves, rounds and the final
/// assignment are those of visiting every vertex in every round.
pub(crate) fn refine_sweeps(
    g: &LevelView<'_>,
    assignment: &mut [u32],
    k: usize,
    max_rounds: usize,
    allowed: &[f64],
    scratch: &mut SweepScratch,
) -> SweepOutcome {
    let LevelView { xadj, adj, ewgt, vwgt } = *g;
    let n = xadj.len() - 1;
    let SweepScratch { cnt, touched, due, block_w } = scratch;
    cnt.clear();
    cnt.resize(k, 0);
    due.clear();
    due.resize(n, 1);
    block_w.clear();
    block_w.resize(k, 0.0);
    for (&b, &w) in assignment.iter().zip(vwgt) {
        block_w[b as usize] += w;
    }
    let mut out = SweepOutcome { moves: 0, rounds: 0, gain: 0 };

    for round in 1..=max_rounds as u32 {
        out.rounds += 1;
        let moves_before = out.moves;
        // geo-analyze: hot-loop
        for v in 0..n {
            if due[v] < round {
                continue;
            }
            let own = assignment[v];
            let (lo, hi) = (xadj[v], xadj[v + 1]);
            if adj[lo..hi].iter().all(|&u| assignment[u as usize] == own) {
                continue; // interior: no foreign block to move to
            }
            // Accumulate edge weight to each adjacent block.
            touched.clear();
            for i in lo..hi {
                let b = assignment[adj[i] as usize];
                if cnt[b as usize] == 0 {
                    touched.push(b);
                }
                cnt[b as usize] += ewgt.map_or(1, |w| w[i]);
            }
            // Best foreign block by connecting edge weight, ties to the
            // smaller id for determinism.
            let mut best = (0u64, u32::MAX); // (weight, block)
            for &b in touched.iter() {
                let c = cnt[b as usize];
                if b != own && (c > best.0 || (c == best.0 && b < best.1)) {
                    best = (c, b);
                }
            }
            let own_cnt = cnt[own as usize];
            for &b in touched.iter() {
                cnt[b as usize] = 0;
            }
            let (c, b) = best;
            if c <= own_cnt {
                continue; // no positive gain
            }
            let w = vwgt[v];
            if block_w[b as usize] + w > allowed[b as usize] + 1e-12 {
                due[v] = round + 1; // refused by capacity: ask again
                continue;
            }
            assignment[v] = b;
            block_w[own as usize] -= w;
            block_w[b as usize] += w;
            out.moves += 1;
            out.gain += c - own_cnt;
            due[v] = round + 1;
            for &u in &adj[lo..hi] {
                due[u as usize] = if u as usize > v { round } else { round + 1 };
            }
        }
        if out.moves == moves_before {
            break;
        }
    }
    out
}

/// Refine `assignment` in place with one flat boundary sweep: repeatedly
/// move boundary vertices to the adjacent block with the largest positive
/// edge-gain, subject to the balance constraint (per-block targets from
/// [`RefineConfig::target_fractions`], uniform by default). This is the
/// V-cycle at one level — [`refine_multilevel`] with `max_levels: 1` —
/// summarized. Deterministic (fixed sweep order).
pub fn refine_partition(
    g: &CsrGraph,
    assignment: &mut [u32],
    weights: &[f64],
    k: usize,
    cfg: &RefineConfig,
) -> RefineReport {
    let one_level =
        MultilevelConfig { max_levels: 1, refine: cfg.clone(), ..MultilevelConfig::default() };
    refine_multilevel(g, assignment, weights, k, &one_level).summary()
}

#[cfg(test)]
mod tests {
    use super::*;
    use geographer_geometry::SplitMix64;
    use geographer_graph::edge_cut;

    fn path(n: usize) -> CsrGraph {
        let edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
        CsrGraph::from_edges(n, &edges)
    }

    /// The sweep kernel as it was before it followed the boundary: every
    /// vertex evaluated in every round. The oracle of [`refine_sweeps`].
    fn sweep_all_vertices(
        g: &LevelView<'_>,
        assignment: &mut [u32],
        k: usize,
        max_rounds: usize,
        allowed: &[f64],
        block_w: &mut [f64],
    ) -> (usize, usize) {
        let LevelView { xadj, adj, ewgt, vwgt } = *g;
        let (mut moves, mut rounds) = (0usize, 0usize);
        for _ in 0..max_rounds {
            rounds += 1;
            let mut moved_this_round = 0usize;
            for v in 0..xadj.len() - 1 {
                let own = assignment[v];
                let mut cnt = vec![0u64; k];
                for i in xadj[v]..xadj[v + 1] {
                    cnt[assignment[adj[i] as usize] as usize] += ewgt.map_or(1, |w| w[i]);
                }
                let best = (0..k as u32)
                    .filter(|&b| b != own && cnt[b as usize] > 0)
                    .max_by_key(|&b| (cnt[b as usize], std::cmp::Reverse(b)));
                if let Some(b) = best {
                    let gain = cnt[b as usize] as i64 - cnt[own as usize] as i64;
                    let w = vwgt[v];
                    if gain > 0 && block_w[b as usize] + w <= allowed[b as usize] + 1e-12 {
                        assignment[v] = b;
                        block_w[own as usize] -= w;
                        block_w[b as usize] += w;
                        moved_this_round += 1;
                    }
                }
            }
            moves += moved_this_round;
            if moved_this_round == 0 {
                break;
            }
        }
        (moves, rounds)
    }

    fn block_weights(assignment: &[u32], vwgt: &[f64], k: usize) -> Vec<f64> {
        let mut bw = vec![0.0f64; k];
        for (&b, &w) in assignment.iter().zip(vwgt) {
            bw[b as usize] += w;
        }
        bw
    }

    #[test]
    fn boundary_sweeps_equal_the_all_vertex_loop() {
        use geographer_graph::coarsen::{CoarsenScratch, WeightedCsrGraph};
        let mut rng = SplitMix64::new(0x5EE9);
        let mut below = |bound: usize| rng.next_below(bound as u64) as usize;
        let mut scratch = SweepScratch::default();
        let mut coarsen = CoarsenScratch::default();
        for case in 0..200 {
            let n = 2 + below(118);
            let edges: Vec<(u32, u32)> =
                (0..below(5 * n)).map(|_| (below(n) as u32, below(n) as u32)).collect();
            let g = CsrGraph::from_edges(n, &edges);
            let vwgt: Vec<f64> = (0..n).map(|_| (1 + below(3)) as f64).collect();
            let k = 1 + below(6);
            let start: Vec<u32> = (0..n).map(|_| below(k) as u32).collect();
            // Every other case sweeps a contracted level, where edges and
            // vertices carry accumulated weights.
            let (mut coarse, mut map) = (WeightedCsrGraph::default(), Vec::new());
            let (level, start) = if case % 2 == 0 {
                (LevelView::unit(&g, &vwgt), start)
            } else {
                coarsen.coarsen(LevelView::unit(&g, &vwgt), Some(&start), &mut coarse, &mut map);
                let mut coarse_start = vec![0u32; coarse.n()];
                for (&cv, &b) in map.iter().zip(&start) {
                    coarse_start[cv as usize] = b;
                }
                (coarse.view(), coarse_start)
            };
            // Capacities from generous to tighter than the start, so that
            // refusals are common.
            let total: f64 = level.vwgt.iter().sum();
            let slack = [0.5, 0.05, 0.0, -0.1][case % 4];
            let allowed = vec![(1.0 + slack) * total / k as f64 + 1.0; k];
            let max_rounds = below(12);

            let (mut want, mut got) = (start.clone(), start.clone());
            let mut want_w = block_weights(&start, level.vwgt, k);
            let (moves, rounds) =
                sweep_all_vertices(&level, &mut want, k, max_rounds, &allowed, &mut want_w);
            let out = refine_sweeps(&level, &mut got, k, max_rounds, &allowed, &mut scratch);
            assert_eq!(got, want, "case {case}: assignment");
            assert_eq!(scratch.block_w, want_w, "case {case}: block weights, bit for bit");
            assert_eq!((out.moves, out.rounds), (moves, rounds), "case {case}");
            assert_eq!(
                out.gain,
                level.edge_cut(&start) - level.edge_cut(&got),
                "case {case}: gains are the cut removed"
            );
        }
    }

    #[test]
    fn a_refused_move_is_asked_again_once_capacity_frees_up() {
        // Two triangles. Vertex 0 (block 0) would gain 2 in block 1, which
        // is full; vertex 3 (block 1) gains 2 in block 0, which has room.
        // Round 1 refuses 0 and moves 3; nothing next to 0 changes, so
        // only the refusal itself brings 0 back in round 2, where it fits.
        let g = CsrGraph::from_edges(6, &[(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]);
        let vwgt = [1.0; 6];
        let level = LevelView::unit(&g, &vwgt);
        let start = vec![0, 1, 1, 1, 0, 0];
        let allowed = [4.0, 3.0];
        let mut got = start.clone();
        let mut scratch = SweepScratch::default();
        let out = refine_sweeps(&level, &mut got, 2, 10, &allowed, &mut scratch);
        assert_eq!(got, [1, 1, 1, 0, 0, 0]);
        assert_eq!((out.moves, out.rounds, out.gain), (2, 3, 4));
        assert_eq!(scratch.block_w, [3.0, 3.0]);
        let mut want = start.clone();
        let mut want_w = block_weights(&start, &vwgt, 2);
        assert_eq!(sweep_all_vertices(&level, &mut want, 2, 10, &allowed, &mut want_w), (2, 3));
        assert_eq!((want, want_w), (got, scratch.block_w));
    }

    #[test]
    fn optimal_partition_is_untouched() {
        let g = path(10);
        let mut asg: Vec<u32> = (0..10).map(|v| (v / 5) as u32).collect();
        let before = asg.clone();
        let report = refine_partition(&g, &mut asg, &[1.0; 10], 2, &RefineConfig::default());
        assert_eq!(asg, before);
        assert_eq!(report.moves, 0);
        assert_eq!(report.cut_before, report.cut_after);
    }

    #[test]
    fn repairs_a_jagged_boundary() {
        // 2x10 grid with a zig-zag boundary between left and right halves:
        // refinement must straighten it.
        let w = 10usize;
        let mut edges = Vec::new();
        for y in 0..2 {
            for x in 0..w {
                let v = (y * w + x) as u32;
                if x + 1 < w {
                    edges.push((v, v + 1));
                }
                if y == 0 {
                    edges.push((v, v + w as u32));
                }
            }
        }
        let g = CsrGraph::from_edges(2 * w, &edges);
        // Jagged: row 0 splits at 5, row 1 splits at 4 — staircase boundary.
        let mut asg = vec![0u32; 2 * w];
        for x in 0..w {
            asg[x] = u32::from(x >= 5);
            asg[w + x] = u32::from(x >= 4);
        }
        let weights = vec![1.0; 2 * w];
        let before = edge_cut(&g, &asg);
        let report = refine_partition(&g, &mut asg, &weights, 2, &RefineConfig::default());
        assert!(report.cut_after < before, "cut {} -> {}", before, report.cut_after);
        // Balance preserved.
        let left = asg.iter().filter(|&&b| b == 0).count();
        assert!((9..=11).contains(&left), "balance broken: {left}");
    }

    #[test]
    fn cut_never_increases_and_balance_holds() {
        let mesh = geographer_mesh::delaunay_unit_square(1000, 5);
        let k = 6;
        let mut rng = SplitMix64::new(9);
        // Start from a *random* balanced-ish partition: lots to fix.
        let mut asg: Vec<u32> = (0..1000).map(|_| rng.next_below(k as u64) as u32).collect();
        let before = edge_cut(&mesh.graph, &asg);
        let cfg = RefineConfig { max_rounds: 30, epsilon: 0.10, ..RefineConfig::default() };
        let report = refine_partition(&mesh.graph, &mut asg, &mesh.weights, k, &cfg);
        assert!(report.cut_after <= report.cut_before);
        assert_eq!(report.cut_before, before);
        assert!(
            (report.cut_after as f64) < 0.8 * before as f64,
            "random partition should improve a lot: {} -> {}",
            before,
            report.cut_after
        );
        // Balance within the configured slack.
        let mut bw = vec![0.0; k];
        for (&b, &w) in asg.iter().zip(&mesh.weights) {
            bw[b as usize] += w;
        }
        let avg = 1000.0 / k as f64;
        let max = bw.iter().cloned().fold(0.0, f64::max);
        assert!(max <= (1.0 + cfg.epsilon) * avg + 1.0 + 1e-9);
    }

    #[test]
    fn respects_balance_cap_strictly() {
        // Star graph, center in its own block. The center would gain 4 by
        // joining the leaves' block, but that would overload it
        // (Lmax = max(avg, avg + w_max) = 3.5 < 5). Leaves may legally
        // drift to the center's block instead — the cap must hold
        // throughout, and the overloading move must never happen.
        let g = CsrGraph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        let mut asg = vec![0, 1, 1, 1, 1];
        let weights = vec![1.0; 5];
        let cfg = RefineConfig { max_rounds: 5, epsilon: 0.0, ..RefineConfig::default() };
        let report = refine_partition(&g, &mut asg, &weights, 2, &cfg);
        assert!(report.cut_after <= report.cut_before);
        let mut bw = [0.0f64; 2];
        for (&b, &w) in asg.iter().zip(&weights) {
            bw[b as usize] += w;
        }
        assert!(bw[0] <= 3.5 + 1e-12 && bw[1] <= 3.5 + 1e-12, "cap violated: {bw:?}");
    }

    #[test]
    fn preserves_heterogeneous_balance_it_was_handed() {
        // Regression: `allowed` used to come from the uniform average
        // total/k, so a partition built for 2:1:1 capacities could legally
        // be "rebalanced" past its heterogeneous bounds. Partition a mesh
        // with fractions (0.5, 0.25, 0.25), then refine with the same
        // targets: every block must stay within its own bound.
        let mesh = geographer_mesh::delaunay_unit_square(1200, 8);
        let fractions = vec![0.5, 0.25, 0.25];
        let cfg = geographer::Config {
            target_fractions: Some(fractions.clone()),
            sampling_init: false,
            ..geographer::Config::default()
        };
        let mut asg = geographer::partition_spmd(
            &geographer_parcomm::SelfComm,
            &mesh.points,
            &mesh.weights,
            3,
            None,
            &cfg,
        )
        .assignment;
        let rcfg = RefineConfig {
            max_rounds: 20,
            epsilon: cfg.epsilon,
            target_fractions: Some(fractions.clone()),
        };
        let report = refine_partition(&mesh.graph, &mut asg, &mesh.weights, 3, &rcfg);
        assert!(report.cut_after <= report.cut_before);
        let total: f64 = mesh.weights.iter().sum();
        let mut bw = vec![0.0f64; 3];
        for (&b, &w) in asg.iter().zip(&mesh.weights) {
            bw[b as usize] += w;
        }
        for (c, &frac) in fractions.iter().enumerate() {
            let target = total * frac;
            let allowed = ((1.0 + rcfg.epsilon) * target).max(target + 1.0);
            assert!(
                bw[c] <= allowed + 1e-9,
                "block {c}: {} > its heterogeneous bound {allowed}",
                bw[c]
            );
        }
        // The deliberate skew really survives: block 0 stays ~2× block 1.
        assert!(bw[0] > 1.7 * bw[1], "skew erased: {bw:?}");
    }

    #[test]
    #[should_panic(expected = "target_fractions length must equal k")]
    fn wrong_fraction_length_rejected() {
        let g = path(6);
        let mut asg = vec![0u32; 6];
        let cfg =
            RefineConfig { target_fractions: Some(vec![0.5, 0.5]), ..RefineConfig::default() };
        let _ = refine_partition(&g, &mut asg, &[1.0; 6], 3, &cfg);
    }

    #[test]
    fn k1_is_a_noop() {
        let g = path(6);
        let mut asg = vec![0u32; 6];
        let report = refine_partition(&g, &mut asg, &[1.0; 6], 1, &RefineConfig::default());
        assert_eq!(report.moves, 0);
        assert_eq!(report.cut_after, 0);
    }
}
