//! Multilevel refinement V-cycle: coarsen → refine → project → re-refine.
//!
//! The flat pass of [`crate::refine_partition`] only reaches minima that
//! single-vertex moves can reach: on a large mesh one boundary sweep
//! recovers a sliver of the recoverable cut. The standard fix (Hendrickson
//! & Leland; Walshaw's multilevel refinement) is to coarsen the graph by
//! heavy-edge matching, refine where the graph is small — one coarse move
//! relocates a whole cluster of fine vertices — and project the improved
//! assignment back down, re-refining at every level.
//!
//! Contract (DESIGN.md §7):
//!
//! * **Matching is block-respecting.** Each level's matching only pairs
//!   vertices of the same (current) block, so the fine assignment projects
//!   onto every coarse level without information loss and the coarse
//!   weighted cut *equals* the fine cut — every coarse gain is a real fine
//!   gain, no approximation.
//! * **Balance floor is the fine level's.** Every level enforces
//!   `max((1+ε)·target, target + w_max)` with the **fine** graph's `w_max`
//!   and the caller's `target_fractions`. Coarse vertex weights are
//!   accumulated fine weights, and projection preserves per-block weights
//!   exactly, so an input satisfying the floor stays within it at every
//!   level of the cycle — using each level's own (larger) `w_max` would
//!   let a coarse move legally overshoot the bound the caller asked for.
//! * **Deterministic.** Matching and sweeps are pure functions of the
//!   input in fixed vertex order; the parallel contraction is
//!   order-preserving. Results are independent of thread count.

use geographer_graph::coarsen::{contract, heavy_edge_matching, WeightedCsrGraph};
use geographer_graph::CsrGraph;

use crate::{block_capacities, refine_sweeps, RefineConfig, RefineReport, SweepGraph};

/// Parameters of the multilevel V-cycle.
#[derive(Debug, Clone)]
pub struct MultilevelConfig {
    /// Stop coarsening when a level has at most this many vertices (the
    /// coarsest graph is refined first).
    pub coarsest_vertices: usize,
    /// Hard cap on the number of hierarchy levels (safety bound; the
    /// shrink-factor guard normally stops far earlier).
    pub max_levels: usize,
    /// The per-level sweep parameters: ε, sweep budget, and per-block
    /// `target_fractions` — the same knobs as the flat pass, applied at
    /// every level against the fine-level floor.
    pub refine: RefineConfig,
}

impl Default for MultilevelConfig {
    fn default() -> Self {
        MultilevelConfig {
            coarsest_vertices: 2_000,
            max_levels: 32,
            refine: RefineConfig::default(),
        }
    }
}

/// What happened at one level of the V-cycle, in refinement order
/// (coarsest first, finest last). Cuts are weighted cuts of that level's
/// graph — by the projection invariant these are exact fine-graph cuts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LevelReport {
    /// Vertices of this level's graph.
    pub vertices: usize,
    /// Undirected edges of this level's graph.
    pub edges: usize,
    /// (Fine-graph) cut when refinement of this level started.
    pub cut_before: u64,
    /// (Fine-graph) cut when refinement of this level finished.
    pub cut_after: u64,
    /// Accepted moves at this level.
    pub moves: usize,
    /// Sweeps executed at this level.
    pub rounds: usize,
}

/// Outcome of a [`refine_multilevel`] run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultilevelReport {
    /// Edge cut before the V-cycle.
    pub cut_before: u64,
    /// Edge cut after the V-cycle.
    pub cut_after: u64,
    /// Total accepted moves across all levels (a coarse move counts once,
    /// however many fine vertices it relocates).
    pub moves: usize,
    /// Per-level reports, coarsest first.
    pub levels: Vec<LevelReport>,
}

impl MultilevelReport {
    /// Collapse into the flat [`RefineReport`] shape (rounds summed over
    /// levels) — what a plan's `refine` field carries for either mode.
    pub fn summary(&self) -> RefineReport {
        RefineReport {
            cut_before: self.cut_before,
            cut_after: self.cut_after,
            moves: self.moves,
            rounds: self.levels.iter().map(|l| l.rounds).sum(),
        }
    }
}

/// Refine `assignment` in place with a multilevel V-cycle: build a
/// coarsening hierarchy by block-respecting heavy-edge matching down to
/// [`MultilevelConfig::coarsest_vertices`], refine the coarsest level,
/// then project the assignment up and re-refine at each level with
/// edge-weighted gains. The cut never increases, and balance stays within
/// the fine-level feasibility floor at every level (see module docs).
pub fn refine_multilevel(
    g: &CsrGraph,
    assignment: &mut [u32],
    weights: &[f64],
    k: usize,
    cfg: &MultilevelConfig,
) -> MultilevelReport {
    assert_eq!(assignment.len(), g.n());
    assert_eq!(weights.len(), g.n());
    assert!(k >= 1);

    let fine = WeightedCsrGraph::from_csr(g, weights.to_vec());
    let cut_before = fine.edge_cut(assignment);

    // Fine-level balance floor, shared by every level.
    let total: f64 = weights.iter().sum();
    let w_max = weights.iter().copied().fold(0.0, f64::max);
    let allowed =
        block_capacities(total, w_max, k, cfg.refine.epsilon, &cfg.refine.target_fractions);

    // --- Coarsening phase: graphs[0] is the fine graph; maps[l] projects
    // level l onto level l+1 (fine → coarse vertex ids); `labels` is the
    // current (deepest) level's initial assignment, well-defined because
    // the matching is block-respecting — only the deepest one is ever
    // needed (as matching labels, then as the coarsest starting point).
    let mut graphs: Vec<WeightedCsrGraph> = vec![fine];
    let mut maps: Vec<Vec<u32>> = Vec::new();
    let mut labels: Vec<u32> = assignment.to_vec();
    while graphs.last().unwrap().n() > cfg.coarsest_vertices
        && graphs.len() < cfg.max_levels
    {
        let gl = graphs.last().unwrap();
        let mate = heavy_edge_matching(gl, Some(&labels));
        let c = contract(gl, &mate);
        // Diminishing returns: stop when matching barely shrinks the graph
        // (dense same-block neighbourhoods exhausted).
        if c.coarse.n() as f64 > 0.95 * gl.n() as f64 {
            break;
        }
        let mut coarse_asg = vec![0u32; c.coarse.n()];
        for (v, &cv) in c.coarse_of_fine.iter().enumerate() {
            coarse_asg[cv as usize] = labels[v];
        }
        graphs.push(c.coarse);
        maps.push(c.coarse_of_fine);
        labels = coarse_asg;
    }

    // --- Refinement phase: coarsest level first, projecting down.
    let coarsest = graphs.len() - 1;
    let mut cur = labels;
    let mut levels = Vec::with_capacity(graphs.len());
    let mut moves_total = 0usize;
    for l in (0..graphs.len()).rev() {
        if l < coarsest {
            // Project the refined level-(l+1) assignment onto level l.
            cur = maps[l].iter().map(|&cv| cur[cv as usize]).collect();
        }
        let gl = &graphs[l];
        let cut_at_entry = gl.edge_cut(&cur);
        let mut block_w = vec![0.0f64; k];
        for (&b, &w) in cur.iter().zip(&gl.vwgt) {
            block_w[b as usize] += w;
        }
        let (moves, rounds) = refine_sweeps(
            &SweepGraph { xadj: &gl.xadj, adj: &gl.adj, ewgt: Some(&gl.ewgt) },
            &mut cur,
            &gl.vwgt,
            k,
            cfg.refine.max_rounds,
            &allowed,
            &mut block_w,
        );
        moves_total += moves;
        levels.push(LevelReport {
            vertices: gl.n(),
            edges: gl.m(),
            cut_before: cut_at_entry,
            cut_after: gl.edge_cut(&cur),
            moves,
            rounds,
        });
    }

    assignment.copy_from_slice(&cur);
    MultilevelReport {
        cut_before,
        cut_after: levels.last().map_or(cut_before, |l| l.cut_after),
        moves: moves_total,
        levels,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{edge_cut, refine_partition};
    use geographer_graph::imbalance_with_targets;

    #[test]
    fn noop_on_an_optimal_partition() {
        let edges: Vec<(u32, u32)> = (0..9u32).map(|i| (i, i + 1)).collect();
        let g = CsrGraph::from_edges(10, &edges);
        let mut asg: Vec<u32> = (0..10).map(|v| (v / 5) as u32).collect();
        let before = asg.clone();
        let r = refine_multilevel(&g, &mut asg, &[1.0; 10], 2, &MultilevelConfig::default());
        assert_eq!(asg, before);
        assert_eq!(r.moves, 0);
        assert_eq!(r.cut_before, r.cut_after);
    }

    #[test]
    fn hierarchy_is_built_and_projection_preserves_cut_accounting() {
        let mesh = geographer_mesh::delaunay_unit_square(3_000, 11);
        let k = 8;
        // Deliberately bad initial partition: stripes by vertex id.
        let mut asg: Vec<u32> = (0..3_000).map(|v| (v % k) as u32).collect();
        let before = edge_cut(&mesh.graph, &asg);
        let cfg = MultilevelConfig {
            coarsest_vertices: 300,
            ..MultilevelConfig::default()
        };
        let r = refine_multilevel(&mesh.graph, &mut asg, &mesh.weights, k as usize, &cfg);
        assert_eq!(r.cut_before, before);
        assert!(r.levels.len() >= 2, "must actually coarsen: {:?}", r.levels.len());
        // Coarsest first, strictly shrinking vertex counts up the ladder.
        for w in r.levels.windows(2) {
            assert!(w[0].vertices < w[1].vertices);
        }
        // Level reports chain: each level starts from the previous level's
        // result (projection preserves the cut exactly).
        for w in r.levels.windows(2) {
            assert_eq!(w[0].cut_after, w[1].cut_before, "projection must preserve the cut");
        }
        assert_eq!(r.levels.last().unwrap().vertices, 3_000);
        assert_eq!(r.cut_after, edge_cut(&mesh.graph, &asg));
        assert!(r.cut_after <= r.cut_before);
    }

    #[test]
    fn beats_single_level_on_a_bad_partition() {
        let mesh = geographer_mesh::delaunay_unit_square(4_000, 3);
        let k = 6usize;
        let bad: Vec<u32> = (0..4_000).map(|v| (v % k) as u32).collect();

        let mut single = bad.clone();
        let sr = refine_partition(
            &mesh.graph,
            &mut single,
            &mesh.weights,
            k,
            &RefineConfig::default(),
        );
        let mut multi = bad.clone();
        let mr = refine_multilevel(
            &mesh.graph,
            &mut multi,
            &mesh.weights,
            k,
            &MultilevelConfig { coarsest_vertices: 500, ..MultilevelConfig::default() },
        );
        assert_eq!(sr.cut_before, mr.cut_before);
        assert!(
            mr.cut_after < sr.cut_after,
            "multilevel {} must beat single-level {}",
            mr.cut_after,
            sr.cut_after
        );
    }

    #[test]
    fn balance_floor_holds_through_the_cycle() {
        let mesh = geographer_mesh::delaunay_unit_square(2_500, 7);
        let k = 5usize;
        let mut asg: Vec<u32> = (0..2_500).map(|v| (v * k / 2_500) as u32).collect();
        let eps = 0.05;
        let cfg = MultilevelConfig {
            coarsest_vertices: 250,
            refine: RefineConfig { epsilon: eps, ..RefineConfig::default() },
            ..MultilevelConfig::default()
        };
        let r = refine_multilevel(&mesh.graph, &mut asg, &mesh.weights, k, &cfg);
        assert!(r.cut_after <= r.cut_before);
        let total: f64 = mesh.weights.iter().sum();
        let mut bw = vec![0.0f64; k];
        for (&b, &w) in asg.iter().zip(&mesh.weights) {
            bw[b as usize] += w;
        }
        let floor = ((1.0 + eps) * total / k as f64).max(total / k as f64 + 1.0);
        for (b, &w) in bw.iter().enumerate() {
            assert!(w <= floor + 1e-9, "block {b}: {w} > floor {floor}");
        }
    }

    #[test]
    fn heterogeneous_targets_respected_at_every_level() {
        // A 2:1:1 partition refined multilevel with matching targets must
        // stay 2:1:1 (target-aware imbalance within the floor), not drift
        // toward uniform.
        let mesh = geographer_mesh::delaunay_unit_square(3_000, 9);
        let k = 3usize;
        let fractions = vec![0.5, 0.25, 0.25];
        // Build an assignment hitting the targets: first half block 0, then
        // quarter each — spatially by x-coordinate order for a mostly-local
        // start.
        let mut order: Vec<u32> = (0..3_000).collect();
        order.sort_by(|&a, &b| {
            mesh.points[a as usize][0].total_cmp(&mesh.points[b as usize][0])
        });
        let mut asg = vec![0u32; 3_000];
        for (rank, &v) in order.iter().enumerate() {
            asg[v as usize] = if rank < 1_500 {
                0
            } else if rank < 2_250 {
                1
            } else {
                2
            };
        }
        let eps = 0.03;
        let cfg = MultilevelConfig {
            coarsest_vertices: 300,
            refine: RefineConfig {
                epsilon: eps,
                target_fractions: Some(fractions.clone()),
                ..RefineConfig::default()
            },
            ..MultilevelConfig::default()
        };
        let r = refine_multilevel(&mesh.graph, &mut asg, &mesh.weights, k, &cfg);
        assert!(r.cut_after <= r.cut_before);
        let ti = imbalance_with_targets(&asg, &mesh.weights, k, Some(&fractions));
        // Floor in imbalance terms: max(ε, w_max/target) over blocks.
        let w_max = 1.0;
        let total: f64 = mesh.weights.iter().sum();
        let floor_imb = fractions
            .iter()
            .map(|f| eps.max(w_max / (total * f)))
            .fold(0.0f64, f64::max);
        assert!(ti <= floor_imb + 1e-9, "target imbalance {ti} > floor {floor_imb}");
        // The skew survives.
        let mut bw = vec![0.0f64; k];
        for (&b, &w) in asg.iter().zip(&mesh.weights) {
            bw[b as usize] += w;
        }
        assert!(bw[0] > 1.8 * bw[1], "2:1 skew erased: {bw:?}");
    }

    #[test]
    fn k1_and_tiny_graphs_are_noops() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let mut asg = vec![0u32; 4];
        let r = refine_multilevel(&g, &mut asg, &[1.0; 4], 1, &MultilevelConfig::default());
        assert_eq!(r.cut_after, 0);
        assert_eq!(r.moves, 0);
        // Already below coarsest_vertices: degenerates to one flat level.
        assert_eq!(r.levels.len(), 1);
    }
}
