//! Multilevel refinement V-cycle: coarsen → refine → project → re-refine.
//!
//! One level of the cycle (`max_levels: 1`, [`crate::refine_partition`])
//! is a flat boundary sweep, which only reaches minima that single-vertex
//! moves can reach: on a large mesh it recovers a sliver of the
//! recoverable cut. The standard fix (Hendrickson
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

use geographer_graph::coarsen::{CoarsenScratch, LevelView, WeightedCsrGraph};
use geographer_graph::CsrGraph;

use crate::{block_capacities, refine_sweeps, RefineConfig, RefineReport, SweepScratch};

/// Parameters of the multilevel V-cycle.
#[derive(Debug, Clone)]
pub struct MultilevelConfig {
    /// Stop coarsening when a level has at most this many vertices (the
    /// coarsest graph is refined first).
    pub coarsest_vertices: usize,
    /// Hard cap on the number of hierarchy levels (safety bound; the
    /// shrink-factor guard normally stops far earlier). `1` builds no
    /// coarse level: the cycle is one flat boundary sweep.
    pub max_levels: usize,
    /// The per-level sweep parameters: ε, sweep budget, and per-block
    /// `target_fractions`, applied at every level against the fine-level
    /// floor.
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
    /// levels) — what a plan's `refine` field carries.
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
///
/// One-shot form of [`RefineScratch::refine_multilevel`]: the scratch
/// lives for this call.
pub fn refine_multilevel(
    g: &CsrGraph,
    assignment: &mut [u32],
    weights: &[f64],
    k: usize,
    cfg: &MultilevelConfig,
) -> MultilevelReport {
    RefineScratch::default().refine_multilevel(g, assignment, weights, k, cfg)
}

/// Everything a V-cycle allocates: the coarse level graphs and projection
/// maps, the label buffers, the contraction marker and the sweep arrays.
/// A caller that runs many V-cycles (the planner's hierarchical
/// refinement: one per parent per level per sweep) owns one of these and
/// every cycle reuses the allocations of the largest one so far —
/// results do not depend on what a previous cycle left behind (DESIGN.md
/// §7 "Scratch ownership").
#[derive(Debug, Default)]
pub struct RefineScratch {
    coarsen: CoarsenScratch,
    /// `graphs[l]` is coarse level `l + 1`; `maps[l]` projects level `l`
    /// onto level `l + 1`. Both may be longer than the current cycle's
    /// hierarchy.
    graphs: Vec<WeightedCsrGraph>,
    maps: Vec<Vec<u32>>,
    /// Assignment of the level being worked on, and the buffer the next
    /// level's is written into.
    labels: Vec<u32>,
    next_labels: Vec<u32>,
    sweep: SweepScratch,
}

impl RefineScratch {
    /// The free function [`refine_multilevel`] in this scratch's buffers.
    pub fn refine_multilevel(
        &mut self,
        g: &CsrGraph,
        assignment: &mut [u32],
        weights: &[f64],
        k: usize,
        cfg: &MultilevelConfig,
    ) -> MultilevelReport {
        assert_eq!(assignment.len(), g.n());
        assert!(k >= 1);
        // The fine level is the caller's graph, viewed with unit edge
        // weights; coarse level `l ≥ 1` is `graphs[l - 1]`.
        let fine = LevelView::unit(g, weights);
        let cut_before = fine.edge_cut(assignment);

        // Fine-level balance floor, shared by every level.
        let total: f64 = weights.iter().sum();
        let w_max = weights.iter().copied().fold(0.0, f64::max);
        let allowed =
            block_capacities(total, w_max, k, cfg.refine.epsilon, &cfg.refine.target_fractions);

        // --- Coarsening phase. `labels` is the deepest level's initial
        // assignment, well-defined because the matching is
        // block-respecting — only the deepest one is ever needed (as
        // matching labels, then as the coarsest starting point).
        let mut depth = 0; // coarse levels of this cycle
        while depth + 1 < cfg.max_levels {
            if self.graphs.len() == depth {
                self.graphs.push(WeightedCsrGraph::default());
                self.maps.push(Vec::new());
            }
            let (built, coarse) = self.graphs.split_at_mut(depth);
            let (coarse, map) = (&mut coarse[0], &mut self.maps[depth]);
            let (level, labels) = match built.last() {
                None => (fine, &*assignment),
                Some(deepest) => (deepest.view(), &self.labels[..]),
            };
            if level.n() <= cfg.coarsest_vertices {
                break;
            }
            self.coarsen.coarsen(level, Some(labels), coarse, map);
            // Diminishing returns: stop when matching barely shrinks the
            // graph (dense same-block neighbourhoods exhausted).
            if coarse.n() as f64 > 0.95 * level.n() as f64 {
                break;
            }
            self.next_labels.clear();
            self.next_labels.resize(coarse.n(), 0);
            for (&cv, &b) in map.iter().zip(labels) {
                self.next_labels[cv as usize] = b;
            }
            std::mem::swap(&mut self.labels, &mut self.next_labels);
            depth += 1;
        }

        // --- Refinement phase: coarsest level first, projecting down. The
        // cut is carried, not recounted: projection preserves it and a
        // move's gain is its change of the cut.
        let mut levels = Vec::with_capacity(depth + 1);
        let mut cut = cut_before;
        for l in (0..=depth).rev() {
            let level = if l == 0 { fine } else { self.graphs[l - 1].view() };
            // Project the refined level-(l+1) assignment onto level l.
            let cur: &mut [u32] = if l == 0 {
                if depth > 0 {
                    for (a, &cv) in assignment.iter_mut().zip(&self.maps[0]) {
                        *a = self.labels[cv as usize];
                    }
                }
                &mut *assignment
            } else {
                if l < depth {
                    self.next_labels.clear();
                    self.next_labels.extend(self.maps[l].iter().map(|&cv| self.labels[cv as usize]));
                    std::mem::swap(&mut self.labels, &mut self.next_labels);
                }
                &mut self.labels
            };
            debug_assert_eq!(cut, level.edge_cut(cur), "projection preserves the cut");
            let swept =
                refine_sweeps(&level, cur, k, cfg.refine.max_rounds, &allowed, &mut self.sweep);
            levels.push(LevelReport {
                vertices: level.n(),
                edges: level.m(),
                cut_before: cut,
                cut_after: cut - swept.gain,
                moves: swept.moves,
                rounds: swept.rounds,
            });
            cut -= swept.gain;
            debug_assert_eq!(cut, level.edge_cut(cur), "gains account for the cut");
        }

        MultilevelReport {
            cut_before,
            cut_after: cut,
            moves: levels.iter().map(|l| l.moves).sum(),
            levels,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::refine_partition;
    use geographer_graph::edge_cut;
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
    fn row_order_changes_no_result() {
        // Scramble every adjacency row of the fine graph: the matching
        // scans, the contraction gathers and the sweeps count in another
        // order at every level (coarse rows are never sorted, so they
        // inherit it), and nothing observable moves.
        let mut rng = geographer_geometry::SplitMix64::new(0x0DE2);
        for (n, k, seed) in [(1_500, 5, 31), (4_000, 8, 32)] {
            let mesh = geographer_mesh::families::bubbles_like(n, seed);
            let mut scrambled = mesh.graph.clone();
            for v in 0..n {
                rng.shuffle(&mut scrambled.adj[mesh.graph.xadj[v]..mesh.graph.xadj[v + 1]]);
            }
            assert_ne!(scrambled, mesh.graph);
            // Vertical stripes: a start with a real boundary to refine.
            let start: Vec<u32> =
                mesh.points.iter().map(|p| ((p[0] * k as f64) as u32).min(k as u32 - 1)).collect();
            let cfg = MultilevelConfig { coarsest_vertices: 100, ..MultilevelConfig::default() };
            let (mut a, mut b) = (start.clone(), start);
            let ra = refine_multilevel(&mesh.graph, &mut a, &mesh.weights, k, &cfg);
            let rb = refine_multilevel(&scrambled, &mut b, &mesh.weights, k, &cfg);
            assert!(ra.levels.len() >= 4 && ra.moves > 0, "{ra:?}");
            assert_eq!(a, b, "n={n}");
            assert_eq!(ra, rb, "n={n}");
        }
    }

    #[test]
    fn a_reused_scratch_changes_nothing() {
        // One scratch across V-cycles on graphs that grow and shrink, with
        // different depths and block counts: every assignment and report
        // equals the one-shot call's, which starts from empty buffers.
        let mut scratch = RefineScratch::default();
        for (n, k, coarsest, seed) in
            [(900, 4, 100, 1), (3_000, 7, 150, 2), (400, 3, 2_000, 3), (2_000, 5, 60, 4), (900, 4, 100, 1)]
        {
            let mesh = geographer_mesh::delaunay_unit_square(n, seed);
            let start: Vec<u32> = (0..n).map(|v| ((v * 7 + v / 13) % k) as u32).collect();
            let cfg = MultilevelConfig { coarsest_vertices: coarsest, ..MultilevelConfig::default() };
            let (mut fresh, mut reused) = (start.clone(), start);
            let want = refine_multilevel(&mesh.graph, &mut fresh, &mesh.weights, k, &cfg);
            let got = scratch.refine_multilevel(&mesh.graph, &mut reused, &mesh.weights, k, &cfg);
            assert_eq!(reused, fresh, "n={n}");
            assert_eq!(got, want, "n={n}");
            assert_eq!(got.cut_after, edge_cut(&mesh.graph, &reused));
        }
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
