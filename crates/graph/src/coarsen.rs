//! Multilevel coarsening: weighted CSR graphs, deterministic heavy-edge
//! matching, and contraction (see DESIGN.md §7).
//!
//! The multilevel V-cycle of `geographer_refine` rests on one invariant:
//! for any assignment of the *coarse* vertices, the weighted edge cut of
//! the coarse graph equals the (weighted) edge cut of its projection onto
//! the fine graph. The contraction of [`CoarsenScratch::coarsen`]
//! guarantees it structurally — a coarse edge carries the summed weight of
//! every fine edge between the two merged vertex sets, and edges internal
//! to a merged pair disappear (their endpoints can never be separated by a
//! coarse assignment). Vertex weights accumulate the same way, so
//! per-block weights (and therefore balance) are preserved exactly under
//! projection.

use crate::csr::CsrGraph;
use crate::cut::edge_cut_core;

/// An undirected CSR graph with vertex and edge weights — the level type
/// of the coarsening hierarchy below the fine level. The fine level of a
/// mesh graph is *viewed* with unit edge weights ([`LevelView::unit`]);
/// contraction accumulates them (a coarse edge's weight is the number of
/// fine mesh edges it stands for), which is what makes coarse-level
/// refinement gains equal to fine-level cut improvements.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightedCsrGraph {
    /// Offsets into `adj`/`ewgt`; `xadj.len() == n + 1`.
    pub xadj: Vec<usize>,
    /// Concatenated adjacency lists (both arcs of each edge stored).
    pub adj: Vec<u32>,
    /// Edge weights, parallel to `adj` (both arcs carry the same weight).
    pub ewgt: Vec<u64>,
    /// Vertex weights (the balance weights of the partitioning problem).
    pub vwgt: Vec<f64>,
}

/// The empty graph (`xadj == [0]`), the state of a level buffer before its
/// first contraction.
impl Default for WeightedCsrGraph {
    fn default() -> Self {
        WeightedCsrGraph { xadj: vec![0], adj: Vec::new(), ewgt: Vec::new(), vwgt: Vec::new() }
    }
}

impl WeightedCsrGraph {
    /// The borrowed form every kernel reads.
    pub fn view(&self) -> LevelView<'_> {
        LevelView { xadj: &self.xadj, adj: &self.adj, ewgt: Some(&self.ewgt), vwgt: &self.vwgt }
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.xadj.len() - 1
    }

    /// Number of undirected edges.
    pub fn m(&self) -> usize {
        self.adj.len() / 2
    }

    /// Neighbours of `v`, in the order the contraction met them (not
    /// sorted; see [`CoarsenScratch::coarsen`]).
    pub fn neighbors(&self, v: u32) -> &[u32] {
        &self.adj[self.xadj[v as usize]..self.xadj[v as usize + 1]]
    }

    /// Edge weights parallel to [`Self::neighbors`].
    pub fn edge_weights(&self, v: u32) -> &[u64] {
        &self.ewgt[self.xadj[v as usize]..self.xadj[v as usize + 1]]
    }

    /// Total vertex weight (summed in vertex order — deterministic).
    pub fn total_vertex_weight(&self) -> f64 {
        self.vwgt.iter().sum()
    }
}

/// Borrowed form of one level of the coarsening hierarchy: what the
/// matching, the contraction and the refinement sweeps read. `ewgt = None`
/// is the unit-weight fast path, so the fine level of a mesh graph is
/// *viewed* ([`LevelView::unit`]) rather than lifted into an owned
/// [`WeightedCsrGraph`] with an all-ones weight array.
#[derive(Debug, Clone, Copy)]
pub struct LevelView<'a> {
    /// Offsets into `adj`/`ewgt`; `xadj.len() == n + 1`.
    pub xadj: &'a [usize],
    /// Concatenated adjacency lists.
    pub adj: &'a [u32],
    /// Edge weights parallel to `adj`; `None` = every edge weighs 1.
    pub ewgt: Option<&'a [u64]>,
    /// Vertex weights.
    pub vwgt: &'a [f64],
}

impl<'a> LevelView<'a> {
    /// View an unweighted graph as a level with unit edge weights.
    ///
    /// # Panics
    /// If `vwgt.len() != g.n()`.
    pub fn unit(g: &'a CsrGraph, vwgt: &'a [f64]) -> Self {
        assert_eq!(vwgt.len(), g.n(), "one vertex weight per vertex");
        LevelView { xadj: &g.xadj, adj: &g.adj, ewgt: None, vwgt }
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.xadj.len() - 1
    }

    /// Number of undirected edges.
    pub fn m(&self) -> usize {
        self.adj.len() / 2
    }

    /// Weighted edge cut of `assignment`: the summed weight of edges whose
    /// endpoints lie in different blocks, each edge counted once (see
    /// [`edge_cut_core`]). On a [`LevelView::unit`] view this is the
    /// unweighted [`crate::edge_cut`] of the underlying graph.
    pub fn edge_cut(&self, assignment: &[u32]) -> u64 {
        assert_eq!(assignment.len(), self.n());
        edge_cut_core(self.xadj, self.adj, self.ewgt, assignment)
    }
}

/// Deterministic greedy heavy-edge matching of `g`, into a reused `mate`.
///
/// Vertices are visited in ascending id order; an unmatched vertex is
/// matched to its unmatched neighbour with the heaviest connecting edge
/// (ties: lighter vertex weight first, then smaller id — merging light
/// vertices keeps coarse vertex weights even). The result is a valid
/// matching: `mate` is an involution (`mate[mate[v]] == v`), `mate[v] == v`
/// marks an unmatched vertex, and matched pairs are always graph edges.
///
/// `labels`, when given, restricts the matching to endpoints with equal
/// labels. The multilevel refinement passes the current block assignment
/// here, so every coarse vertex lies entirely inside one block and the
/// fine assignment projects onto the coarse graph without information
/// loss (the coarse cut *equals* the fine cut, not just bounds it).
///
/// Entirely sequential and a pure function of the graph + labels, so the
/// result is independent of thread count by construction.
fn match_into(g: LevelView<'_>, labels: Option<&[u32]>, mate: &mut Vec<u32>) {
    let n = g.n();
    if let Some(l) = labels {
        assert_eq!(l.len(), n, "one label per vertex");
    }
    mate.clear();
    mate.extend(0..n as u32);
    // geo-analyze: hot-loop
    for v in 0..n {
        if mate[v] != v as u32 {
            continue; // already matched
        }
        // (edge weight desc, vertex weight asc, id asc) — encoded as a
        // max-search on (ewgt, Reverse(vwgt), Reverse(id)).
        let mut best: Option<(u64, f64, u32)> = None;
        for i in g.xadj[v]..g.xadj[v + 1] {
            let u = g.adj[i];
            if u as usize == v || mate[u as usize] != u {
                continue;
            }
            if labels.is_some_and(|l| l[u as usize] != l[v]) {
                continue;
            }
            let w = g.ewgt.map_or(1, |w| w[i]);
            let vw = g.vwgt[u as usize];
            let better = match best {
                None => true,
                Some((bw, bvw, bu)) => {
                    w > bw || (w == bw && (vw < bvw || (vw == bvw && u < bu)))
                }
            };
            if better {
                best = Some((w, vw, u));
            }
        }
        if let Some((_, _, u)) = best {
            mate[v] = u;
            mate[u as usize] = v as u32;
        }
    }
}

/// Contract `g` along a matching `mate` (as `match_into` builds it), into
/// reused outputs: each matched pair becomes one coarse vertex, unmatched
/// vertices carry over, and `coarse_of_fine[v]` is the coarse vertex fine
/// vertex `v` merged into. Coarse ids are assigned in ascending order of
/// the pair's smaller fine id. Vertex weights accumulate exactly (two
/// summands, fixed order); parallel coarse edges collapse into one edge
/// carrying the summed weight; edges inside a matched pair vanish. Every
/// coarse row is left in the order its arcs were first met (the pair's
/// smaller endpoint first, each endpoint's arcs in fine order), not
/// sorted.
///
/// `slot[cu]` names the last row that gained an arc to coarse vertex `cu`
/// and where that arc sits: `(row << 32) | position`. An arc whose target
/// carries the current row's stamp is a parallel edge and adds its weight
/// in place; any other stamp is stale, so nothing is reset between rows.
/// Both constituents' arcs are thus gathered and merged in one pass,
/// straight into `coarse` — no per-row vector, no concatenation.
///
/// No kernel of the V-cycle depends on the order of a row: edge weights
/// are integers, so cut, gain and merge sums are order-free; the matching
/// picks by a strict total order on (weight, vertex weight, id); the
/// sweeps pick the best block by (weight, id). Sorting every row of every
/// level would cost a fifth of the contraction and change no result
/// (`row_order_changes_no_result` in `geographer_refine` pins it).
///
/// # Panics
/// If `mate` is not an involution on `0..g.n()`.
fn contract_into(
    g: LevelView<'_>,
    mate: &[u32],
    slot: &mut Vec<u64>,
    coarse: &mut WeightedCsrGraph,
    coarse_of_fine: &mut Vec<u32>,
) {
    let n = g.n();
    assert_eq!(mate.len(), n);
    assert!(g.adj.len() < u32::MAX as usize, "arc positions are stamped as u32");
    // Coarse numbering: representative = smaller endpoint of the pair.
    coarse_of_fine.clear();
    coarse_of_fine.resize(n, u32::MAX);
    let mut nc = 0u32;
    for v in 0..n {
        let m = mate[v] as usize;
        assert!(m < n && mate[m] as usize == v, "mate must be an involution");
        if v <= m {
            coarse_of_fine[v] = nc;
            coarse_of_fine[m] = nc;
            nc += 1;
        }
    }
    let cof = &coarse_of_fine[..];
    // No row is numbered u32::MAX, so this stamp is stale for all of them.
    slot.clear();
    slot.resize(nc as usize, u64::MAX);

    let WeightedCsrGraph { xadj, adj, ewgt, vwgt } = coarse;
    xadj.clear();
    xadj.push(0);
    adj.clear();
    ewgt.clear();
    vwgt.clear();
    adj.reserve(g.adj.len());
    ewgt.reserve(g.adj.len());
    // geo-analyze: hot-loop
    for a in 0..n {
        let b = mate[a] as usize;
        if b < a {
            continue; // the pair was built at its smaller endpoint
        }
        let c = cof[a];
        for v in [a, b].into_iter().take(if a == b { 1 } else { 2 }) {
            for i in g.xadj[v]..g.xadj[v + 1] {
                let cu = cof[g.adj[i] as usize];
                if cu == c {
                    continue; // inside the pair: vanishes
                }
                let w = g.ewgt.map_or(1, |w| w[i]);
                let stamp = slot[cu as usize];
                if (stamp >> 32) as u32 == c {
                    ewgt[stamp as u32 as usize] += w;
                } else {
                    slot[cu as usize] = (u64::from(c) << 32) | adj.len() as u64;
                    adj.push(cu);
                    ewgt.push(w);
                }
            }
        }
        xadj.push(adj.len());
        vwgt.push(if a == b { g.vwgt[a] } else { g.vwgt[a] + g.vwgt[b] });
    }
}

/// The buffers one coarsening step works in, owned by the caller across
/// steps, V-cycles and graphs of any size (DESIGN.md §7 "Scratch
/// ownership").
#[derive(Debug, Default)]
pub struct CoarsenScratch {
    mate: Vec<u32>,
    slot: Vec<u64>,
}

impl CoarsenScratch {
    /// One coarsening step, the only one in the workspace: deterministic
    /// heavy-edge matching of `g` within `labels` (equal-label endpoints
    /// only), then contraction along it into `coarse` and
    /// `coarse_of_fine`, whose allocations are reused. `coarse_of_fine[v]`
    /// is the coarse vertex fine vertex `v` merged into; it covers `v`
    /// alone or `v` and one neighbour with its label. The rows of `coarse`
    /// are **unsorted**: no consumer of a level needs them sorted, and no
    /// kernel can see their order (integer weights, strict total orders).
    pub fn coarsen(
        &mut self,
        g: LevelView<'_>,
        labels: Option<&[u32]>,
        coarse: &mut WeightedCsrGraph,
        coarse_of_fine: &mut Vec<u32>,
    ) {
        match_into(g, labels, &mut self.mate);
        contract_into(g, &self.mate, &mut self.slot, coarse, coarse_of_fine);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geographer_geometry::SplitMix64;

    fn grid_2x4() -> CsrGraph {
        CsrGraph::from_edges(
            8,
            &[
                (0, 1), (1, 2), (2, 3),
                (4, 5), (5, 6), (6, 7),
                (0, 4), (1, 5), (2, 6), (3, 7),
            ],
        )
    }

    /// `g` as an owned weighted graph with unit edge weights.
    fn lift(g: &CsrGraph, vwgt: Vec<f64>) -> WeightedCsrGraph {
        WeightedCsrGraph { xadj: g.xadj.clone(), adj: g.adj.clone(), ewgt: vec![1; g.adj.len()], vwgt }
    }

    fn matching(g: LevelView<'_>, labels: Option<&[u32]>) -> Vec<u32> {
        let mut mate = Vec::new();
        match_into(g, labels, &mut mate);
        mate
    }

    #[test]
    fn a_unit_view_cuts_like_the_unweighted_graph_and_its_lift() {
        let g = grid_2x4();
        let vwgt = vec![1.0; 8];
        let (view, lifted) = (LevelView::unit(&g, &vwgt), lift(&g, vwgt.clone()));
        assert_eq!((view.n(), view.m()), (8, 10));
        let asg = [0, 0, 1, 1, 0, 0, 1, 1];
        assert_eq!(view.edge_cut(&asg), 2);
        assert_eq!(view.edge_cut(&asg), crate::edge_cut(&g, &asg));
        assert_eq!(lifted.view().edge_cut(&asg), 2);
    }

    #[test]
    fn matching_is_valid_and_deterministic() {
        let g = grid_2x4();
        let vwgt = vec![1.0; 8];
        let mate = matching(LevelView::unit(&g, &vwgt), None);
        // Involution over existing edges.
        for v in 0..8u32 {
            let m = mate[v as usize];
            assert_eq!(mate[m as usize], v);
            if m != v {
                assert!(g.neighbors(v).contains(&m), "{v}-{m} is not an edge");
            }
        }
        // Same input, same matching.
        assert_eq!(mate, matching(LevelView::unit(&g, &vwgt), None));
    }

    #[test]
    fn labels_restrict_the_matching() {
        let g = grid_2x4();
        let vwgt = vec![1.0; 8];
        let blocks = [0, 0, 1, 1, 0, 0, 1, 1];
        let mate = matching(LevelView::unit(&g, &vwgt), Some(&blocks));
        for v in 0..8u32 {
            let m = mate[v as usize];
            assert_eq!(
                blocks[v as usize], blocks[m as usize],
                "matched across a block boundary: {v}-{m}"
            );
        }
    }

    #[test]
    fn contraction_accumulates_weights_and_collapses_parallel_edges() {
        // Square 0-1-3-2-0. Match (0,1) and (2,3): the two coarse vertices
        // are connected by TWO fine edges (0-2 and 1-3) which must collapse
        // into one coarse edge of weight 2.
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 3), (2, 3), (0, 2)]);
        let vwgt = [1.0, 2.0, 3.0, 4.0];
        let mate = vec![1, 0, 3, 2];
        let (mut coarse, mut cof) = (WeightedCsrGraph::default(), Vec::new());
        contract_into(LevelView::unit(&g, &vwgt), &mate, &mut Vec::new(), &mut coarse, &mut cof);
        assert_eq!(coarse.n(), 2);
        assert_eq!(coarse.m(), 1);
        assert_eq!(coarse.neighbors(0), &[1]);
        assert_eq!(coarse.edge_weights(0), &[2]);
        assert_eq!(coarse.vwgt, vec![3.0, 7.0]);
        assert_eq!(cof, vec![0, 0, 1, 1]);
        // Projection invariant: any coarse assignment's weighted cut equals
        // the projected fine cut.
        for casg in [[0u32, 1], [0, 0], [1, 0]] {
            let fine: Vec<u32> = cof.iter().map(|&c| casg[c as usize]).collect();
            assert_eq!(coarse.view().edge_cut(&casg), crate::edge_cut(&g, &fine));
        }
    }

    #[test]
    fn unmatched_vertices_survive_contraction() {
        // Path of 3: only (0,1) can match; 2 stays singleton.
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2)]);
        let vwgt = [1.0; 3];
        let (mut coarse, mut cof) = (WeightedCsrGraph::default(), Vec::new());
        CoarsenScratch::default().coarsen(LevelView::unit(&g, &vwgt), None, &mut coarse, &mut cof);
        assert_eq!(coarse.n(), 2);
        assert!((coarse.total_vertex_weight() - 3.0).abs() < 1e-15);
        // The surviving coarse edge stands for the fine edge 1-2.
        assert_eq!(coarse.view().edge_cut(&[0, 1]), 1);
    }

    /// The contraction this module shipped before the marker gather: one
    /// `(coarse id, weight)` vector per coarse vertex, sorted, then merged
    /// during concatenation. Kept as the oracle of [`contract_into`];
    /// returns the coarse graph and the projection map.
    fn contract_gather_sort(g: &WeightedCsrGraph, mate: &[u32]) -> (WeightedCsrGraph, Vec<u32>) {
        let n = g.n();
        let mut coarse_of_fine = vec![u32::MAX; n];
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        for v in 0..n as u32 {
            let m = mate[v as usize];
            assert!((m as usize) < n && mate[m as usize] == v, "mate must be an involution");
            if v <= m {
                coarse_of_fine[v as usize] = pairs.len() as u32;
                coarse_of_fine[m as usize] = pairs.len() as u32;
                pairs.push((v, m));
            }
        }
        let mut coarse = WeightedCsrGraph::default();
        for &(a, b) in &pairs {
            let c = coarse_of_fine[a as usize];
            let mut nbrs: Vec<(u32, u64)> = Vec::new();
            for v in if a == b { vec![a] } else { vec![a, b] } {
                for (&u, &w) in g.neighbors(v).iter().zip(g.edge_weights(v)) {
                    if coarse_of_fine[u as usize] != c {
                        nbrs.push((coarse_of_fine[u as usize], w));
                    }
                }
            }
            nbrs.sort_unstable_by_key(|&(u, _)| u);
            let row_start = coarse.adj.len();
            for (u, w) in nbrs {
                if coarse.adj.len() > row_start && *coarse.adj.last().unwrap() == u {
                    *coarse.ewgt.last_mut().unwrap() += w;
                } else {
                    coarse.adj.push(u);
                    coarse.ewgt.push(w);
                }
            }
            coarse.xadj.push(coarse.adj.len());
            coarse.vwgt.push(if a == b {
                g.vwgt[a as usize]
            } else {
                g.vwgt[a as usize] + g.vwgt[b as usize]
            });
        }
        (coarse, coarse_of_fine)
    }

    /// Random graph on `n` vertices with about `edges` edges, symmetric
    /// edge weights in `1..=9` and vertex weights in `1..=5`; sparse draws
    /// leave isolated vertices, dense ones make parallel coarse edges.
    fn random_weighted(n: usize, edges: usize, rng: &mut SplitMix64) -> WeightedCsrGraph {
        let list: Vec<(u32, u32)> = (0..edges)
            .map(|_| (rng.next_below(n as u64) as u32, rng.next_below(n as u64) as u32))
            .collect();
        let g = CsrGraph::from_edges(n, &list);
        let mut wg = lift(&g, (0..n).map(|_| (1 + rng.next_below(5)) as f64).collect());
        for v in 0..n as u32 {
            for (i, &u) in g.neighbors(v).iter().enumerate() {
                let (lo, hi) = (u64::from(v.min(u)), u64::from(v.max(u)));
                wg.ewgt[g.xadj[v as usize] + i] = 1 + (lo * 31 + hi * 17) % 9;
            }
        }
        wg
    }

    /// `g` with every row, and its parallel weights, sorted by neighbour
    /// id: two graphs agree on this iff they agree row by row as sets.
    fn rows_sorted(g: &WeightedCsrGraph) -> WeightedCsrGraph {
        let mut g = g.clone();
        for v in 0..g.n() {
            let span = g.xadj[v]..g.xadj[v + 1];
            let mut row: Vec<(u32, u64)> =
                g.adj[span.clone()].iter().copied().zip(g.ewgt[span.clone()].iter().copied()).collect();
            row.sort_unstable_by_key(|&(u, _)| u);
            for (i, (u, w)) in span.zip(row) {
                (g.adj[i], g.ewgt[i]) = (u, w);
            }
        }
        g
    }

    #[test]
    fn marker_contraction_equals_the_gather_sort_oracle() {
        let mut rng = SplitMix64::new(0xC0A25E);
        // One scratch and one pair of outputs for the whole corpus: sizes
        // go up and down between calls.
        let mut scratch = CoarsenScratch::default();
        let mut coarse = WeightedCsrGraph::default();
        let mut cof = Vec::new();
        for case in 0..300 {
            let n = 1 + rng.next_below(if case % 7 == 0 { 400 } else { 40 }) as usize;
            let edges = rng.next_below(6 * n as u64) as usize;
            let g = random_weighted(n, edges, &mut rng);
            let blocks = 1 + rng.next_below(4) as u32;
            let labels: Vec<u32> = (0..n).map(|_| rng.next_below(u64::from(blocks)) as u32).collect();

            // Matchings: heavy-edge with and without labels, all
            // singletons, and an arbitrary involution (pairs need not be
            // edges for the contraction to be defined).
            let mut order: Vec<u32> = (0..n as u32).collect();
            rng.shuffle(&mut order);
            let mut arbitrary: Vec<u32> = (0..n as u32).collect();
            for pair in order.chunks_exact(2).take(n / 3) {
                arbitrary[pair[0] as usize] = pair[1];
                arbitrary[pair[1] as usize] = pair[0];
            }
            for mate in [
                matching(g.view(), None),
                matching(g.view(), Some(&labels)),
                (0..n as u32).collect(),
                arbitrary,
            ] {
                let (want, want_cof) = contract_gather_sort(&g, &mate);
                contract_into(g.view(), &mate, &mut scratch.slot, &mut coarse, &mut cof);
                assert_eq!(rows_sorted(&coarse), want, "case {case}");
                assert_eq!(cof, want_cof, "case {case}");
            }

            // The fused step is the matching and the contraction back to
            // back.
            scratch.coarsen(g.view(), Some(&labels), &mut coarse, &mut cof);
            let (want, want_cof) = contract_gather_sort(&g, &matching(g.view(), Some(&labels)));
            assert_eq!((rows_sorted(&coarse), &cof), (want, &want_cof), "case {case}");
        }
    }

    #[test]
    fn a_unit_view_coarsens_like_its_lift() {
        let mut rng = SplitMix64::new(77);
        let mut scratch = CoarsenScratch::default();
        for _ in 0..40 {
            let n = 2 + rng.next_below(60) as usize;
            let list: Vec<(u32, u32)> = (0..3 * n)
                .map(|_| (rng.next_below(n as u64) as u32, rng.next_below(n as u64) as u32))
                .collect();
            let g = CsrGraph::from_edges(n, &list);
            let vwgt: Vec<f64> = (0..n).map(|_| (1 + rng.next_below(3)) as f64).collect();
            let lifted = lift(&g, vwgt.clone());
            let (mut a, mut b) = (WeightedCsrGraph::default(), WeightedCsrGraph::default());
            let (mut ma, mut mb) = (Vec::new(), Vec::new());
            scratch.coarsen(LevelView::unit(&g, &vwgt), None, &mut a, &mut ma);
            scratch.coarsen(lifted.view(), None, &mut b, &mut mb);
            assert_eq!((a, ma), (b, mb));
        }
    }

    #[test]
    fn empty_graph_contracts_to_empty() {
        let g = CsrGraph::from_edges(0, &[]);
        let (mut coarse, mut cof) = (WeightedCsrGraph::default(), Vec::new());
        CoarsenScratch::default().coarsen(LevelView::unit(&g, &[]), None, &mut coarse, &mut cof);
        assert!(cof.is_empty());
        assert_eq!(coarse.n(), 0);
    }
}
