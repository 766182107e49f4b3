//! Multilevel coarsening: weighted CSR graphs, deterministic heavy-edge
//! matching, and contraction (see DESIGN.md §7).
//!
//! The multilevel V-cycle of `geographer_refine` rests on one invariant:
//! for any assignment of the *coarse* vertices, the weighted edge cut of
//! the coarse graph equals the (weighted) edge cut of its projection onto
//! the fine graph. [`contract`] guarantees it structurally — a coarse edge
//! carries the summed weight of every fine edge between the two merged
//! vertex sets, and edges internal to a merged pair disappear (their
//! endpoints can never be separated by a coarse assignment). Vertex
//! weights accumulate the same way, so per-block weights (and therefore
//! balance) are preserved exactly under projection.

use crate::csr::CsrGraph;
use crate::cut::edge_cut_core;

/// An undirected CSR graph with vertex and edge weights — the level type
/// of the coarsening hierarchy. The fine level of a mesh graph has unit
/// edge weights ([`WeightedCsrGraph::from_csr`]); contraction accumulates
/// them (a coarse edge's weight is the number of fine mesh edges it
/// stands for), which is what makes coarse-level refinement gains equal to
/// fine-level cut improvements.
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

impl WeightedCsrGraph {
    /// Lift an unweighted graph to the weighted form: unit edge weights,
    /// caller-provided vertex weights.
    ///
    /// # Panics
    /// If `vwgt.len() != g.n()`.
    pub fn from_csr(g: &CsrGraph, vwgt: Vec<f64>) -> Self {
        assert_eq!(vwgt.len(), g.n(), "one vertex weight per vertex");
        WeightedCsrGraph {
            xadj: g.xadj.clone(),
            adj: g.adj.clone(),
            ewgt: vec![1; g.adj.len()],
            vwgt,
        }
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.xadj.len() - 1
    }

    /// Number of undirected edges.
    pub fn m(&self) -> usize {
        self.adj.len() / 2
    }

    /// Neighbours of `v`, sorted ascending.
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

    /// Weighted edge cut of `assignment`: the summed weight of edges whose
    /// endpoints lie in different blocks, each edge counted once. On a
    /// [`WeightedCsrGraph::from_csr`] lift this equals the unweighted
    /// [`crate::edge_cut`] of the underlying graph.
    pub fn edge_cut(&self, assignment: &[u32]) -> u64 {
        assert_eq!(assignment.len(), self.n());
        edge_cut_core(&self.xadj, &self.adj, Some(&self.ewgt), assignment)
    }
}

/// Weighted edge cut of `assignment` on `g` (free-function form of
/// [`WeightedCsrGraph::edge_cut`], mirroring [`crate::edge_cut`]).
pub fn edge_cut_weighted(g: &WeightedCsrGraph, assignment: &[u32]) -> u64 {
    g.edge_cut(assignment)
}

/// Deterministic greedy heavy-edge matching.
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
pub fn heavy_edge_matching(g: &WeightedCsrGraph, labels: Option<&[u32]>) -> Vec<u32> {
    if let Some(l) = labels {
        assert_eq!(l.len(), g.n(), "one label per vertex");
    }
    let n = g.n();
    let mut mate: Vec<u32> = (0..n as u32).collect();
    for v in 0..n as u32 {
        if mate[v as usize] != v {
            continue; // already matched
        }
        // (edge weight desc, vertex weight asc, id asc) — encoded as a
        // max-search on (ewgt, Reverse(vwgt), Reverse(id)).
        let mut best: Option<(u64, f64, u32)> = None;
        for (i, &u) in g.neighbors(v).iter().enumerate() {
            if u == v || mate[u as usize] != u {
                continue;
            }
            if let Some(l) = labels {
                if l[u as usize] != l[v as usize] {
                    continue;
                }
            }
            let w = g.edge_weights(v)[i];
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
            mate[v as usize] = u;
            mate[u as usize] = v;
        }
    }
    mate
}

/// Result of one contraction step: the coarse graph plus the fine→coarse
/// projection map.
#[derive(Debug, Clone)]
pub struct Contraction {
    /// The contracted graph.
    pub coarse: WeightedCsrGraph,
    /// `coarse_of_fine[v]` is the coarse vertex that fine vertex `v`
    /// merged into.
    pub coarse_of_fine: Vec<u32>,
}

impl Contraction {
    /// Project a coarse assignment back onto the fine vertex set.
    pub fn project(&self, coarse_assignment: &[u32]) -> Vec<u32> {
        self.coarse_of_fine
            .iter()
            .map(|&c| coarse_assignment[c as usize])
            .collect()
    }
}

/// Contract `g` along a matching (as produced by [`heavy_edge_matching`]):
/// each matched pair becomes one coarse vertex, unmatched vertices carry
/// over. Coarse ids are assigned in ascending order of the pair's smaller
/// fine id. Vertex weights accumulate exactly (two summands, fixed order);
/// parallel coarse edges collapse into one edge carrying the summed
/// weight; edges inside a matched pair vanish.
///
/// # Panics
/// If `mate` is not an involution on `0..g.n()`.
pub fn contract(g: &WeightedCsrGraph, mate: &[u32]) -> Contraction {
    let n = g.n();
    assert_eq!(mate.len(), n);
    // Coarse numbering: representative = smaller endpoint of the pair.
    let mut coarse_of_fine = vec![u32::MAX; n];
    let mut pairs: Vec<(u32, u32)> = Vec::new();
    for v in 0..n as u32 {
        let m = mate[v as usize];
        assert!(
            (m as usize) < n && mate[m as usize] == v,
            "mate must be an involution"
        );
        if v <= m {
            let c = pairs.len() as u32;
            coarse_of_fine[v as usize] = c;
            coarse_of_fine[m as usize] = c;
            pairs.push((v, m));
        }
    }

    // Per-coarse-vertex adjacency: gather both constituents' neighbours,
    // map them to coarse ids, drop self-loops, merge duplicates.
    let cof = &coarse_of_fine;
    let built: Vec<(Vec<(u32, u64)>, f64)> = pairs
        .iter()
        .map(|&(a, b)| {
            let c = cof[a as usize];
            let mut nbrs: Vec<(u32, u64)> = Vec::with_capacity(
                g.degree_hint(a) + if a == b { 0 } else { g.degree_hint(b) },
            );
            let mut push_all = |v: u32| {
                for (i, &u) in g.neighbors(v).iter().enumerate() {
                    let cu = cof[u as usize];
                    if cu != c {
                        nbrs.push((cu, g.edge_weights(v)[i]));
                    }
                }
            };
            push_all(a);
            if b != a {
                push_all(b);
            }
            nbrs.sort_unstable_by_key(|&(u, _)| u);
            let vw = if b != a {
                g.vwgt[a as usize] + g.vwgt[b as usize]
            } else {
                g.vwgt[a as usize]
            };
            (nbrs, vw)
        })
        .collect();

    // Duplicate neighbours are merged here, during the serial
    // concatenation, writing straight into pre-reserved output arrays —
    // one gather buffer per pair above, no per-pair adj/wgt temporaries.
    let nc = pairs.len();
    let upper: usize = built.iter().map(|(nbrs, _)| nbrs.len()).sum();
    let mut xadj = Vec::with_capacity(nc + 1);
    xadj.push(0usize);
    let mut adj: Vec<u32> = Vec::with_capacity(upper);
    let mut ewgt: Vec<u64> = Vec::with_capacity(upper);
    let mut vwgt = Vec::with_capacity(nc);
    for (nbrs, vw) in built {
        let row_start = adj.len();
        for (u, w) in nbrs {
            if adj.len() > row_start && *adj.last().unwrap() == u {
                *ewgt.last_mut().unwrap() += w;
            } else {
                adj.push(u);
                ewgt.push(w);
            }
        }
        xadj.push(adj.len());
        vwgt.push(vw);
    }
    Contraction {
        coarse: WeightedCsrGraph { xadj, adj, ewgt, vwgt },
        coarse_of_fine,
    }
}

impl WeightedCsrGraph {
    /// Degree of `v` (capacity hint for the contraction gather).
    fn degree_hint(&self, v: u32) -> usize {
        self.xadj[v as usize + 1] - self.xadj[v as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn from_csr_has_unit_edge_weights_and_matching_cut() {
        let g = grid_2x4();
        let wg = WeightedCsrGraph::from_csr(&g, vec![1.0; 8]);
        assert_eq!(wg.n(), 8);
        assert_eq!(wg.m(), 10);
        let asg = [0, 0, 1, 1, 0, 0, 1, 1];
        assert_eq!(wg.edge_cut(&asg), crate::edge_cut(&g, &asg));
        assert_eq!(edge_cut_weighted(&wg, &asg), 2);
    }

    #[test]
    fn matching_is_valid_and_deterministic() {
        let g = grid_2x4();
        let wg = WeightedCsrGraph::from_csr(&g, vec![1.0; 8]);
        let mate = heavy_edge_matching(&wg, None);
        // Involution over existing edges.
        for v in 0..8u32 {
            let m = mate[v as usize];
            assert_eq!(mate[m as usize], v);
            if m != v {
                assert!(wg.neighbors(v).contains(&m), "{v}-{m} is not an edge");
            }
        }
        // Same input, same matching.
        assert_eq!(mate, heavy_edge_matching(&wg, None));
    }

    #[test]
    fn labels_restrict_the_matching() {
        let g = grid_2x4();
        let wg = WeightedCsrGraph::from_csr(&g, vec![1.0; 8]);
        let blocks = [0, 0, 1, 1, 0, 0, 1, 1];
        let mate = heavy_edge_matching(&wg, Some(&blocks));
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
        let wg = WeightedCsrGraph::from_csr(&g, vec![1.0, 2.0, 3.0, 4.0]);
        let mate = vec![1, 0, 3, 2];
        let c = contract(&wg, &mate);
        assert_eq!(c.coarse.n(), 2);
        assert_eq!(c.coarse.m(), 1);
        assert_eq!(c.coarse.neighbors(0), &[1]);
        assert_eq!(c.coarse.edge_weights(0), &[2]);
        assert_eq!(c.coarse.vwgt, vec![3.0, 7.0]);
        assert_eq!(c.coarse_of_fine, vec![0, 0, 1, 1]);
        // Projection invariant: any coarse assignment's weighted cut equals
        // the projected fine cut.
        for casg in [[0u32, 1], [0, 0], [1, 0]] {
            let fine = c.project(&casg);
            assert_eq!(c.coarse.edge_cut(&casg), wg.edge_cut(&fine));
        }
    }

    #[test]
    fn unmatched_vertices_survive_contraction() {
        // Path of 3: only (0,1) can match; 2 stays singleton.
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2)]);
        let wg = WeightedCsrGraph::from_csr(&g, vec![1.0; 3]);
        let mate = heavy_edge_matching(&wg, None);
        let c = contract(&wg, &mate);
        assert_eq!(c.coarse.n(), 2);
        assert!((c.coarse.total_vertex_weight() - 3.0).abs() < 1e-15);
        // The surviving coarse edge stands for the fine edge 1-2.
        assert_eq!(c.coarse.edge_cut(&[0, 1]), 1);
    }

    #[test]
    fn empty_graph_contracts_to_empty() {
        let g = CsrGraph::from_edges(0, &[]);
        let wg = WeightedCsrGraph::from_csr(&g, vec![]);
        let mate = heavy_edge_matching(&wg, None);
        assert!(mate.is_empty());
        let c = contract(&wg, &mate);
        assert_eq!(c.coarse.n(), 0);
    }
}
