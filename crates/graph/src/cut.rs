//! The single edge-cut implementation behind every cut number this
//! workspace reports.
//!
//! Every cut number is [`edge_cut_core`]: a weighted sum over cut edges
//! with an unweighted fast path (`ewgt = None` counts each cut edge once
//! without touching a weight array). Its callers are [`edge_cut`] on a
//! [`crate::CsrGraph`], `LevelView::edge_cut` on a level of the coarsening
//! hierarchy, and the accumulation of `hierarchy::cut_and_volume`; no
//! other crate keeps a cut loop of its own. `tests/multilevel_props.rs`
//! cross-checks that the public entry points agree on unit weights.

/// Weighted edge cut of `assignment` over a CSR adjacency.
///
/// `ewgt`, when present, is parallel to `adj` (one weight per stored arc;
/// the undirected graph stores both arcs of an edge with equal weight).
/// `None` is the unweighted fast path: every edge counts 1. Each undirected
/// edge is counted once (the `v < u` arc).
pub fn edge_cut_core(
    xadj: &[usize],
    adj: &[u32],
    ewgt: Option<&[u64]>,
    assignment: &[u32],
) -> u64 {
    debug_assert_eq!(xadj.len(), assignment.len() + 1);
    if let Some(w) = ewgt {
        assert_eq!(w.len(), adj.len(), "edge weights must parallel the adjacency");
    }
    let n = xadj.len() - 1;
    let mut cut = 0u64;
    match ewgt {
        None => {
            for v in 0..n {
                let bv = assignment[v];
                for &u in &adj[xadj[v]..xadj[v + 1]] {
                    if (v as u32) < u && bv != assignment[u as usize] {
                        cut += 1;
                    }
                }
            }
        }
        Some(w) => {
            for v in 0..n {
                let bv = assignment[v];
                for (i, &u) in adj[xadj[v]..xadj[v + 1]].iter().enumerate() {
                    if (v as u32) < u && bv != assignment[u as usize] {
                        cut += w[xadj[v] + i];
                    }
                }
            }
        }
    }
    cut
}

/// Edge cut of `assignment` on an unweighted [`crate::CsrGraph`] (each cut
/// edge counted once) — the unweighted fast path of [`edge_cut_core`].
pub fn edge_cut(g: &crate::CsrGraph, assignment: &[u32]) -> u64 {
    assert_eq!(assignment.len(), g.n());
    edge_cut_core(&g.xadj, &g.adj, None, assignment)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CsrGraph;

    #[test]
    fn unweighted_counts_each_edge_once() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        assert_eq!(edge_cut(&g, &[0, 0, 1, 1]), 1);
        assert_eq!(edge_cut(&g, &[0, 1, 0, 1]), 3);
        assert_eq!(edge_cut(&g, &[0, 0, 0, 0]), 0);
    }

    #[test]
    fn weighted_path_sums_arc_weights() {
        // Triangle with weights 5, 7, 11 on edges (0,1), (0,2), (1,2).
        let g = CsrGraph::from_edges(3, &[(0, 1), (0, 2), (1, 2)]);
        // Build arc-parallel weights by looking the edge up per arc.
        let wt = |a: u32, b: u32| match (a.min(b), a.max(b)) {
            (0, 1) => 5u64,
            (0, 2) => 7,
            (1, 2) => 11,
            _ => unreachable!(),
        };
        let mut ewgt = Vec::new();
        for v in 0..3u32 {
            for &u in g.neighbors(v) {
                ewgt.push(wt(v, u));
            }
        }
        // Cut {0} | {1,2}: edges (0,1) and (0,2) are cut.
        assert_eq!(edge_cut_core(&g.xadj, &g.adj, Some(&ewgt), &[0, 1, 1]), 12);
        // Cut {1} | {0,2}: edges (0,1) and (1,2).
        assert_eq!(edge_cut_core(&g.xadj, &g.adj, Some(&ewgt), &[0, 1, 0]), 16);
        // Unit weights agree with the fast path.
        let unit = vec![1u64; g.adj.len()];
        for asg in [[0u32, 1, 1], [0, 1, 0], [0, 0, 0], [0, 1, 2]] {
            assert_eq!(
                edge_cut_core(&g.xadj, &g.adj, Some(&unit), &asg),
                edge_cut_core(&g.xadj, &g.adj, None, &asg)
            );
        }
    }
}
