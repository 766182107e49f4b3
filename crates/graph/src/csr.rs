//! Compressed sparse row graphs (undirected, unweighted edges).

/// An undirected graph in CSR form. Vertex ids are `u32` (the evaluation
/// instances stay well below 2³² vertices at reproduction scale).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrGraph {
    /// Offsets into `adj`; `xadj.len() == n + 1`.
    pub xadj: Vec<usize>,
    /// Concatenated adjacency lists.
    pub adj: Vec<u32>,
}

impl CsrGraph {
    /// Build from an undirected edge list. Each `{u, v}` edge may appear in
    /// either or both directions; self-loops are dropped and duplicates
    /// merged. The result stores both directions.
    ///
    /// # Panics
    /// If an endpoint is `>= n`.
    pub fn from_edges(n: usize, edges: &[(u32, u32)]) -> Self {
        let mut deg = vec![0usize; n];
        for &(u, v) in edges {
            assert!((u as usize) < n && (v as usize) < n, "edge endpoint out of range");
            if u != v {
                deg[u as usize] += 1;
                deg[v as usize] += 1;
            }
        }
        let mut xadj = vec![0usize; n + 1];
        for v in 0..n {
            xadj[v + 1] = xadj[v] + deg[v];
        }
        let mut adj = vec![0u32; xadj[n]];
        let mut cursor = xadj.clone();
        for &(u, v) in edges {
            if u != v {
                adj[cursor[u as usize]] = v;
                cursor[u as usize] += 1;
                adj[cursor[v as usize]] = u;
                cursor[v as usize] += 1;
            }
        }
        // Sort each adjacency range in place, then dedup-compact the whole
        // array with a single write cursor — no per-vertex temporary and no
        // second full-size allocation.
        let mut write = 0usize;
        let mut clean_xadj = vec![0usize; n + 1];
        for v in 0..n {
            let (lo, hi) = (xadj[v], xadj[v + 1]);
            adj[lo..hi].sort_unstable();
            let mut prev = None;
            for r in lo..hi {
                let u = adj[r];
                if prev != Some(u) {
                    adj[write] = u;
                    write += 1;
                    prev = Some(u);
                }
            }
            clean_xadj[v + 1] = write;
        }
        adj.truncate(write);
        CsrGraph { xadj: clean_xadj, adj }
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.xadj.len() - 1
    }

    /// Number of undirected edges.
    pub fn m(&self) -> usize {
        self.adj.len() / 2
    }

    /// Degree of `v`.
    pub fn degree(&self, v: u32) -> usize {
        self.xadj[v as usize + 1] - self.xadj[v as usize]
    }

    /// Neighbours of `v`, sorted ascending.
    pub fn neighbors(&self, v: u32) -> &[u32] {
        &self.adj[self.xadj[v as usize]..self.xadj[v as usize + 1]]
    }

    /// Whether both directions of every arc are stored (invariant check,
    /// used by tests).
    pub fn is_symmetric(&self) -> bool {
        for v in 0..self.n() as u32 {
            for &u in self.neighbors(v) {
                if self.neighbors(u).binary_search(&v).is_err() {
                    return false;
                }
            }
        }
        true
    }

    /// The subgraph induced by `vertices`, with vertices renumbered
    /// `0..vertices.len()` in the given order. Also returns nothing else —
    /// callers keep their own id mapping if needed.
    pub fn induced_subgraph(&self, vertices: &[u32]) -> CsrGraph {
        // Local id of every vertex of `self`; `u32::MAX` = not selected.
        let mut local_id = vec![u32::MAX; self.n()];
        for (i, &v) in vertices.iter().enumerate() {
            local_id[v as usize] = i as u32;
        }
        let mut edges = Vec::new();
        for (i, &v) in vertices.iter().enumerate() {
            for &u in self.neighbors(v) {
                let j = local_id[u as usize];
                if j != u32::MAX && (i as u32) < j {
                    edges.push((i as u32, j));
                }
            }
        }
        CsrGraph::from_edges(vertices.len(), &edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path4() -> CsrGraph {
        CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)])
    }

    #[test]
    fn basic_counts() {
        let g = path4();
        assert_eq!(g.n(), 4);
        assert_eq!(g.m(), 3);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.neighbors(1), &[0, 2]);
    }

    #[test]
    fn symmetry_holds() {
        assert!(path4().is_symmetric());
    }

    #[test]
    fn duplicates_and_self_loops_cleaned() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 0), (0, 1), (2, 2)]);
        assert_eq!(g.m(), 1);
        assert_eq!(g.degree(2), 0);
        assert_eq!(g.neighbors(0), &[1]);
    }

    #[test]
    fn induced_subgraph_of_path() {
        let g = path4();
        // Take vertices {1, 2, 3}: a path of length 2 in local ids 0-1-2.
        let sub = g.induced_subgraph(&[1, 2, 3]);
        assert_eq!(sub.n(), 3);
        assert_eq!(sub.m(), 2);
        assert_eq!(sub.neighbors(1), &[0, 2]);
        // Take {0, 3}: no edges survive.
        let sub = g.induced_subgraph(&[0, 3]);
        assert_eq!(sub.m(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        let _ = CsrGraph::from_edges(2, &[(0, 5)]);
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::from_edges(0, &[]);
        assert_eq!(g.n(), 0);
        assert_eq!(g.m(), 0);
        assert!(g.is_symmetric());
    }
}
