//! 3D geometric graphs via symmetric k-nearest-neighbour connectivity.
//!
//! Substitute for the paper's 3D Delaunay triangulations (Funke et al.
//! generator) and the unstructured Alya meshes: exact 3D Delaunay needs
//! robust arithmetic beyond the scope of a workload generator, while
//! symmetric kNN graphs on the same point sets share the properties that
//! matter to a *geometric* partitioner's evaluation — bounded average
//! degree, spatially local edges, connectedness. See DESIGN.md §3.

use geographer_geometry::{Point, SplitMix64};
use geographer_graph::CsrGraph;

use crate::Mesh;

/// How the 3D points are distributed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PointCloud {
    /// Uniform in the unit cube (3D Delaunay analogue).
    Uniform,
    /// Gaussian clusters around random centers (organ-like density, the
    /// Alya respiratory-mesh analogue).
    Clustered {
        /// Number of Gaussian clusters.
        clusters: usize,
    },
}

/// Build a symmetric kNN graph over `n` random 3D points.
/// Each vertex is connected to its `k` nearest neighbours; the union is
/// symmetrized. Uses a uniform grid for neighbour search.
pub fn knn3d(n: usize, k: usize, cloud: PointCloud, seed: u64) -> Mesh<3> {
    assert!(n > k, "need more points than neighbours");
    let mut rng = SplitMix64::new(seed);
    let mut unit_cube = || [rng.next_f64(), rng.next_f64(), rng.next_f64()];
    let points: Vec<Point<3>> = match cloud {
        PointCloud::Uniform => (0..n).map(|_| Point::new(unit_cube())).collect(),
        PointCloud::Clustered { clusters } => {
            let centers: Vec<[f64; 3]> = (0..clusters.max(1)).map(|_| unit_cube()).collect();
            (0..n)
                .map(|_| {
                    let c = centers[rng.next_below(centers.len() as u64) as usize];
                    let mut coord = [0.0; 3];
                    for (i, x) in coord.iter_mut().enumerate() {
                        // Box-Muller-ish: sum of uniforms ≈ Gaussian spread.
                        let g = (0..4).map(|_| rng.next_f64()).sum::<f64>() / 2.0 - 1.0;
                        *x = (c[i] + g * 0.08).clamp(0.0, 1.0);
                    }
                    Point::new(coord)
                })
                .collect()
        }
    };

    // Grid with ~1 expected point per cell.
    let cells = ((n as f64).powf(1.0 / 3.0).ceil() as usize).max(1);
    let cell_of = |p: &Point<3>| -> [usize; 3] {
        let mut c = [0usize; 3];
        for i in 0..3 {
            c[i] = ((p[i] * cells as f64) as usize).min(cells - 1);
        }
        c
    };
    let mut grid: Vec<Vec<u32>> = vec![Vec::new(); cells * cells * cells];
    let gidx = |c: [usize; 3]| (c[2] * cells + c[1]) * cells + c[0];
    for (i, p) in points.iter().enumerate() {
        grid[gidx(cell_of(p))].push(i as u32);
    }

    let mut edges = Vec::with_capacity(n * k);
    let mut candidates: Vec<(f64, u32)> = Vec::new();
    for (i, p) in points.iter().enumerate() {
        candidates.clear();
        // Expand the search ring until we have k neighbours and the next
        // ring cannot contain anything closer.
        let c = cell_of(p);
        let mut ring = 1usize;
        loop {
            candidates.clear();
            let lo = |v: usize| v.saturating_sub(ring);
            let hi = |v: usize| (v + ring).min(cells - 1);
            for z in lo(c[2])..=hi(c[2]) {
                for y in lo(c[1])..=hi(c[1]) {
                    for x in lo(c[0])..=hi(c[0]) {
                        for &j in &grid[gidx([x, y, z])] {
                            if j as usize != i {
                                candidates.push((p.dist_sq(&points[j as usize]), j));
                            }
                        }
                    }
                }
            }
            // The ring of width `ring` certainly contains every point
            // within ring-1 cells of distance.
            let safe_radius = (ring.saturating_sub(0)) as f64 / cells as f64;
            if candidates.len() >= k {
                candidates
                    .sort_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
                if candidates[k - 1].0.sqrt() <= safe_radius || ring >= cells {
                    break;
                }
            } else if ring >= cells {
                break;
            }
            ring += 1;
        }
        for &(_, j) in candidates.iter().take(k) {
            let (a, b) = if (i as u32) < j { (i as u32, j) } else { (j, i as u32) };
            edges.push((a, b));
        }
    }
    let graph = CsrGraph::from_edges(n, &edges);
    Mesh { points, weights: vec![1.0; n], graph }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degree_bounds() {
        let k = 6;
        let mesh = knn3d(400, k, PointCloud::Uniform, 1);
        mesh.validate();
        // Every vertex keeps at least its own k edges.
        for v in 0..mesh.n() as u32 {
            assert!(mesh.graph.degree(v) >= k, "degree {} < k", mesh.graph.degree(v));
        }
        // Average degree stays near k (symmetrization adds a bit).
        let avg = 2.0 * mesh.m() as f64 / mesh.n() as f64;
        assert!(avg < 2.5 * k as f64, "average degree {avg} exploded");
    }

    #[test]
    fn knn_edges_are_actually_nearest() {
        let mesh = knn3d(150, 4, PointCloud::Uniform, 2);
        // Brute force: for each vertex, its 4 nearest must be neighbours.
        for i in 0..mesh.n() {
            let mut d: Vec<(f64, u32)> = (0..mesh.n())
                .filter(|&j| j != i)
                .map(|j| (mesh.points[i].dist_sq(&mesh.points[j]), j as u32))
                .collect();
            d.sort_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
            for &(_, j) in d.iter().take(4) {
                assert!(
                    mesh.graph.neighbors(i as u32).binary_search(&j).is_ok(),
                    "vertex {i} missing nearest neighbour {j}"
                );
            }
        }
    }

    #[test]
    fn clustered_cloud_is_clustered() {
        let mesh = knn3d(1000, 6, PointCloud::Clustered { clusters: 3 }, 3);
        mesh.validate();
        // Clustered points have much smaller mean nearest-neighbour
        // distance than uniform ones.
        let uni = knn3d(1000, 6, PointCloud::Uniform, 3);
        let mean_nn = |m: &Mesh<3>| -> f64 {
            (0..m.n() as u32)
                .map(|v| {
                    m.graph
                        .neighbors(v)
                        .iter()
                        .map(|&u| m.points[v as usize].dist(&m.points[u as usize]))
                        .fold(f64::INFINITY, f64::min)
                })
                .sum::<f64>()
                / m.n() as f64
        };
        assert!(mean_nn(&mesh) < mean_nn(&uni));
    }

    #[test]
    fn connected_for_reasonable_k() {
        let mesh = knn3d(600, 8, PointCloud::Uniform, 4);
        let (cc, _) = geographer_graph::connected_components(&mesh.graph);
        assert_eq!(cc, 1);
    }
}
