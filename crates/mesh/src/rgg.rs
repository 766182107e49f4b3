//! Random geometric graphs in the unit square (the `rgg_n` DIMACS family).

use geographer_geometry::{Point, SplitMix64};
use geographer_graph::CsrGraph;

use crate::Mesh;

/// Random geometric graph: `n` uniform points; two points are connected
/// when closer than `radius`. With `radius = None`, the standard connectivity
/// threshold `sqrt(2 ln n / (π n))` is used (sparse but almost surely
/// connected, matching the DIMACS rgg generator).
pub fn rgg2d(n: usize, radius: Option<f64>, seed: u64) -> Mesh<2> {
    let mut rng = SplitMix64::new(seed);
    let points: Vec<Point<2>> =
        (0..n).map(|_| Point::new([rng.next_f64(), rng.next_f64()])).collect();
    let r = radius.unwrap_or_else(|| {
        let nf = n as f64;
        (2.0 * nf.ln() / (std::f64::consts::PI * nf)).sqrt()
    });

    // Uniform grid hashing with cell size r: neighbours live in the 3x3
    // surrounding cells.
    let cells = ((1.0 / r).floor() as usize).max(1);
    let cell_of = |p: &Point<2>| -> (usize, usize) {
        let cx = ((p[0] * cells as f64) as usize).min(cells - 1);
        let cy = ((p[1] * cells as f64) as usize).min(cells - 1);
        (cx, cy)
    };
    let mut grid: Vec<Vec<u32>> = vec![Vec::new(); cells * cells];
    for (i, p) in points.iter().enumerate() {
        let (cx, cy) = cell_of(p);
        grid[cy * cells + cx].push(i as u32);
    }

    let r2 = r * r;
    let mut edges = Vec::new();
    for (i, p) in points.iter().enumerate() {
        let (cx, cy) = cell_of(p);
        for dy in -1i64..=1 {
            for dx in -1i64..=1 {
                let nx = cx as i64 + dx;
                let ny = cy as i64 + dy;
                if nx < 0 || ny < 0 || nx >= cells as i64 || ny >= cells as i64 {
                    continue;
                }
                for &j in &grid[ny as usize * cells + nx as usize] {
                    if (j as usize) > i && p.dist_sq(&points[j as usize]) <= r2 {
                        edges.push((i as u32, j));
                    }
                }
            }
        }
    }
    let graph = CsrGraph::from_edges(n, &edges);
    Mesh { points, weights: vec![1.0; n], graph }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edges_respect_radius() {
        let mesh = rgg2d(500, Some(0.08), 1);
        mesh.validate();
        for v in 0..mesh.n() as u32 {
            for &u in mesh.graph.neighbors(v) {
                let d = mesh.points[v as usize].dist(&mesh.points[u as usize]);
                assert!(d <= 0.08 + 1e-12, "edge longer than radius: {d}");
            }
        }
    }

    #[test]
    fn default_radius_connects_graph() {
        let mesh = rgg2d(2000, None, 2);
        let (cc, _) = geographer_graph::connected_components(&mesh.graph);
        // The threshold radius gives a connected graph w.h.p.; allow a
        // couple of stray isolated pockets.
        assert!(cc <= 3, "rgg unexpectedly fragmented: {cc} components");
    }

    #[test]
    fn grid_hash_matches_bruteforce() {
        let mesh = rgg2d(200, Some(0.15), 3);
        let mut expected = 0usize;
        for i in 0..200 {
            for j in (i + 1)..200 {
                if mesh.points[i].dist(&mesh.points[j]) <= 0.15 {
                    expected += 1;
                }
            }
        }
        assert_eq!(mesh.m(), expected);
    }

    #[test]
    fn deterministic() {
        assert_eq!(rgg2d(100, None, 7).graph, rgg2d(100, None, 7).graph);
    }
}
