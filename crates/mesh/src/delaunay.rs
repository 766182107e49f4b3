//! 2D Delaunay triangulation (Bowyer–Watson, incremental, with walk-based
//! point location).
//!
//! This is the generator behind the paper's `delaunayX` series: Delaunay
//! triangulations of uniformly random points in the unit square. Insertion
//! order follows the Hilbert curve, so the locate step walks O(1) triangles
//! in expectation and the whole construction is O(n log n)-ish in practice.
//!
//! Robustness: predicates are plain f64 determinants. The generators feed
//! random (hence generic-position) points, for which this is ample; this is
//! a workload generator, not a general-purpose CGAL replacement.

use geographer_geometry::{Aabb, Point};
use geographer_graph::CsrGraph;
use geographer_sfc::HilbertMapper;

use crate::Mesh;

/// One triangle: vertices (CCW) and the neighbour opposite each vertex
/// (`-1` = convex hull / none).
#[derive(Debug, Clone, Copy)]
struct Tri {
    v: [u32; 3],
    nbr: [i32; 3],
    alive: bool,
}

/// 2·(signed area) of triangle (a, b, c); positive iff CCW.
#[inline]
fn orient2d(a: Point<2>, b: Point<2>, c: Point<2>) -> f64 {
    (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
}

/// In-circumcircle predicate for CCW triangle (a, b, c): positive iff `p`
/// is strictly inside.
#[inline]
fn in_circle(a: Point<2>, b: Point<2>, c: Point<2>, p: Point<2>) -> f64 {
    let (ax, ay) = (a[0] - p[0], a[1] - p[1]);
    let (bx, by) = (b[0] - p[0], b[1] - p[1]);
    let (cx, cy) = (c[0] - p[0], c[1] - p[1]);
    let a2 = ax * ax + ay * ay;
    let b2 = bx * bx + by * by;
    let c2 = cx * cx + cy * cy;
    ax * (by * c2 - b2 * cy) - ay * (bx * c2 - b2 * cx) + a2 * (bx * cy - by * cx)
}

/// Incremental Delaunay triangulator.
struct Triangulator {
    /// All points; the last three are the super-triangle corners.
    pts: Vec<Point<2>>,
    tris: Vec<Tri>,
    free: Vec<usize>,
    /// Triangle used as the walk start (most recently created).
    last: usize,
}

impl Triangulator {
    fn new(points: &[Point<2>]) -> Self {
        let bb = Aabb::from_points(points).expect("need at least one point");
        let c = bb.center();
        let r = bb.diagonal().max(1e-12) * 16.0;
        // Super-triangle comfortably containing every input point.
        let s0 = Point::new([c[0] - 2.0 * r, c[1] - r]);
        let s1 = Point::new([c[0] + 2.0 * r, c[1] - r]);
        let s2 = Point::new([c[0], c[1] + 2.0 * r]);
        let mut pts = points.to_vec();
        let base = pts.len() as u32;
        pts.extend_from_slice(&[s0, s1, s2]);
        let tris = vec![Tri { v: [base, base + 1, base + 2], nbr: [-1, -1, -1], alive: true }];
        Triangulator { pts, tris, free: Vec::new(), last: 0 }
    }

    #[inline]
    fn tri_pts(&self, t: usize) -> [Point<2>; 3] {
        let v = self.tris[t].v;
        [self.pts[v[0] as usize], self.pts[v[1] as usize], self.pts[v[2] as usize]]
    }

    /// Walk from `self.last` to a triangle containing `p`.
    fn locate(&self, p: Point<2>) -> usize {
        let mut t = self.last;
        if !self.tris[t].alive {
            t = self.tris.iter().position(|x| x.alive).expect("no live triangle");
        }
        let mut hops = 0usize;
        'walk: loop {
            hops += 1;
            if hops > self.tris.len() * 2 + 16 {
                // Numerical corner case: fall back to exhaustive search.
                for (i, tri) in self.tris.iter().enumerate() {
                    if tri.alive && self.contains(i, p) {
                        return i;
                    }
                }
                panic!("locate failed: point outside triangulation");
            }
            let [a, b, c] = self.tri_pts(t);
            let edges = [(a, b, 2usize), (b, c, 0usize), (c, a, 1usize)];
            for (u, v, opp) in edges {
                if orient2d(u, v, p) < 0.0 {
                    let n = self.tris[t].nbr[opp];
                    if n < 0 {
                        // On/outside hull of super-triangle — shouldn't
                        // happen, treat current triangle as containing.
                        return t;
                    }
                    t = n as usize;
                    continue 'walk;
                }
            }
            return t;
        }
    }

    fn contains(&self, t: usize, p: Point<2>) -> bool {
        let [a, b, c] = self.tri_pts(t);
        orient2d(a, b, p) >= 0.0 && orient2d(b, c, p) >= 0.0 && orient2d(c, a, p) >= 0.0
    }

    fn alloc(&mut self, tri: Tri) -> usize {
        if let Some(i) = self.free.pop() {
            self.tris[i] = tri;
            i
        } else {
            self.tris.push(tri);
            self.tris.len() - 1
        }
    }

    /// Insert point with id `pid` (must index into `self.pts`).
    fn insert(&mut self, pid: u32) {
        let p = self.pts[pid as usize];
        let seed = self.locate(p);

        // Grow the cavity: all triangles whose circumcircle contains p. A
        // triangle leaves `alive` as it joins; no live triangle borders a
        // freed one, so a neighbour that is not alive is in this cavity.
        let mut bad = vec![seed];
        self.tris[seed].alive = false;
        let mut stack = vec![seed];
        while let Some(t) = stack.pop() {
            for n in self.tris[t].nbr {
                if n < 0 || !self.tris[n as usize].alive {
                    continue;
                }
                let n = n as usize;
                let [a, b, c] = self.tri_pts(n);
                if in_circle(a, b, c, p) > 0.0 {
                    self.tris[n].alive = false;
                    bad.push(n);
                    stack.push(n);
                }
            }
        }

        // Boundary of the cavity: directed edges (u, v) with the outside
        // neighbour, oriented CCW around the cavity.
        let mut boundary: Vec<(u32, u32, i32)> = Vec::new();
        for &t in &bad {
            let tri = self.tris[t];
            for i in 0..3 {
                let n = tri.nbr[i];
                let outside = n < 0 || self.tris[n as usize].alive;
                if outside {
                    // Edge opposite vertex i is (v[i+1], v[i+2]).
                    let u = tri.v[(i + 1) % 3];
                    let v = tri.v[(i + 2) % 3];
                    boundary.push((u, v, n));
                }
            }
        }

        // Retire cavity triangles.
        self.free.extend_from_slice(&bad);

        // Fan from p to each boundary edge; wire neighbours. The cavity
        // boundary is a simple CCW cycle, so each vertex starts exactly
        // one boundary edge: a sorted (start vertex → fan triangle) table
        // gives a deterministic, binary-searchable successor lookup.
        let mut start_to_tri: Vec<(u32, usize)> = Vec::with_capacity(boundary.len());
        let mut created = Vec::with_capacity(boundary.len());
        for &(u, v, outside) in &boundary {
            let t = self.alloc(Tri { v: [pid, u, v], nbr: [outside, -1, -1], alive: true });
            // Fix the outside neighbour's back-pointer across exactly the
            // shared edge {u, v} (an outside triangle can touch the cavity
            // along more than one of its edges).
            if outside >= 0 {
                let o = outside as usize;
                for i in 0..3 {
                    let a = self.tris[o].v[(i + 1) % 3];
                    let b = self.tris[o].v[(i + 2) % 3];
                    if (a == u && b == v) || (a == v && b == u) {
                        self.tris[o].nbr[i] = t as i32;
                    }
                }
            }
            start_to_tri.push((u, t));
            created.push(t);
        }
        start_to_tri.sort_unstable();
        // Neighbours within the fan: triangle (p,u,v) borders the successor
        // (p,v,w) along edge (p,v), i.e. the unique boundary edge starting
        // at v. In (p,u,v) the shared edge is opposite u (slot 1); in
        // (p,v,w) it is opposite w (slot 2).
        for &t in &created {
            let [_, _u, v] = self.tris[t].v;
            let at = start_to_tri
                .binary_search_by_key(&v, |&(start, _)| start)
                .expect("cavity boundary must be a closed cycle");
            let succ = start_to_tri[at].1;
            self.tris[t].nbr[1] = succ as i32;
            self.tris[succ].nbr[2] = t as i32;
        }
        self.last = *created.last().expect("cavity produced triangles");
    }

    /// All edges between real points (super-triangle corners excluded).
    fn edges(&self, n_real: u32) -> Vec<(u32, u32)> {
        let mut edges = Vec::new();
        for tri in &self.tris {
            if !tri.alive {
                continue;
            }
            for i in 0..3 {
                let u = tri.v[i];
                let v = tri.v[(i + 1) % 3];
                if u < v && u < n_real && v < n_real {
                    edges.push((u, v));
                }
            }
        }
        edges
    }
}

/// Delaunay-triangulate `points` and return the undirected edge list.
///
/// # Panics
/// On fewer than 3 points.
pub fn delaunay_edges(points: &[Point<2>]) -> Vec<(u32, u32)> {
    assert!(points.len() >= 3, "need at least 3 points");
    // Hilbert-ordered insertion for walk locality.
    let bb = Aabb::from_points(points).expect("nonempty");
    let order = HilbertMapper::new(bb, 16).order(points);

    let mut tr = Triangulator::new(points);
    for &pid in &order {
        tr.insert(pid);
    }
    tr.edges(points.len() as u32)
}

/// The `delaunayX` analogue: Delaunay triangulation of `n` uniformly random
/// points in the unit square (deterministic in `seed`).
pub fn delaunay_unit_square(n: usize, seed: u64) -> Mesh<2> {
    use geographer_geometry::SplitMix64;
    let mut rng = SplitMix64::new(seed);
    let points: Vec<Point<2>> =
        (0..n).map(|_| Point::new([rng.next_f64(), rng.next_f64()])).collect();
    let edges = delaunay_edges(&points);
    let graph = CsrGraph::from_edges(n, &edges);
    let weights = vec![1.0; n];
    Mesh { points, weights, graph }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geographer_geometry::SplitMix64;

    fn random_points(n: usize, seed: u64) -> Vec<Point<2>> {
        let mut rng = SplitMix64::new(seed);
        (0..n).map(|_| Point::new([rng.next_f64(), rng.next_f64()])).collect()
    }

    /// Brute-force check of the empty-circumcircle property on the final
    /// triangulation.
    fn assert_delaunay(points: &[Point<2>], tr: &Triangulator) {
        let n = points.len() as u32;
        for tri in &tr.tris {
            if !tri.alive || tri.v.iter().any(|&v| v >= n) {
                continue;
            }
            let [a, b, c] =
                [points[tri.v[0] as usize], points[tri.v[1] as usize], points[tri.v[2] as usize]];
            for (i, p) in points.iter().enumerate() {
                if tri.v.contains(&(i as u32)) {
                    continue;
                }
                assert!(
                    in_circle(a, b, c, *p) <= 1e-9,
                    "point {i} inside circumcircle of {:?}",
                    tri.v
                );
            }
        }
    }

    #[test]
    fn triangle_of_three_points() {
        let pts = vec![
            Point::new([0.0, 0.0]),
            Point::new([1.0, 0.0]),
            Point::new([0.0, 1.0]),
        ];
        let edges = delaunay_edges(&pts);
        assert_eq!(edges.len(), 3);
    }

    #[test]
    fn square_gets_one_diagonal() {
        let pts = vec![
            Point::new([0.0, 0.0]),
            Point::new([1.0, 0.01]), // tiny perturbation avoids cocircularity
            Point::new([1.0, 1.0]),
            Point::new([0.0, 0.99]),
        ];
        let edges = delaunay_edges(&pts);
        assert_eq!(edges.len(), 5, "4 hull edges + 1 diagonal: {edges:?}");
    }

    #[test]
    fn delaunay_property_small() {
        let pts = random_points(60, 42);
        let bb = Aabb::from_points(&pts).unwrap();
        let mapper = HilbertMapper::new(bb, 16);
        let order = mapper.order(&pts);
        // The insertion order is the stable sort of the indices by key.
        let keys: Vec<u64> = pts.iter().map(|p| mapper.key_of(p)).collect();
        let mut by_key: Vec<u32> = (0..pts.len() as u32).collect();
        by_key.sort_by_key(|&i| keys[i as usize]);
        assert_eq!(order, by_key);
        let mut tr = Triangulator::new(&pts);
        for &pid in &order {
            tr.insert(pid);
        }
        assert_delaunay(&pts, &tr);
    }

    #[test]
    fn euler_formula_on_random_input() {
        // For a triangulation of points in general position with h hull
        // vertices: m = 3n - 3 - h. We don't know h, but m must satisfy
        // 2n - 3 <= m <= 3n - 6 for any planar triangulation-ish graph.
        let n = 500;
        let mesh = delaunay_unit_square(n, 7);
        mesh.validate();
        let m = mesh.m();
        assert!(m >= 2 * n - 3, "too few edges: {m}");
        assert!(m <= 3 * n - 6, "planarity violated: {m}");
        // Average degree of a Delaunay triangulation approaches 6.
        let avg = 2.0 * m as f64 / n as f64;
        assert!(avg > 5.0 && avg < 6.0, "unexpected average degree {avg}");
    }

    #[test]
    fn connected_output() {
        let mesh = delaunay_unit_square(300, 3);
        let (cc, _) = geographer_graph::connected_components(&mesh.graph);
        assert_eq!(cc, 1, "Delaunay triangulations are connected");
    }

    #[test]
    fn deterministic_in_seed() {
        let a = delaunay_unit_square(100, 5);
        let b = delaunay_unit_square(100, 5);
        assert_eq!(a.graph, b.graph);
        let c = delaunay_unit_square(100, 6);
        assert_ne!(a.graph, c.graph);
    }

    #[test]
    fn handles_clustered_points() {
        // Two tight clusters; stresses the walk across empty space.
        let mut pts = Vec::new();
        let mut rng = SplitMix64::new(9);
        for _ in 0..100 {
            pts.push(Point::new([rng.next_f64() * 0.01, rng.next_f64() * 0.01]));
        }
        for _ in 0..100 {
            pts.push(Point::new([
                0.9 + rng.next_f64() * 0.01,
                0.9 + rng.next_f64() * 0.01,
            ]));
        }
        let edges = delaunay_edges(&pts);
        let g = CsrGraph::from_edges(200, &edges);
        let (cc, _) = geographer_graph::connected_components(&g);
        assert_eq!(cc, 1);
    }
}
