//! Named instance families matching the paper's benchmark collection, at
//! reproduction scale. Each function is deterministic in `(n, seed)`.

use geographer_graph::CsrGraph;

use crate::climate::climate25d;
use crate::delaunay::{delaunay_edges, delaunay_unit_square};
use crate::density::{airfoil_density, bubbles_density, sample_by_density, trace_density};
use crate::grid::grid3d;
use crate::knn3d::{knn3d, PointCloud};
use crate::rgg::rgg2d;
use crate::Mesh;

/// A named instance: identifies generator + scale for the experiment
/// tables.
#[derive(Debug, Clone)]
pub struct Instance2d {
    /// Display name used in the reproduced tables.
    pub name: &'static str,
    /// The generated mesh.
    pub mesh: Mesh<2>,
}

/// A named 3D instance.
#[derive(Debug, Clone)]
pub struct Instance3d {
    /// Display name used in the reproduced tables.
    pub name: &'static str,
    /// The generated mesh.
    pub mesh: Mesh<3>,
}

fn density_mesh(n: usize, seed: u64, density: impl Fn(geographer_geometry::Point<2>) -> f64) -> Mesh<2> {
    let points = sample_by_density(n, seed, density);
    let edges = delaunay_edges(&points);
    let graph = CsrGraph::from_edges(n, &edges);
    Mesh { points, weights: vec![1.0; n], graph }
}

/// `hugetric`-like: adaptively refined triangular mesh with a few circular
/// refinement regions.
pub fn tric_like(n: usize, seed: u64) -> Mesh<2> {
    let centers = [(0.3, 0.4, 0.25), (0.75, 0.7, 0.2)];
    density_mesh(n, seed, bubbles_density(&centers))
}

/// `hugetrace`-like: refinement along a moving front.
pub fn trace_like(n: usize, seed: u64) -> Mesh<2> {
    density_mesh(n, seed, trace_density)
}

/// `hugebubbles`-like: many refinement bubbles.
pub fn bubbles_like(n: usize, seed: u64) -> Mesh<2> {
    let centers = [
        (0.2, 0.2, 0.12),
        (0.8, 0.25, 0.1),
        (0.5, 0.55, 0.15),
        (0.25, 0.8, 0.1),
        (0.85, 0.8, 0.12),
    ];
    density_mesh(n, seed, bubbles_density(&centers))
}

/// FEM airfoil mesh (NACA0015/M6/AS365 analogue).
pub fn airfoil_like(n: usize, seed: u64) -> Mesh<2> {
    density_mesh(n, seed, airfoil_density)
}

/// The full 2D instance list used by the Fig. 2(a) / Table 2 analogues.
pub fn dimacs2d_suite(n: usize, seed: u64) -> Vec<Instance2d> {
    vec![
        Instance2d { name: "tric-like", mesh: tric_like(n, seed) },
        Instance2d { name: "trace-like", mesh: trace_like(n, seed + 1) },
        Instance2d { name: "bubbles-like", mesh: bubbles_like(n, seed + 2) },
        Instance2d { name: "airfoil-like", mesh: airfoil_like(n, seed + 3) },
        Instance2d { name: "delaunay", mesh: delaunay_unit_square(n, seed + 4) },
        Instance2d { name: "rgg2d", mesh: rgg2d(n, None, seed + 5) },
    ]
}

/// The 2.5D climate suite used by the Fig. 2(b) analogue.
pub fn climate_suite(n: usize, seed: u64) -> Vec<Instance2d> {
    vec![
        Instance2d { name: "fesom-like-a", mesh: climate25d(n, 40, seed) },
        Instance2d { name: "fesom-like-b", mesh: climate25d(n, 20, seed + 1) },
    ]
}

/// The 3D suite used by the Fig. 2(c) analogue.
pub fn three_d_suite(n: usize, seed: u64) -> Vec<Instance3d> {
    let side = (n as f64).powf(1.0 / 3.0).round() as usize;
    vec![
        Instance3d { name: "delaunay3d-like", mesh: knn3d(n, 6, PointCloud::Uniform, seed) },
        Instance3d {
            name: "alya-like",
            mesh: knn3d(n, 6, PointCloud::Clustered { clusters: 5 }, seed + 1),
        },
        Instance3d { name: "grid3d", mesh: grid3d(side, side, side, 0.25, seed + 2) },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_2d_families_valid() {
        for inst in dimacs2d_suite(400, 1) {
            inst.mesh.validate();
            assert_eq!(inst.mesh.n(), 400, "{} wrong size", inst.name);
        }
    }

    #[test]
    fn climate_suite_weighted() {
        for inst in climate_suite(300, 2) {
            inst.mesh.validate();
            let minw = inst.mesh.weights.iter().cloned().fold(f64::INFINITY, f64::min);
            let maxw = inst.mesh.weights.iter().cloned().fold(0.0, f64::max);
            assert!(maxw > 2.0 * minw, "{}: weights should vary", inst.name);
        }
    }

    #[test]
    fn three_d_suite_valid() {
        for inst in three_d_suite(343, 3) {
            inst.mesh.validate();
            assert!(inst.mesh.n() >= 300, "{} too small", inst.name);
        }
    }

    #[test]
    fn refined_meshes_have_nonuniform_density() {
        // The refined families must show a wide spread of local edge
        // lengths (that's what "adaptively refined" means).
        let mesh = trace_like(800, 4);
        let mut lengths: Vec<f64> = Vec::new();
        for v in 0..mesh.n() as u32 {
            for &u in mesh.graph.neighbors(v) {
                if v < u {
                    lengths.push(mesh.points[v as usize].dist(&mesh.points[u as usize]));
                }
            }
        }
        lengths.sort_by(f64::total_cmp);
        let p10 = lengths[lengths.len() / 10];
        let p90 = lengths[9 * lengths.len() / 10];
        assert!(p90 / p10 > 2.5, "edge length spread too small: {}", p90 / p10);
    }
}
