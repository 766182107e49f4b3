//! Workload generators: the synthetic analogues of the paper's test data
//! (Sec. 5.2.3).
//!
//! | Paper instance family | Generator here |
//! |---|---|
//! | DelaunayX (2D random points, Delaunay-triangulated) | [`delaunay_unit_square`] |
//! | rgg_n (2D random geometric graphs) | [`rgg2d`] |
//! | hugetric / hugetrace / hugebubbles (adaptively refined 2D meshes) | [`families`] density meshes |
//! | 333SP / AS365 / NACA0015 … (2D FEM meshes) | [`families::airfoil_like`] |
//! | fesom 2.5D climate meshes with node weights | [`climate::climate25d`] |
//! | 3D Delaunay & Alya meshes | [`knn3d()`] + [`grid::grid3d`] (substitution, see DESIGN.md §3) |
//! | time-stepped (drifting) workloads | [`dynamic`] scenarios over any of the above |
//!
//! All generators return a [`Mesh`]: points + node weights + the CSR graph
//! the partition quality is measured on.

#![allow(clippy::needless_range_loop, reason = "fixed-dimension coordinate loops index \
          several parallel arrays at once; iterator-zip rewrites of those loops are less \
          readable, not more")]

pub mod climate;
pub mod delaunay;
pub mod density;
pub mod dynamic;
pub mod families;
pub mod grid;
pub mod knn3d;
pub mod rgg;

use geographer_geometry::Point;
use geographer_graph::CsrGraph;

pub use climate::climate25d;
pub use delaunay::{delaunay_edges, delaunay_unit_square};
pub use dynamic::{DynamicWorkload, Scenario};
pub use grid::{grid2d, grid3d};
pub use knn3d::knn3d;
pub use rgg::rgg2d;

/// A geometric mesh: vertex coordinates, node weights, and the graph
/// structure connecting the vertices.
#[derive(Debug, Clone)]
pub struct Mesh<const D: usize> {
    /// Vertex coordinates.
    pub points: Vec<Point<D>>,
    /// Node weights (unit for unweighted families).
    pub weights: Vec<f64>,
    /// Undirected mesh graph in CSR form.
    pub graph: CsrGraph,
}

impl<const D: usize> Mesh<D> {
    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.points.len()
    }

    /// Number of undirected edges.
    pub fn m(&self) -> usize {
        self.graph.m()
    }

    /// Structural sanity: sizes agree, graph symmetric, weights valid.
    /// Used by the generator test suites.
    pub fn validate(&self) {
        assert_eq!(self.points.len(), self.weights.len());
        assert_eq!(self.points.len(), self.graph.n());
        assert!(self.graph.is_symmetric(), "mesh graph must be symmetric");
        assert!(self.weights.iter().all(|w| w.is_finite() && *w > 0.0));
        assert!(self.points.iter().all(|p| p.is_finite()));
    }
}
