//! # Geographer: balanced k-means for parallel geometric partitioning
//!
//! A Rust reproduction of *"Balanced k-means for Parallel Geometric
//! Partitioning"* (von Looz, Tzovas, Meyerhenke — ICPP 2018). Geographer
//! partitions the vertex coordinates of a simulation mesh into `k` blocks
//! of (approximately) equal weight while producing compact, convex-ish
//! block shapes, by combining
//!
//! * a **space-filling-curve bootstrap** — points are globally sorted along
//!   a Hilbert curve, which both redistributes them with spatial locality
//!   and seeds `k` well-spread initial centers; and
//! * **balanced k-means** — Lloyd's algorithm where each cluster carries an
//!   *influence* value dividing its distances; influences are adapted until
//!   every block's weight is within `1+ε` of the average, turning the
//!   assignment into a multiplicatively weighted Voronoi diagram.
//!
//! Geometric optimizations (Hamerly-style distance bounds and center-to-
//! bounding-box pruning, both adapted to effective distances) skip the
//! inner loop for the vast majority of points.
//!
//! ## Entry points
//!
//! Applications solve through `geographer_planner::Planner::solve`, the
//! one door over flat, warm, hierarchical and refined solves. This crate
//! is its implementation layer and exports exactly two solve functions,
//! both SPMD collectives over any [`geographer_parcomm::Comm`]:
//! [`partition_spmd`] and [`partition_hierarchical_spmd`]. Each takes the
//! previous solve's state as an `Option`; a cold solve is a warm one
//! without state.
//!
//! ## Quick start (one rank)
//!
//! ```
//! use geographer::{partition_spmd, Config};
//! use geographer_geometry::Point;
//! use geographer_parcomm::SelfComm;
//!
//! // A thousand points on a ring.
//! let pts: Vec<Point<2>> = (0..1000)
//!     .map(|i| {
//!         let a = i as f64 * 0.00628;
//!         Point::new([a.cos(), a.sin()])
//!     })
//!     .collect();
//! let w = vec![1.0; pts.len()];
//! let result = partition_spmd(&SelfComm, &pts, &w, 8, None, &Config::default());
//! assert_eq!(result.assignment.len(), 1000);
//! assert!(result.stats.final_imbalance <= 0.03 + 1e-9);
//! ```
//!
//! ## SPMD (distributed) mode
//!
//! Use [`geographer_parcomm::run_spmd`] to execute the same call with `p`
//! threads as ranks, each owning a shard of the points — the shape of the
//! paper's MPI deployment:
//!
//! ```
//! use geographer::{partition_spmd, Config};
//! use geographer_geometry::Point;
//! use geographer_parcomm::run_spmd;
//!
//! let results = run_spmd(4, |comm| {
//!     use geographer_parcomm::Comm;
//!     let local: Vec<Point<2>> = (0..250)
//!         .map(|i| Point::new([(comm.rank() * 250 + i) as f64 * 1e-3, 0.5]))
//!         .collect();
//!     let w = vec![1.0; local.len()];
//!     partition_spmd(&comm, &local, &w, 4, None, &Config::default()).assignment
//! });
//! assert_eq!(results.iter().map(Vec::len).sum::<usize>(), 1000);
//! ```
//!
//! ## Repartitioning a drifting point set (warm start)
//!
//! For time-stepped workloads, feed the previous solve's state back in:
//! with `Some(&previous)`, [`partition_spmd`] skips the global sort and the
//! redistribution — each rank only orders its own points along a coarse
//! curve — and warm-starts from the previous centers and influences, so most
//! points keep their block (low migration) and convergence takes a handful
//! of iterations (DESIGN.md §5):
//!
//! ```
//! use geographer::{partition_spmd, Config};
//! use geographer_geometry::Point;
//! use geographer_parcomm::SelfComm;
//!
//! let mut rng = geographer_geometry::SplitMix64::new(7);
//! let pts: Vec<Point<2>> =
//!     (0..600).map(|_| Point::new([rng.next_f64(), rng.next_f64()])).collect();
//! let w = vec![1.0; pts.len()];
//! let cfg = Config { sampling_init: false, ..Config::default() };
//! let first = partition_spmd(&SelfComm, &pts, &w, 4, None, &cfg);
//!
//! // The points drift a little between time steps…
//! let drifted: Vec<Point<2>> =
//!     pts.iter().map(|p| Point::new([p[0] + 0.01, p[1]])).collect();
//! let next = partition_spmd(&SelfComm, &drifted, &w, 4, Some(&first.previous()), &cfg);
//! let kept = next.assignment.iter().zip(&first.assignment).filter(|(a, b)| a == b).count();
//! assert!(kept >= 540, "warm repartitioning keeps most points in place");
//! ```
//!
//! ## Hierarchical (processor-aware) partitioning
//!
//! For machines with a communication hierarchy (nodes × sockets × cores),
//! solve recursively so the expensive cut lands on the cheap links:
//! [`partition_hierarchical_spmd`] partitions into the outermost groups
//! first and then splits inside each group, flattening leaf paths to
//! contiguous flat block ids (DESIGN.md §6):
//!
//! ```
//! use geographer::{partition_hierarchical_spmd, Config, HierarchySpec};
//! use geographer_geometry::Point;
//! use geographer_parcomm::SelfComm;
//!
//! let mut rng = geographer_geometry::SplitMix64::new(11);
//! let pts: Vec<Point<2>> =
//!     (0..800).map(|_| Point::new([rng.next_f64(), rng.next_f64()])).collect();
//! let w = vec![1.0; pts.len()];
//! let spec = HierarchySpec::uniform(&[4, 2]); // 4 nodes × 2 cores = 8 blocks
//! let cfg = Config { sampling_init: false, ..Config::default() };
//! let res = partition_hierarchical_spmd(&SelfComm, &pts, &w, &spec, None, &cfg);
//! assert!(res.assignment.iter().all(|&b| b < 8));
//! assert_eq!(spec.path_of_block(5), vec![2, 1]); // block 5 = node 2, core 1
//! ```

#![allow(clippy::needless_range_loop, reason = "fixed-dimension coordinate loops index \
          several parallel arrays at once; iterator-zip rewrites of those loops are less \
          readable, not more")]

mod bounds;
pub mod config;
pub mod hierarchy;
mod influence;
pub mod kmeans;
pub mod pipeline;
pub mod repartition;

pub use config::{validate_k, Config, ConfigError};
pub use geographer_dsort::global_bbox;
pub use hierarchy::{
    partition_hierarchical_spmd, HierarchicalResult, HierarchySpec, LevelSpec, PreviousHierarchy,
};
pub use kmeans::{balanced_kmeans, balanced_kmeans_warm, KMeansOutput, KMeansStats};
pub use pipeline::{partition_spmd, PhaseComm, PipelineResult, PipelineTimings};
pub use repartition::PreviousPartition;
