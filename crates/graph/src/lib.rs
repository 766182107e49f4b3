//! Graphs and partition-quality metrics.
//!
//! The partitioners in this workspace are geometric — they never look at
//! edges — but the paper evaluates their output with graph metrics
//! (Sec. 2): edge cut, maximum/total communication volume, block diameter
//! (iFUB lower bound), and balance. This crate provides the compressed
//! sparse row graph type, the traversals, and those metrics.

#![allow(clippy::needless_range_loop, reason = "fixed-dimension coordinate loops index \
          several parallel arrays at once; iterator-zip rewrites of those loops are less \
          readable, not more")]

pub mod coarsen;
pub mod csr;
pub mod cut;
pub mod hierarchy;
pub mod metrics;
pub mod migration;
pub mod traversal;

pub use coarsen::WeightedCsrGraph;
pub use csr::CsrGraph;
pub use cut::{edge_cut, edge_cut_core};
pub use hierarchy::{coarsen_assignment, evaluate_levels, LevelMetrics};
pub use metrics::{
    evaluate_partition, evaluate_partition_with_targets, geometric_mean,
    harmonic_mean_diameter, imbalance, imbalance_with_targets, PartitionMetrics,
};
pub use migration::{migration, relabel_free_migration, MigrationMetrics};
pub use traversal::{bfs_distances, connected_components, diameter_lower_bound};
