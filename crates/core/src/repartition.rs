//! The reusable state of a flat solve (DESIGN.md §5).

use geographer_geometry::Point;

/// The reusable state of a previous partitioning solve: the replicated
/// cluster centers and influence values. Obtain one from a
/// [`crate::PipelineResult`] (any rank's copy works — the state is
/// replicated), or as a node of a [`crate::PreviousHierarchy`], and pass
/// it to [`crate::partition_spmd`] when the point set has changed.
///
/// On a *converged* previous solve the pair exactly reproduces the previous
/// assignment (see [`crate::balanced_kmeans_warm`]), which is what makes the
/// zero-migration-on-unchanged-input contract hold.
#[derive(Debug, Clone)]
pub struct PreviousPartition<const D: usize> {
    /// Cluster centers of the previous solve (replicated, length `k`).
    pub centers: Vec<Point<D>>,
    /// Influence values of the previous solve (replicated, length `k`).
    pub influence: Vec<f64>,
}
