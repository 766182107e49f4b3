//! d-dimensional geometric primitives for the Geographer reproduction.
//!
//! Everything in the partitioning stack works over [`Point<D>`] — a fixed
//! dimension `D` known at compile time (the paper evaluates `D ∈ {2, 3}`) —
//! plus axis-aligned bounding boxes ([`Aabb`]) and weighted point sets
//! ([`WeightedPoints`]).
//!
//! The crate is dependency-free; the deterministic [`rng::SplitMix64`]
//! generator exists so that algorithm crates can sample and hash, and tests
//! can shuffle, without pulling in `rand`.

// Fixed-dimension coordinate loops index several parallel arrays at once;
// iterator-zip rewrites of those loops are less readable, not more.
#![allow(clippy::needless_range_loop)]

pub mod aabb;
pub mod point;
pub mod rng;

pub use aabb::Aabb;
pub use point::Point;
pub use rng::SplitMix64;

/// A point set with per-point weights, the input shape accepted by every
/// partitioner in this workspace (Sec. 4 of the paper: "We also accept ...
/// an optional weight function w : P → R+").
#[derive(Debug, Clone, PartialEq)]
pub struct WeightedPoints<const D: usize> {
    /// Point coordinates.
    pub points: Vec<Point<D>>,
    /// Non-negative per-point weights; same length as `points`.
    pub weights: Vec<f64>,
}

impl<const D: usize> WeightedPoints<D> {
    /// Wrap a point set with unit weights (the unweighted case of the paper).
    pub fn unweighted(points: Vec<Point<D>>) -> Self {
        let weights = vec![1.0; points.len()];
        Self { points, weights }
    }

    /// Wrap a point set with explicit weights.
    ///
    /// # Panics
    /// If lengths differ or any weight is negative/non-finite.
    pub fn new(points: Vec<Point<D>>, weights: Vec<f64>) -> Self {
        assert_eq!(points.len(), weights.len(), "points/weights length mismatch");
        assert!(
            weights.iter().all(|w| w.is_finite() && *w >= 0.0),
            "weights must be finite and non-negative"
        );
        Self { points, weights }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Sum of all weights.
    pub fn total_weight(&self) -> f64 {
        self.weights.iter().sum()
    }

    /// Bounding box of the point set, `None` when empty.
    pub fn bounding_box(&self) -> Option<Aabb<D>> {
        Aabb::from_points(&self.points)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unweighted_gets_unit_weights() {
        let pts = vec![Point::new([0.0, 0.0]), Point::new([1.0, 2.0])];
        let wp = WeightedPoints::unweighted(pts);
        assert_eq!(wp.weights, vec![1.0, 1.0]);
        assert_eq!(wp.total_weight(), 2.0);
        assert_eq!(wp.len(), 2);
        assert!(!wp.is_empty());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let _ = WeightedPoints::new(vec![Point::new([0.0_f64; 2])], vec![]);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_weight_panics() {
        let _ = WeightedPoints::new(vec![Point::new([0.0_f64; 2])], vec![-1.0]);
    }

    #[test]
    fn bounding_box_covers_all_points() {
        let wp = WeightedPoints::unweighted(vec![
            Point::new([0.0, 5.0]),
            Point::new([2.0, -1.0]),
            Point::new([1.0, 1.0]),
        ]);
        let bb = wp.bounding_box().unwrap();
        assert_eq!(bb.min.coords(), &[0.0, -1.0]);
        assert_eq!(bb.max.coords(), &[2.0, 5.0]);
    }
}
