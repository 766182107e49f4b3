//! Axis-aligned bounding boxes.
//!
//! The balanced k-means pruning step (Sec. 4.4 of the paper) needs the
//! *minimum* distance between a cluster center and the box around the
//! process-local points: if even the closest corner of the box is farther
//! (in effective distance) than the second-best candidate found so far, the
//! center can be skipped for every local point. (Algorithm 1 of the paper
//! prints `maxDist`, which would make the skip unsound; see DESIGN.md
//! erratum list.)

use crate::point::Point;

/// An axis-aligned box `[min, max]` in `D` dimensions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Aabb<const D: usize> {
    /// Component-wise lower corner.
    pub min: Point<D>,
    /// Component-wise upper corner.
    pub max: Point<D>,
}

impl<const D: usize> Aabb<D> {
    /// Box spanning exactly the given corners.
    ///
    /// # Panics
    /// If `min > max` in any dimension.
    pub fn new(min: Point<D>, max: Point<D>) -> Self {
        for i in 0..D {
            assert!(min[i] <= max[i], "inverted box in dimension {i}");
        }
        Aabb { min, max }
    }

    /// Smallest box containing all `points`; `None` when empty.
    pub fn from_points(points: &[Point<D>]) -> Option<Self> {
        let first = *points.first()?;
        let mut bb = Aabb { min: first, max: first };
        for p in &points[1..] {
            bb.grow(p);
        }
        Some(bb)
    }

    /// Extend the box to cover `p`.
    pub fn grow(&mut self, p: &Point<D>) {
        for i in 0..D {
            if p[i] < self.min[i] {
                self.min[i] = p[i];
            }
            if p[i] > self.max[i] {
                self.max[i] = p[i];
            }
        }
    }

    /// Union of two boxes.
    pub fn merge(&self, other: &Self) -> Self {
        let mut out = *self;
        out.grow(&other.min);
        out.grow(&other.max);
        out
    }

    /// Whether `p` lies inside (inclusive).
    pub fn contains(&self, p: &Point<D>) -> bool {
        (0..D).all(|i| self.min[i] <= p[i] && p[i] <= self.max[i])
    }

    /// Geometric center.
    pub fn center(&self) -> Point<D> {
        let mut c = [0.0; D];
        for i in 0..D {
            c[i] = 0.5 * (self.min[i] + self.max[i]);
        }
        Point::new(c)
    }

    /// Side length in dimension `i`.
    pub fn extent(&self, i: usize) -> f64 {
        self.max[i] - self.min[i]
    }

    /// Index of the widest dimension (used by RCB/MultiJagged cut selection).
    pub fn widest_dim(&self) -> usize {
        (0..D)
            .max_by(|&a, &b| self.extent(a).total_cmp(&self.extent(b)))
            .expect("D > 0")
    }

    /// Length of the box diagonal.
    pub fn diagonal(&self) -> f64 {
        self.max.dist(&self.min)
    }

    /// Squared distance from `p` to the closest point of the box
    /// (zero when `p` is inside).
    #[inline]
    pub fn min_dist_sq(&self, p: &Point<D>) -> f64 {
        let mut acc = 0.0;
        for i in 0..D {
            let d = if p[i] < self.min[i] {
                self.min[i] - p[i]
            } else if p[i] > self.max[i] {
                p[i] - self.max[i]
            } else {
                0.0
            };
            acc += d * d;
        }
        acc
    }

    /// Distance from `p` to the closest point of the box.
    #[inline]
    pub fn min_dist(&self, p: &Point<D>) -> f64 {
        self.min_dist_sq(p).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_box() -> Aabb<2> {
        Aabb::new(Point::new([0.0, 0.0]), Point::new([1.0, 1.0]))
    }

    #[test]
    fn from_points_and_contains() {
        let pts = vec![
            Point::new([0.5, 0.5]),
            Point::new([-1.0, 2.0]),
            Point::new([3.0, 0.0]),
        ];
        let bb = Aabb::from_points(&pts).unwrap();
        for p in &pts {
            assert!(bb.contains(p));
        }
        assert!(!bb.contains(&Point::new([-2.0, 0.0])));
        assert!(Aabb::<2>::from_points(&[]).is_none());
    }

    #[test]
    fn containment_is_inclusive_on_faces_and_corners() {
        // The SFC mapper and kd-tree pruning both treat boxes as closed
        // sets; a point exactly on a face or corner must count as inside.
        let bb = unit_box();
        for p in [
            [0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0], // corners
            [0.5, 0.0], [0.5, 1.0], [0.0, 0.5], [1.0, 0.5], // face midpoints
        ] {
            assert!(bb.contains(&Point::new(p)), "{p:?} should be inside");
            assert_eq!(bb.min_dist(&Point::new(p)), 0.0);
        }
    }

    #[test]
    fn containment_rejects_epsilon_outside() {
        let bb = unit_box();
        let eps = 1e-12;
        for p in [
            [-eps, 0.5], [1.0 + eps, 0.5], [0.5, -eps], [0.5, 1.0 + eps],
            [1.0 + eps, 1.0 + eps],
        ] {
            assert!(!bb.contains(&Point::new(p)), "{p:?} should be outside");
            assert!(bb.min_dist_sq(&Point::new(p)) > 0.0);
        }
    }

    #[test]
    fn degenerate_boxes_contain_exactly_their_span() {
        // Zero extent in every dimension: a single point.
        let p = Point::new([2.0, -3.0]);
        let dot = Aabb::new(p, p);
        assert!(dot.contains(&p));
        assert!(!dot.contains(&Point::new([2.0, -3.0 + 1e-15])));
        assert_eq!(dot.diagonal(), 0.0);
        assert_eq!(dot.center().coords(), p.coords());

        // Zero extent in one dimension: a segment.
        let seg = Aabb::new(Point::new([0.0, 1.0]), Point::new([5.0, 1.0]));
        assert!(seg.contains(&Point::new([3.0, 1.0])));
        assert!(!seg.contains(&Point::new([3.0, 1.0 - 1e-15])));
        assert_eq!(seg.extent(1), 0.0);
        assert_eq!(seg.widest_dim(), 0);
    }

    #[test]
    fn from_single_point_is_degenerate_but_valid() {
        let p = Point::new([7.0, 8.0]);
        let bb = Aabb::from_points(&[p]).unwrap();
        assert_eq!(bb.min, p);
        assert_eq!(bb.max, p);
        assert!(bb.contains(&p));
    }

    #[test]
    fn grow_with_boundary_point_is_noop() {
        let mut bb = unit_box();
        let before = bb;
        bb.grow(&Point::new([1.0, 0.0]));
        assert_eq!(bb, before);
    }

    #[test]
    fn min_dist_from_corner_region_uses_both_axes() {
        // Outside past a corner, the closest box point is that corner, so
        // the distance has contributions from every violated axis.
        let bb = unit_box();
        let p = Point::new([-3.0, -4.0]);
        assert_eq!(bb.min_dist(&p), 5.0);
        assert_eq!(bb.min_dist_sq(&p), 25.0);
    }

    #[test]
    fn negative_and_mixed_coordinate_boxes() {
        let bb = Aabb::new(Point::new([-2.0, -2.0]), Point::new([-1.0, 3.0]));
        assert!(bb.contains(&Point::new([-1.5, 0.0])));
        assert!(!bb.contains(&Point::new([0.0, 0.0])));
        assert_eq!(bb.min_dist(&Point::new([0.0, 0.0])), 1.0);
    }

    #[test]
    fn min_dist_inside_is_zero() {
        let bb = unit_box();
        assert_eq!(bb.min_dist(&Point::new([0.3, 0.7])), 0.0);
    }

    #[test]
    fn min_dist_outside() {
        let bb = unit_box();
        let p = Point::new([2.0, 0.5]);
        assert_eq!(bb.min_dist(&p), 1.0);
    }

    #[test]
    fn widest_dim_and_diagonal() {
        let bb = Aabb::new(Point::new([0.0, 0.0, 0.0]), Point::new([1.0, 5.0, 2.0]));
        assert_eq!(bb.widest_dim(), 1);
        assert!((bb.diagonal() - (1.0_f64 + 25.0 + 4.0).sqrt()).abs() < 1e-12);
        assert_eq!(bb.extent(2), 2.0);
    }

    #[test]
    fn merge_covers_both() {
        let a = unit_box();
        let b = Aabb::new(Point::new([2.0, -1.0]), Point::new([3.0, 0.5]));
        let m = a.merge(&b);
        assert!(m.contains(&Point::new([0.0, 1.0])));
        assert!(m.contains(&Point::new([3.0, -1.0])));
    }

    #[test]
    #[should_panic(expected = "inverted box")]
    fn inverted_box_panics() {
        let _ = Aabb::new(Point::new([1.0, 0.0]), Point::new([0.0, 1.0]));
    }

    #[test]
    fn center_is_midpoint() {
        assert_eq!(unit_box().center().coords(), &[0.5, 0.5]);
    }
}
