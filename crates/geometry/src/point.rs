//! Fixed-dimension points and the handful of vector operations the
//! partitioners need. `D` is a const generic so distance loops unroll.

use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Sub};

/// A point (or vector) in `D`-dimensional Euclidean space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point<const D: usize>(pub [f64; D]);

impl<const D: usize> Point<D> {
    /// Construct from raw coordinates.
    pub const fn new(coords: [f64; D]) -> Self {
        Point(coords)
    }

    /// The origin.
    pub const fn zero() -> Self {
        Point([0.0; D])
    }

    /// Borrow the coordinate array.
    pub fn coords(&self) -> &[f64; D] {
        &self.0
    }

    /// Squared Euclidean distance to `other`.
    #[inline]
    pub fn dist_sq(&self, other: &Self) -> f64 {
        let mut acc = 0.0;
        for i in 0..D {
            let d = self.0[i] - other.0[i];
            acc += d * d;
        }
        acc
    }

    /// Euclidean distance to `other`.
    #[inline]
    pub fn dist(&self, other: &Self) -> f64 {
        self.dist_sq(other).sqrt()
    }

    /// Squared Euclidean norm.
    #[inline]
    pub fn norm_sq(&self) -> f64 {
        let mut acc = 0.0;
        for i in 0..D {
            acc += self.0[i] * self.0[i];
        }
        acc
    }

    /// Euclidean norm.
    #[inline]
    pub fn norm(&self) -> f64 {
        self.norm_sq().sqrt()
    }

    /// Dot product.
    #[inline]
    pub fn dot(&self, other: &Self) -> f64 {
        let mut acc = 0.0;
        for i in 0..D {
            acc += self.0[i] * other.0[i];
        }
        acc
    }

    /// Component-wise scaling by `s`.
    #[inline]
    pub fn scale(&self, s: f64) -> Self {
        let mut out = self.0;
        for v in &mut out {
            *v *= s;
        }
        Point(out)
    }

    /// Whether every coordinate is finite.
    pub fn is_finite(&self) -> bool {
        self.0.iter().all(|v| v.is_finite())
    }
}

impl<const D: usize> Default for Point<D> {
    fn default() -> Self {
        Self::zero()
    }
}

impl<const D: usize> Index<usize> for Point<D> {
    type Output = f64;
    #[inline]
    fn index(&self, i: usize) -> &f64 {
        &self.0[i]
    }
}

impl<const D: usize> IndexMut<usize> for Point<D> {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut f64 {
        &mut self.0[i]
    }
}

impl<const D: usize> Add for Point<D> {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        let mut out = self.0;
        for i in 0..D {
            out[i] += rhs.0[i];
        }
        Point(out)
    }
}

impl<const D: usize> AddAssign for Point<D> {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        for i in 0..D {
            self.0[i] += rhs.0[i];
        }
    }
}

impl<const D: usize> Sub for Point<D> {
    type Output = Self;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        let mut out = self.0;
        for i in 0..D {
            out[i] -= rhs.0[i];
        }
        Point(out)
    }
}

impl<const D: usize> Mul<f64> for Point<D> {
    type Output = Self;
    #[inline]
    fn mul(self, s: f64) -> Self {
        self.scale(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_matches_pythagoras() {
        let a = Point::new([0.0, 0.0]);
        let b = Point::new([3.0, 4.0]);
        assert_eq!(a.dist(&b), 5.0);
        assert_eq!(a.dist_sq(&b), 25.0);
    }

    #[test]
    fn three_d_ops() {
        let a = Point::new([1.0, 2.0, 3.0]);
        let b = Point::new([4.0, 5.0, 6.0]);
        assert_eq!(a.dot(&b), 32.0);
        assert_eq!((a + b).coords(), &[5.0, 7.0, 9.0]);
        assert_eq!((b - a).coords(), &[3.0, 3.0, 3.0]);
        assert_eq!((a * 2.0).coords(), &[2.0, 4.0, 6.0]);
    }

    #[test]
    fn index_and_mutate() {
        let mut p = Point::new([1.0, 2.0]);
        p[0] = 7.0;
        assert_eq!(p[0], 7.0);
        let mut q = Point::new([1.0, 1.0]);
        q += p;
        assert_eq!(q.coords(), &[8.0, 3.0]);
    }
}
