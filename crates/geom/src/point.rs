//! Planar points and small geometric helpers.

use std::fmt;
use std::ops::{Add, Sub};

/// A point in the package plane, in micrometres.
///
/// ```
/// use copack_geom::Point;
/// let a = Point::new(0.0, 0.0);
/// let b = Point::new(3.0, 4.0);
/// assert_eq!(a.distance(b), 5.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// Horizontal coordinate (µm), growing rightwards.
    pub x: f64,
    /// Vertical coordinate (µm), growing from the ball grid towards the die.
    pub y: f64,
}

impl Point {
    /// Creates a point from its coordinates.
    #[must_use]
    pub const fn new(x: f64, y: f64) -> Self {
        Self { x, y }
    }

    /// Euclidean distance to `other`.
    #[must_use]
    pub fn distance(self, other: Self) -> f64 {
        (self - other).norm()
    }

    /// Manhattan (L1) distance to `other`.
    #[must_use]
    pub fn manhattan(self, other: Self) -> f64 {
        (self.x - other.x).abs() + (self.y - other.y).abs()
    }

    /// Euclidean norm of this point treated as a vector.
    #[must_use]
    pub fn norm(self) -> f64 {
        self.x.hypot(self.y)
    }

    /// Linear interpolation between `self` (t = 0) and `other` (t = 1).
    ///
    /// `t` is not clamped; values outside `[0, 1]` extrapolate.
    #[must_use]
    pub fn lerp(self, other: Self, t: f64) -> Self {
        Self::new(
            self.x + (other.x - self.x) * t,
            self.y + (other.y - self.y) * t,
        )
    }
}

impl Add for Point {
    type Output = Self;

    fn add(self, rhs: Self) -> Self {
        Self::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl Sub for Point {
    type Output = Self;

    fn sub(self, rhs: Self) -> Self {
        Self::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.3}, {:.3})", self.x, self.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_is_euclidean() {
        assert!((Point::new(1.0, 1.0).distance(Point::new(4.0, 5.0)) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn manhattan_sums_axis_deltas() {
        assert_eq!(Point::new(1.0, 2.0).manhattan(Point::new(-2.0, 4.0)), 5.0);
    }

    #[test]
    fn lerp_hits_endpoints_and_midpoint() {
        let a = Point::new(0.0, 10.0);
        let b = Point::new(4.0, -10.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.lerp(b, 0.5), Point::new(2.0, 0.0));
    }

    #[test]
    fn add_and_sub_are_componentwise() {
        let a = Point::new(1.0, 2.0);
        let b = Point::new(3.0, -1.0);
        assert_eq!(a + b, Point::new(4.0, 1.0));
        assert_eq!(a - b, Point::new(-2.0, 3.0));
    }
}
