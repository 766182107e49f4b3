//! d-dimensional geometric primitives for the Geographer reproduction.
//!
//! Everything in the partitioning stack works over [`Point<D>`] — a fixed
//! dimension `D` known at compile time (the paper evaluates `D ∈ {2, 3}`) —
//! plus axis-aligned bounding boxes ([`Aabb`]).
//!
//! The crate is dependency-free; the deterministic [`rng::SplitMix64`]
//! generator exists so that algorithm crates can sample and hash, and tests
//! can shuffle, without pulling in `rand`, and the [`Stopwatch`] is the one
//! clock the solver crates time their phases with.

#![allow(clippy::needless_range_loop, reason = "fixed-dimension coordinate loops index \
          several parallel arrays at once; iterator-zip rewrites of those loops are less \
          readable, not more")]

pub mod aabb;
pub mod point;
pub mod rng;
pub mod stopwatch;

pub use aabb::Aabb;
pub use point::Point;
pub use rng::SplitMix64;
pub use stopwatch::Stopwatch;
