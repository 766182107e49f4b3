//! d-dimensional geometric primitives for the Geographer reproduction.
//!
//! Everything in the partitioning stack works over [`Point<D>`] — a fixed
//! dimension `D` known at compile time (the paper evaluates `D ∈ {2, 3}`) —
//! plus axis-aligned bounding boxes ([`Aabb`]).
//!
//! The crate is dependency-free; the deterministic [`rng::SplitMix64`]
//! generator is the workspace's one PRNG — the workload generators draw
//! from it, algorithm crates sample and hash with it, and tests shuffle
//! and generate property cases with it — and the [`Stopwatch`] is the one
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
