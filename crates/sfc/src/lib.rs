//! Hilbert space-filling curves in 2 and 3 dimensions.
//!
//! The paper (Sec. 4.1) bootstraps balanced k-means by globally sorting all
//! points along a Hilbert curve, and one of the evaluated competitors
//! (zoltanSFC / HSFC) partitions by cutting the curve into `k` weighted
//! chunks. Both uses go through this crate.
//!
//! The curve is the one John Skilling's transpose algorithm defines
//! ("Programming the Hilbert curve", AIP 2004). Cell → key, the direction
//! every point of a solve takes, does not run it: one level of his
//! transform is a step of a finite-state machine (8 states in 2D, 48 in
//! 3D), tabulated at compile time several levels per entry, and a key is a
//! short walk through that table — which is why keys exist for D ∈ {2, 3}
//! only, and any other `D` fails to build. Skilling's whole-word code is the
//! cold inverse (key → cell, any `D`) and, in the unit tests, the oracle the
//! walk is compared against at every resolution. DESIGN.md §3, "Hilbert
//! keys".

#![allow(clippy::needless_range_loop, reason = "fixed-dimension coordinate loops index \
          several parallel arrays at once; iterator-zip rewrites of those loops are less \
          readable, not more")]

pub mod curve;

pub use curve::{hilbert_coords, hilbert_index, HilbertMapper};
