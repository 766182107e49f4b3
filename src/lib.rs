//! Umbrella crate of the Geographer reproduction workspace: re-exports
//! every subsystem under one roof and hosts the cross-crate integration
//! tests (`tests/`) and runnable examples (`examples/`).
//!
//! See the individual crates for the real APIs:
//!
//! * [`geographer`] — the balanced k-means partitioner (the paper's
//!   contribution);
//! * [`geographer_baselines`] — RCB, RIB, MultiJagged, HSFC;
//! * [`geographer_mesh`] — workload generators, every seeded draw from
//!   `SplitMix64`;
//! * [`geographer_geometry`] — points, bounding boxes, the `SplitMix64`
//!   generator and the solver crates' stopwatch;
//! * [`geographer_graph`] — CSR graphs and partition metrics;
//! * [`geographer_parcomm`] — the SPMD communication layer;
//! * [`geographer_planner`] — the unified `PlanSpec`/`PlanState`/`Plan`
//!   solver front-end over pipeline, warm start, hierarchy, and
//!   refinement;
//! * [`geographer_refine`] — graph-aware boundary refinement;
//! * [`geographer_dsort`] — distributed sorting/selection and the global
//!   bounding box;
//! * [`geographer_sfc`] — Hilbert curves;
//! * [`geographer_spmv`] — the SpMV communication benchmark;
//! * [`geographer_viz`] — SVG partition rendering;
//! * [`geographer_bench`] — the experiment harness.

pub use geographer;
pub use geographer_baselines;
pub use geographer_bench;
pub use geographer_dsort;
pub use geographer_geometry;
pub use geographer_graph;
pub use geographer_mesh;
pub use geographer_parcomm;
pub use geographer_planner;
pub use geographer_refine;
pub use geographer_sfc;
pub use geographer_spmv;
pub use geographer_viz;
