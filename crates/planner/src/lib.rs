//! # Geographer planner: one API over the paper's four pillars
//!
//! The paper's algorithmic pillars — the cold pipeline and warm-start
//! repartitioning (`geographer::partition_spmd` without and with a
//! previous state), hierarchical processor-aware solves
//! (`geographer::partition_hierarchical_spmd`), and multilevel refinement
//! (`geographer_refine::refine_multilevel`) — compose behind a single
//! surface, the only solve API applications call (DESIGN.md §8):
//!
//! * [`PlanSpec`] — *what* to solve: a [`MeshView`], a [`Tool`], the block
//!   count, an optional `HierarchySpec`, a [`RefineMode`], and the solver
//!   `Config`;
//! * [`PlanState`] — *what the last plan learned*: a `PreviousHierarchy`,
//!   one warm-start pair per hierarchy node (a flat plan is the one-level
//!   hierarchy `[k]`, so its state is one node);
//! * [`Planner::solve`]`(spec, state, comm)` → [`Plan`] — the assignment,
//!   the refreshed state for the next time step, and per-phase
//!   counters/metrics.
//!
//! Combinations are configuration, not code:
//! a warm **hierarchical** solve with a **multilevel V-cycle at every
//! hierarchy level** under the hierarchy's own per-level targets is one
//! `PlanSpec`. [`refine_hierarchy_multilevel`] is every plan's refinement:
//! a flat plan refines over the one-level hierarchy `[k]`, as it solves.
//! Illegal specs are rejected with a typed [`PlanError`] whose `Display`
//! texts follow the workspace's `geographer config:` convention.
//!
//! ```
//! use geographer::Config;
//! use geographer_mesh::delaunay_unit_square;
//! use geographer_parcomm::SelfComm;
//! use geographer_planner::{MeshView, PlanSpec, Planner, Tool};
//!
//! let mesh = delaunay_unit_square(600, 9);
//! let cfg = Config { sampling_init: false, ..Config::default() };
//! let spec = PlanSpec::flat(MeshView::from(&mesh), Tool::Geographer, 4, cfg);
//! let plan = Planner::solve(&spec, None, &SelfComm);
//! assert_eq!(plan.assignment.len(), 600);
//! // Feed `plan.state` into the next step's solve to warm-start it.
//! assert!(plan.state.is_some());
//! ```

pub mod hier_refine;
pub mod solve;
pub mod spec;
pub mod tool;

pub use hier_refine::{refine_hierarchy_multilevel, RefineWork};
pub use solve::{Plan, Planner};
pub use spec::{MeshView, PlanError, PlanSpec, PlanState, RefineMode};
pub use tool::Tool;
