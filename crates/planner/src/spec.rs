//! The planner's input surface: [`MeshView`], [`PlanSpec`], [`PlanState`],
//! and the typed [`PlanError`] validation path.
//!
//! A [`PlanSpec`] names *what* to solve (mesh view, tool, block count,
//! optional processor hierarchy, refinement mode, solver tuning), a
//! [`PlanState`] carries *what a previous plan learned* (one warm-start
//! pair per hierarchy node; a flat spec is the hierarchy `[k]`), and
//! [`crate::Planner::try_solve`] turns the pair into a [`crate::Plan`].
//! Illegal specs — a parameter out of range, state of another shape than
//! the spec's, refinement without a graph or with targets of its own, a
//! baseline tool given warm state — are rejected with a [`PlanError`]
//! whose `Display` text follows the workspace's canonical `geographer
//! config:` error convention (DESIGN.md §8; texts pinned by unit tests).

use std::fmt;

use geographer::{validate_k, Config, ConfigError, HierarchySpec, LevelSpec, PreviousHierarchy};
use geographer_geometry::Point;
use geographer_graph::CsrGraph;
use geographer_mesh::Mesh;
use geographer_refine::MultilevelConfig;

use crate::tool::Tool;

/// Borrowed view of the data a plan is solved over: coordinates, weights,
/// and (optionally) the mesh graph quality is measured and refined on.
/// Refinement modes other than [`RefineMode::None`] require the graph.
#[derive(Debug, Clone, Copy)]
pub struct MeshView<'a, const D: usize> {
    /// Vertex coordinates (the full, replicated point set — the planner
    /// shards it across the communicator's ranks internally).
    pub points: &'a [Point<D>],
    /// Per-vertex weights, same length as `points`.
    pub weights: &'a [f64],
    /// The mesh graph, when available (required for refinement and for the
    /// per-level metrics of hierarchical plans).
    pub graph: Option<&'a CsrGraph>,
}

impl<'a, const D: usize> From<&'a Mesh<D>> for MeshView<'a, D> {
    fn from(mesh: &'a Mesh<D>) -> Self {
        MeshView { points: &mesh.points, weights: &mesh.weights, graph: Some(&mesh.graph) }
    }
}

/// Which refinement post-pass the plan runs on the assembled assignment.
#[derive(Debug, Clone, Default)]
pub enum RefineMode {
    /// No refinement.
    #[default]
    None,
    /// The multilevel coarsen→refine→project V-cycle, run *per hierarchy
    /// level* under each level's ε and capacity fractions
    /// ([`crate::refine_hierarchy_multilevel`], the stacked pass). A flat
    /// spec is the hierarchy `[k]`: one V-cycle over the whole graph toward
    /// `Config::target_fractions`. The targets come from the spec, so the
    /// config's `refine.target_fractions` must be `None`
    /// ([`PlanError::RefineFractions`]). One flat FM-style boundary sweep
    /// is the cycle at `max_levels: 1`, on either spec shape.
    Multilevel(MultilevelConfig),
}

/// The reusable prior state of a Geographer plan: one `(centers,
/// influence)` pair per internal node of the plan's hierarchy, pre-order.
/// A flat spec is the one-level hierarchy `[k]`, so its state is a single
/// node. A finished [`crate::Plan`] returns the refreshed state; feed it
/// back into the next [`crate::Planner::try_solve`] call on the drifted
/// point set, under a spec with the same arities.
pub type PlanState<const D: usize> = PreviousHierarchy<D>;

/// Full description of one partitioning problem: what the layers below
/// (`geographer::partition_hierarchical_spmd`, the baselines,
/// [`crate::refine_hierarchy_multilevel`]) each solve a slice of, as one
/// value. See DESIGN.md §8 for which combinations are legal.
#[derive(Debug, Clone)]
pub struct PlanSpec<'a, const D: usize> {
    /// The data being partitioned.
    pub mesh: MeshView<'a, D>,
    /// Which partitioner runs.
    pub tool: Tool,
    /// Number of leaf blocks. With a hierarchy this must equal the
    /// hierarchy's total leaf count (`spec.total_blocks()`).
    pub k: usize,
    /// Solve for a processor hierarchy instead of a flat k-way split
    /// (Geographer only; per-level ε and capacity fractions live in the
    /// spec's levels).
    pub hierarchy: Option<HierarchySpec>,
    /// Refinement post-pass on the assembled assignment.
    pub refine: RefineMode,
    /// Solver tuning (ε, iteration caps, `target_fractions` for flat
    /// heterogeneous solves, …).
    pub config: Config,
}

impl<'a, const D: usize> PlanSpec<'a, D> {
    /// Flat spec with no refinement — the cold-pipeline shape.
    pub fn flat(mesh: MeshView<'a, D>, tool: Tool, k: usize, config: Config) -> Self {
        PlanSpec { mesh, tool, k, hierarchy: None, refine: RefineMode::None, config }
    }

    /// Hierarchical Geographer spec with no refinement; `k` is derived
    /// from the hierarchy's arities.
    pub fn hierarchical(mesh: MeshView<'a, D>, spec: HierarchySpec, config: Config) -> Self {
        let k = spec.total_blocks();
        PlanSpec { hierarchy: Some(spec), ..Self::flat(mesh, Tool::Geographer, k, config) }
    }

    /// Same spec with a refinement mode.
    pub fn with_refine(mut self, refine: RefineMode) -> Self {
        self.refine = refine;
        self
    }

    /// The leaf-level target weight fractions this spec implies: the flat
    /// `config.target_fractions` for flat specs, or the per-level product
    /// of the hierarchy's capacity fractions for hierarchical specs
    /// (`None` = uniform).
    pub fn leaf_fractions(&self) -> Option<Vec<f64>> {
        match &self.hierarchy {
            None => self.config.target_fractions.clone(),
            Some(h) => {
                if h.levels.iter().all(|l| l.fractions.is_none()) {
                    return None;
                }
                let mut fractions = vec![1.0f64; h.total_blocks()];
                // A level without explicit fractions contributes no factor.
                for (l, lv) in h.levels.iter().enumerate().filter(|(_, lv)| lv.fractions.is_some())
                {
                    let lf = lv.normalized_fractions();
                    for (b, f) in fractions.iter_mut().enumerate() {
                        *f *= lf[h.path_of_block(b as u32)[l] as usize];
                    }
                }
                Some(fractions)
            }
        }
    }

    /// The hierarchy and the solver config Geographer solves this spec
    /// under, and the hierarchy every plan refines over. A flat spec is the
    /// one-level hierarchy `[k]`, whose level takes
    /// `config.target_fractions`; the config keeps everything else, so the
    /// level's config is `config` itself (DESIGN.md §8).
    pub(crate) fn solve_shape(&self) -> (HierarchySpec, Config) {
        let mut config = self.config.clone();
        let fractions = config.target_fractions.take();
        let hierarchy = self.hierarchy.clone().unwrap_or_else(|| HierarchySpec {
            levels: vec![LevelSpec { arity: self.k, epsilon: None, fractions }],
        });
        (hierarchy, config)
    }

    /// Check the spec and its combination with `state`: what
    /// [`crate::Planner::try_solve`] rejects before the solve.
    ///
    /// # Errors
    /// A [`ConfigError`] of `geographer`'s validators — `k`, `config`, the
    /// hierarchy, flat fractions on a hierarchical spec, a state that does
    /// not [`HierarchySpec::fits`] (`[k]` for a flat spec) — as a
    /// [`PlanError::Config`], or a combination no layer below can see. A
    /// flat spec's `target_fractions` read as [`Config`]'s own.
    pub fn validate(&self, state: Option<&PlanState<D>>) -> Result<(), PlanError> {
        let n = self.mesh.points.len();
        if n != self.mesh.weights.len() {
            return Err(PlanError::MeshLengths { points: n, weights: self.mesh.weights.len() });
        }
        if let Some(g) = self.mesh.graph {
            if g.n() != n {
                return Err(PlanError::GraphLength { graph: g.n(), points: n });
            }
        }
        validate_k(self.k, n as u64)?;
        if let Some(h) = &self.hierarchy {
            if self.tool != Tool::Geographer {
                return Err(PlanError::HierarchicalTool { tool: self.tool.name() });
            }
            if self.k != h.total_blocks() {
                return Err(PlanError::KHierarchyMismatch { k: self.k, total: h.total_blocks() });
            }
            h.validate()?;
            if self.config.target_fractions.is_some() {
                return Err(ConfigError::HierarchicalFlatFractions.into());
            }
        }
        self.config.validate(self.k)?;
        if let RefineMode::Multilevel(mcfg) = &self.refine {
            if self.mesh.graph.is_none() {
                return Err(PlanError::MissingGraph);
            }
            if mcfg.refine.target_fractions.is_some() {
                return Err(PlanError::RefineFractions);
            }
        }
        if let Some(state) = state {
            if !self.tool.is_stateful() {
                return Err(PlanError::StatelessTool { tool: self.tool.name() });
            }
            self.solve_shape().0.fits(state)?;
        }
        Ok(())
    }
}

/// Why a [`PlanSpec`]/[`PlanState`] combination is illegal. The `Display`
/// texts follow the workspace's canonical `geographer config:` convention;
/// a [`PlanError::Config`] reads exactly as the [`ConfigError`] the layers
/// below panic with (pinned by `error_texts_are_pinned` below).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// A precondition `geographer` checks: `k` against the point count, a
    /// `Config` or `HierarchySpec` parameter, flat fractions on a
    /// hierarchical spec, or a warm state of another shape.
    Config(ConfigError),
    /// The mesh view has `points` points but `weights` weights.
    MeshLengths { points: usize, weights: usize },
    /// The mesh graph has `graph` vertices but the view `points` points.
    GraphLength { graph: usize, points: usize },
    /// Block count `k` is not the hierarchy's leaf count, `total`.
    KHierarchyMismatch { k: usize, total: usize },
    /// Hierarchical spec with a non-Geographer `tool` (its name).
    HierarchicalTool { tool: &'static str },
    /// Refinement requested without a mesh graph.
    MissingGraph,
    /// Refinement config with `refine.target_fractions` set: refinement
    /// targets are the spec's own.
    RefineFractions,
    /// Warm state handed to a stateless (baseline) `tool` (its name).
    StatelessTool { tool: &'static str },
}

impl From<ConfigError> for PlanError {
    fn from(e: ConfigError) -> Self {
        PlanError::Config(e)
    }
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::Config(e) => e.fmt(f),
            PlanError::MeshLengths { points, weights } => write!(
                f,
                "geographer config: mesh view points and weights lengths differ \
                 ({points} vs {weights})"
            ),
            PlanError::GraphLength { graph, points } => write!(
                f,
                "geographer config: mesh graph has {graph} vertices but the view has \
                 {points} points"
            ),
            PlanError::KHierarchyMismatch { k, total } => write!(
                f,
                "geographer config: k = {k} does not match the hierarchy's {total} leaf blocks"
            ),
            PlanError::HierarchicalTool { tool } => write!(
                f,
                "geographer config: hierarchical specs require the Geographer tool (got {tool})"
            ),
            PlanError::MissingGraph => {
                write!(f, "geographer config: refinement requires the mesh graph in the plan spec")
            }
            PlanError::RefineFractions => write!(
                f,
                "geographer config: refinement takes capacity fractions from the plan spec; \
                 MultilevelConfig::refine.target_fractions must be None"
            ),
            PlanError::StatelessTool { tool } => write!(
                f,
                "geographer config: tool {tool} is stateless and cannot consume a warm \
                 plan state"
            ),
        }
    }
}

impl std::error::Error for PlanError {}

#[cfg(test)]
mod tests {
    use super::*;
    use geographer::{hierarchy::NodeState, PreviousPartition};
    use geographer_geometry::SplitMix64;

    fn points(n: usize, seed: u64) -> (Vec<Point<2>>, Vec<f64>) {
        let mut rng = SplitMix64::new(seed);
        let pts: Vec<Point<2>> =
            (0..n).map(|_| Point::new([rng.next_f64(), rng.next_f64()])).collect();
        let w = vec![1.0; n];
        (pts, w)
    }

    fn view<'a>(pts: &'a [Point<2>], w: &'a [f64]) -> MeshView<'a, 2> {
        MeshView { points: pts, weights: w, graph: None }
    }

    /// The warm state of a flat solve into `k` blocks: one root node.
    fn flat_state(k: usize) -> PlanState<2> {
        let state =
            PreviousPartition { centers: vec![Point::new([0.5; 2]); k], influence: vec![1.0; k] };
        PlanState { arities: vec![k], nodes: vec![NodeState { path: Vec::new(), state }] }
    }

    #[test]
    fn legal_specs_validate() {
        let (pts, w) = points(64, 1);
        let spec = PlanSpec::flat(view(&pts, &w), Tool::Geographer, 4, Config::default());
        assert!(spec.validate(None).is_ok());
        let spec = PlanSpec::hierarchical(
            view(&pts, &w),
            HierarchySpec::uniform(&[2, 2]),
            Config::default(),
        );
        assert_eq!(spec.k, 4);
        assert!(spec.validate(None).is_ok());
    }

    #[test]
    fn leaf_fractions_multiply_levels() {
        let (pts, w) = points(16, 2);
        let spec = PlanSpec::hierarchical(
            view(&pts, &w),
            HierarchySpec {
                levels: vec![
                    geographer::LevelSpec {
                        arity: 2,
                        epsilon: None,
                        fractions: Some(vec![3.0, 1.0]),
                    },
                    geographer::LevelSpec::uniform(2),
                ],
            },
            Config::default(),
        );
        let f = spec.leaf_fractions().unwrap();
        assert_eq!(f, vec![0.75, 0.75, 0.25, 0.25]);
        // Uniform hierarchy: no explicit fractions.
        let spec = PlanSpec::hierarchical(
            view(&pts, &w),
            HierarchySpec::uniform(&[2, 2]),
            Config::default(),
        );
        assert!(spec.leaf_fractions().is_none());
    }

    /// The planner's validation errors share the `geographer config:`
    /// convention; a `Config` error reads as `geographer`'s own.
    #[test]
    fn error_texts_are_pinned() {
        assert_eq!(
            PlanError::from(ConfigError::HierarchicalFlatFractions).to_string(),
            "geographer config: hierarchical solves take capacity fractions from the \
             HierarchySpec's levels; Config::target_fractions must be None"
        );
        assert_eq!(
            PlanError::from(ConfigError::KExceedsN { k: 11, n: 10 }).to_string(),
            "geographer config: k = 11 exceeds global point count n = 10"
        );
        assert_eq!(
            PlanError::StatelessTool { tool: "RCB" }.to_string(),
            "geographer config: tool RCB is stateless and cannot consume a warm plan state"
        );
        assert_eq!(
            PlanError::KHierarchyMismatch { k: 7, total: 8 }.to_string(),
            "geographer config: k = 7 does not match the hierarchy's 8 leaf blocks"
        );
        assert_eq!(
            PlanError::MissingGraph.to_string(),
            "geographer config: refinement requires the mesh graph in the plan spec"
        );
        assert_eq!(
            PlanError::RefineFractions.to_string(),
            "geographer config: refinement takes capacity fractions from the plan spec; \
             MultilevelConfig::refine.target_fractions must be None"
        );
        assert_eq!(
            PlanError::HierarchicalTool { tool: "HSFC" }.to_string(),
            "geographer config: hierarchical specs require the Geographer tool (got HSFC)"
        );
        assert_eq!(
            PlanError::MeshLengths { points: 4, weights: 3 }.to_string(),
            "geographer config: mesh view points and weights lengths differ (4 vs 3)"
        );
        assert_eq!(
            PlanError::GraphLength { graph: 5, points: 4 }.to_string(),
            "geographer config: mesh graph has 5 vertices but the view has 4 points"
        );
    }

    /// The state-shape error of a state with `state` arities and `nodes`
    /// nodes against a spec of `spec` arities and `internal` nodes.
    fn shape(state: &[usize], nodes: usize, spec: &[usize], internal: usize) -> PlanError {
        let (state, spec) = (state.to_vec(), spec.to_vec());
        PlanError::Config(ConfigError::StateShape { state, spec, nodes, internal })
    }

    #[test]
    fn illegal_combinations_are_rejected() {
        let (pts, w) = points(64, 3);
        // Flat state → hierarchical spec.
        let spec = PlanSpec::hierarchical(
            view(&pts, &w),
            HierarchySpec::uniform(&[2, 2]),
            Config::default(),
        );
        let state = flat_state(4);
        assert_eq!(spec.validate(Some(&state)), Err(shape(&[4], 1, &[2, 2], 3)));
        // Warm state on a stateless tool.
        let spec = PlanSpec::flat(view(&pts, &w), Tool::Rcb, 4, Config::default());
        assert_eq!(spec.validate(Some(&state)), Err(PlanError::StatelessTool { tool: "RCB" }));
        // Hierarchy on a baseline tool.
        let mut spec = PlanSpec::hierarchical(
            view(&pts, &w),
            HierarchySpec::uniform(&[2, 2]),
            Config::default(),
        );
        spec.tool = Tool::Hsfc;
        assert_eq!(spec.validate(None), Err(PlanError::HierarchicalTool { tool: "HSFC" }));
        // k must match the hierarchy.
        let mut spec = PlanSpec::hierarchical(
            view(&pts, &w),
            HierarchySpec::uniform(&[2, 2]),
            Config::default(),
        );
        spec.k = 7;
        assert_eq!(spec.validate(None), Err(PlanError::KHierarchyMismatch { k: 7, total: 4 }));
        // Refinement without a graph.
        let spec = PlanSpec::flat(view(&pts, &w), Tool::Geographer, 4, Config::default())
            .with_refine(RefineMode::Multilevel(MultilevelConfig::default()));
        assert_eq!(spec.validate(None), Err(PlanError::MissingGraph));
        // k out of range uses the canonical texts.
        let spec = PlanSpec::flat(view(&pts, &w), Tool::Geographer, 65, Config::default());
        let err = ConfigError::KExceedsN { k: 65, n: 64 };
        assert_eq!(spec.validate(None), Err(PlanError::Config(err)));
        let spec = PlanSpec::flat(view(&pts, &w), Tool::Geographer, 0, Config::default());
        assert_eq!(spec.validate(None), Err(PlanError::Config(ConfigError::KZero)));
    }

    #[test]
    fn mismatched_flat_state_rejected() {
        let (pts, w) = points(32, 4);
        let spec = PlanSpec::flat(view(&pts, &w), Tool::Geographer, 4, Config::default());
        assert_eq!(spec.validate(Some(&flat_state(3))), Err(shape(&[3], 1, &[4], 1)));
    }
}
