//! Tuning parameters of balanced k-means and the Geographer pipeline, and
//! the checks of a solve's preconditions.

use std::fmt;

/// Convergence threshold for the maximum center movement, relative to the
/// diagonal of the global bounding box (Algorithm 2's `deltaThreshold`).
pub(crate) const DELTA_THRESHOLD: f64 = 2e-3;

/// Balance iterations a movement round on a sample (Sec. 4.5) runs at most:
/// its blocks hold a few points each, so ε means little there (DESIGN.md §2).
pub(crate) const SAMPLE_BALANCE_ITERATIONS: usize = 10;

/// Cap on the per-step influence change (Sec. 4.2: "we restrict the maximum
/// influence change in one step to 5 %").
pub(crate) const INFLUENCE_CHANGE_CAP: f64 = 0.05;

/// Seed of the sampling initialization (Sec. 4.5), mixed with each point's
/// coordinate bits into the key that decides the round it joins in.
pub(crate) const SAMPLE_SEED: u64 = 0x9e0_97e5;

/// Configuration of [`crate::balanced_kmeans`] / the full pipeline.
///
/// Defaults follow the paper: ε = 3 % imbalance (Sec. 5.2.5), sampling
/// initialization starting from 100 points (Sec. 4.5; counted over all
/// ranks, where the paper counts per process), and the
/// geometric optimizations (Hamerly bounds, bounding-box pruning) enabled.
/// The feature switches exist for the ablation experiments. Every field
/// is a parameter of the paper's algorithm; none selects an implementation
/// — there is one assignment kernel (DESIGN.md §9), and ranks are the only
/// parallelism. The paper's constants that no experiment varies — the
/// convergence threshold, the 5 % influence-change cap (Sec. 4.2), the
/// sample seed and a sample round's balance cap — are module constants.
#[derive(Debug, Clone)]
pub struct Config {
    /// Maximum allowed imbalance ε: every block weight must end up at most
    /// `(1+ε)·(total/k)`.
    pub epsilon: f64,
    /// Maximum center-movement iterations (Algorithm 2's `maxIter`).
    pub max_iterations: usize,
    /// Maximum balancing iterations between center movements (Algorithm 1's
    /// `maxBalanceIter`, a tuning parameter per Sec. 4.2). A movement round
    /// on a sample runs at most 10 of them (DESIGN.md §2).
    pub max_balance_iterations: usize,
    /// Enable the sigmoid influence-erosion scheme (Eqs. 2–3).
    pub influence_erosion: bool,
    /// Enable the adapted Hamerly distance bounds (Sec. 4.3).
    pub hamerly_bounds: bool,
    /// Enable center-to-bounding-box pruning (Sec. 4.4).
    pub bbox_pruning: bool,
    /// Enable the geometric-progression sampling initialization: start with
    /// about `initial_sample` random points, double after every movement
    /// round (Sec. 4.5). Disabled = every round uses the full point set.
    pub sampling_init: bool,
    /// Expected size of the first sampling round, counted over all ranks
    /// (the paper counts it per process): the sample is keyed by the
    /// points, so the same set is drawn at every rank count.
    pub initial_sample: usize,
    /// Per-block target weight fractions for non-uniform block sizes (the
    /// paper's footnote 1: "When non-uniform block sizes are desired, for
    /// example when partitioning for heterogeneous architectures, this can
    /// easily be adapted"). `None` = uniform `1/k` targets. When `Some`,
    /// the vector must have length `k`, positive entries; it is normalized
    /// to sum to 1.
    pub target_fractions: Option<Vec<f64>>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            epsilon: 0.03,
            max_iterations: 120,
            max_balance_iterations: 50,
            influence_erosion: true,
            hamerly_bounds: true,
            bbox_pruning: true,
            sampling_init: true,
            initial_sample: 100,
            target_fractions: None,
        }
    }
}

impl Config {
    /// Check the parameter ranges of a solve into `k` blocks.
    ///
    /// # Errors
    /// The first range that does not hold, as a [`ConfigError::Parameter`].
    pub fn validate(&self, k: usize) -> Result<(), ConfigError> {
        require(self.epsilon >= 0.0, "epsilon must be non-negative")?;
        require(self.max_iterations >= 1, "max_iterations must be at least 1")?;
        require(self.max_balance_iterations >= 1, "max_balance_iterations must be at least 1")?;
        require(self.initial_sample >= 1, "initial_sample must be at least 1")?;
        if let Some(f) = &self.target_fractions {
            require(!f.is_empty(), "target_fractions must not be empty")?;
            require(all_positive(f), "target_fractions must be positive")?;
            let len = f.len();
            require(
                len == k,
                format_args!("target_fractions length must equal k (got {len}, k = {k})"),
            )?;
        }
        Ok(())
    }

    /// Derive the solver configuration of one hierarchy level: identical
    /// tuning knobs, but the level's balance bound and capacity fractions
    /// (`None` inherits this config's ε / uniform targets). Used by
    /// [`crate::hierarchy`]'s recursive solve so that per-level ε
    /// semantics live in exactly one place.
    pub fn for_level(&self, epsilon: Option<f64>, fractions: Option<Vec<f64>>) -> Config {
        Config {
            epsilon: epsilon.unwrap_or(self.epsilon),
            target_fractions: fractions,
            ..self.clone()
        }
    }

    /// The normalized per-block weight fractions for `k` blocks, of a
    /// config that [`Config::validate`] accepted for that `k`.
    pub(crate) fn fractions(&self, k: usize) -> Vec<f64> {
        normalized_fractions(self.target_fractions.as_deref(), k)
    }
}

/// Target fractions for `k` blocks, normalized to sum 1 (`None` =
/// uniform) — the one spelling behind [`Config::fractions`] and
/// [`crate::LevelSpec::normalized_fractions`], whose validators check `k`.
pub(crate) fn normalized_fractions(fractions: Option<&[f64]>, k: usize) -> Vec<f64> {
    match fractions {
        None => vec![1.0 / k as f64; k],
        Some(f) => {
            let sum: f64 = f.iter().sum();
            f.iter().map(|x| x / sum).collect()
        }
    }
}

/// Whether every capacity fraction is finite and positive.
pub(crate) fn all_positive(fractions: &[f64]) -> bool {
    fractions.iter().all(|x| x.is_finite() && *x > 0.0)
}

/// `Ok` if `holds`, else the [`ConfigError::Parameter`] that says `text`.
pub(crate) fn require(holds: bool, text: impl fmt::Display) -> Result<(), ConfigError> {
    holds.then_some(()).ok_or_else(|| ConfigError::Parameter(text.to_string()))
}

/// Check the block count against the global point count: the one spelling
/// of this check, so a bad `k` reads the same whichever layer catches it.
/// `global_n = 0` with `k = 1` is allowed (the degenerate empty input that
/// [`crate::global_bbox`] maps to a unit box).
///
/// # Errors
/// [`ConfigError::KZero`] or [`ConfigError::KExceedsN`].
pub fn validate_k(k: usize, global_n: u64) -> Result<(), ConfigError> {
    match k {
        0 => Err(ConfigError::KZero),
        _ if k as u64 > global_n.max(1) => Err(ConfigError::KExceedsN { k, n: global_n }),
        _ => Ok(()),
    }
}

/// A precondition of a solve that does not hold: what [`Config::validate`],
/// [`validate_k`], [`crate::HierarchySpec::validate`] and
/// [`crate::HierarchySpec::fits`] return. The `Display` text is the
/// workspace's `geographer config:` message for the condition; a public
/// solve of this crate panics with it, and the planner returns it typed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// `k = 0`.
    KZero,
    /// Block count `k` exceeds the global point count `n`.
    KExceedsN { k: usize, n: u64 },
    /// Hierarchical solve with flat `Config::target_fractions` set: the
    /// capacity fractions live in the spec's levels.
    HierarchicalFlatFractions,
    /// Warm state whose shape is not the spec's: `state` arities other
    /// than `spec`, or the spec's arities over `nodes` nodes where the
    /// hierarchy has `internal` (one per node solve).
    StateShape { state: Vec<usize>, spec: Vec<usize>, nodes: usize, internal: usize },
    /// A parameter out of its range; the text names it and the range.
    Parameter(String),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("geographer config: ")?;
        match self {
            Self::KZero => write!(f, "k must be at least 1"),
            Self::KExceedsN { k, n } => write!(f, "k = {k} exceeds global point count n = {n}"),
            Self::HierarchicalFlatFractions => write!(
                f,
                "hierarchical solves take capacity fractions from the HierarchySpec's levels; \
                 Config::target_fractions must be None"
            ),
            Self::StateShape { state, spec, .. } if state != spec => {
                write!(f, "plan state arities {state:?} do not match the spec's {spec:?}")
            }
            Self::StateShape { spec, nodes, internal, .. } => write!(
                f,
                "plan state has {nodes} nodes but the spec's {spec:?} hierarchy has {internal}"
            ),
            Self::Parameter(text) => f.write_str(text),
        }
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        assert_eq!(Config::default().validate(1), Ok(()));
        // Exhaustive on purpose: a new field does not compile until its
        // default is stated here.
        let Config {
            epsilon,
            max_iterations,
            max_balance_iterations,
            influence_erosion,
            hamerly_bounds,
            bbox_pruning,
            sampling_init,
            initial_sample,
            target_fractions,
        } = Config::default();
        assert_eq!(epsilon, 0.03);
        assert_eq!((max_iterations, max_balance_iterations), (120, 50));
        assert_eq!(initial_sample, 100);
        assert!(influence_erosion && hamerly_bounds && bbox_pruning && sampling_init);
        assert_eq!(target_fractions, None);
    }

    #[test]
    fn validate_k_accepts_sane_inputs() {
        validate_k(1, 0).expect("empty input, one block: the documented degenerate case");
        validate_k(4, 4).and(validate_k(8, 1_000_000)).expect("k <= n");
    }

    /// One consistent, message-tested error path: the exact texts pinned
    /// here are the ones every layer that reports them (the pipeline,
    /// k-means, the hierarchical solve, the planner) panics or fails with.
    #[test]
    fn error_messages_are_pinned() {
        let text = |r: Result<(), ConfigError>| r.expect_err("must be rejected").to_string();
        assert_eq!(text(validate_k(0, 10)), "geographer config: k must be at least 1");
        let k = text(validate_k(11, 10));
        assert_eq!(k, "geographer config: k = 11 exceeds global point count n = 10");
        let bad = |c: Config| text(c.validate(3));
        let eps = "geographer config: epsilon must be non-negative";
        assert_eq!(bad(Config { epsilon: -0.1, ..Config::default() }), eps);
        assert_eq!(bad(Config { epsilon: f64::NAN, ..Config::default() }), eps);
        let iterations = bad(Config { max_iterations: 0, ..Config::default() });
        assert_eq!(iterations, "geographer config: max_iterations must be at least 1");
        let short = bad(Config { target_fractions: Some(vec![0.5, 0.5]), ..Config::default() });
        assert_eq!(short, "geographer config: target_fractions length must equal k (got 2, k = 3)");
    }
}
