//! Tuning parameters of balanced k-means and the Geographer pipeline.

/// Convergence threshold for the maximum center movement, relative to the
/// diagonal of the global bounding box (Algorithm 2's `deltaThreshold`).
pub(crate) const DELTA_THRESHOLD: f64 = 2e-3;

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
/// convergence threshold, the 5 % influence-change cap (Sec. 4.2) and the
/// sample seed — are constants of this module, not fields.
#[derive(Debug, Clone)]
pub struct Config {
    /// Maximum allowed imbalance ε: every block weight must end up at most
    /// `(1+ε)·(total/k)`.
    pub epsilon: f64,
    /// Maximum number of center-movement iterations (Algorithm 2's
    /// `maxIter`).
    pub max_iterations: usize,
    /// Maximum balancing iterations between center movements (Algorithm 1's
    /// `maxBalanceIter`, a tuning parameter per Sec. 4.2).
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
    /// Sanity-check parameter ranges.
    ///
    /// # Panics
    /// On out-of-range parameters, with a `geographer config:`-prefixed
    /// message. Every parameter/argument panic of the stack goes through
    /// this module so the texts stay consistent (and message-tested, see
    /// the `error_messages_are_pinned` test below).
    pub fn validate(&self) {
        assert!(self.epsilon >= 0.0, "geographer config: epsilon must be non-negative");
        assert!(self.max_iterations >= 1, "geographer config: max_iterations must be at least 1");
        assert!(
            self.max_balance_iterations >= 1,
            "geographer config: max_balance_iterations must be at least 1"
        );
        assert!(self.initial_sample >= 1, "geographer config: initial_sample must be at least 1");
        if let Some(f) = &self.target_fractions {
            assert!(!f.is_empty(), "geographer config: target_fractions must not be empty");
            assert!(
                f.iter().all(|x| x.is_finite() && *x > 0.0),
                "geographer config: target_fractions must be positive"
            );
        }
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

    /// The normalized per-block weight fractions for `k` blocks.
    ///
    /// # Panics
    /// If explicit fractions were supplied with a length other than `k`.
    pub fn fractions(&self, k: usize) -> Vec<f64> {
        normalized_fractions(self.target_fractions.as_deref(), k)
    }
}

/// Target fractions for `k` blocks, normalized to sum 1 (`None` =
/// uniform) — the one spelling behind [`Config::fractions`] and
/// [`crate::LevelSpec::normalized_fractions`].
pub(crate) fn normalized_fractions(fractions: Option<&[f64]>, k: usize) -> Vec<f64> {
    match fractions {
        None => vec![1.0 / k as f64; k],
        Some(f) => {
            assert!(
                f.len() == k,
                "geographer config: target_fractions length must equal k \
                 (got {}, k = {k})",
                f.len()
            );
            let sum: f64 = f.iter().sum();
            f.iter().map(|x| x / sum).collect()
        }
    }
}

/// Validate the block count against the global point count — the *one*
/// place this check lives. Every entry point that knows the global `n`
/// (cold pipeline, warm repartitioning, shared-memory wrappers) calls this
/// instead of rolling its own assert, so the panic message is identical no
/// matter which layer catches the bad `k` first.
///
/// `global_n = 0` with `k = 1` is allowed (the degenerate empty input that
/// [`crate::global_bbox`] maps to a unit box).
///
/// # Panics
/// If `k` is zero or exceeds the global point count.
pub fn validate_k(k: usize, global_n: u64) {
    assert!(k >= 1, "geographer config: k must be at least 1");
    assert!(
        k as u64 <= global_n.max(1),
        "geographer config: k = {k} exceeds global point count n = {global_n}"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        Config::default().validate();
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
    #[should_panic(expected = "epsilon")]
    fn negative_epsilon_rejected() {
        Config { epsilon: -0.1, ..Config::default() }.validate();
    }

    #[test]
    fn validate_k_accepts_sane_inputs() {
        validate_k(1, 0); // empty input, one block: the documented degenerate case
        validate_k(4, 4);
        validate_k(8, 1_000_000);
    }

    /// Extract the panic message of `f` as a string (assert! with a literal
    /// panics with `&'static str`, formatted asserts with `String`).
    fn panic_message(f: impl FnOnce() + std::panic::UnwindSafe) -> String {
        let err = std::panic::catch_unwind(f).expect_err("closure must panic");
        err.downcast_ref::<String>().cloned().unwrap_or_else(|| {
            (*err.downcast_ref::<&'static str>().expect("panic payload must be a string"))
                .to_owned()
        })
    }

    /// The satellite contract of PR 3: one consistent, message-tested error
    /// path. Pinning the exact texts here keeps every layer (config
    /// validation, the pipeline's k check, the warm repartitioning path)
    /// from drifting back into three different wordings.
    #[test]
    fn error_messages_are_pinned() {
        assert_eq!(
            panic_message(|| validate_k(0, 10)),
            "geographer config: k must be at least 1"
        );
        assert_eq!(
            panic_message(|| validate_k(11, 10)),
            "geographer config: k = 11 exceeds global point count n = 10"
        );
        assert_eq!(
            panic_message(|| Config { epsilon: -0.1, ..Config::default() }.validate()),
            "geographer config: epsilon must be non-negative"
        );
        assert_eq!(
            panic_message(|| Config { max_iterations: 0, ..Config::default() }.validate()),
            "geographer config: max_iterations must be at least 1"
        );
        assert_eq!(
            panic_message(|| {
                let _ = Config { target_fractions: Some(vec![0.5, 0.5]), ..Config::default() }
                    .fractions(3);
            }),
            "geographer config: target_fractions length must equal k (got 2, k = 3)"
        );
    }
}
