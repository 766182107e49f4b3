//! Experiment harness: recipes that run all five tools (Geographer + four
//! Zoltan-style baselines) through `Planner::solve` on generated meshes,
//! the quality/metrics rows of the paper's tables, and the α–β cost model
//! used by the scaling figures.
//!
//! The `src/bin/*` targets reproduce the paper's tables and figures, several
//! per binary where they share a loop; DESIGN.md's per-experiment index maps
//! each artifact to its command.

pub mod cost;
pub mod harness;
pub mod table;

pub use cost::{CostModel, TieredCostModel};
pub use geographer_planner::Tool;
pub use harness::{
    aggregate_spmv, evaluate_run, level_metrics_value, num, obj, run_plan_chain,
    solve_plan_proc_view, solve_plan_view, write_bench_json, ChainStep, Cli, PlanRecipe, PlanRun,
    ProcRun, SpmdBackend, ToolRow,
};
pub use table::TextTable;

/// The clustered cloud of the kernel benches: refinement bubbles
/// `(centre x, centre y, radius)` for `density::bubbles_density` — the four
/// of the repo benchmark's `cold_clustered_k64_p2`.
pub const FOUR_BUBBLES: [(f64, f64, f64); 4] =
    [(0.25, 0.25, 0.2), (0.75, 0.3, 0.15), (0.5, 0.7, 0.2), (0.15, 0.8, 0.1)];

/// Global instance-size multiplier, read from `GEO_SCALE` (default 1.0).
/// `GEO_SCALE=4 cargo run --release --bin tables -- table1` runs the same
/// experiments on 4× larger instances.
pub fn env_scale() -> f64 {
    parse_scale(std::env::var("GEO_SCALE").ok().as_deref())
}

/// The multiplier a `GEO_SCALE` value stands for: a finite positive number,
/// else 1.0 (`inf` parses as a float, and scaling by it asks the first mesh
/// generator for `usize::MAX` points).
fn parse_scale(value: Option<&str>) -> f64 {
    value.and_then(|s| s.parse::<f64>().ok()).filter(|s| s.is_finite() && *s > 0.0).unwrap_or(1.0)
}

/// `n` scaled by [`env_scale`].
pub fn scaled(n: usize) -> usize {
    ((n as f64 * env_scale()) as usize).max(16)
}

/// Directory where experiment artifacts (SVGs, data files) are written.
pub fn out_dir() -> std::path::PathBuf {
    let dir = std::path::PathBuf::from("target/experiments");
    std::fs::create_dir_all(&dir).expect("create target/experiments");
    dir
}

#[cfg(test)]
mod tests {
    use super::parse_scale;

    #[test]
    fn geo_scale_accepts_only_finite_positive_numbers() {
        assert_eq!(parse_scale(Some("2.5")), 2.5);
        for fallback in [None, Some("inf"), Some("NaN"), Some("-1"), Some("0"), Some("big")] {
            assert_eq!(parse_scale(fallback), 1.0, "{fallback:?}");
        }
    }
}
