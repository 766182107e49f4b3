//! Experiment harness: recipes that run all five tools (Geographer + four
//! Zoltan-style baselines) through `Planner::solve` on generated meshes,
//! the quality/metrics rows of the paper's tables, and the α–β cost model
//! used by the scaling figures.
//!
//! Every `src/bin/*` target reproduces one table or figure; see DESIGN.md's
//! per-experiment index.

pub mod cost;
pub mod harness;
pub mod table;

pub use cost::{CostModel, TieredCostModel};
pub use geographer_planner::Tool;
pub use harness::{
    aggregate_spmv, evaluate_run, level_metrics_json, run_plan_chain, solve_plan_proc_view,
    solve_plan_view, write_bench_json, ChainStep, PlanRecipe, PlanRun, ProcRun, SpmdBackend,
    ToolRow,
};
pub use table::TextTable;

/// Global instance-size multiplier, read from `GEO_SCALE` (default 1.0).
/// `GEO_SCALE=4 cargo run --release --bin table1_large` runs the same
/// experiments on 4× larger instances.
pub fn env_scale() -> f64 {
    std::env::var("GEO_SCALE")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|s| *s > 0.0)
        .unwrap_or(1.0)
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
