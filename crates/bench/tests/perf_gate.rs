//! Tier-1 perf gate: the k-means assignment hot path and the SFC bootstrap
//! must stay inside a generous envelope of the committed
//! `BENCH_scale.json` baseline.
//!
//! The gate instance is the committed `gate` block — n = 100k, p = 1,
//! k = 8, seed 77, default config — re-solved here and compared as
//! assignment ns/point and as bootstrap (`sfc_index` + `redistribute`)
//! ns/point. The envelope is deliberately loose (2.5× in release, a
//! further 20× under debug assertions, where tier-1 runs): it exists to
//! catch order-of-magnitude regressions — an accidental O(n·k)
//! reintroduction, a lost pruning bound, a per-iteration allocation
//! storm, a key recomputed per comparison — not scheduler noise on a busy
//! machine.

use geographer::Config;
use geographer_analyze::json::{parse, Value};
use geographer_bench::harness::ns_per_point;
use geographer_bench::{solve_plan_view, PlanRecipe, Tool};
use geographer_mesh::density::sample_by_density;
use geographer_planner::MeshView;

#[test]
fn assignment_ns_per_point_within_committed_envelope() {
    let baseline = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_scale.json"
    ))
    .expect("committed BENCH_scale.json at the repo root");
    let doc = parse(&baseline).expect("BENCH_scale.json is well-formed");
    let gate = doc.get("gate").expect("baseline has a gate block");
    let number = |key: &str| match gate.get(key) {
        Some(Value::Num(x)) => *x,
        other => panic!("gate.{key} must be a number, found {other:?}"),
    };
    let committed_ns = number("assignment_ns_per_point");
    let committed_bootstrap_ns = number("bootstrap_ns_per_point");
    let n = number("n") as usize;
    assert!(
        committed_ns > 0.0 && committed_bootstrap_ns > 0.0 && n > 0,
        "gate block sane: {gate}"
    );

    let k = 8;
    let cfg = Config::default();
    let points = sample_by_density(n, 77, |_| 1.0);
    let weights = vec![1.0f64; n];
    let view = MeshView { points: &points, weights: &weights, graph: None };
    // First-solve warmup (page faults, lazy binding) stays out of the
    // measured run, mirroring how the baseline was produced.
    let _ = solve_plan_view(
        view,
        &PlanRecipe::flat("warmup", Tool::Geographer, k, cfg.clone()),
        1,
        None,
    );
    let run = solve_plan_view(
        view,
        &PlanRecipe::flat("gate", Tool::Geographer, k, cfg.clone()),
        1,
        None,
    );
    let assign_s = run.plan.stats.expect("stats").assignment_seconds;
    let now_ns = ns_per_point(assign_s, n);
    let phases = run.phase_max.expect("flat solve reports phase timings");
    let now_bootstrap_ns = ns_per_point(phases.sfc_index + phases.redistribute, n);

    // Release envelope 2.5×; debug builds of this workspace measure
    // roughly 15–20× slower on the same path, so widen accordingly
    // rather than gating on an unoptimized build's noise.
    let envelope = if cfg!(debug_assertions) { 2.5 * 20.0 } else { 2.5 };
    assert!(
        now_ns <= committed_ns * envelope,
        "assignment hot path regressed: {now_ns:.1} ns/point vs committed \
         {committed_ns:.1} ns/point (envelope {envelope}×)"
    );
    assert!(
        now_bootstrap_ns <= committed_bootstrap_ns * envelope,
        "SFC bootstrap regressed: {now_bootstrap_ns:.1} ns/point vs committed \
         {committed_bootstrap_ns:.1} ns/point (envelope {envelope}×)"
    );
}
