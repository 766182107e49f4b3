//! Integration: rank-count invariance. Every partitioner in the workspace
//! is a deterministic function of the *global* point set, so running it on
//! any number of SPMD ranks must produce the same partition. Bitwise:
//! RCB and MultiJagged cut on raw coordinates, HSFC on integer Hilbert
//! keys, and Geographer's k-means sums its terms exactly on a fixed grid
//! and keys its sample by the points themselves (DESIGN.md §1–§2), so all
//! four are one bit pattern at every p, with sampling on and under
//! non-integer weights. RIB is the one exception: its covariance sums are
//! plain floating-point reductions across ranks, whose association depends
//! on p, so it may flip a point lying exactly on a cut; it is held to
//! ≥ 99.5 % agreement plus an intact balance guarantee.

use geographer::Config;
use geographer_bench::{solve_plan_proc_view, solve_plan_view, PlanRecipe, Tool};
use geographer_mesh::{climate25d, delaunay_unit_square, Mesh};
use geographer_planner::MeshView;

/// The tools whose partition is bitwise the same at every p.
const EXACT_TOOLS: [Tool; 4] = [Tool::Rcb, Tool::MultiJagged, Tool::Hsfc, Tool::Geographer];

/// `tool`'s partition of `mesh` into `k` blocks on `p` thread ranks.
fn assignment(tool: Tool, mesh: &Mesh<2>, k: usize, p: usize, cfg: &Config) -> Vec<u32> {
    let recipe = PlanRecipe::flat(tool.name(), tool, k, cfg.clone());
    solve_plan_view(MeshView::from(mesh), &recipe, p, None).plan.assignment
}

fn agreement(a: &[u32], b: &[u32]) -> f64 {
    let same = a.iter().zip(b).filter(|(x, y)| x == y).count();
    same as f64 / a.len() as f64
}

fn check_balance<const D: usize>(mesh: &Mesh<D>, asg: &[u32], k: usize, label: &str) {
    let mut w = vec![0.0f64; k];
    for (&b, &wi) in asg.iter().zip(&mesh.weights) {
        w[b as usize] += wi;
    }
    let total: f64 = w.iter().sum();
    let imb = w.iter().cloned().fold(0.0, f64::max) / (total / k as f64) - 1.0;
    assert!(imb <= 0.03 + 1e-6, "{label}: imbalance {imb}");
}

/// Every exact tool, under the default config (Geographer samples), on
/// `p` ∈ {2, 4, 5, 7} thread ranks must reproduce its p = 1 partition.
fn exact_on_thread_ranks(mesh: &Mesh<2>, k: usize, family: &str) {
    let cfg = Config::default();
    for tool in EXACT_TOOLS {
        let reference = assignment(tool, mesh, k, 1, &cfg);
        check_balance(mesh, &reference, k, tool.name());
        for p in [2usize, 4, 5, 7] {
            let got = assignment(tool, mesh, k, p, &cfg);
            assert_eq!(got, reference, "{} on {family} differs at p={p}", tool.name());
        }
    }
}

#[test]
fn exact_invariance_with_unit_weights() {
    exact_on_thread_ranks(&delaunay_unit_square(1500, 20), 6, "delaunay");
}

#[test]
fn weighted_invariance_is_bitwise_for_every_tool_but_rib() {
    // Non-integer weights: every tool but RIB is still bitwise invariant.
    exact_on_thread_ranks(&climate25d(1200, 30, 21), 5, "climate25d");
}

#[test]
fn inexact_sum_tools_invariant_up_to_fp_reduction_order() {
    // RIB reduces its covariance sums across ranks in plain floating point.
    let cfg = Config::default();
    for (mesh, k) in [(delaunay_unit_square(1500, 20), 6), (climate25d(1200, 30, 21), 5)] {
        let reference = assignment(Tool::Rib, &mesh, k, 1, &cfg);
        for p in [2usize, 3, 5] {
            let got = assignment(Tool::Rib, &mesh, k, p, &cfg);
            let agree = agreement(&got, &reference);
            assert!(agree >= 0.995, "RIB at p={p}: only {:.2}% agreement", agree * 100.0);
            check_balance(&mesh, &got, k, "RIB");
        }
    }
}

#[test]
fn sampling_geographer_is_bitwise_invariant_on_forked_ranks() {
    // Geographer with sampling on, on forked ranks: p ∈ {2, 4} reproduce
    // the p = 1 thread-rank partition bitwise, on both mesh families.
    let cfg = Config::default();
    for (mesh, k, family) in [
        (delaunay_unit_square(2000, 22), 8, "delaunay"),
        (climate25d(1200, 30, 21), 5, "climate25d"),
    ] {
        let recipe = PlanRecipe::flat("geographer", Tool::Geographer, k, cfg.clone());
        let reference = assignment(Tool::Geographer, &mesh, k, 1, &cfg);
        check_balance(&mesh, &reference, k, family);
        for p in [2usize, 4] {
            let run = solve_plan_proc_view(MeshView::from(&mesh), &recipe, p)
                .unwrap_or_else(|e| panic!("{family} at p={p}: job failed: {e}"));
            assert_eq!(run.assignment, reference, "{family} on {p} forked ranks differs from p=1");
        }
    }
}
