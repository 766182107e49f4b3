//! Integration: rank-count invariance. Every partitioner in the workspace
//! is a deterministic function of the *global* point set, so running it on
//! 1, 2 or 5 SPMD ranks must produce the same partition — with one honest
//! caveat shared with every MPI code: cross-rank floating-point reductions
//! are not associative, so algorithms whose cuts depend on *inexact* sums
//! (RIB's covariance; anything under non-integer weights) may flip
//! individual points that lie exactly on a cut boundary. We therefore
//! require bitwise equality where the arithmetic is exact (unit weights,
//! coordinate cuts, integer Hilbert keys) and ≥ 99.5 % agreement plus an
//! intact balance guarantee elsewhere. (Geographer needs
//! `sampling_init = false` here: the sampling permutation is intentionally
//! rank-local, as in the paper.)

use geographer::Config;
use geographer_bench::{solve_plan_view, PlanRecipe, Tool};
use geographer_mesh::{climate25d, delaunay_unit_square, Mesh};
use geographer_planner::MeshView;

/// `tool`'s partition of `mesh` into `k` blocks on `p` ranks.
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

#[test]
fn exact_invariance_with_unit_weights() {
    // Unit weights make every weight sum exact in f64, and RCB/MJ cut on
    // raw coordinates, HSFC on integer keys: bitwise identical partitions.
    let mesh = delaunay_unit_square(1500, 20);
    let cfg = Config { sampling_init: false, ..Config::default() };
    for tool in [Tool::Rcb, Tool::MultiJagged, Tool::Hsfc] {
        let reference = assignment(tool, &mesh, 6, 1, &cfg);
        for p in [2usize, 5] {
            let got = assignment(tool, &mesh, 6, p, &cfg);
            assert_eq!(got, reference, "{} differs at p={p}", tool.name());
        }
    }
}

#[test]
fn inexact_sum_tools_invariant_up_to_fp_reduction_order() {
    // RIB (covariance sums) and Geographer (centroid sums) reduce inexact
    // floating-point quantities across ranks.
    let mesh = delaunay_unit_square(1500, 20);
    let cfg = Config { sampling_init: false, ..Config::default() };
    for tool in [Tool::Rib, Tool::Geographer] {
        let reference = assignment(tool, &mesh, 6, 1, &cfg);
        for p in [2usize, 5] {
            let got = assignment(tool, &mesh, 6, p, &cfg);
            let agree = agreement(&got, &reference);
            assert!(
                agree >= 0.995,
                "{} at p={p}: only {:.2}% agreement with p=1",
                tool.name(),
                agree * 100.0
            );
            check_balance(&mesh, &got, 6, tool.name());
        }
    }
}

#[test]
fn weighted_invariance_up_to_fp_reduction_order() {
    let mesh = climate25d(1200, 30, 21);
    let cfg = Config { sampling_init: false, ..Config::default() };
    for tool in Tool::ALL {
        let reference = assignment(tool, &mesh, 5, 1, &cfg);
        let got = assignment(tool, &mesh, 5, 3, &cfg);
        let agree = agreement(&got, &reference);
        assert!(
            agree >= 0.995,
            "{}: only {:.2}% agreement on weighted input",
            tool.name(),
            agree * 100.0
        );
        check_balance(&mesh, &got, 5, tool.name());
    }
}

#[test]
fn sampling_init_still_balances_across_rank_counts() {
    // With sampling on, the partition may differ between rank counts, but
    // the balance guarantee must hold for every p.
    let mesh = delaunay_unit_square(2000, 22);
    let cfg = Config::default();
    for p in [1usize, 2, 4] {
        let asg = assignment(Tool::Geographer, &mesh, 8, p, &cfg);
        check_balance(&mesh, &asg, 8, "Geographer(sampling)");
    }
}
