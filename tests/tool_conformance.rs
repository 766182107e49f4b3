//! Cross-tool SPMD conformance suite: every tool × every rank count ×
//! two mesh families must satisfy the basic partitioner contract —
//! complete in-range assignments, no empty block, and rank-count
//! invariance (bitwise for every tool but RIB, ≥ 99.5 % agreement for
//! RIB, whose cuts depend on inexact cross-rank floating-point sums; see
//! DESIGN.md §1 for the policy). Geographer runs with sampling on.
//!
//! Since the planner unification, every configuration here routes through
//! [`geographer_planner::Planner::solve`] — the same entry point the bench
//! binaries use — via the bench harness's [`PlanRecipe`]/[`solve_plan_view`].
//!
//! The rank counts deliberately include a non-power-of-two (p = 7) so the
//! butterfly collectives' fold/unfold path is exercised by every tool.

use geographer::Config;
use geographer_bench::{solve_plan_proc_view, solve_plan_view, PlanRecipe, Tool};
use geographer_mesh::{delaunay_unit_square, families::bubbles_like, Mesh};
use geographer_planner::MeshView;

const RANK_COUNTS: [usize; 5] = [1, 2, 4, 5, 7];
const K: usize = 5;

/// Tools whose SPMD arithmetic is exact (coordinate cuts, integer Hilbert
/// keys, k-means' grid sums and point-keyed sample): rank-count
/// invariance must be bitwise.
const EXACT_TOOLS: [Tool; 4] = [Tool::Geographer, Tool::Hsfc, Tool::MultiJagged, Tool::Rcb];

fn agreement(a: &[u32], b: &[u32]) -> f64 {
    let same = a.iter().zip(b).filter(|(x, y)| x == y).count();
    same as f64 / a.len() as f64
}

fn block_sizes(asg: &[u32], k: usize, label: &str) -> Vec<usize> {
    let mut counts = vec![0usize; k];
    for &b in asg {
        assert!((b as usize) < k, "{label}: block id {b} out of range (k = {k})");
        counts[b as usize] += 1;
    }
    counts
}

fn conformance(mesh: &Mesh<2>, family: &str) {
    let cfg = Config::default();
    for tool in Tool::ALL {
        let exact = EXACT_TOOLS.contains(&tool);
        let recipe = PlanRecipe::flat(tool.name(), tool, K, cfg.clone());
        let reference = solve_plan_view(MeshView::from(mesh), &recipe, 1, None).plan.assignment;
        for p in RANK_COUNTS {
            let label = format!("{} on {family} at p={p}", tool.name());
            let plan = solve_plan_view(MeshView::from(mesh), &recipe, p, None).plan;
            // Assignment length preserved, ids in range, no empty block.
            assert_eq!(plan.assignment.len(), mesh.n(), "{label}: length");
            let counts = block_sizes(&plan.assignment, K, &label);
            assert!(
                counts.iter().all(|&c| c > 0),
                "{label}: empty block, sizes {counts:?}"
            );
            // SPMD vs single-rank agreement.
            if exact {
                assert_eq!(plan.assignment, reference, "{label}: must be bitwise invariant");
            } else {
                let agree = agreement(&plan.assignment, &reference);
                assert!(
                    agree >= 0.995,
                    "{label}: only {:.2}% agreement with p=1",
                    agree * 100.0
                );
            }
        }
    }
}

/// The process-backend half of the contract: at equal `p`, forked-rank
/// solves must agree **bitwise** with thread-rank solves for *every* tool
/// — both backends run the identical collective algorithms with the
/// identical rank-ordered reduction trees, so even the inexact tools'
/// floating-point sums come out bit-for-bit equal. Against the p=1
/// reference the usual policy applies (bitwise for exact tools, ≥ 99.5 %
/// for RIB).
fn proc_conformance(mesh: &Mesh<2>, family: &str) {
    let cfg = Config::default();
    for tool in Tool::ALL {
        let exact = EXACT_TOOLS.contains(&tool);
        let recipe = PlanRecipe::flat(tool.name(), tool, K, cfg.clone());
        let reference = solve_plan_view(MeshView::from(mesh), &recipe, 1, None).plan.assignment;
        for p in [2usize, 4] {
            let label = format!("{} on {family} at p={p} (proc)", tool.name());
            let run = solve_plan_proc_view(MeshView::from(mesh), &recipe, p)
                .unwrap_or_else(|e| panic!("{label}: job failed: {e}"));
            assert_eq!(run.assignment.len(), mesh.n(), "{label}: length");
            let counts = block_sizes(&run.assignment, K, &label);
            assert!(counts.iter().all(|&c| c > 0), "{label}: empty block, sizes {counts:?}");
            let threads = solve_plan_view(MeshView::from(mesh), &recipe, p, None).plan.assignment;
            assert_eq!(
                run.assignment, threads,
                "{label}: process ranks must match thread ranks bitwise"
            );
            if exact {
                assert_eq!(run.assignment, reference, "{label}: must be bitwise invariant");
            } else {
                let agree = agreement(&run.assignment, &reference);
                assert!(
                    agree >= 0.995,
                    "{label}: only {:.2}% agreement with p=1",
                    agree * 100.0
                );
            }
            // Real sockets moved real bytes: the counters cannot be empty.
            assert!(run.comm.rounds() > 0, "{label}: no rounds recorded");
            assert!(run.comm.bytes() > 0, "{label}: no bytes recorded");
        }
    }
}

#[test]
fn conformance_on_delaunay() {
    conformance(&delaunay_unit_square(1100, 33), "delaunay");
}

#[test]
fn conformance_on_a_refined_density_mesh() {
    conformance(&bubbles_like(950, 34), "bubbles-like");
}

#[test]
fn proc_backend_conformance_on_delaunay() {
    proc_conformance(&delaunay_unit_square(1100, 33), "delaunay");
}

#[test]
fn proc_backend_conformance_on_a_refined_density_mesh() {
    proc_conformance(&bubbles_like(950, 34), "bubbles-like");
}

#[test]
fn proc_backend_rank_death_fails_cleanly_under_the_full_pipeline() {
    // Fault injection at the application level: one worker dies mid-solve
    // (process death, not a panic — its sockets just close). The job must
    // come back as a clean error well within the CI timeout, never hang.
    use geographer_parcomm::{run_spmd_proc, Comm};
    let mesh = delaunay_unit_square(600, 35);
    let recipe = PlanRecipe::flat("doomed", Tool::Geographer, K, Config::default());
    let err = run_spmd_proc(4, |comm| {
        if comm.rank() == 3 {
            // Die after the first collective so peers are mid-stream.
            comm.barrier();
            std::process::exit(11);
        }
        let spec = recipe.spec_view(MeshView::from(&mesh));
        geographer_planner::Planner::solve(&spec, None, &comm).assignment
    })
    .expect_err("a dead rank must fail the job");
    let msg = err.to_string();
    assert!(msg.contains("rank"), "error should name a rank: {msg}");
}
