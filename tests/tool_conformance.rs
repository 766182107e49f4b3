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
use geographer_mesh::{climate25d, delaunay_unit_square, families::bubbles_like, Mesh};
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

/// FNV-1a over the assignment's little-endian block ids (the digest of
/// `count_guard`).
fn digest(assignment: &[u32]) -> u64 {
    assignment
        .iter()
        .flat_map(|b| b.to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// The four baselines' global assignments pinned as digests at p = 1 and
/// p = 4 thread ranks, on two mesh families, at an odd k (RCB splits 7 as
/// 3 + 4, MultiJagged as 3 + 2 + 2) and at k = 12. The exact tools read
/// one digest at both rank counts; RIB's inexact sums give it one per
/// rank count. A refactor of the recursive cuts leaves every digest
/// unedited.
#[test]
fn baseline_assignments_match_their_pinned_digests() {
    use Tool::{Hsfc, MultiJagged, Rcb, Rib};
    #[rustfmt::skip]
    let pinned: [(&str, usize, Tool, [u64; 2]); 16] = [
        ("delaunay", 7, Hsfc, [0xf344_d03e_ae3d_b2e6; 2]),
        ("delaunay", 7, MultiJagged, [0xe0cf_9bfc_d81c_cb23; 2]),
        ("delaunay", 7, Rcb, [0xc144_e5d4_b477_f4b3; 2]),
        ("delaunay", 7, Rib, [0xe898_1f59_63c2_53d5, 0x2c5c_9b4b_9d70_09a3]),
        ("delaunay", 12, Hsfc, [0x626e_ac2c_ada9_10a5; 2]),
        ("delaunay", 12, MultiJagged, [0x8d63_feeb_056f_bb95; 2]),
        ("delaunay", 12, Rcb, [0xe7e2_53cf_cded_8fb4; 2]),
        ("delaunay", 12, Rib, [0xc8dd_40d6_dee0_1fea, 0xfa76_bb71_71c3_112c]),
        ("climate", 7, Hsfc, [0x2513_640c_6189_3cd1; 2]),
        ("climate", 7, MultiJagged, [0x1402_ce9f_6e05_0ce7; 2]),
        ("climate", 7, Rcb, [0xa805_be11_b926_a501; 2]),
        ("climate", 7, Rib, [0x3cc6_046b_b3a1_a5e6; 2]),
        ("climate", 12, Hsfc, [0xa140_9394_5da7_b81d; 2]),
        ("climate", 12, MultiJagged, [0x54d8_9af7_f842_c8ed; 2]),
        ("climate", 12, Rcb, [0x52fb_82eb_829f_2d3d; 2]),
        ("climate", 12, Rib, [0x360c_072d_83e2_f86b, 0xb587_3e6e_4445_438f]),
    ];
    let delaunay = delaunay_unit_square(1500, 20);
    let climate = climate25d(1200, 30, 21);
    for (family, k, tool, digests) in pinned {
        let mesh = if family == "delaunay" { &delaunay } else { &climate };
        let recipe = PlanRecipe::flat(tool.name(), tool, k, Config::default());
        for (p, want) in [1usize, 4].into_iter().zip(digests) {
            let plan = solve_plan_view(MeshView::from(mesh), &recipe, p, None).plan;
            let got = digest(&plan.assignment);
            let label = format!("{} on {family}, k = {k}, p = {p}", tool.name());
            assert_eq!(got, want, "{label}: digest {got:#018x}");
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
