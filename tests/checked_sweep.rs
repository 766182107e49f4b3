//! The one protocol checker at work: every tool's `Planner::solve`, cold
//! and warm, the hierarchy with and without its stacked refinement, the
//! sampling tail pass, and the collective
//! layers that sit beside the planner all run under [`CheckedComm`], on
//! thread ranks at p ∈ {2, 3, 4} and on forked process ranks at p ∈ {2, 4}.
//!
//! "Every rank issues the same collectives, in the same order, with the
//! same shapes" is the whole SPMD protocol of this workspace, and the
//! checker turns any breach — a rank-guarded call, a min/max swap, a
//! rank-dependent length, a rank that stops early — into a
//! [`ProtocolError`] on every rank. Between them the cases below execute
//! all 31 production collective call sites outside `parcomm` that a solve
//! or a side layer reaches (DESIGN.md §11 has the reachability audit), so
//! a divergence seeded at any of them fails this file with the diverging
//! ranks and call kinds in the message.

use std::fmt::Debug;

use geographer::{Config, HierarchySpec};
use geographer_mesh::{delaunay_unit_square, Mesh};
use geographer_parcomm::checked::call_name;
use geographer_parcomm::{
    run_spmd_checked, run_spmd_proc_checked, CheckedComm, Comm, ProcComm, ProtocolError,
    ThreadComm, Wire,
};
use geographer_planner::{MeshView, PlanSpec, Planner, RefineMode, Tool};
use geographer_refine::MultilevelConfig;
use geographer_spmv::spmv_comm_time;

const K: usize = 4;

fn mesh() -> Mesh<2> {
    delaunay_unit_square(600, 11)
}

fn full_set() -> Config {
    Config { sampling_init: false, ..Config::default() }
}

/// Collective kinds of one phase of a job, as every rank recorded them.
fn kinds(ids: &[u64]) -> Vec<&'static str> {
    ids.iter().map(|&id| call_name(id)).collect()
}

/// Every rank must have recorded the same trace; return it.
fn agreed<R: PartialEq + Debug>(label: &str, per_rank: Vec<R>) -> R {
    for (r, t) in per_rank.iter().enumerate() {
        assert_eq!(t, &per_rank[0], "{label}: rank {r}'s trace differs from rank 0's");
    }
    per_rank.into_iter().next().expect("at least one rank")
}

/// Run `job` on `p` checked thread ranks. A divergence fails the test with
/// the checker's report in the message, not a bare `Box<dyn Any>`.
fn on_threads<R, F>(label: &str, p: usize, job: F) -> R
where
    R: Send + PartialEq + Debug,
    F: Fn(CheckedComm<ThreadComm>) -> R + Sync,
{
    let label = format!("{label}, {p} thread ranks");
    let run = std::panic::AssertUnwindSafe(|| run_spmd_checked(p, &job));
    match std::panic::catch_unwind(run) {
        Ok(per_rank) => agreed(&label, per_rank),
        Err(payload) => match payload.downcast_ref::<ProtocolError>() {
            Some(e) => panic!("{label}: {e}"),
            None => std::panic::resume_unwind(payload),
        },
    }
}

/// Run `job` on `p` checked process ranks.
fn on_procs<R, F>(label: &str, p: usize, job: F) -> R
where
    R: Wire + PartialEq + Debug,
    F: Fn(CheckedComm<ProcComm>) -> R,
{
    let label = format!("{label}, {p} process ranks");
    agreed(&label, run_spmd_proc_checked(p, job).unwrap_or_else(|e| panic!("{label}: {e}")))
}

/// One rank's run of `spec`: the call ids of the cold solve, then of the
/// warm re-solve from the state it returned (none for a stateless tool).
fn cold_then_warm<C: Comm>(spec: &PlanSpec<'_, 2>, c: &CheckedComm<C>) -> (Vec<u64>, Vec<u64>) {
    let plan = Planner::solve(spec, None, c);
    let cold = c.trace_ids();
    if let Some(state) = &plan.state {
        Planner::solve(spec, Some(state), c);
    }
    let warm = c.trace_ids().split_off(cold.len());
    (cold, warm)
}

/// What the flat cases assert beyond lockstep: the cold Geographer solve
/// redistributes points, its warm re-solve moves none, and a baseline has
/// no warm arm at all.
fn check_flat(tool: Tool, (cold, warm): (Vec<u64>, Vec<u64>)) {
    let (cold, warm) = (kinds(&cold), kinds(&warm));
    assert!(!cold.is_empty(), "{}: a p > 1 solve communicates", tool.name());
    if tool.is_stateful() {
        assert!(cold.contains(&"alltoallv"), "cold solve redistributes: {cold:?}");
        assert!(!warm.is_empty() && !warm.contains(&"alltoallv"), "warm solve moved points: {warm:?}");
    } else {
        assert!(warm.is_empty(), "{}: stateless tools have no warm arm", tool.name());
    }
}

#[test]
fn every_tool_cold_and_warm_stays_in_lockstep_on_thread_ranks() {
    let mesh = mesh();
    for tool in Tool::ALL {
        let spec = PlanSpec::flat(MeshView::from(&mesh), tool, K, full_set());
        for p in [2, 3, 4] {
            check_flat(tool, on_threads(tool.name(), p, |c| cold_then_warm(&spec, &c)));
        }
    }
}

#[test]
fn every_tool_cold_and_warm_stays_in_lockstep_on_process_ranks() {
    let mesh = mesh();
    for tool in Tool::ALL {
        let spec = PlanSpec::flat(MeshView::from(&mesh), tool, K, full_set());
        for p in [2, 4] {
            check_flat(tool, on_procs(tool.name(), p, |c| cold_then_warm(&spec, &c)));
        }
    }
}

/// The paths a flat full-set solve does not take: a `[2,2]` hierarchy cold
/// and warm, then with its stacked refinement, which deals the two level-1
/// parents to the ranks (one idle from p = 3 on) and allgathers their
/// digits once per sweep; a sampling solve whose one movement iteration ends
/// mid-sampling (100 of 300, 200 or 150 local points — from p = 3 on the
/// doubling reaches them all, which once skipped the pass), so
/// `balanced_kmeans_warm` finishes with its full tail pass; and the
/// collective layers beside the planner — the stats reduction and one
/// SpMV halo exchange.
fn off_the_flat_path<C: Comm>(mesh: &Mesh<2>, c: &CheckedComm<C>) -> Vec<u64> {
    let view = MeshView::from(mesh);
    let hier = PlanSpec::hierarchical(view, HierarchySpec::uniform(&[2, 2]), full_set());
    let (cold, warm) = cold_then_warm(&hier, c);
    assert!(!warm.is_empty(), "hierarchical plans return warm state");
    let solved = c.trace_ids().len();
    let stacked = hier.with_refine(RefineMode::Multilevel(MultilevelConfig::default()));
    let work = Planner::solve(&stacked, None, c).refine_work.expect("stacked plans count work");
    let refined = kinds(&c.trace_ids().split_off(solved));
    let gathers = |trace: &[&str]| trace.iter().filter(|&&k| k == "allgather").count();
    assert_eq!(
        gathers(&refined),
        gathers(&kinds(&cold)) + work.sweeps,
        "one allgather per sweep for the level with two parents: {refined:?}"
    );

    let one_round = Config { max_iterations: 1, initial_sample: 100, ..Config::default() };
    let tail = Planner::solve(&PlanSpec::flat(view, Tool::Geographer, K, one_round), None, c);
    let stats = tail.stats.expect("Geographer reports solver stats");
    assert!(!stats.converged && stats.movement_iterations == 1, "budget must run out: {stats:?}");
    // Without the tail pass every point outside the sample sits in block 0
    // and the solver reports the sample's imbalance.
    assert!((0..K as u32).all(|b| tail.assignment.contains(&b)), "an empty block");
    assert!(
        (stats.final_imbalance - tail.imbalance).abs() < 1e-9 && tail.imbalance < 0.5,
        "reported {} for a partition of imbalance {}",
        stats.final_imbalance,
        tail.imbalance
    );

    stats.reduce(c);
    spmv_comm_time(c, &mesh.graph, &tail.assignment, K, 1);
    c.trace_ids()
}

#[test]
fn hierarchy_sampling_tail_and_side_layers_stay_in_lockstep_on_both_backends() {
    let mesh = mesh();
    let label = "hierarchy + sampling tail + side layers";
    for p in [2, 3, 4] {
        on_threads(label, p, |c| off_the_flat_path(&mesh, &c));
    }
    for p in [2, 4] {
        on_procs(label, p, |c| off_the_flat_path(&mesh, &c));
    }
}

/// The control that keeps the sweep honest: the same solve with one rank
/// leaving before it must fail on every rank — the early rank's finalize
/// against its peers' first collective — not pass, and not hang.
#[test]
fn a_rank_that_skips_the_solve_fails_the_sweep() {
    let mesh = mesh();
    let spec = PlanSpec::flat(MeshView::from(&mesh), Tool::Geographer, K, full_set());
    let report = std::panic::catch_unwind(|| {
        on_threads("seeded early exit", 3, |c| {
            if c.rank() == 2 {
                return 0;
            }
            Planner::solve(&spec, None, &c).assignment.len()
        })
    })
    .expect_err("the seeded early exit must fail the job");
    let text = report.downcast_ref::<String>().expect("on_threads formats the report");
    assert!(text.contains("diverging: [2]") && text.contains("rank 2: finalize(0)"), "{text}");
    assert!(text.contains("rank 0: barrier(0)"), "{text}");
}
