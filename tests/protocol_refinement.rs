//! Static/dynamic cross-check: the collective-call trace recorded by
//! [`CheckedComm`] while solving a real plan must be a word in the
//! language of `geo-analyze protocol`'s static summary for the same
//! entry point (trace refinement, DESIGN.md §12).
//!
//! Two granularities:
//!
//! * [`Planner::solve`] — the acceptance-level contract. Its summary
//!   contains honest `?` alternatives (the hierarchical arm recurses per
//!   level), so the positive direction is checked here and the
//!   discriminating controls run against the concrete entry below.
//! * [`geographer::partition_spmd`] — a fully concrete summary (no `?`),
//!   where refinement is falsifiable: perturbed traces must be rejected.

use std::path::Path;

use geographer::Config;
use geographer_analyze::callgraph::Workspace;
use geographer_analyze::protocol::{self, EntrySummary};
use geographer_mesh::delaunay_unit_square;
use geographer_parcomm::checked::call_name;
use geographer_parcomm::{run_spmd_checked, run_spmd_proc_checked, Comm};
use geographer_planner::{MeshView, PlanSpec, Planner, Tool};

fn entry_summaries() -> Vec<EntrySummary> {
    let ws = Workspace::load(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace sources must be readable");
    protocol::entry_summaries(&ws)
}

fn summary<'a>(entries: &'a [EntrySummary], name: &str) -> &'a EntrySummary {
    entries
        .iter()
        .find(|e| e.name == name)
        .unwrap_or_else(|| panic!("no static summary for entry point {name}"))
}

fn kind_names(ids: &[u64]) -> Vec<&'static str> {
    ids.iter().map(|&i| call_name(i)).collect()
}

/// Every rank's runtime trace from a flat `Planner::solve` refines the
/// static summary, on the thread backend at p ∈ {2, 4}.
#[test]
fn planner_solve_trace_refines_static_summary_thread_backend() {
    let entries = entry_summaries();
    let solve = summary(&entries, "geographer_planner::Planner::solve");
    let mesh = delaunay_unit_square(600, 11);
    let cfg = Config { sampling_init: false, ..Config::default() };
    for p in [2usize, 4] {
        let spec = PlanSpec::flat(MeshView::from(&mesh), Tool::Geographer, 3, cfg.clone());
        let traces = run_spmd_checked(p, |c| {
            let _ = Planner::solve(&spec, None, &c);
            c.trace_ids()
        });
        for (r, t) in traces.iter().enumerate() {
            assert_eq!(t, &traces[0], "rank {r} trace diverges at p={p}");
            let kinds = kind_names(t);
            assert!(
                protocol::trace_matches(&solve.proto, &kinds),
                "runtime trace at p={p} is not in the static language:\n  \
                 trace:   {kinds:?}\n  summary: {}",
                protocol::key(&solve.proto)
            );
        }
        let kinds = kind_names(&traces[0]);
        assert!(kinds.contains(&"alltoallv"), "pipeline migration missing: {kinds:?}");
    }
}

/// The same refinement holds on the multi-process backend, so the
/// contract is backend-independent (the trace is a property of the
/// algorithm, not of the communicator).
#[test]
fn planner_solve_trace_refines_static_summary_proc_backend() {
    let entries = entry_summaries();
    let solve = summary(&entries, "geographer_planner::Planner::solve");
    let mesh = delaunay_unit_square(400, 23);
    let cfg = Config { sampling_init: false, ..Config::default() };
    for p in [2usize, 4] {
        let spec = PlanSpec::flat(MeshView::from(&mesh), Tool::Geographer, 3, cfg.clone());
        let traces = run_spmd_proc_checked(p, |c| {
            let _ = Planner::solve(&spec, None, &c);
            c.trace_ids()
        })
        .expect("proc job must complete");
        for (r, t) in traces.iter().enumerate() {
            assert_eq!(t, &traces[0], "rank {r} trace diverges at p={p}");
            let kinds = kind_names(t);
            assert!(
                protocol::trace_matches(&solve.proto, &kinds),
                "proc trace at p={p} is not in the static language: {kinds:?}"
            );
        }
    }
}

/// `geographer::partition_spmd` has a fully concrete summary, so the
/// refinement is falsifiable: the real trace matches, and appending,
/// truncating, or substituting a call kind must all be rejected. The one
/// function has a state-dependent protocol: its warm arm is a word of the
/// same summary, and moves no point (no `alltoallv`).
#[test]
fn partition_spmd_refinement_is_falsifiable() {
    let entries = entry_summaries();
    let part = summary(&entries, "geographer::partition_spmd");
    let key = protocol::key(&part.proto);
    assert!(
        !key.contains('?'),
        "partition_spmd summary must stay concrete for the controls to bite: {key}"
    );

    let mesh = delaunay_unit_square(400, 7);
    let cfg = Config { sampling_init: false, ..Config::default() };
    let p = 2usize;
    let n = mesh.points.len();
    let solve = |prev: Option<&geographer::PreviousPartition<2>>| {
        run_spmd_checked(p, |c| {
            let (lo, hi) = (c.rank() * n / p, (c.rank() + 1) * n / p);
            let res = geographer::partition_spmd(
                &c,
                &mesh.points[lo..hi],
                &mesh.weights[lo..hi],
                3,
                prev,
                &cfg,
            );
            (c.trace_ids(), res.previous())
        })
        .swap_remove(0)
    };
    let (cold_trace, prev) = solve(None);
    let kinds = kind_names(&cold_trace);
    assert!(
        protocol::trace_matches(&part.proto, &kinds),
        "real partition_spmd trace rejected:\n  trace:   {kinds:?}\n  summary: {key}"
    );
    assert!(kinds.contains(&"alltoallv"), "cold arm redistributes: {kinds:?}");

    let warm_kinds = kind_names(&solve(Some(&prev)).0);
    assert!(
        protocol::trace_matches(&part.proto, &warm_kinds),
        "warm partition_spmd trace rejected:\n  trace:   {warm_kinds:?}\n  summary: {key}"
    );
    assert!(!warm_kinds.contains(&"alltoallv"), "warm arm moved points: {warm_kinds:?}");

    let mut extra = kinds.clone();
    extra.push("barrier");
    assert!(!protocol::trace_matches(&part.proto, &extra), "extra trailing call accepted");

    let truncated = &kinds[..kinds.len() - 1];
    assert!(!protocol::trace_matches(&part.proto, truncated), "truncated trace accepted");

    let mut swapped = kinds.clone();
    swapped[0] = "broadcast";
    assert!(!protocol::trace_matches(&part.proto, &swapped), "substituted call accepted");
}
