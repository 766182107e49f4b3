//! Exact outputs of `Planner::solve` on Geographer plans, pinned: the
//! warm state a plan returns (every center and influence bit), what its
//! solve communicated (`Plan::comm`, per collective kind), and its
//! assignment. A flat plan, a `[4, 2]` hierarchical plan and a flat plan
//! with heterogeneous block targets are covered, on thread ranks and on
//! forked ranks. A rewrite of how the planner routes a solve must leave
//! every value here bit for bit unchanged.

use geographer::{Config, HierarchySpec};
use geographer_geometry::{Point, SplitMix64};
use geographer_parcomm::{run_spmd, run_spmd_proc, Collective, Comm};
use geographer_planner::{MeshView, PlanSpec, PlanState, Planner, Tool};

/// FNV-1a over little-endian `u64` words.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    words
        .into_iter()
        .flat_map(u64::to_le_bytes)
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// Every node's centers (coordinate bits, center by center), then its
/// influence bits, nodes in the state's order.
fn state_digest(state: &PlanState<2>) -> u64 {
    fnv(state.nodes.iter().map(|n| &n.state).flat_map(|s| {
        let centers = s.centers.iter().flat_map(|c| [c[0].to_bits(), c[1].to_bits()]);
        centers.chain(s.influence.iter().map(|x| x.to_bits())).collect::<Vec<_>>()
    }))
}

/// `Plan::comm` as `(ops, rounds, bytes)` per collective kind.
type Counts = Vec<(u64, u64, u64)>;

/// What one rank reports of a plan: the assignment digest, the state
/// digest, and its counters.
type Pin = (u64, u64, Counts);

fn solve_pin<C: Comm>(comm: &C, spec: &PlanSpec<'_, 2>) -> Pin {
    let plan = Planner::solve(spec, None, comm);
    let asg = fnv(plan.assignment.iter().map(|&b| u64::from(b)));
    let state = plan.state.as_ref().map_or(0, state_digest);
    let counts = Collective::ALL
        .iter()
        .map(|&kind| {
            let o = plan.comm.op(kind);
            (o.ops, o.rounds, o.bytes)
        })
        .collect();
    (asg, state, counts)
}

fn uniform(n: usize, seed: u64) -> (Vec<Point<2>>, Vec<f64>) {
    let mut rng = SplitMix64::new(seed);
    let points = (0..n).map(|_| Point::new([rng.next_f64(), rng.next_f64()])).collect();
    let weights = (0..n).map(|_| 1.0 + rng.next_f64()).collect();
    (points, weights)
}

/// Solve `spec` on `p` thread ranks; every rank must report the same
/// assignment and state. Returns rank 0's digests and each rank's counters.
fn on_threads(spec: &PlanSpec<'_, 2>, p: usize) -> (u64, u64, Vec<Counts>) {
    agree(run_spmd(p, |c| solve_pin(&c, spec)))
}

fn on_procs(spec: &PlanSpec<'_, 2>, p: usize) -> (u64, u64, Vec<Counts>) {
    agree(run_spmd_proc(p, |c| solve_pin(&c, spec)).expect("forked ranks"))
}

fn agree(pins: Vec<Pin>) -> (u64, u64, Vec<Counts>) {
    let (asg, state) = (pins[0].0, pins[0].1);
    assert!(pins.iter().all(|p| (p.0, p.1) == (asg, state)), "ranks disagree");
    (asg, state, pins.into_iter().map(|p| p.2).collect())
}

#[test]
fn flat_cold_plan_state_and_counters_match_the_pin() {
    let (points, weights) = uniform(20_000, 2018);
    let view = MeshView { points: &points, weights: &weights, graph: None };
    let spec = PlanSpec::flat(view, Tool::Geographer, 8, Config::default());
    let one = [(2, 0, 0), (125, 0, 0), (2, 0, 0), (1, 0, 0)];
    let rank0 = [(3, 3, 232), (125, 125, 10_392), (3, 3, 0), (3, 3, 279_728)];
    let rank1 = [(3, 3, 232), (125, 125, 10_392), (3, 3, 24), (3, 3, 279_728)];
    for (label, got, counts) in [
        ("p = 1 threads", on_threads(&spec, 1), vec![one.to_vec()]),
        ("p = 2 threads", on_threads(&spec, 2), vec![rank0.to_vec(), rank1.to_vec()]),
        ("p = 2 forked", on_procs(&spec, 2), vec![rank0.to_vec(), rank1.to_vec()]),
    ] {
        assert_eq!(got.0, 0x38b1_60c9_4b50_49c1, "{label}: assignment {:#018x}", got.0);
        assert_eq!(got.1, 0xc79d_9b92_7a24_fd94, "{label}: state {:#018x}", got.1);
        assert_eq!(got.2, counts, "{label}: comm");
    }
}

#[test]
fn hierarchical_plan_assignment_state_and_counters_match_the_pin() {
    let (points, weights) = uniform(16_000, 35);
    let view = MeshView { points: &points, weights: &weights, graph: None };
    let cfg = Config { sampling_init: false, ..Config::default() };
    let spec = PlanSpec::hierarchical(view, HierarchySpec::uniform(&[4, 2]), cfg);
    let one = [(10, 0, 0), (72, 0, 0), (10, 0, 0), (5, 0, 0)];
    let rank0 = [(15, 15, 824), (72, 72, 2_232), (15, 15, 0), (15, 15, 450_472)];
    let rank1 = [(15, 15, 824), (72, 72, 2_232), (15, 15, 120), (15, 15, 450_448)];
    for (label, got, counts) in [
        ("p = 1 threads", on_threads(&spec, 1), vec![one.to_vec()]),
        ("p = 2 threads", on_threads(&spec, 2), vec![rank0.to_vec(), rank1.to_vec()]),
        ("p = 2 forked", on_procs(&spec, 2), vec![rank0.to_vec(), rank1.to_vec()]),
    ] {
        assert_eq!(got.0, 0x4ae9_bc76_06ef_4f27, "{label}: assignment {:#018x}", got.0);
        assert_eq!(got.1, 0x384f_b08d_2885_265d, "{label}: state {:#018x}", got.1);
        assert_eq!(got.2, counts, "{label}: comm");
    }
}

#[test]
fn heterogeneous_flat_targets_match_the_pin() {
    let (points, weights) = uniform(12_000, 7);
    let view = MeshView { points: &points, weights: &weights, graph: None };
    let fractions = Some(vec![3.0, 1.0, 2.0, 1.0, 1.0]);
    let cfg = Config { target_fractions: fractions, ..Config::default() };
    let spec = PlanSpec::flat(view, Tool::Geographer, 5, cfg);
    for (p, got) in [(1, on_threads(&spec, 1)), (2, on_threads(&spec, 2))] {
        assert_eq!(got.0, 0xf6b5_bdff_a3d3_f6e6, "p = {p}: assignment {:#018x}", got.0);
        assert_eq!(got.1, 0xc4fe_a198_efdc_7a27, "p = {p}: state {:#018x}", got.1);
    }
}
