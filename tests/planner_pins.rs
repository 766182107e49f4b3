//! Exact outputs of `Planner::solve` on Geographer plans, pinned: the
//! warm state a plan returns (every center and influence bit), what its
//! solve communicated (`Plan::comm`, per collective kind), and its
//! assignment. A flat plan, a `[4, 2]` hierarchical plan and a flat plan
//! with heterogeneous block targets are covered, on thread ranks and on
//! forked ranks, and a warm re-solve of the first two from their cold
//! state. A rewrite of how the planner routes a solve must leave every
//! value here bit for bit unchanged.

use geographer::{Config, HierarchySpec};
use geographer_geometry::{Point, SplitMix64};
use geographer_parcomm::{run_spmd, run_spmd_proc, Collective, Comm, SelfComm};
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

fn solve_pin<C: Comm>(comm: &C, spec: &PlanSpec<'_, 2>, state: Option<&PlanState<2>>) -> Pin {
    let plan = Planner::solve(spec, state, comm);
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
    warm_on_threads(spec, None, p)
}

fn on_procs(spec: &PlanSpec<'_, 2>, p: usize) -> (u64, u64, Vec<Counts>) {
    warm_on_procs(spec, None, p)
}

/// [`on_threads`] from the warm `state` every rank is handed.
fn warm_on_threads(
    spec: &PlanSpec<'_, 2>,
    state: Option<&PlanState<2>>,
    p: usize,
) -> (u64, u64, Vec<Counts>) {
    agree(run_spmd(p, |c| solve_pin(&c, spec, state)))
}

fn warm_on_procs(
    spec: &PlanSpec<'_, 2>,
    state: Option<&PlanState<2>>,
    p: usize,
) -> (u64, u64, Vec<Counts>) {
    agree(run_spmd_proc(p, |c| solve_pin(&c, spec, state)).expect("forked ranks"))
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
    let one = [(2, 0, 0), (124, 0, 0), (2, 0, 0), (1, 0, 0)];
    let rank0 = [(3, 3, 232), (124, 124, 12_120), (3, 3, 0), (3, 3, 279_728)];
    let rank1 = [(3, 3, 232), (124, 124, 12_120), (3, 3, 24), (3, 3, 279_728)];
    for (label, got, counts) in [
        ("p = 1 threads", on_threads(&spec, 1), vec![one.to_vec()]),
        ("p = 2 threads", on_threads(&spec, 2), vec![rank0.to_vec(), rank1.to_vec()]),
        ("p = 2 forked", on_procs(&spec, 2), vec![rank0.to_vec(), rank1.to_vec()]),
    ] {
        assert_eq!(got.0, 0xbab7_9e6e_7baa_8b25, "{label}: assignment {:#018x}", got.0);
        assert_eq!(got.1, 0x165d_5387_3349_2aef, "{label}: state {:#018x}", got.1);
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
        assert_eq!(got.0, 0x579b_1715_a440_5ba6, "p = {p}: assignment {:#018x}", got.0);
        assert_eq!(got.1, 0xd3ca_f470_8b6f_7882, "p = {p}: state {:#018x}", got.1);
    }
}

/// Solve `cold` on one rank, then `warm` from its state on one and two
/// thread ranks and two forked ranks: the warm plan must report
/// `digests` (assignment, state) and make `allreduces` allreduces — each
/// of two ranks receiving `bytes` — and no other collective.
fn assert_warm_pin(cold: &PlanSpec<'_, 2>, warm: &PlanSpec<'_, 2>, pin: (u64, u64, u64, u64)) {
    let (allreduces, bytes, digests) = (pin.0, pin.1, (pin.2, pin.3));
    // The state is replicated: one single-rank cold solve hands every run
    // the same one.
    let state = Planner::solve(cold, None, &SelfComm).state;
    let only = |rounds, bytes| vec![(0, 0, 0), (allreduces, rounds, bytes), (0, 0, 0), (0, 0, 0)];
    let ranks = vec![only(allreduces, bytes); 2];
    for (label, got, counts) in [
        ("p = 1 threads", warm_on_threads(warm, state.as_ref(), 1), vec![only(0, 0)]),
        ("p = 2 threads", warm_on_threads(warm, state.as_ref(), 2), ranks.clone()),
        ("p = 2 forked", warm_on_procs(warm, state.as_ref(), 2), ranks),
    ] {
        let (asg, state) = (got.0, got.1);
        assert_eq!((asg, state), digests, "{label}: assignment {asg:#018x}, state {state:#018x}");
        assert_eq!(got.2, counts, "{label}: comm");
    }
}

/// A warm re-solve of drifted points from a cold plan's state, flat `[8]`
/// and `[4, 2]`. A warm solve makes allreduces only, and each node solve
/// sums its global point count once, in k-means, which checks `k` against
/// it: 11 for the flat plan, 42 for the five nodes of `[4, 2]`.
#[test]
fn warm_plans_match_the_pin() {
    let (points, weights) = uniform(16_000, 46);
    let drifted: Vec<Point<2>> =
        points.iter().map(|p| Point::new([p[0] + 0.01, p[1] - 0.005])).collect();
    let (cold, warm) = (
        MeshView { points: &points, weights: &weights, graph: None },
        MeshView { points: &drifted, weights: &weights, graph: None },
    );
    let cfg = Config { sampling_init: false, ..Config::default() };
    let flat = |view| PlanSpec::flat(view, Tool::Geographer, 8, cfg.clone());
    let pin = (11, 1_136, 0x6a29_f74d_b15a_44e6, 0x773b_9f9f_13e4_12ad);
    assert_warm_pin(&flat(cold), &flat(warm), pin);
    let hier = |view| PlanSpec::hierarchical(view, HierarchySpec::uniform(&[4, 2]), cfg.clone());
    let pin = (42, 1_392, 0xa40f_ef2a_c319_7227, 0xc523_4ac7_263d_3ce9);
    assert_warm_pin(&hier(cold), &hier(warm), pin);
}
