//! Determinism guards of the stacked path (hierarchical solve + per-level
//! multilevel refinement, DESIGN.md §8).
//!
//! Hierarchical refinement is integer-gain local search in vertex-id
//! order, so its result is one bit pattern: the same on a repeat run, the
//! same however the parents of a level are dealt to ranks, and the same
//! before and after any change that only makes it cheaper. Nothing else in
//! tier-1 would notice a run-dependent tie-break there (the mutation audit
//! of DESIGN.md §11, row D1), so this file pins all three. It also pins
//! the flat one-sweep plans, because a sweep is the same V-cycle at one
//! level (DESIGN.md §7).

use geographer::{Config, HierarchySpec};
use geographer_bench::{solve_plan_view, PlanRecipe};
use geographer_graph::evaluate_levels;
use geographer_mesh::{families::bubbles_like, Mesh};
use geographer_parcomm::{run_spmd, run_spmd_proc, Comm, SelfComm};
use geographer_planner::{refine_hierarchy_multilevel, MeshView, RefineMode, Tool};
use geographer_refine::{refine_partition, MultilevelConfig, RefineConfig};

/// FNV-1a over the assignment's little-endian block ids (the digest of
/// `count_guard`).
fn digest(assignment: &[u32]) -> u64 {
    assignment
        .iter()
        .flat_map(|b| b.to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

fn stacked_4x4() -> PlanRecipe {
    let cfg = Config { sampling_init: false, ..Config::default() };
    PlanRecipe::hierarchical("stacked", HierarchySpec::uniform(&[4, 4]), cfg)
        .with_refine(RefineMode::Multilevel(MultilevelConfig::default()))
}

/// The repeat-run guard ROADMAP 4f asked for, and the pin that makes
/// "bit-identical" a `cargo test -q` fact: digest and reports of the
/// stacked `[4, 4]` plan at p = 2, recorded at commit 8eda87d (the last
/// one whose refinement gathered, sorted and cloned its way through every
/// V-cycle on every rank).
#[test]
fn stacked_4x4_plan_repeats_bitwise_and_matches_the_digest_pinned_at_8eda87d() {
    let mesh = bubbles_like(6_000, 22);
    let run = || solve_plan_view(MeshView::from(&mesh), &stacked_4x4(), 2, None).plan;
    let (first, second) = (run(), run());
    assert_eq!(digest(&first.assignment), digest(&second.assignment), "repeat run differs");
    assert_eq!(first.refine, second.refine);
    assert_eq!(first.level_refine, second.level_refine);

    let d = digest(&first.assignment);
    assert_eq!(d, 0x919c_38b1_32b0_9e56, "stacked plan digest {d:#018x}");
    let reports: Vec<[u64; 4]> = first
        .level_refine
        .expect("stacked plans report per level")
        .iter()
        .map(|r| [r.cut_before, r.cut_after, r.moves as u64, r.rounds as u64])
        .collect();
    assert_eq!(reports, [[255, 225, 22, 14], [779, 642, 74, 19]]);
}

/// One boundary sweep: the V-cycle at one level.
fn one_sweep() -> RefineMode {
    RefineMode::Multilevel(MultilevelConfig { max_levels: 1, ..MultilevelConfig::default() })
}

/// Digest and `[cut_before, cut_after, moves, rounds]` of one-sweep flat
/// plans at p ∈ {1, 2} on `bubbles_like(6_000, 22)`, k = 16, recorded at
/// commit 0bec469, where one sweep was a refinement mode of its own and
/// not a one-level V-cycle.
#[test]
fn one_sweep_plans_match_the_digests_pinned_at_0bec469() {
    let mesh = bubbles_like(6_000, 22);
    let pinned = [
        (Tool::Geographer, 0x1605_4b15_da38_a268u64, [885u64, 797, 59, 4]),
        (Tool::Hsfc, 0x4d3d_5a48_11cb_601c, [1356, 1135, 131, 4]),
    ];
    let cfg = Config { sampling_init: false, ..Config::default() };
    for (tool, want_digest, want_report) in pinned {
        let plain = PlanRecipe::flat("one-sweep", tool, 16, cfg.clone());
        for p in [1, 2] {
            let recipe = plain.clone().with_refine(one_sweep());
            let plan = solve_plan_view(MeshView::from(&mesh), &recipe, p, None).plan;
            let d = digest(&plan.assignment);
            assert_eq!(d, want_digest, "{} at p = {p}: digest {d:#018x}", tool.name());
            let r = plan.refine.expect("a refined plan reports");
            let got = [r.cut_before, r.cut_after, r.moves as u64, r.rounds as u64];
            assert_eq!(got, want_report, "{} at p = {p}", tool.name());
        }
        // The free function reads the same bits off the unrefined plan.
        let mut asg = solve_plan_view(MeshView::from(&mesh), &plain, 1, None).plan.assignment;
        let r = refine_partition(&mesh.graph, &mut asg, &mesh.weights, 16, &RefineConfig::default());
        assert_eq!(digest(&asg), want_digest, "{}: refine_partition", tool.name());
        assert_eq!([r.cut_before, r.cut_after, r.moves as u64, r.rounds as u64], want_report);
    }
}

/// A hierarchical spec refined by one-level cycles runs the stacked pass:
/// no level's cut rises, and every level stays inside the solver's floor
/// `max((1+ε)·target, target + w_max)` against its parent's actual weight.
#[test]
fn one_level_cycles_refine_a_hierarchy_inside_every_floor() {
    let mesh = bubbles_like(6_000, 22);
    let spec = HierarchySpec::uniform(&[4, 4]);
    let cfg = Config { sampling_init: false, ..Config::default() };
    let recipe = PlanRecipe::hierarchical("one-level", spec.clone(), cfg.clone());
    let plain = solve_plan_view(MeshView::from(&mesh), &recipe, 2, None).plan;
    let refined =
        solve_plan_view(MeshView::from(&mesh), &recipe.with_refine(one_sweep()), 2, None).plan;
    let work = refined.refine_work.expect("a refined plan reports its work");
    assert_eq!(work.coarse_levels, 0, "one-level cycles build no coarse level");
    assert!(refined.refine.expect("a refined plan reports").moves > 0);

    let groups = spec.level_groups();
    let before = evaluate_levels(&mesh.graph, &plain.assignment, &groups);
    let after = evaluate_levels(&mesh.graph, &refined.assignment, &groups);
    let w_max = mesh.weights.iter().copied().fold(0.0, f64::max);
    let mut parent_w = vec![mesh.weights.iter().sum::<f64>()];
    for (l, map) in groups.iter().enumerate() {
        assert!(after[l].edge_cut <= before[l].edge_cut, "level {l}: the cut rose");
        let arity = spec.levels[l].arity;
        let mut gw = vec![0.0f64; parent_w.len() * arity];
        for (&b, &w) in refined.assignment.iter().zip(&mesh.weights) {
            gw[map[b as usize] as usize] += w;
        }
        for (gi, &w) in gw.iter().enumerate() {
            let target = parent_w[gi / arity] / arity as f64;
            let allowed = ((1.0 + cfg.epsilon) * target).max(target + w_max);
            assert!(w <= allowed + 1e-9, "level {l} group {gi}: {w} > {allowed}");
        }
        parent_w = gw;
    }
}

/// One rank's outcome of refining `start` over `comm`, in a form that
/// crosses a process boundary: the assignment, the per-level reports and
/// the work counters.
type Outcome = (Vec<u32>, Vec<[u64; 4]>, [u64; 3]);

fn refine_over<C: Comm>(comm: &C, mesh: &Mesh<2>, spec: &HierarchySpec, start: &[u32]) -> Outcome {
    let mut asg = start.to_vec();
    let (reports, work) = refine_hierarchy_multilevel(
        comm,
        &mesh.graph,
        &mut asg,
        &mesh.weights,
        spec,
        &MultilevelConfig { coarsest_vertices: 300, ..MultilevelConfig::default() },
    );
    let reports =
        reports.iter().map(|r| [r.cut_before, r.cut_after, r.moves as u64, r.rounds as u64]);
    (asg, reports.collect(), [work.sweeps as u64, work.vcycles as u64, work.coarse_levels as u64])
}

/// Dealing a level's parents to ranks changes who computes a parent's
/// digits, never what they are: on thread ranks and on forked ranks, at
/// rank counts that divide the parents, do not divide them, and exceed
/// them (idle ranks), every rank ends with the single-rank assignment,
/// reports and work counters.
#[test]
fn dealt_parents_reproduce_the_single_rank_refinement_on_both_backends() {
    let mesh = bubbles_like(3_000, 23);
    for arities in [&[4usize, 4][..], &[3, 1, 2], &[2, 2, 2]] {
        let spec = HierarchySpec::uniform(arities);
        let cfg = Config { sampling_init: false, ..Config::default() };
        let recipe = PlanRecipe::hierarchical("hier", spec.clone(), cfg);
        let start = solve_plan_view(MeshView::from(&mesh), &recipe, 1, None).plan.assignment;

        let serial = refine_over(&SelfComm, &mesh, &spec, &start);
        assert!(serial.1.iter().any(|r| r[2] > 0), "{arities:?}: the corpus must move something");
        for p in [1, 2, 3, 5] {
            for (r, got) in run_spmd(p, |c| refine_over(&c, &mesh, &spec, &start)).iter().enumerate() {
                assert_eq!(got, &serial, "{arities:?}: thread rank {r} of {p}");
            }
            let procs = run_spmd_proc(p, |c| refine_over(&c, &mesh, &spec, &start))
                .unwrap_or_else(|e| panic!("{arities:?}, p={p}: proc job failed: {e}"));
            for (r, got) in procs.iter().enumerate() {
                assert_eq!(got, &serial, "{arities:?}: process rank {r} of {p}");
            }
        }
    }
}

/// Digest and `[cut_before, cut_after, moves, rounds]` of a refined plan
/// (the per-level reports of a hierarchical one, the summed report of a
/// flat one).
fn refined_pin(plan: &geographer_planner::Plan<2>, per_level: bool) -> (u64, Vec<[u64; 4]>) {
    let row = |r: &geographer_refine::RefineReport| {
        [r.cut_before, r.cut_after, r.moves as u64, r.rounds as u64]
    };
    let reports = if per_level {
        plan.level_refine.as_ref().expect("stacked plans report per level").iter().map(row).collect()
    } else {
        vec![row(plan.refine.as_ref().expect("a refined plan reports"))]
    };
    (digest(&plan.assignment), reports)
}

/// Flat refined plans on `bubbles_like(6_000, 22)` at k ∈ {4, 16, 64},
/// one-level and default-depth cycles, for Geographer and HSFC, at
/// p ∈ {1, 2}, recorded at commit 3f488c2, where a flat spec refined
/// through its own V-cycle call and a hierarchical one through the
/// stacked pass.
#[test]
fn flat_refined_plans_match_the_digests_pinned_at_3f488c2() {
    let mesh = bubbles_like(6_000, 22);
    let cfg = Config { sampling_init: false, ..Config::default() };
    let default_levels = MultilevelConfig::default().max_levels;
    let pinned: [(Tool, usize, usize, u64, [u64; 4]); 12] = [
        (Tool::Geographer, 4, 1, 0xf7fd_2a34_a429_4d67, [255, 235, 17, 3]),
        (Tool::Geographer, 4, default_levels, 0x26b6_8058_d5c8_9986, [255, 227, 20, 6]),
        (Tool::Geographer, 16, 1, 0x1605_4b15_da38_a268, [885, 797, 59, 4]),
        (Tool::Geographer, 16, default_levels, 0xf0d8_aa10_7f6d_96fa, [885, 762, 71, 11]),
        (Tool::Geographer, 64, 1, 0xafe7_83a7_2a48_b92c, [2177, 1985, 141, 3]),
        (Tool::Geographer, 64, default_levels, 0x9199_3cef_3941_ade5, [2177, 1975, 142, 10]),
        (Tool::Hsfc, 4, 1, 0x54a3_9a40_e36e_b525, [342, 312, 24, 3]),
        (Tool::Hsfc, 4, default_levels, 0x75a2_5bf5_28c5_0d67, [342, 284, 34, 9]),
        (Tool::Hsfc, 16, 1, 0x4d3d_5a48_11cb_601c, [1356, 1135, 131, 4]),
        (Tool::Hsfc, 16, default_levels, 0x570c_7da0_dbab_56d7, [1356, 1023, 154, 10]),
        (Tool::Hsfc, 64, 1, 0x2f58_dde9_67de_d4b1, [3234, 2595, 364, 5]),
        (Tool::Hsfc, 64, default_levels, 0x1c1e_163d_3a4b_5df2, [3234, 2558, 317, 14]),
    ];
    for (tool, k, max_levels, want_digest, want_report) in pinned {
        let mode =
            RefineMode::Multilevel(MultilevelConfig { max_levels, ..MultilevelConfig::default() });
        let recipe = PlanRecipe::flat("flat", tool, k, cfg.clone()).with_refine(mode);
        for p in [1, 2] {
            let plan = solve_plan_view(MeshView::from(&mesh), &recipe, p, None).plan;
            let (d, reports) = refined_pin(&plan, false);
            assert_eq!(
                (d, reports[0]),
                (want_digest, want_report),
                "{} k = {k} max_levels = {max_levels} at p = {p}: digest {d:#018x}",
                tool.name()
            );
        }
    }
}

/// Stacked plans over hierarchies deeper or wider than the `[4, 4]` pin —
/// `[2, 2, 4]` and `[8, 2]` — and a flat plan with heterogeneous target
/// fractions, on `bubbles_like(6_000, 22)` at p ∈ {1, 2}, recorded at
/// commit 3f488c2.
#[test]
fn deep_stacked_and_heterogeneous_flat_plans_match_the_digests_pinned_at_3f488c2() {
    let mesh = bubbles_like(6_000, 22);
    let cfg = Config { sampling_init: false, ..Config::default() };
    let refine = RefineMode::Multilevel(MultilevelConfig::default());
    let hetero = Config { target_fractions: Some(vec![0.1, 0.2, 0.3, 0.4]), ..cfg.clone() };
    let cases: [(PlanRecipe, bool, u64, Vec<[u64; 4]>); 3] = [
        (
            PlanRecipe::hierarchical("2x2x4", HierarchySpec::uniform(&[2, 2, 4]), cfg.clone()),
            true,
            0xc844_6d7e_6195_92d5,
            vec![[139, 115, 14, 13], [214, 144, 28, 20], [775, 627, 91, 23]],
        ),
        (
            PlanRecipe::hierarchical("8x2", HierarchySpec::uniform(&[8, 2]), cfg.clone()),
            true,
            0x8d6c_7bdb_bfee_4e84,
            vec![[611, 543, 48, 18], [503, 361, 68, 38]],
        ),
        (
            PlanRecipe::flat("hetero", Tool::Geographer, 4, hetero),
            false,
            0x0b50_ec43_e9a0_4ef4,
            vec![[321, 276, 31, 8]],
        ),
    ];
    for (recipe, per_level, want_digest, want_reports) in cases {
        let recipe = recipe.with_refine(refine.clone());
        for p in [1, 2] {
            let plan = solve_plan_view(MeshView::from(&mesh), &recipe, p, None).plan;
            let got = refined_pin(&plan, per_level);
            assert_eq!(got, (want_digest, want_reports.clone()), "{} at p = {p}", recipe.name);
        }
    }
}
