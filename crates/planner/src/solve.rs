//! [`Planner`]: the single entry point over the cold pipeline, warm-start
//! repartitioning, hierarchical solves, and (hierarchy-aware) multilevel
//! refinement.
//!
//! `Planner::solve` is an SPMD collective call: every rank passes the same
//! [`PlanSpec`] (the mesh view is the full replicated point set — the
//! planner shards it internally into the same contiguous `[r·n/p, (r+1)·n/p)`
//! chunks every benchmark uses) and receives a [`Plan`] carrying
//! the *global* assignment, the refreshed warm state for the next step,
//! and per-phase counters. Refinement works on the assembled (global)
//! assignment and is deterministic, so all ranks hold the same plan. It is
//! one stacked pass over the solve's hierarchy (a flat plan's is `[k]`),
//! which deals the parents of each level to the ranks and allgathers
//! their digits, with level 0 and the cross-parent pass redundant
//! (`hier_refine`'s module docs say which part is which).
//!
//! `Plan::comm` counts the solver's collectives only (snapshot-diffed
//! around the solve, before the assembly allgather — so refinement's
//! allgathers are not in it either), and the counters stay
//! directly comparable with the paper's communication model and with the
//! pre-planner committed benchmark numbers.

use geographer::{partition_hierarchical_spmd, KMeansStats, PipelineTimings};
use geographer_baselines::{hsfc_partition, multi_jagged, rcb_partition, rib_partition};
use geographer_geometry::Stopwatch;
use geographer_graph::{imbalance_with_targets, LevelMetrics};
use geographer_parcomm::{Comm, CommStats};
use geographer_refine::RefineReport;

use crate::hier_refine::{refine_hierarchy_multilevel, RefineWork};
use crate::spec::{PlanError, PlanSpec, PlanState, RefineMode};
use crate::tool::Tool;

/// A finished plan: the assignment plus everything the next step and the
/// evaluation harness need.
#[derive(Debug, Clone)]
pub struct Plan<const D: usize> {
    /// Number of leaf blocks.
    pub k: usize,
    /// Block id of every mesh vertex, in input order — **global** on every
    /// rank (post-refinement when the spec asked for it).
    pub assignment: Vec<u32>,
    /// Refreshed warm state, one node per internal node of the spec's
    /// hierarchy (one node for a flat spec, the hierarchy `[k]`): feed it
    /// back into the next solve on the drifted point set. `None` for the
    /// stateless baseline tools.
    pub state: Option<PlanState<D>>,
    /// Solver work counters (`None` for the baseline tools; the
    /// hierarchical aggregate for hierarchical specs).
    pub stats: Option<KMeansStats>,
    /// This rank's view of the solve phase's communication counters (the
    /// assembly allgather and the refinement phase are excluded;
    /// see the module docs): ops and rounds are the job's, bytes are what
    /// this rank received. `CommStats::from_rank_views` over the ranks'
    /// plans gives the job-wide view.
    pub comm: CommStats,
    /// Ranks that solved the plan.
    pub ranks: usize,
    /// Paper-comparable pipeline seconds of the solve:
    /// `phase_timings.total()` for Geographer plans, wall time for the
    /// baselines.
    pub solve_seconds: f64,
    /// Per-phase pipeline timings (Hilbert index, redistribution, k-means,
    /// write-back) of the solve, summed over the hierarchy's node solves
    /// (one for a flat spec). `Some` for every Geographer plan — the
    /// scaling benchmark reads its per-phase ns/point from here — `None`
    /// for the baselines, whose phases are not individually metered.
    pub phase_timings: Option<PipelineTimings>,
    /// Wall seconds of the refinement post-pass (0 when none ran).
    pub refine_seconds: f64,
    /// Refinement summary, when refinement ran: the sum of `level_refine`.
    pub refine: Option<RefineReport>,
    /// Per-hierarchy-level refinement reports, when refinement ran
    /// (outermost level first; one entry for a flat plan, the hierarchy
    /// `[k]`).
    pub level_refine: Option<Vec<RefineReport>>,
    /// Work counters of the refinement, when one ran (a flat plan's V-cycle
    /// built `coarse_levels` levels below the input graph).
    pub refine_work: Option<RefineWork>,
    /// Worst node-local solver imbalance per hierarchy level (from the
    /// hierarchical solver; `None` for flat specs).
    pub level_imbalance: Option<Vec<f64>>,
    /// Per-level cut/volume metrics of the finished assignment (hierarchy
    /// specs with a graph only; `levels[0]` is the inter-node tier).
    pub levels: Option<Vec<LevelMetrics>>,
    /// Target-aware weighted imbalance of the finished assignment, against
    /// the spec's leaf fractions.
    pub imbalance: f64,
}

/// The unified solver front-end. Stateless — all inputs travel in the
/// [`PlanSpec`]/[`PlanState`] pair, all outputs in the [`Plan`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Planner;

impl Planner {
    /// Solve a plan (SPMD collective call), or return the
    /// [`PlanSpec::validate`] error of an illegal spec or state, on every
    /// rank before any collective.
    pub fn try_solve<const D: usize, C: Comm>(
        spec: &PlanSpec<'_, D>,
        state: Option<&PlanState<D>>,
        comm: &C,
    ) -> Result<Plan<D>, PlanError> {
        spec.validate(state)?;
        let n = spec.mesh.points.len();
        let (p, r) = (comm.size(), comm.rank());
        let (lo, hi) = (r * n / p, (r + 1) * n / p);
        let (points, weights) = (&spec.mesh.points[lo..hi], &spec.mesh.weights[lo..hi]);
        // A flat spec is the one-level hierarchy `[k]`, for the solve and
        // for the refinement alike.
        let (h, solve_cfg) = spec.solve_shape();

        // --- Solve phase (the only phase charged to Plan::comm).
        let before = comm.stats();
        let mut clock = Stopwatch::start();
        let baseline = |asg| (asg, None, None, None, None);
        let (local, state_out, stats, level_imbalance, phases) = match spec.tool {
            Tool::Geographer => {
                let res = partition_hierarchical_spmd(comm, points, weights, &h, state, &solve_cfg);
                let level_imbalance = spec.hierarchy.as_ref().map(|_| res.level_imbalance);
                let timings = Some(res.timings);
                (res.assignment, Some(res.previous), Some(res.stats), level_imbalance, timings)
            }
            Tool::Hsfc => baseline(hsfc_partition(comm, points, weights, spec.k)),
            Tool::MultiJagged => baseline(multi_jagged(comm, points, weights, spec.k)),
            Tool::Rcb => baseline(rcb_partition(comm, points, weights, spec.k)),
            Tool::Rib => baseline(rib_partition(comm, points, weights, spec.k)),
        };
        let solve_seconds = phases.map_or_else(|| clock.lap(), |ph| ph.total());
        let comm_used = comm.stats().since(&before);

        // --- Assembly: uncounted, so Plan::comm holds the solver's
        // collectives only.
        let mut assignment: Vec<u32> =
            if p == 1 { local } else { comm.allgather(local).into_iter().flatten().collect() };
        debug_assert_eq!(assignment.len(), n);

        // --- Refinement phase: deterministic on the assembled assignment;
        // its per-level allgathers are uncounted, like assembly.
        let (mut refine, mut level_refine, mut refine_work) = (None, None, None);
        let mut refine_seconds = 0.0;
        if let RefineMode::Multilevel(mcfg) = &spec.refine {
            let mut clock = Stopwatch::start();
            let g = spec.mesh.graph.expect("validated: refinement has a graph");
            let (reports, work) =
                refine_hierarchy_multilevel(comm, g, &mut assignment, spec.mesh.weights, &h, mcfg);
            refine = Some(RefineReport {
                cut_before: reports.iter().map(|r| r.cut_before).sum(),
                cut_after: reports.iter().map(|r| r.cut_after).sum(),
                moves: reports.iter().map(|r| r.moves).sum(),
                rounds: reports.iter().map(|r| r.rounds).sum(),
            });
            level_refine = Some(reports);
            refine_work = Some(work);
            refine_seconds = clock.lap();
        }

        // --- Metrics of the finished assignment.
        let leaf_fractions = spec.leaf_fractions();
        let imbalance = imbalance_with_targets(
            &assignment,
            spec.mesh.weights,
            spec.k,
            leaf_fractions.as_deref(),
        );
        let levels = (spec.hierarchy.as_ref().zip(spec.mesh.graph))
            .map(|(h, g)| geographer_graph::evaluate_levels(g, &assignment, &h.level_groups()));

        Ok(Plan {
            k: spec.k,
            assignment,
            state: state_out,
            stats,
            comm: comm_used,
            ranks: p,
            solve_seconds,
            phase_timings: phases,
            refine_seconds,
            refine,
            level_refine,
            refine_work,
            level_imbalance,
            levels,
            imbalance,
        })
    }

    /// [`Planner::try_solve`], panicking on an illegal spec with the
    /// error's canonical `geographer config:` text — for callers that
    /// treat a bad spec as a programming error, matching the panic
    /// convention of the layers below.
    pub fn solve<const D: usize, C: Comm>(
        spec: &PlanSpec<'_, D>,
        state: Option<&PlanState<D>>,
        comm: &C,
    ) -> Plan<D> {
        match Self::try_solve(spec, state, comm) {
            Ok(plan) => plan,
            Err(e) => panic!("{e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::MeshView;
    use geographer::{Config, HierarchySpec, LevelSpec};
    use geographer_mesh::{delaunay_unit_square, families::bubbles_like};
    use geographer_parcomm::SelfComm;
    use geographer_refine::{MultilevelConfig, RefineConfig};

    #[test]
    fn flat_plan_matches_the_core_pipeline() {
        let mesh = delaunay_unit_square(1_200, 61);
        let cfg = Config { sampling_init: false, ..Config::default() };
        let spec = PlanSpec::flat(MeshView::from(&mesh), Tool::Geographer, 5, cfg.clone());
        let plan = Planner::solve(&spec, None, &SelfComm);
        let core =
            geographer::partition_spmd(&SelfComm, &mesh.points, &mesh.weights, 5, None, &cfg);
        assert_eq!(plan.assignment, core.assignment);
        assert_eq!(plan.k, 5);
        assert!(plan.stats.is_some());
        // One walk: the flat plan is the hierarchy [5], one node holding the
        // pipeline's own state, and it reports the pipeline's phases.
        let state = plan.state.expect("Geographer plans return state");
        assert_eq!((state.arities, state.nodes.len()), (vec![5], 1));
        assert_eq!(state.nodes[0].state.influence, core.influence);
        let phases = plan.phase_timings.expect("phases");
        assert_eq!(plan.solve_seconds, phases.total());
        assert!(plan.stats.expect("stats").assignment_seconds <= phases.kmeans);
        assert_eq!(plan.refine_seconds, 0.0, "no refinement ran");
        assert!(plan.levels.is_none() && plan.level_imbalance.is_none());
        assert!(plan.imbalance <= cfg.epsilon + 1e-9);
    }

    #[test]
    fn baseline_plan_matches_the_tool_and_has_no_state() {
        let mesh = delaunay_unit_square(900, 62);
        let spec = PlanSpec::flat(MeshView::from(&mesh), Tool::Rcb, 4, Config::default());
        let plan = Planner::solve(&spec, None, &SelfComm);
        assert_eq!(plan.assignment, rcb_partition(&SelfComm, &mesh.points, &mesh.weights, 4));
        assert!(plan.state.is_none());
        assert!(plan.stats.is_none());
    }

    #[test]
    fn hierarchical_plan_matches_the_core_solver_and_reports_levels() {
        let mesh = bubbles_like(2_000, 63);
        let cfg = Config { sampling_init: false, ..Config::default() };
        let h = HierarchySpec::uniform(&[2, 2]);
        let spec = PlanSpec::hierarchical(MeshView::from(&mesh), h.clone(), cfg.clone());
        let plan = Planner::solve(&spec, None, &SelfComm);
        let core = geographer::partition_hierarchical_spmd(
            &SelfComm,
            &mesh.points,
            &mesh.weights,
            &h,
            None,
            &cfg,
        );
        assert_eq!(plan.assignment, core.assignment);
        let state = plan.state.expect("Geographer plans return state");
        assert_eq!((state.arities, state.nodes.len()), (vec![2, 2], 3));
        // Both sums run over the three node solves, so they nest as one does.
        let kmeans = plan.phase_timings.expect("phases").kmeans;
        assert!(plan.stats.expect("stats").assignment_seconds <= kmeans);
        let levels = plan.levels.expect("hierarchy + graph must report levels");
        assert_eq!(levels.len(), 2);
        assert!(levels[0].edge_cut <= levels[1].edge_cut);
        assert_eq!(plan.level_imbalance.unwrap().len(), 2);
    }

    #[test]
    fn stacked_spec_runs_and_improves_the_leaf_cut() {
        let mesh = bubbles_like(4_000, 64);
        let cfg = Config { sampling_init: false, ..Config::default() };
        let h = HierarchySpec::uniform(&[2, 2]);
        let plain = Planner::solve(
            &PlanSpec::hierarchical(MeshView::from(&mesh), h.clone(), cfg.clone()),
            None,
            &SelfComm,
        );
        let stacked = Planner::solve(
            &PlanSpec::hierarchical(MeshView::from(&mesh), h, cfg)
                .with_refine(RefineMode::Multilevel(MultilevelConfig::default())),
            None,
            &SelfComm,
        );
        let pl = plain.levels.unwrap();
        let sl = stacked.levels.unwrap();
        assert!(sl[1].edge_cut < pl[1].edge_cut, "{} -> {}", pl[1].edge_cut, sl[1].edge_cut);
        assert!(sl[0].edge_cut <= pl[0].edge_cut);
        assert!(stacked.level_refine.unwrap().len() == 2);
        assert!(stacked.refine.unwrap().moves > 0);
        assert!(stacked.refine_seconds >= 0.0);
    }

    #[test]
    fn warm_fixed_point_holds_on_both_mesh_families() {
        // The warm-restart bitwise fixed point (DESIGN.md §8): re-solving
        // an unchanged mesh from a plan's refreshed state reproduces the
        // assignment exactly, on both test mesh families.
        for family in [0, 1] {
            let mesh =
                if family == 0 { delaunay_unit_square(1_100, 66) } else { bubbles_like(1_100, 66) };
            let spec =
                PlanSpec::flat(MeshView::from(&mesh), Tool::Geographer, 5, Config::default());
            let cold = Planner::solve(&spec, None, &SelfComm);
            let warm = Planner::solve(&spec, cold.state.as_ref(), &SelfComm);
            assert_eq!(warm.assignment, cold.assignment, "family={family}");
            assert_eq!(warm.state.map(|s| s.arities), Some(vec![5]));
        }
    }

    #[test]
    #[should_panic(
        expected = "geographer config: plan state arities [4] do not match the spec's [2, 2]"
    )]
    fn solve_panics_with_the_pinned_text() {
        let mesh = delaunay_unit_square(400, 65);
        let cfg = Config { sampling_init: false, ..Config::default() };
        let flat = Planner::solve(
            &PlanSpec::flat(MeshView::from(&mesh), Tool::Geographer, 4, cfg.clone()),
            None,
            &SelfComm,
        );
        let spec =
            PlanSpec::hierarchical(MeshView::from(&mesh), HierarchySpec::uniform(&[2, 2]), cfg);
        let _ = Planner::solve(&spec, flat.state.as_ref(), &SelfComm);
    }

    /// Refinement targets are the spec's own: a refine config naming its
    /// own fractions is rejected before the solve, on either spec shape.
    #[test]
    fn refine_config_fractions_are_rejected_before_the_solve() {
        let mesh = delaunay_unit_square(400, 68);
        let cfg = Config { sampling_init: false, ..Config::default() };
        let refine = RefineConfig { target_fractions: Some(vec![1.0; 4]), ..Default::default() };
        let mcfg = MultilevelConfig { refine, ..MultilevelConfig::default() };
        let view = MeshView::from(&mesh);
        let flat = PlanSpec::flat(view, Tool::Geographer, 4, cfg.clone());
        let hier = PlanSpec::hierarchical(view, HierarchySpec::uniform(&[2, 2]), cfg);
        for spec in [flat, hier] {
            let spec = spec.with_refine(RefineMode::Multilevel(mcfg.clone()));
            let err = Planner::try_solve(&spec, None, &SelfComm).expect_err("rejected");
            assert_eq!(
                err.to_string(),
                "geographer config: refinement takes capacity fractions from the plan spec; \
                 MultilevelConfig::refine.target_fractions must be None"
            );
        }
    }

    /// A flat spec's bad `target_fractions` panic with `Config`'s own texts.
    fn solve_flat_with_fractions(fractions: Vec<f64>) {
        let mesh = delaunay_unit_square(400, 67);
        let cfg = Config { target_fractions: Some(fractions), ..Config::default() };
        let spec = PlanSpec::flat(MeshView::from(&mesh), Tool::Geographer, 4, cfg);
        let _ = Planner::solve(&spec, None, &SelfComm);
    }

    #[test]
    #[should_panic(
        expected = "geographer config: target_fractions length must equal k (got 3, k = 4)"
    )]
    fn flat_fractions_of_the_wrong_length_panic_with_the_config_text() {
        solve_flat_with_fractions(vec![1.0, 2.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "geographer config: target_fractions must be positive")]
    fn non_positive_flat_fractions_panic_with_the_config_text() {
        solve_flat_with_fractions(vec![1.0, 0.0, 1.0, 1.0]);
    }

    /// Every spec error the solve once panicked on is an `Err` of
    /// `try_solve`, with the text `Planner::solve` panics with: each
    /// `Config` range on either spec shape, a flat spec's fractions, and
    /// each hierarchy error a spec can reach (a zero arity is `k = 0`).
    #[test]
    fn config_and_hierarchy_errors_are_typed() {
        let mesh = delaunay_unit_square(400, 69);
        let view = MeshView::from(&mesh);
        let text = |spec: PlanSpec<'_, 2>| {
            let err = Planner::try_solve(&spec, None, &SelfComm).expect_err("illegal spec");
            err.to_string().strip_prefix("geographer config: ").expect("prefixed").to_owned()
        };
        let cfg = Config::default;
        let flat = |config| text(PlanSpec::flat(view, Tool::Geographer, 4, config));
        let hier =
            |config| text(PlanSpec::hierarchical(view, HierarchySpec::uniform(&[2, 2]), config));
        for (config, expected) in [
            (Config { epsilon: -0.1, ..cfg() }, "epsilon must be non-negative"),
            (Config { epsilon: f64::NAN, ..cfg() }, "epsilon must be non-negative"),
            (Config { max_iterations: 0, ..cfg() }, "max_iterations must be at least 1"),
            (
                Config { max_balance_iterations: 0, ..cfg() },
                "max_balance_iterations must be at least 1",
            ),
            (Config { initial_sample: 0, ..cfg() }, "initial_sample must be at least 1"),
        ] {
            assert_eq!([flat(config.clone()), hier(config)], [expected; 2]);
        }
        let fractions = |f: Vec<f64>| flat(Config { target_fractions: Some(f), ..cfg() });
        assert_eq!(fractions(vec![]), "target_fractions must not be empty");
        assert_eq!(
            fractions(vec![1.0, 2.0, 1.0]),
            "target_fractions length must equal k (got 3, k = 4)"
        );
        assert_eq!(fractions(vec![1.0, f64::NAN, 1.0, 1.0]), "target_fractions must be positive");
        let levels = |levels| text(PlanSpec::hierarchical(view, HierarchySpec { levels }, cfg()));
        let level = |arity, epsilon, fractions| LevelSpec { arity, epsilon, fractions };
        let two = || level(2, None, None);
        assert_eq!(levels(vec![]), "hierarchy must have at least one level");
        assert_eq!(levels(vec![two(), level(0, None, None)]), "k must be at least 1");
        assert_eq!(
            levels(vec![level(2, Some(-0.5), None), two()]),
            "hierarchy level 0 epsilon must be non-negative"
        );
        assert_eq!(
            levels(vec![two(), level(2, None, Some(vec![1.0]))]),
            "hierarchy level 1 fractions length must equal arity (got 1, arity = 2)"
        );
        assert_eq!(
            levels(vec![level(2, None, Some(vec![1.0, 0.0])), two()]),
            "hierarchy level 0 fractions must be positive"
        );
    }

    /// A state of the spec's arities that lost a node is an `Err`, not a
    /// panic inside the hierarchical solve.
    #[test]
    fn a_state_missing_a_node_is_rejected_before_the_solve() {
        let mesh = delaunay_unit_square(400, 70);
        let cfg = Config { sampling_init: false, ..Config::default() };
        let view = MeshView::from(&mesh);
        for (spec, text) in [
            (
                PlanSpec::hierarchical(view, HierarchySpec::uniform(&[2, 2]), cfg.clone()),
                "geographer config: plan state has 2 nodes but the spec's [2, 2] hierarchy has 3",
            ),
            (
                PlanSpec::flat(view, Tool::Geographer, 4, cfg),
                "geographer config: plan state has 0 nodes but the spec's [4] hierarchy has 1",
            ),
        ] {
            let mut state = Planner::solve(&spec, None, &SelfComm).state.expect("state");
            state.nodes.pop();
            let err = Planner::try_solve(&spec, Some(&state), &SelfComm).expect_err("rejected");
            assert_eq!(err.to_string(), text);
        }
    }

    /// The error of a warm re-solve of a `[2, 2]` plan from its own state,
    /// corrupted by `corrupt`.
    fn corrupted_state_error(corrupt: fn(&mut PlanState<2>)) -> String {
        let mesh = delaunay_unit_square(400, 71);
        let cfg = Config { sampling_init: false, ..Config::default() };
        let spec =
            PlanSpec::hierarchical(MeshView::from(&mesh), HierarchySpec::uniform(&[2, 2]), cfg);
        let mut state = Planner::solve(&spec, None, &SelfComm).state.expect("state");
        corrupt(&mut state);
        let err = Planner::try_solve(&spec, Some(&state), &SelfComm).expect_err("rejected");
        err.to_string()
    }

    /// Nodes of the spec's count out of pre-order are an `Err`, not a
    /// panic inside the hierarchical solve.
    #[test]
    fn a_state_with_swapped_nodes_is_rejected_before_the_solve() {
        assert_eq!(
            corrupted_state_error(|state| state.nodes.swap(1, 2)),
            "geographer config: plan state node 2 (path [0], 2 centers, 2 influences) \
             is not the spec's pre-order node 2"
        );
    }

    /// A node that lost a center is an `Err`, not a panic inside k-means.
    #[test]
    fn a_state_node_missing_a_center_is_rejected_before_the_solve() {
        let pop = |state: &mut PlanState<2>| {
            state.nodes[1].state.centers.pop();
        };
        assert_eq!(
            corrupted_state_error(pop),
            "geographer config: plan state node 1 (path [0], 1 centers, 2 influences) \
             is not the spec's pre-order node 1"
        );
    }
}
