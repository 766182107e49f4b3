//! Shared benchmark harness over the planner: recipes, single solves,
//! warm chains, and output plumbing.
//!
//! Before the planner existed, every `bench_*` binary hand-rolled the same
//! glue — SPMD launch, chunk slicing, warm-state threading, refinement
//! dispatch, migration accounting, and `--smoke` output routing — with
//! small drifting differences. This module is that glue, written once:
//!
//! * [`PlanRecipe`] — a named, owned [`geographer_planner::PlanSpec`]
//!   shape (tool, k, hierarchy, refinement, config, warm flag). Binaries
//!   are now thin recipe tables plus a formatter.
//! * [`solve_plan`] — run one recipe on a mesh with `p` SPMD ranks and
//!   return rank 0's [`Plan`] plus the serialized wall time.
//! * [`run_plan_chain`] — drive a recipe over a time-stepped workload,
//!   threading each step's returned [`PlanState`] into the next solve when
//!   the recipe is warm, and measuring per-step quality and relabel-free
//!   migration.
//! * [`write_bench_json`] / [`level_metrics_json`] — the shared output
//!   conventions (smoke runs write under `target/` so CI never clobbers
//!   the committed full-scale baselines).

use std::fmt::Write as _;
use std::time::Instant;

use geographer::{Config, HierarchySpec};
use geographer_graph::{edge_cut, imbalance, relabel_free_migration, LevelMetrics};
use geographer_mesh::{DynamicWorkload, Mesh};
use geographer_parcomm::{run_spmd, run_spmd_proc, CommStats, ProcError};
use geographer_planner::{MeshView, Plan, PlanSpec, PlanState, Planner, RefineMode, Tool};

/// Which SPMD substrate a benchmark launches its ranks on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SpmdBackend {
    /// Ranks are threads of this process sharing an address space
    /// ([`geographer_parcomm::ThreadComm`]) — fast to launch, payloads
    /// move as pointers, communication costs are *modeled* from counters.
    #[default]
    Thread,
    /// Ranks are forked worker processes talking over Unix-domain sockets
    /// ([`geographer_parcomm::ProcComm`]) — every payload is serialized
    /// through the kernel, so per-round latency and per-byte cost are
    /// *measurable* ([`geographer_parcomm::measure_alpha_beta`]).
    Proc,
}

impl SpmdBackend {
    /// Display name for benchmark output.
    pub fn name(self) -> &'static str {
        match self {
            SpmdBackend::Thread => "thread",
            SpmdBackend::Proc => "proc",
        }
    }

    /// Backend selected by the process's CLI arguments: `--proc` picks the
    /// multi-process substrate, default is threads. The figure binaries
    /// all share this switch.
    pub fn from_cli_args() -> SpmdBackend {
        if std::env::args().any(|a| a == "--proc") {
            SpmdBackend::Proc
        } else {
            SpmdBackend::Thread
        }
    }
}

/// A named, owned plan shape: everything a [`PlanSpec`] carries except the
/// mesh borrow, plus the warm flag chains use. One benchmark configuration
/// = one recipe.
#[derive(Debug, Clone)]
pub struct PlanRecipe {
    /// Display/JSON label of this configuration.
    pub name: String,
    /// Which partitioner runs.
    pub tool: Tool,
    /// Leaf block count.
    pub k: usize,
    /// Solve for a processor hierarchy (Geographer only).
    pub hierarchy: Option<HierarchySpec>,
    /// Refinement post-pass.
    pub refine: RefineMode,
    /// Solver tuning.
    pub config: Config,
    /// In a chain, feed each step's returned state into the next solve
    /// (stateless tools simply never produce state, degrading to cold —
    /// the comparison the paper's reuse argument makes).
    pub warm: bool,
}

impl PlanRecipe {
    /// Cold flat recipe with no refinement.
    pub fn flat(name: impl Into<String>, tool: Tool, k: usize, config: Config) -> Self {
        PlanRecipe {
            name: name.into(),
            tool,
            k,
            hierarchy: None,
            refine: RefineMode::None,
            config,
            warm: false,
        }
    }

    /// Cold hierarchical Geographer recipe with no refinement.
    pub fn hierarchical(name: impl Into<String>, spec: HierarchySpec, config: Config) -> Self {
        PlanRecipe {
            name: name.into(),
            tool: Tool::Geographer,
            k: spec.total_blocks(),
            hierarchy: Some(spec),
            refine: RefineMode::None,
            config,
            warm: false,
        }
    }

    /// Same recipe with a refinement mode.
    pub fn with_refine(mut self, refine: RefineMode) -> Self {
        self.refine = refine;
        self
    }

    /// Same recipe, warm-started across chain steps.
    pub fn warm(mut self) -> Self {
        self.warm = true;
        self
    }

    /// Borrow this recipe as a [`PlanSpec`] over `mesh`.
    pub fn spec<'a, const D: usize>(&self, mesh: &'a Mesh<D>) -> PlanSpec<'a, D> {
        self.spec_view(MeshView::from(mesh))
    }

    /// Borrow this recipe as a [`PlanSpec`] over an arbitrary mesh view —
    /// in particular one without a graph, as the scaling benchmark uses
    /// (no Delaunay triangulation at n = 4M).
    pub fn spec_view<'a, const D: usize>(&self, view: MeshView<'a, D>) -> PlanSpec<'a, D> {
        PlanSpec {
            mesh: view,
            tool: self.tool,
            k: self.k,
            hierarchy: self.hierarchy.clone(),
            refine: self.refine.clone(),
            config: self.config.clone(),
        }
    }
}

/// One finished [`solve_plan`] run: rank 0's plan plus the wall time of
/// the whole SPMD execution (serialized compute of all ranks on the
/// single-core reproduction machine).
#[derive(Debug, Clone)]
pub struct PlanRun<const D: usize> {
    /// Rank 0's plan (the assignment is global and identical on all
    /// ranks), with `comm` widened from rank 0's view to the job-wide one
    /// ([`CommStats::from_rank_views`] over every rank's plan).
    pub plan: Plan<D>,
    /// Wall-clock seconds of the whole SPMD run, refinement included.
    /// With `p > 1` ranks on the single-core reproduction machine this is
    /// the *serialized* compute of all ranks — it grows with `p` and must
    /// not be read as a scaling curve.
    pub wall_seconds: f64,
    /// Maximum over ranks of each rank's own wall clock around its solve.
    /// On a genuinely parallel host this is the parallel runtime; on the
    /// single-core harness ranks interleave and block in each other's
    /// collectives, so it approaches `wall_seconds` — the honest per-rank
    /// readout either way, reported next to `wall_seconds` so neither
    /// number is mistaken for the other.
    pub wall_max_rank_s: f64,
    /// Per-phase maximum across ranks of the pipeline timings (`None`
    /// when the recipe is not a flat stateful solve).
    pub phase_max: Option<geographer::PipelineTimings>,
}

impl<const D: usize> PlanRun<D> {
    /// Nanoseconds per point for a measured seconds figure over `n` points.
    pub fn ns_per_point(seconds: f64, n: usize) -> f64 {
        if n == 0 { 0.0 } else { seconds * 1e9 / n as f64 }
    }
}

/// Run one recipe on `mesh` with `p` SPMD ranks, optionally warm-started
/// from `state`. This is the single SPMD launch site every benchmark
/// routes through.
pub fn solve_plan<const D: usize>(
    mesh: &Mesh<D>,
    recipe: &PlanRecipe,
    p: usize,
    state: Option<&PlanState<D>>,
) -> PlanRun<D> {
    solve_plan_view(MeshView::from(mesh), recipe, p, state)
}

/// [`solve_plan`] over a bare [`MeshView`] (graph optional).
pub fn solve_plan_view<const D: usize>(
    view: MeshView<'_, D>,
    recipe: &PlanRecipe,
    p: usize,
    state: Option<&PlanState<D>>,
) -> PlanRun<D> {
    let t = Instant::now();
    let mut plans = run_spmd(p, |comm| {
        let rt = Instant::now();
        let plan = Planner::solve(&recipe.spec_view(view), state, &comm);
        (plan, rt.elapsed().as_secs_f64())
    });
    let wall_seconds = t.elapsed().as_secs_f64();
    let wall_max_rank_s =
        plans.iter().map(|(_, s)| *s).fold(0.0, f64::max);
    let phase_max = plans
        .iter()
        .filter_map(|(plan, _)| plan.phase_timings)
        .reduce(|a, b| geographer::PipelineTimings {
            sfc_index: a.sfc_index.max(b.sfc_index),
            redistribute: a.redistribute.max(b.redistribute),
            kmeans: a.kmeans.max(b.kmeans),
            writeback: a.writeback.max(b.writeback),
        });
    // Each rank's plan carries that rank's counters; the run reports the
    // job-wide view (ops/rounds of rank 0, bytes summed over ranks).
    let views: Vec<CommStats> = plans.iter().map(|(plan, _)| plan.comm).collect();
    let mut plan = plans.remove(0).0;
    plan.comm = CommStats::from_rank_views(&views);
    PlanRun { plan, wall_seconds, wall_max_rank_s, phase_max }
}

/// One finished [`solve_plan_proc`] run: what a cold solve can report when
/// every rank is a separate OS process. The rich [`Plan`] extras (warm
/// state, refinement reports, per-phase timings) stay in the workers; the
/// assignment, the communication counters, and the wall clocks cross the
/// process boundary.
#[derive(Debug, Clone)]
pub struct ProcRun {
    /// Rank 0's global assignment (identical on all ranks, pinned by the
    /// cross-backend conformance suite).
    pub assignment: Vec<u32>,
    /// Job-wide communication counters, combined from the per-rank views
    /// exactly as [`PlanRun`]'s are (ops/rounds from rank 0, received
    /// bytes summed over ranks).
    pub comm: CommStats,
    /// Parent's wall clock around the whole job, fork and rendezvous
    /// included.
    pub wall_seconds: f64,
    /// Maximum over ranks of each worker's own solve wall clock.
    pub wall_max_rank_s: f64,
}

/// Run one **cold** recipe on `mesh` with `p` worker *processes* — the
/// multi-process counterpart of [`solve_plan`]. The mesh is inherited by
/// the forked workers (no input serialization); results come back over
/// the control sockets. A worker that panics, dies, or hangs surfaces as
/// `Err`, never as a hang.
pub fn solve_plan_proc<const D: usize>(
    mesh: &Mesh<D>,
    recipe: &PlanRecipe,
    p: usize,
) -> Result<ProcRun, ProcError> {
    solve_plan_proc_view(MeshView::from(mesh), recipe, p)
}

/// [`solve_plan_proc`] over a bare [`MeshView`] (graph optional).
pub fn solve_plan_proc_view<const D: usize>(
    view: MeshView<'_, D>,
    recipe: &PlanRecipe,
    p: usize,
) -> Result<ProcRun, ProcError> {
    let t = Instant::now();
    let per_rank = run_spmd_proc(p, |comm| {
        let rt = Instant::now();
        let plan = Planner::solve(&recipe.spec_view(view), None, &comm);
        (plan.assignment, plan.comm, rt.elapsed().as_secs_f64())
    })?;
    let wall_seconds = t.elapsed().as_secs_f64();
    let wall_max_rank_s = per_rank.iter().map(|(_, _, s)| *s).fold(0.0, f64::max);
    let views: Vec<CommStats> = per_rank.iter().map(|(_, c, _)| *c).collect();
    let comm = CommStats::from_rank_views(&views);
    let mut per_rank = per_rank;
    Ok(ProcRun { assignment: per_rank.remove(0).0, comm, wall_seconds, wall_max_rank_s })
}

/// Per-step outcome of [`run_plan_chain`].
#[derive(Debug, Clone)]
pub struct ChainStep<const D: usize> {
    /// Workload step index (0 = bootstrap).
    pub step: usize,
    /// Wall-clock seconds of this step's (serialized SPMD) solve.
    pub wall_seconds: f64,
    /// Max-over-ranks per-rank wall of this step (see
    /// [`PlanRun::wall_max_rank_s`]).
    pub wall_max_rank_s: f64,
    /// Uniform-target weighted imbalance of this step's assignment.
    pub imbalance: f64,
    /// Edge cut on the workload's (fixed) topology.
    pub edge_cut: u64,
    /// Relabel-free migrated-point fraction vs the previous step (0 at
    /// step 0).
    pub migrated_point_fraction: f64,
    /// Relabel-free migrated-weight fraction vs the previous step (0 at
    /// step 0), under this step's weights.
    pub migrated_weight_fraction: f64,
    /// The full plan (per-level metrics, refinement reports, comm, …).
    pub plan: Plan<D>,
}

/// Drive a recipe over `steps` steps of a dynamic workload with `p` SPMD
/// ranks. Step 0 is always a cold bootstrap; when the recipe is warm,
/// every later step feeds the previous plan's returned [`PlanState`] back
/// into the solve — flat or hierarchical, the chain code is the same.
pub fn run_plan_chain(
    workload: &DynamicWorkload,
    recipe: &PlanRecipe,
    p: usize,
    steps: usize,
) -> Vec<ChainStep<2>> {
    assert!(steps >= 1);
    let mut out = Vec::with_capacity(steps);
    let mut state: Option<PlanState<2>> = None;
    let mut prev_assignment: Option<Vec<u32>> = None;
    for step in 0..steps {
        let mesh = workload.mesh_at(step);
        let run = solve_plan(&mesh, recipe, p, if recipe.warm { state.as_ref() } else { None });
        let plan = run.plan;
        let (mig_pts, mig_w) = match &prev_assignment {
            Some(prev) => {
                let m =
                    relabel_free_migration(prev, &plan.assignment, &mesh.weights, recipe.k);
                (m.point_fraction, m.weight_fraction)
            }
            None => (0.0, 0.0),
        };
        state = plan.state.clone();
        prev_assignment = Some(plan.assignment.clone());
        out.push(ChainStep {
            step,
            wall_seconds: run.wall_seconds,
            wall_max_rank_s: run.wall_max_rank_s,
            imbalance: imbalance(&plan.assignment, &mesh.weights, recipe.k),
            edge_cut: edge_cut(&mesh.graph, &plan.assignment),
            migrated_point_fraction: mig_pts,
            migrated_weight_fraction: mig_w,
            plan,
        });
    }
    out
}

/// JSON array body for a slice of per-level metrics (the shared format of
/// `BENCH_hierarchy.json` and `BENCH_planner.json`).
pub fn level_metrics_json(levels: &[LevelMetrics]) -> String {
    let mut s = String::new();
    for (i, l) in levels.iter().enumerate() {
        let _ = write!(
            s,
            "{}{{\"groups\": {}, \"edge_cut\": {}, \"total_comm_volume\": {}, \
             \"max_comm_volume\": {}}}",
            if i > 0 { ", " } else { "" },
            l.groups,
            l.edge_cut,
            l.total_comm_volume,
            l.max_comm_volume
        );
    }
    s
}

/// Write a benchmark JSON document to its canonical location and return
/// the path: `BENCH_<name>.json` in the working directory for full runs,
/// `target/BENCH_<name>.smoke.json` for smoke runs (CI must never clobber
/// the committed full-scale baseline).
pub fn write_bench_json(name: &str, smoke: bool, json: &str) -> String {
    let path = if smoke {
        std::fs::create_dir_all("target").expect("create target/");
        format!("target/BENCH_{name}.smoke.json")
    } else {
        format!("BENCH_{name}.json")
    };
    std::fs::write(&path, json).unwrap_or_else(|e| panic!("write {path}: {e}"));
    path
}

#[cfg(test)]
mod tests {
    use super::*;
    use geographer_mesh::{delaunay_unit_square, Scenario};

    #[test]
    fn solve_plan_matches_direct_planner_call() {
        let mesh = delaunay_unit_square(800, 71);
        let cfg = Config { sampling_init: false, ..Config::default() };
        let recipe = PlanRecipe::flat("g", Tool::Geographer, 4, cfg);
        let run1 = solve_plan(&mesh, &recipe, 1, None);
        let run4 = solve_plan(&mesh, &recipe, 4, None);
        assert_eq!(run1.plan.assignment.len(), 800);
        // Global assignment on every rank count; solver agreement across
        // rank counts is pinned by tests/tool_conformance.rs.
        assert_eq!(run4.plan.assignment.len(), 800);
        assert_eq!(run4.plan.ranks, 4);
        assert!(run4.plan.comm.rounds() > 0);
    }

    #[test]
    fn warm_chain_threads_state_and_cold_chain_does_not() {
        let wl = DynamicWorkload::new(
            delaunay_unit_square(700, 72),
            Scenario::ClusterDrift { clusters: 3, speed: 0.02 },
            72,
        );
        let cfg = Config { sampling_init: false, ..Config::default() };
        let warm =
            run_plan_chain(&wl, &PlanRecipe::flat("w", Tool::Geographer, 4, cfg.clone()).warm(), 2, 3);
        let cold = run_plan_chain(&wl, &PlanRecipe::flat("c", Tool::Geographer, 4, cfg), 2, 3);
        assert_eq!(warm.len(), 3);
        assert_eq!(warm[0].migrated_point_fraction, 0.0);
        // Same bootstrap (both cold at step 0).
        assert_eq!(warm[0].plan.assignment, cold[0].plan.assignment);
        for s in warm.iter().chain(&cold) {
            assert!(s.imbalance <= 0.03 + 1e-6);
            assert!(s.edge_cut > 0);
        }
        // Warm steps must move fewer iterations than cold re-solves.
        let warm_iters: u64 =
            warm[1..].iter().map(|s| s.plan.stats.as_ref().unwrap().movement_iterations).sum();
        let cold_iters: u64 =
            cold[1..].iter().map(|s| s.plan.stats.as_ref().unwrap().movement_iterations).sum();
        assert!(warm_iters < cold_iters, "warm {warm_iters} vs cold {cold_iters}");
    }

    #[test]
    fn stateless_chain_degrades_to_cold() {
        let wl = DynamicWorkload::new(
            delaunay_unit_square(500, 73),
            Scenario::ClusterDrift { clusters: 2, speed: 0.02 },
            73,
        );
        let cfg = Config::default();
        let steps =
            run_plan_chain(&wl, &PlanRecipe::flat("rcb", Tool::Rcb, 4, cfg).warm(), 1, 2);
        assert_eq!(steps.len(), 2);
        assert!(steps.iter().all(|s| s.plan.state.is_none()));
    }
}
