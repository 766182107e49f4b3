//! Shared benchmark harness over the planner: recipes, single solves,
//! warm chains, table rows, and output plumbing. Every solve a binary, a
//! bench, an example or an integration test makes goes through here to
//! [`Planner::solve`] — SPMD launch, warm-state threading, migration
//! accounting, and `--smoke` output routing are written once:
//!
//! * [`PlanRecipe`] — a named, owned [`geographer_planner::PlanSpec`]
//!   shape (tool, k, hierarchy, refinement, config, warm flag). Binaries
//!   are thin recipe tables plus a formatter.
//! * [`solve_plan_view`] — run one recipe on a mesh view with `p` thread
//!   ranks and return rank 0's [`Plan`] plus the serialized wall time;
//!   [`solve_plan_proc_view`] is the cold solve over forked ranks, and
//!   [`SpmdBackend::solve_cold`] picks between the two.
//! * [`run_plan_chain`] — drive a recipe over a time-stepped workload,
//!   threading each step's returned [`PlanState`] into the next solve when
//!   the recipe is warm, and measuring per-step quality and relabel-free
//!   migration.
//! * [`evaluate_run`] — the paper's metric row ([`ToolRow`]) of a finished
//!   run: graph metrics plus the empirical SpMV benchmark.
//! * [`Cli`] — the one argument parser: an unknown argument is an error,
//!   so a mistyped `--smoke` cannot run full scale over a committed file.
//! * [`write_bench_json`] — the one record writer. A bin builds its
//!   `BENCH_<name>.json` as a [`Value`] ([`obj`], [`num`]); the writer
//!   stamps the `provenance` block, routes smoke runs under `target/` (CI
//!   never clobbers a committed full-scale baseline) and checks their key
//!   skeleton against the committed file ([`skeleton_diff`]).

use std::collections::BTreeSet;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use geographer::{Config, HierarchySpec};
use geographer_analyze::json::{parse, Value};
use geographer_analyze::schema::PROVENANCE_KEYS;
use geographer_graph::{
    edge_cut, evaluate_partition_with_targets, imbalance, relabel_free_migration, LevelMetrics,
    PartitionMetrics,
};
use geographer_mesh::{DynamicWorkload, Mesh};
use geographer_parcomm::{run_spmd, run_spmd_proc, CommStats, ProcError};
use geographer_planner::{MeshView, Plan, PlanSpec, PlanState, Planner, RefineMode, Tool};
use geographer_spmv::{spmv_comm_time, SpmvReport};

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

    /// Cold-solve `recipe` on this substrate. Both backends run the
    /// identical planner code over the identical collective algorithms, so
    /// the assignment is the same; the process backend's wall time
    /// includes real fork and socket costs. What comes back is what
    /// can cross a process boundary ([`ProcRun`]), on either backend — the
    /// scaling figures need no more.
    ///
    /// # Panics
    /// If the process-backend job fails (a worker panicked, died or hung).
    pub fn solve_cold<const D: usize>(
        self,
        view: MeshView<'_, D>,
        recipe: &PlanRecipe,
        p: usize,
    ) -> ProcRun {
        match self {
            SpmdBackend::Thread => {
                let run = solve_plan_view(view, recipe, p, None);
                ProcRun {
                    assignment: run.plan.assignment,
                    comm: run.plan.comm,
                    wall_seconds: run.wall_seconds,
                    wall_max_rank_s: run.wall_max_rank_s,
                }
            }
            SpmdBackend::Proc => solve_plan_proc_view(view, recipe, p)
                .unwrap_or_else(|e| panic!("process-backend solve failed: {e}")),
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

    /// Borrow this recipe as a [`PlanSpec`] over a mesh view — possibly
    /// one without a graph, as the scaling benchmark uses (no Delaunay
    /// triangulation at n = 4M).
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

/// One finished [`solve_plan_view`] run: rank 0's plan plus the wall time of
/// the whole SPMD execution (serialized compute of all ranks on the
/// single-core reproduction machine).
#[derive(Debug, Clone)]
pub struct PlanRun<const D: usize> {
    /// Rank 0's plan (the assignment is global and identical on all
    /// ranks), with `comm` widened from rank 0's view to the job-wide one
    /// ([`CommStats::from_rank_views`] over every rank's plan). Nothing
    /// else is widened: `stats` (so `assignment_seconds`) and the plan's
    /// seconds are rank 0's own; `phase_max` is the rank maximum.
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
    /// Per-phase maximum across ranks of the pipeline timings (each
    /// rank's summed over its node solves; `None` for the baseline
    /// tools).
    pub phase_max: Option<geographer::PipelineTimings>,
}

/// Nanoseconds per point for a measured seconds figure over `n` points.
pub fn ns_per_point(seconds: f64, n: usize) -> f64 {
    if n == 0 { 0.0 } else { seconds * 1e9 / n as f64 }
}

/// Arithmetic mean, 0 for an empty sequence.
pub fn mean(vals: impl Iterator<Item = f64>) -> f64 {
    let (sum, count) = vals.fold((0.0, 0usize), |(s, c), v| (s + v, c + 1));
    if count == 0 { 0.0 } else { sum / count as f64 }
}

/// Run one recipe on a mesh view (graph optional) with `p` thread ranks,
/// optionally warm-started from `state`. This is the single thread-backend
/// launch site every benchmark routes through.
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
        .reduce(|a, b| a.zip_with(b, f64::max));
    // Each rank's plan carries that rank's counters; the run reports the
    // job-wide view (ops/rounds of rank 0, bytes summed over ranks).
    let views: Vec<CommStats> = plans.iter().map(|(plan, _)| plan.comm).collect();
    let mut plan = plans.remove(0).0;
    plan.comm = CommStats::from_rank_views(&views);
    PlanRun { plan, wall_seconds, wall_max_rank_s, phase_max }
}

/// One finished [`solve_plan_proc_view`] run: what a cold solve can report when
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
    /// Parent's wall clock around the whole job, socketpairs, forks and
    /// reaping included.
    pub wall_seconds: f64,
    /// Maximum over ranks of each worker's own solve wall clock.
    pub wall_max_rank_s: f64,
}

/// Run one **cold** recipe on a mesh view with `p` worker *processes* —
/// the multi-process counterpart of [`solve_plan_view`]. The mesh is
/// inherited by the forked workers (no input serialization); results come
/// back over the control sockets. A worker that panics, dies, or hangs
/// surfaces as `Err`, never as a hang.
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
        let warm_state = if recipe.warm { state.as_ref() } else { None };
        let run = solve_plan_view(MeshView::from(&mesh), recipe, p, warm_state);
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

/// One row of the paper's Tables 1–2: tool, time, cut, comm volumes,
/// diameter, SpMV communication time.
#[derive(Debug, Clone)]
pub struct ToolRow {
    /// Tool display name.
    pub tool: &'static str,
    /// Partitioning wall time (serialized; see [`PlanRun::wall_seconds`]).
    pub time: f64,
    /// Graph metrics of the produced partition.
    pub metrics: PartitionMetrics,
    /// SpMV halo-exchange seconds per multiplication: the *maximum* over
    /// ranks of the per-rank average (over `spmv_reps` repetitions). The
    /// paper's `timeSpMVComm` is bounded by the slowest rank — every rank
    /// waits for its neighbourhood exchange to complete — so summing the
    /// per-rank times would overstate the cost by up to a factor of `p`
    /// (see DESIGN.md §6 erratum).
    pub spmv_comm_seconds: f64,
    /// Bytes moved per SpMV across all ranks (8 × total communication
    /// volume when k = p) — a volume, so this one *is* the sum.
    pub spmv_bytes: u64,
}

/// Aggregate per-rank SpMV reports into the row scalars: slowest-rank
/// exchange seconds (`timeSpMVComm` semantics) and summed bytes.
pub fn aggregate_spmv(reports: &[SpmvReport]) -> (f64, u64) {
    let seconds = reports.iter().map(|r| r.comm_seconds_avg).fold(0.0, f64::max);
    let bytes = reports.iter().map(|r| r.bytes_sent_per_iter).sum();
    (seconds, bytes)
}

/// Evaluate a finished run of `recipe` on `mesh`: graph metrics + the
/// empirical SpMV benchmark (Sec. 2 "to measure the quality of a partition
/// empirically ..."). Imbalance is measured against the solve's own
/// `recipe.config.target_fractions`, so a deliberately skewed solve that
/// hits its targets reads as balanced (DESIGN.md §7 erratum b).
pub fn evaluate_run<const D: usize>(
    mesh: &Mesh<D>,
    recipe: &PlanRecipe,
    run: &PlanRun<D>,
    spmv_reps: usize,
) -> ToolRow {
    let (k, assignment) = (recipe.k, &run.plan.assignment);
    let metrics = evaluate_partition_with_targets(
        &mesh.graph,
        assignment,
        &mesh.weights,
        k,
        recipe.config.target_fractions.as_deref(),
    );
    // Run the SpMV with min(k, 8) ranks: enough to exercise real exchange
    // without massive thread oversubscription on the 1-core box.
    let p = k.clamp(1, 8);
    let reports = run_spmd(p, |c| spmv_comm_time(&c, &mesh.graph, assignment, k, spmv_reps));
    let (spmv_comm_seconds, spmv_bytes) = aggregate_spmv(&reports);
    ToolRow {
        tool: recipe.tool.name(),
        time: run.wall_seconds,
        metrics,
        spmv_comm_seconds,
        spmv_bytes,
    }
}

/// Parsed command line of an experiment binary.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Cli {
    /// `--smoke`: CI sizing; the record goes under `target/` and its key
    /// skeleton is checked against the committed baseline.
    pub smoke: bool,
    /// `--proc` picks the multi-process substrate, default is threads.
    pub backend: SpmdBackend,
    /// Sections named on the command line; none named = all of them.
    pub sections: Vec<String>,
}

impl Cli {
    /// Parse `args` (without the program name) for a binary that accepts
    /// `flags` (of `--smoke`, `--proc`) and the section names `sections`.
    /// Anything else is an error naming the argument: a mistyped `--smok`
    /// must not run full scale and overwrite a committed baseline.
    pub fn parse(args: &[String], flags: &[&str], sections: &[&str]) -> Result<Cli, String> {
        let mut cli = Cli::default();
        for arg in args {
            match arg.as_str() {
                "--smoke" if flags.contains(&"--smoke") => cli.smoke = true,
                "--proc" if flags.contains(&"--proc") => cli.backend = SpmdBackend::Proc,
                a if sections.contains(&a) => cli.sections.push(a.to_string()),
                a => return Err(format!("unknown argument `{a}`")),
            }
        }
        Ok(cli)
    }

    /// [`Cli::parse`] over the process's arguments; an unknown argument
    /// prints the error and a usage line and exits with status 2.
    pub fn from_env(flags: &[&str], sections: &[&str]) -> Cli {
        let args: Vec<String> = std::env::args().collect();
        Cli::parse(&args[1..], flags, sections).unwrap_or_else(|e| {
            let accepted: Vec<String> =
                flags.iter().chain(sections).map(|a| format!("[{a}]")).collect();
            eprintln!("{e}\nusage: {} {}", args[0], accepted.join(" "));
            std::process::exit(2)
        })
    }

    /// Whether `section` runs: it was named, or no section was.
    pub fn runs(&self, section: &str) -> bool {
        self.sections.is_empty() || self.sections.iter().any(|s| s == section)
    }

    /// `main` of a binary that is nothing but named sections: parse the
    /// process's arguments against their names and run the ones asked for.
    pub fn run_sections(sections: &[(&str, fn())]) {
        let names: Vec<&str> = sections.iter().map(|(name, _)| *name).collect();
        let cli = Cli::from_env(&[], &names);
        sections.iter().filter(|(name, _)| cli.runs(name)).for_each(|(_, run)| run());
    }
}

/// A JSON object from `(key, value)` pairs, in the given order.
pub fn obj<'a>(fields: impl IntoIterator<Item = (&'a str, Value)>) -> Value {
    Value::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// A measured float as a JSON number of five significant digits: the
/// baselines are read by people and diffed between commits, and no clock
/// or mean here resolves more. Counts go through `Value::from` exactly.
pub fn num(x: f64) -> Value {
    Value::Num(format!("{x:.4e}").parse().expect("a printed float parses back"))
}

/// JSON array of per-level metrics (the shared format of
/// `BENCH_hierarchy.json` and `BENCH_planner.json`).
pub fn level_metrics_value(levels: &[LevelMetrics]) -> Value {
    let level = |l: &LevelMetrics| {
        obj([
            ("groups", l.groups.into()),
            ("edge_cut", l.edge_cut.into()),
            ("total_comm_volume", l.total_comm_volume.into()),
            ("max_comm_volume", l.max_comm_volume.into()),
        ])
    };
    Value::Arr(levels.iter().map(level).collect())
}

/// Key paths of `doc` with array indices collapsed
/// (`$.runs[].phases.kmeans.seconds`): the shape of a record whatever its
/// row counts, so a smoke run and a full run of one writer compare equal.
pub fn skeleton(doc: &Value) -> BTreeSet<String> {
    fn walk(v: &Value, path: &str, out: &mut BTreeSet<String>) {
        match v {
            Value::Obj(fields) => {
                for (key, child) in fields {
                    let child_path = format!("{path}.{key}");
                    walk(child, &child_path, out);
                    out.insert(child_path);
                }
            }
            Value::Arr(items) => items.iter().for_each(|v| walk(v, &format!("{path}[]"), out)),
            _ => {}
        }
    }
    let mut out = BTreeSet::new();
    walk(doc, "$", &mut out);
    out
}

/// One line per key path that only one of the two documents has.
pub fn skeleton_diff(written: &Value, committed: &Value) -> Vec<String> {
    let (w, c) = (skeleton(written), skeleton(committed));
    let extra = w.difference(&c).map(|p| format!("{p}: written, but not in the committed baseline"));
    let lost = c.difference(&w).map(|p| format!("{p}: in the committed baseline, but not written"));
    extra.chain(lost).collect()
}

/// Trimmed stdout of a command, `unknown` if it cannot run or fails.
fn stdout_of(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map_or("unknown".to_string(), |out| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The [`PROVENANCE_KEYS`] block: what produced a record's numbers.
fn provenance(backend: SpmdBackend, ranks: &[usize]) -> Value {
    let values: [Value; 6] = [
        std::thread::available_parallelism().map_or(0, |c| c.get()).into(),
        backend.name().into(),
        Value::Arr(ranks.iter().map(|&p| p.into()).collect()),
        stdout_of("rustc", &["-V"]).into(),
        stdout_of("git", &["describe", "--always", "--dirty", "--abbrev=12", "--exclude=*"]).into(),
        SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.as_secs()).into(),
    ];
    Value::Obj(PROVENANCE_KEYS.iter().map(|k| k.to_string()).zip(values).collect())
}

/// Write a benchmark record — a JSON object, stamped here with the
/// `provenance` of the `backend` and rank counts `ranks` it was measured
/// on — to its canonical location and print it: `BENCH_<name>.json` in
/// the working directory for full runs, `target/BENCH_<name>.smoke.json`
/// for smoke runs.
///
/// # Panics
/// On a smoke run whose key skeleton differs from the committed
/// `BENCH_<name>.json`'s, naming each differing key path: the committed
/// file is the schema, so a key change lands with a regenerated baseline.
pub fn write_bench_json(
    name: &str,
    smoke: bool,
    backend: SpmdBackend,
    ranks: &[usize],
    record: &Value,
) {
    let mut fields = record.fields().expect("a bench record is a JSON object").to_vec();
    fields.insert(0, ("provenance".to_string(), provenance(backend, ranks)));
    let doc = Value::Obj(fields);
    let committed = format!("BENCH_{name}.json");
    let path = if smoke {
        std::fs::create_dir_all("target").expect("create target/");
        format!("target/BENCH_{name}.smoke.json")
    } else {
        committed.clone()
    };
    let text = format!("{doc}\n");
    std::fs::write(&path, &text).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("{text}wrote {path}");
    if smoke {
        let baseline = std::fs::read_to_string(&committed)
            .map_err(|e| e.to_string())
            .and_then(|text| parse(&text))
            .unwrap_or_else(|e| panic!("{committed} (run from the repository root): {e}"));
        let drift = skeleton_diff(&doc, &baseline);
        assert!(
            drift.is_empty(),
            "{path} and the committed {committed} differ in shape; undo the key change or \
             regenerate the baseline with a full run:\n  {}",
            drift.join("\n  ")
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geographer_mesh::{delaunay_unit_square, Scenario};
    use geographer_refine::{MultilevelConfig, RefineConfig};

    fn solve(mesh: &Mesh<2>, recipe: &PlanRecipe, p: usize) -> PlanRun<2> {
        solve_plan_view(MeshView::from(mesh), recipe, p, None)
    }

    #[test]
    fn solve_plan_view_returns_the_global_plan_at_every_rank_count() {
        let mesh = delaunay_unit_square(800, 71);
        let cfg = Config { sampling_init: false, ..Config::default() };
        let recipe = PlanRecipe::flat("g", Tool::Geographer, 4, cfg);
        let run1 = solve(&mesh, &recipe, 1);
        let run4 = solve(&mesh, &recipe, 4);
        assert_eq!(run1.plan.assignment.len(), 800);
        // Global assignment on every rank count; solver agreement across
        // rank counts is pinned by tests/tool_conformance.rs.
        assert_eq!(run4.plan.assignment.len(), 800);
        assert_eq!(run4.plan.ranks, 4);
        assert!(run4.plan.comm.rounds() > 0);
    }

    #[test]
    fn all_tools_run_and_balance_on_a_delaunay_mesh() {
        let mesh = delaunay_unit_square(1200, 1);
        for tool in Tool::ALL {
            let recipe = PlanRecipe::flat(tool.name(), tool, 4, Config::default());
            let run = solve(&mesh, &recipe, 2);
            assert_eq!(run.plan.assignment.len(), mesh.n(), "{}", tool.name());
            assert!(run.plan.assignment.iter().all(|&b| b < 4));
            let row = evaluate_run(&mesh, &recipe, &run, 2);
            assert_eq!(row.tool, tool.name());
            assert!(row.metrics.edge_cut > 0, "{}: cut can't be zero", tool.name());
            assert!(row.metrics.imbalance <= 0.06, "{}: imbalance", tool.name());
        }
    }

    #[test]
    fn comm_counters_grow_with_ranks_and_the_partition_does_not_change() {
        let mesh = delaunay_unit_square(800, 2);
        let recipe = PlanRecipe::flat("rcb", Tool::Rcb, 8, Config::default());
        let p1 = solve(&mesh, &recipe, 1).plan;
        let p4 = solve(&mesh, &recipe, 4).plan;
        assert!(p4.comm.bytes() > p1.comm.bytes(), "multi-rank runs move bytes");
        assert!(p4.comm.rounds() > 0, "collective rounds must be counted");
        assert_eq!(p1.assignment, p4.assignment);
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
        assert_eq!(warm[0].migrated_point_fraction, 0.0, "step 0 has no predecessor");
        // Same bootstrap (both cold at step 0).
        assert_eq!(warm[0].plan.assignment, cold[0].plan.assignment);
        for s in warm.iter().chain(&cold) {
            assert!(s.imbalance <= 0.03 + 1e-6);
            assert!(s.edge_cut > 0);
            assert!((0.0..=1.0).contains(&s.migrated_point_fraction));
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

    #[test]
    fn spmv_seconds_are_slowest_rank_not_rank_sum() {
        // Regression for the timeSpMVComm semantics: the reported time is
        // the max across ranks, not the per-rank sum the pre-PR 4 code
        // reported.
        let reports: Vec<SpmvReport> = [0.004, 0.001, 0.003, 0.002]
            .iter()
            .map(|&s| SpmvReport {
                comm_seconds_avg: s,
                bytes_sent_per_iter: 100,
                ..SpmvReport::default()
            })
            .collect();
        // Bytes are a volume: still the sum.
        assert_eq!(aggregate_spmv(&reports), (0.004, 400));
        assert_eq!(aggregate_spmv(&[]), (0.0, 0));
    }

    #[test]
    fn refinement_is_opt_in_and_multilevel_is_no_worse_than_single_level() {
        // Same tool, same mesh, same ε: both post-passes start from the
        // tool's own partition, and the multilevel V-cycle must reach a cut
        // no worse than the single-level pass.
        let mesh = delaunay_unit_square(3_000, 13);
        let cfg = Config { sampling_init: false, ..Config::default() };
        let plain = PlanRecipe::flat("hsfc", Tool::Hsfc, 8, cfg);
        let one_level = MultilevelConfig { max_levels: 1, ..MultilevelConfig::default() };
        let single = plain.clone().with_refine(RefineMode::Multilevel(one_level));
        let multi = plain.clone().with_refine(RefineMode::Multilevel(MultilevelConfig::default()));

        let plain_run = solve(&mesh, &plain, 2);
        assert!(plain_run.plan.refine.is_none(), "refinement must be opt-in");
        let single_run = solve(&mesh, &single, 2);
        let multi_run = solve(&mesh, &multi, 2);
        let sr = single_run.plan.refine.expect("post-pass must report");
        let mr = multi_run.plan.refine.expect("post-pass must report");
        assert_eq!(sr.cut_before, edge_cut(&mesh.graph, &plain_run.plan.assignment));
        assert_eq!(sr.cut_before, mr.cut_before, "same tool output, same start");
        assert!(mr.cut_after <= sr.cut_after, "multilevel must not be worse");
        assert_eq!(multi_run.plan.level_refine, Some(vec![mr]), "a flat plan is one level");
        // The row is evaluated on the refined assignment; balance survives.
        let row = evaluate_run(&mesh, &multi, &multi_run, 1);
        assert_eq!(row.metrics.edge_cut, mr.cut_after);
        assert!(row.metrics.imbalance <= 0.06);
    }

    #[test]
    fn skewed_solve_reads_balanced_only_with_its_targets() {
        // Regression for the imbalance semantics (DESIGN.md §7 erratum b):
        // measured against the uniform average, a deliberately skewed solve
        // reads hugely "imbalanced" even when every block hits its target.
        let mesh = delaunay_unit_square(1_500, 21);
        let cfg = Config {
            target_fractions: Some(vec![0.5, 0.25, 0.25]),
            sampling_init: false,
            ..Config::default()
        };
        let recipe = PlanRecipe::flat("skewed", Tool::Geographer, 3, cfg.clone());
        let run = solve(&mesh, &recipe, 2);
        let aware = evaluate_run(&mesh, &recipe, &run, 1);
        let blind = PlanRecipe::flat("uniform", Tool::Geographer, 3, Config::default());
        let uniform = evaluate_run(&mesh, &blind, &run, 1);
        assert!(
            uniform.metrics.imbalance > 0.3,
            "uniform metric must expose the skew: {}",
            uniform.metrics.imbalance
        );
        assert!(
            aware.metrics.imbalance <= cfg.epsilon + 1e-3,
            "target-aware imbalance must be within ε: {}",
            aware.metrics.imbalance
        );
        // Everything else on the row is unaffected by the target change.
        assert_eq!(uniform.metrics.edge_cut, aware.metrics.edge_cut);
        assert_eq!(uniform.metrics.comm_volume, aware.metrics.comm_volume);
    }

    #[test]
    fn refinement_inherits_heterogeneous_targets() {
        // Regression: a post-pass that builds its balance capacities solely
        // from RefineConfig legally "rebalances" a heterogeneous solve
        // toward uniform. The planner inherits config.target_fractions when
        // the refine config leaves them unset.
        let mesh = delaunay_unit_square(2_000, 31);
        let cfg = Config {
            target_fractions: Some(vec![0.5, 0.25, 0.25]),
            sampling_init: false,
            ..Config::default()
        };
        let rcfg = RefineConfig { max_rounds: 30, ..RefineConfig::default() };
        for max_levels in [1, MultilevelConfig::default().max_levels] {
            let mcfg = MultilevelConfig { max_levels, refine: rcfg.clone(), ..Default::default() };
            let recipe = PlanRecipe::flat("skewed", Tool::Geographer, 3, cfg.clone())
                .with_refine(RefineMode::Multilevel(mcfg));
            let run = solve(&mesh, &recipe, 2);
            let row = evaluate_run(&mesh, &recipe, &run, 1);
            assert!(
                row.metrics.imbalance <= cfg.epsilon + 1e-3,
                "max_levels {max_levels}: refined skewed solve must stay on target, got {}",
                row.metrics.imbalance
            );
        }
    }

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn cli_rejects_what_the_binary_did_not_declare() {
        let flags = ["--smoke", "--proc"];
        let cli = Cli::parse(&args(&["--smoke", "weak", "--proc"]), &flags, &["weak", "strong"]);
        let cli = cli.expect("declared arguments parse");
        assert!(cli.smoke && cli.backend == SpmdBackend::Proc);
        assert!(cli.runs("weak") && !cli.runs("strong"));
        let all = Cli::parse(&[], &flags, &["weak", "strong"]).unwrap();
        assert_eq!(all, Cli::default());
        assert!(all.runs("weak") && all.runs("strong"), "no section named = all");
        // The bug this parser exists for: a typo used to mean "full scale".
        for typo in ["--smok", "-smoke", "--smoke=1", "smoke", "--Proc", "week"] {
            let err = Cli::parse(&args(&["--smoke", typo]), &flags, &["weak"]).unwrap_err();
            assert_eq!(err, format!("unknown argument `{typo}`"));
        }
        // A flag the binary does not take is as unknown as a typo.
        assert!(Cli::parse(&args(&["--proc"]), &["--smoke"], &[]).is_err());
        assert!(Cli::parse(&args(&["--smoke"]), &[], &["bounds"]).is_err());
    }

    fn record(rows: usize, row_key: &str) -> Value {
        let row = |i: usize| {
            obj([("p", i.into()), (row_key, obj([("seconds", num(0.5)), ("ns_per_point", num(3.0))]))])
        };
        obj([
            ("bench", "demo".into()),
            ("gate", obj([("n", 100usize.into())])),
            ("runs", Value::Arr((0..rows).map(row).collect())),
        ])
    }

    #[test]
    fn skeleton_ignores_row_counts_and_names_a_renamed_key() {
        let full = record(9, "kmeans");
        assert!(skeleton(&full).contains("$.runs[].kmeans.ns_per_point"));
        // Smoke vs full: fewer rows, same shape.
        assert_eq!(skeleton_diff(&record(1, "kmeans"), &full), Vec::<String>::new());
        // One key renamed in the writer: both spellings are reported, each
        // with its full path and the side it is missing from.
        let drift = skeleton_diff(&record(1, "k_means"), &full);
        let written = |p: &str| format!("{p}: written, but not in the committed baseline");
        let committed = |p: &str| format!("{p}: in the committed baseline, but not written");
        assert_eq!(
            drift,
            vec![
                written("$.runs[].k_means"),
                written("$.runs[].k_means.ns_per_point"),
                written("$.runs[].k_means.seconds"),
                committed("$.runs[].kmeans"),
                committed("$.runs[].kmeans.ns_per_point"),
                committed("$.runs[].kmeans.seconds"),
            ]
        );
    }

    #[test]
    fn provenance_block_passes_the_analyzers_check() {
        let prov = provenance(SpmdBackend::Proc, &[2, 4]);
        assert_eq!(prov.get("backend"), Some(&Value::Str("proc".to_string())));
        assert_eq!(prov.get("p"), Some(&Value::Arr(vec![2usize.into(), 4usize.into()])));
        let doc = obj([("provenance", prov)]).to_string();
        let errs = geographer_analyze::schema::check_bench_file("BENCH_demo.json", &doc);
        assert_eq!(errs, Vec::<String>::new());
    }

    #[test]
    fn num_keeps_five_significant_digits() {
        assert_eq!(num(1633.7449), Value::Num(1633.7));
        assert_eq!(num(0.000123456789), Value::Num(0.00012346));
        assert_eq!(num(0.0), Value::Num(0.0));
        assert_eq!(num(f64::INFINITY).to_string(), "null");
    }
}
