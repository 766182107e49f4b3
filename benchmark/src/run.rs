//! The untraced run of one workload: a closed loop with one client — the
//! next op starts when the previous one has returned and been verified —
//! followed by the quality evaluation of its first few outputs.

use std::time::Instant;

use geographer_bench::{solve_plan_view, PlanRecipe, PlanRun, SpmdBackend, Tool};
use geographer_graph::{evaluate_levels, CsrGraph};
use geographer_planner::MeshView;

use crate::metrics::{central, mean, median, Metrics, RunResult};
use crate::op::{execute, verify, OpOutput};
use crate::workload::{generate, instance_seed, Instance, Workload};

pub struct Options {
    pub seed: u64,
    /// How long the run measures, quality evaluation included.
    pub seconds: f64,
    /// Tiny instances and a fixed handful of ops: the test sizing.
    pub smoke: bool,
}

/// Ops run before timing starts and discarded: the first solves in a
/// process measure up to 2x steady state (heap growth, page faults).
/// Their instances are solved again as the first timed ops, and the
/// digests of the two must agree.
const WARMUP_OPS: usize = 2;
/// The timed loop never runs fewer ops than this, however slow the box
/// (and never fewer than the workload's `quality_instances`).
const MIN_OPS: usize = 8;
/// Share of `--seconds` the warm-ups and the timed loop may use; the
/// rest is left for the quality evaluation.
const LOOP_SHARE: f64 = 0.78;

/// The four Zoltan-style geometric baselines of the paper's claim (i).
pub const BASELINES: [Tool; 4] = [Tool::Rcb, Tool::Hsfc, Tool::MultiJagged, Tool::Rib];

/// Attempted and failed ops of a run.
#[derive(Default)]
pub struct OpLog {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl OpLog {
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }
}

/// An op that ran and passed every check, with the thread-backend twin
/// a process-backend op was compared against.
pub struct Checked {
    pub out: OpOutput,
    pub twin: Option<PlanRun<2>>,
}

/// Run one op, call `returned` the moment it has (what is measured
/// around an op ends there), then verify its output; a failure of either
/// step is counted in `log` and yields `None`.
pub fn checked_op(
    w: &Workload,
    recipe: &PlanRecipe,
    inst: &Instance,
    log: &mut OpLog,
    returned: impl FnOnce(),
) -> Option<Checked> {
    log.attempted += 1;
    let out = execute(w, recipe, inst);
    returned();
    match out {
        Ok(out) => verified(w, recipe, inst, out, log),
        Err(e) => {
            log.fail(e);
            None
        }
    }
}

/// Verify the output of an op that returned. A process-backend op is
/// also held bitwise equal to the thread-backend solve of the same
/// instance and recipe — which is also where its solver counters are
/// read, since the plan does not cross the process boundary.
fn verified(
    w: &Workload,
    recipe: &PlanRecipe,
    inst: &Instance,
    out: OpOutput,
    log: &mut OpLog,
) -> Option<Checked> {
    if let Err(e) = verify(w, inst, &out) {
        log.fail(e);
        return None;
    }
    let twin =
        (w.backend == SpmdBackend::Proc).then(|| solve_plan_view(inst.view(), recipe, w.p, None));
    if let Some(twin) = &twin {
        if twin.plan.assignment != out.final_assignment() {
            log.fail("process-backend assignment differs from the thread backend's".into());
            return None;
        }
    }
    Some(Checked { out, twin })
}

/// Count a repeat of an op that does not reproduce the first digest.
pub fn check_repeat(log: &mut OpLog, first: Option<u64>, again: &OpOutput, j: usize) {
    if let Some(first) = first {
        if first != again.digest() {
            log.fail(format!(
                "instance {j}: repeat of the op changed the assignment digest"
            ));
        }
    }
}

/// Leaf-level cut and volume of one assignment.
pub struct Quality {
    pub edge_cut: f64,
    pub comm_volume: f64,
    pub max_comm_volume: f64,
}

pub fn quality(w: &Workload, graph: &CsrGraph, assignment: &[u32]) -> Quality {
    let levels = evaluate_levels(graph, assignment, &w.level_groups());
    let leaf = levels.last().expect("at least one level");
    Quality {
        edge_cut: leaf.edge_cut as f64,
        comm_volume: leaf.total_comm_volume as f64,
        max_comm_volume: leaf.max_comm_volume as f64,
    }
}

/// One baseline solved flat at the workload's k and p on the instance's
/// final coordinates: wall seconds of the solve, assignment, total
/// communication volume on `graph`.
pub struct BaselineRun {
    pub seconds: f64,
    pub assignment: Vec<u32>,
    pub comm_volume: f64,
}

pub fn run_baseline(w: &Workload, inst: &Instance, graph: &CsrGraph, tool: Tool) -> BaselineRun {
    let view = MeshView {
        points: inst.final_points(),
        weights: &inst.weights,
        graph: None,
    };
    let t = Instant::now();
    let run = solve_plan_view(view, &w.baseline_recipe(tool), w.p, None);
    let seconds = t.elapsed().as_secs_f64();
    let identity: Vec<u32> = (0..w.k as u32).collect();
    let levels = evaluate_levels(graph, &run.plan.assignment, &[identity]);
    BaselineRun {
        seconds,
        assignment: run.plan.assignment,
        comm_volume: levels[0].total_comm_volume as f64,
    }
}

pub fn best_volume(baselines: &[BaselineRun]) -> f64 {
    baselines
        .iter()
        .map(|b| b.comm_volume)
        .fold(f64::INFINITY, f64::min)
}

/// `VmHWM` of this process in MB.
fn vm_hwm_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Reset `VmHWM` to the current resident set, so that the next reading
/// is the peak of what ran in between. Where the kernel refuses, the
/// readings are peaks since process start instead — still a peak, and
/// the same on both sides of a comparison made on one machine.
fn reset_vm_hwm() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

pub fn run_untraced(wi: usize, w: &Workload, opt: &Options) -> RunResult {
    let t_run = Instant::now();
    let n = w.points(opt.smoke);
    let recipe = w.recipe();
    let (warmups, quality_count, min_ops) = if opt.smoke {
        (1, 1, 2)
    } else {
        (
            WARMUP_OPS,
            w.quality_instances,
            MIN_OPS.max(w.quality_instances),
        )
    };
    let mut log = OpLog::default();

    let mut first_digests = Vec::new();
    for j in 0..warmups {
        let (inst, _) = generate(w, n, instance_seed(opt.seed, wi, j));
        let checked = checked_op(w, &recipe, &inst, &mut log, || ());
        first_digests.push(checked.map(|c| c.out.digest()));
    }

    let budget = opt.seconds * LOOP_SHARE;
    let (mut setup, mut walls, mut peaks) = (Vec::new(), Vec::new(), Vec::new());
    let mut kept: Vec<Option<Vec<u32>>> = Vec::new();
    let mut j = 0;
    while j < min_ops || (!opt.smoke && t_run.elapsed().as_secs_f64() < budget) {
        let (inst, setup_s) = generate(w, n, instance_seed(opt.seed, wi, j));
        setup.push(setup_s);
        reset_vm_hwm();
        let checked = checked_op(w, &recipe, &inst, &mut log, || peaks.push(vm_hwm_mb()));
        if let Some(c) = &checked {
            walls.push(c.out.wall_s);
            if j < warmups {
                check_repeat(&mut log, first_digests[j], &c.out, j);
            }
        }
        if j < quality_count {
            kept.push(checked.map(|mut c| c.out.assignments.pop().expect("final assignment")));
        }
        j += 1;
    }

    let mut q = Vec::new();
    let mut vs_best = Vec::new();
    for (j, assignment) in kept.iter().enumerate() {
        let Some(assignment) = assignment else {
            continue;
        };
        let (inst, _) = generate(w, n, instance_seed(opt.seed, wi, j));
        let graph = inst.quality_graph();
        let own = quality(w, &graph, assignment);
        let baselines: Vec<BaselineRun> = BASELINES
            .iter()
            .map(|&tool| run_baseline(w, &inst, &graph, tool))
            .collect();
        vs_best.push(own.comm_volume / best_volume(&baselines));
        q.push(own);
    }
    let avg = |f: fn(&Quality) -> f64| mean(&q.iter().map(f).collect::<Vec<_>>());

    let mut metrics = Metrics::default();
    metrics.set("setup_s", median(&setup));
    metrics.set("solve_s", central(&walls));
    metrics.set("peak_rss_mb", median(&peaks));
    metrics.set("edge_cut", avg(|q| q.edge_cut));
    metrics.set("comm_volume", avg(|q| q.comm_volume));
    metrics.set("max_comm_volume", avg(|q| q.max_comm_volume));
    metrics.set("comm_volume_vs_best_baseline", mean(&vs_best));
    RunResult {
        attempted: log.attempted,
        failed: log.failed,
        failures: log.failures,
        metrics,
        walls,
    }
}
