//! One op: the harness calls a workload times, what they report, and the
//! verification of what they return.
//!
//! Every solve goes through `geographer_bench::harness` and from there
//! through `Planner::solve`. An op is one cold solve, or — for the drift
//! family — one chain of warm re-steps from a clone of the instance's
//! bootstrap state.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use geographer::{KMeansStats, PipelineTimings};
use geographer_bench::{solve_plan_proc_view, solve_plan_view, PlanRecipe, PlanRun, SpmdBackend};
use geographer_parcomm::CommStats;
use geographer_planner::MeshView;

use crate::workload::{Instance, Workload};

/// What one harness call reported, with its place inside the op.
pub struct Call {
    /// Seconds from the op's start to this call's start and end.
    pub t0: f64,
    pub t1: f64,
    /// Harness wall around the SPMD launch.
    pub wall_s: f64,
    pub wall_max_rank_s: f64,
    /// `Plan::solve_seconds` / `Plan::refine_seconds`; the process
    /// backend returns no plan, so both read 0 there.
    pub solve_s: f64,
    pub refine_s: f64,
    /// Max over ranks of the pipeline phases (flat thread-backend solves).
    pub phases: Option<PipelineTimings>,
    pub comm: CommStats,
    pub stats: Option<KMeansStats>,
    /// `Plan::levels[0].total_comm_volume` of a hierarchical solve.
    pub level0_comm_volume: Option<u64>,
}

impl Call {
    fn from_thread(t0: f64, t1: f64, run: &PlanRun<2>) -> Call {
        Call {
            t0,
            t1,
            wall_s: run.wall_seconds,
            wall_max_rank_s: run.wall_max_rank_s,
            solve_s: run.plan.solve_seconds,
            refine_s: run.plan.refine_seconds,
            phases: run.phase_max,
            comm: run.plan.comm,
            stats: run.plan.stats,
            level0_comm_volume: run
                .plan
                .levels
                .as_ref()
                .filter(|l| l.len() > 1)
                .map(|l| l[0].total_comm_volume),
        }
    }
}

pub struct OpOutput {
    /// Wall of the whole op: launch or fork, solve, refinement, assembly.
    pub wall_s: f64,
    /// One assignment per harness call; the last is the op's result.
    pub assignments: Vec<Vec<u32>>,
    pub calls: Vec<Call>,
}

impl OpOutput {
    pub fn final_assignment(&self) -> &[u32] {
        self.assignments
            .last()
            .expect("an op makes at least one call")
    }

    /// FNV-1a over every assignment of the op: equal digests mean the
    /// repeat reproduced the op bit for bit.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for a in &self.assignments {
            for b in a.iter().flat_map(|b| b.to_le_bytes()) {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }
}

/// Run one op. A `ProcError` or a panic anywhere below is an `Err`: the
/// caller counts a failed op and carries on.
pub fn execute(w: &Workload, recipe: &PlanRecipe, inst: &Instance) -> Result<OpOutput, String> {
    catch_unwind(AssertUnwindSafe(|| execute_inner(w, recipe, inst))).unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("non-string panic payload");
        Err(format!("panic: {msg}"))
    })
}

fn execute_inner(w: &Workload, recipe: &PlanRecipe, inst: &Instance) -> Result<OpOutput, String> {
    let t = Instant::now();
    let mut assignments = Vec::new();
    let mut calls = Vec::new();
    match (&inst.boot, w.backend) {
        (Some(boot), _) => {
            let mut state = boot.plan.state.clone();
            for points in &inst.drift {
                let view = MeshView {
                    points,
                    weights: &inst.weights,
                    graph: None,
                };
                let t0 = t.elapsed().as_secs_f64();
                let mut run = solve_plan_view(view, recipe, w.p, state.as_ref());
                calls.push(Call::from_thread(t0, t.elapsed().as_secs_f64(), &run));
                state = run.plan.state.take();
                assignments.push(run.plan.assignment);
            }
        }
        (None, SpmdBackend::Thread) => {
            let run = solve_plan_view(inst.view(), recipe, w.p, None);
            calls.push(Call::from_thread(0.0, t.elapsed().as_secs_f64(), &run));
            assignments.push(run.plan.assignment);
        }
        (None, SpmdBackend::Proc) => {
            let run = solve_plan_proc_view(inst.view(), recipe, w.p).map_err(|e| e.to_string())?;
            calls.push(Call {
                t0: 0.0,
                t1: t.elapsed().as_secs_f64(),
                wall_s: run.wall_seconds,
                wall_max_rank_s: run.wall_max_rank_s,
                solve_s: 0.0,
                refine_s: 0.0,
                phases: None,
                comm: run.comm,
                stats: None,
                level0_comm_volume: None,
            });
            assignments.push(run.assignment);
        }
    }
    Ok(OpOutput {
        wall_s: t.elapsed().as_secs_f64(),
        assignments,
        calls,
    })
}

/// Check every assignment of the op: one block id below k per point,
/// every block non-empty, and every level inside the planner's own
/// balance floor `max((1+eps)*target, target + w_max)` against the parent
/// group's actual weight (one level of arity k for a flat recipe).
pub fn verify(w: &Workload, inst: &Instance, out: &OpOutput) -> Result<(), String> {
    let n = inst.points.len();
    let weights = &inst.weights;
    let w_max = weights.iter().copied().fold(0.0, f64::max);
    let total: f64 = weights.iter().sum();
    let groups = w.level_groups();
    for (step, assignment) in out.assignments.iter().enumerate() {
        if assignment.len() != n {
            return Err(format!(
                "call {step}: {} block ids for {n} points",
                assignment.len()
            ));
        }
        let mut leaf_w = vec![0.0f64; w.k];
        let mut leaf_n = vec![0usize; w.k];
        for (&b, &wt) in assignment.iter().zip(weights) {
            let Some(slot) = leaf_w.get_mut(b as usize) else {
                return Err(format!("call {step}: block id {b} >= k = {}", w.k));
            };
            *slot += wt;
            leaf_n[b as usize] += 1;
        }
        if let Some(b) = leaf_n.iter().position(|&c| c == 0) {
            return Err(format!("call {step}: block {b} is empty"));
        }
        let mut parent_w = vec![total];
        for (l, (&(arity, eps), map)) in w.balance_levels().iter().zip(&groups).enumerate() {
            let mut gw = vec![0.0f64; parent_w.len() * arity];
            for (b, &lw) in leaf_w.iter().enumerate() {
                gw[map[b] as usize] += lw;
            }
            for (gi, &g) in gw.iter().enumerate() {
                let target = parent_w[gi / arity] / arity as f64;
                let allowed = ((1.0 + eps) * target).max(target + w_max);
                if g > allowed + 1e-9 {
                    return Err(format!(
                        "call {step}: level {l} group {gi} weighs {g}, floor is {allowed}"
                    ));
                }
            }
            parent_w = gw;
        }
    }
    Ok(())
}
