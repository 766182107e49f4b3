//! The traced run of one workload: ops with spans, then one probe per
//! layer on the run's first instance — each a direct call into the
//! layer's public functions, timed from here.
//!
//! What each layer metric should move, and on which workload, is written
//! down in `README.md` before anything is measured.

use std::hint::black_box;
use std::time::Instant;

use geographer::{balanced_kmeans, global_bbox, KMeansStats};
use geographer_bench::{solve_plan_view, PlanRecipe, PlanRun, SpmdBackend};
use geographer_dsort::{rebalance, sample_sort_by_key};
use geographer_geometry::Point;
use geographer_graph::{evaluate_partition, relabel_free_migration, CsrGraph};
use geographer_mesh::delaunay_edges;
use geographer_parcomm::{measure_alpha_beta, run_spmd, run_spmd_proc, Collective, Comm, SelfComm};
use geographer_planner::{MeshView, Planner};
use geographer_refine::{refine_multilevel, refine_partition, MultilevelConfig, RefineConfig};
use geographer_sfc::HilbertMapper;

use crate::metrics::{central, iqr_frac, mean, median, Metrics, RunResult};
use crate::op::{execute, OpOutput};
use crate::run::{
    best_volume, check_repeat, checked_op, run_baseline, BaselineRun, Checked, OpLog, Options,
    BASELINES,
};
use crate::trace::Tracer;
use crate::workload::{generate, instance_seed, Instance, Workload};

/// Share of `--seconds` spent on the traced/untraced op pairs; the
/// probes take what is left.
const LOOP_SHARE: f64 = 0.7;
/// Resolution of the pipeline's Hilbert keys (`PIPELINE_SFC_BITS`).
const SFC_BITS: u32 = 16;
/// The op id probe spans share.
const PROBE_OP: usize = 999_999;

/// Shares of the op wall, one sample per traced op.
#[derive(Default)]
struct Shares {
    sfc_index: Vec<f64>,
    redistribute: Vec<f64>,
    kmeans: Vec<f64>,
    writeback: Vec<f64>,
    solve: Vec<f64>,
    refine: Vec<f64>,
    assembly: Vec<f64>,
    launch: Vec<f64>,
}

impl Shares {
    fn push(&mut self, out: &OpOutput) {
        let wall = out.wall_s;
        let sum = |f: &dyn Fn(&crate::op::Call) -> f64| out.calls.iter().map(f).sum::<f64>() / wall;
        let phase =
            |f: fn(&geographer::PipelineTimings) -> f64| sum(&|c| c.phases.as_ref().map_or(0.0, f));
        self.sfc_index.push(phase(|p| p.sfc_index));
        self.redistribute.push(phase(|p| p.redistribute));
        self.kmeans.push(phase(|p| p.kmeans));
        self.writeback.push(phase(|p| p.writeback));
        self.solve.push(sum(&|c| c.solve_s));
        self.refine.push(sum(&|c| c.refine_s));
        // The process backend returns no plan: what its ranks did is one
        // undivided span there.
        self.assembly.push(sum(&|c| {
            if c.solve_s > 0.0 {
                (c.wall_max_rank_s - c.solve_s - c.refine_s).max(0.0)
            } else {
                0.0
            }
        }));
        self.launch
            .push(sum(&|c| (c.wall_s - c.wall_max_rank_s).max(0.0)));
    }
}

/// Record the spans of one traced op: a measured span per harness call,
/// and inside it the durations the call reported, in pipeline order.
fn record_calls(tr: &mut Tracer, op_span: usize, out: &OpOutput) {
    let op_start = tr.spans[op_span].start_us;
    for call in &out.calls {
        let c = tr.measured(
            "planner.solve_call",
            op_span,
            op_start + call.t0 * 1e6,
            op_start + call.t1 * 1e6,
        );
        tr.count(c, "collectives", call.comm.collectives() as f64);
        tr.count(c, "rounds", call.comm.rounds() as f64);
        tr.count(c, "bytes_per_rank", call.comm.bytes_per_rank());
        if let Some(st) = &call.stats {
            tr.count(c, "movement_iterations", st.movement_iterations as f64);
            tr.count(c, "balance_iterations", st.balance_iterations as f64);
            tr.count(c, "distance_evals", st.distance_evals as f64);
        }
        let mut cursor = tr.spans[c].start_us;
        tr.replay(
            "planner.launch",
            c,
            &mut cursor,
            call.wall_s - call.wall_max_rank_s,
        );
        match &call.phases {
            Some(ph) => {
                tr.replay("pipeline.sfc_index", c, &mut cursor, ph.sfc_index);
                tr.replay("pipeline.redistribute", c, &mut cursor, ph.redistribute);
                tr.replay("pipeline.kmeans", c, &mut cursor, ph.kmeans);
                tr.replay("pipeline.writeback", c, &mut cursor, ph.writeback);
            }
            None if call.solve_s > 0.0 => {
                tr.replay("hierarchy.solve", c, &mut cursor, call.solve_s)
            }
            None => tr.replay("parcomm.proc.ranks", c, &mut cursor, call.wall_max_rank_s),
        }
        if call.solve_s > 0.0 {
            let assembly = call.wall_max_rank_s - call.solve_s - call.refine_s;
            tr.replay("planner.assembly", c, &mut cursor, assembly);
        }
        tr.replay("refine.multilevel", c, &mut cursor, call.refine_s);
    }
}

/// Time `f` as a probe span and return its result and seconds.
fn probe<R>(tr: &mut Tracer, root: usize, name: &str, f: impl FnOnce() -> R) -> (R, f64) {
    let id = tr.begin(name, Some(root), PROBE_OP);
    let r = f();
    tr.end(id);
    (r, tr.duration_s(id))
}

/// Run `f` with `RAYON_NUM_THREADS` set for `p` ranks sharing the box.
/// Only called between SPMD sections, when no other thread is alive.
fn with_ranks<R>(p: usize, f: impl FnOnce() -> R) -> R {
    let before = std::env::var("RAYON_NUM_THREADS").ok();
    std::env::set_var("RAYON_NUM_THREADS", crate::rayon_threads(p).to_string());
    let r = f();
    match before {
        Some(v) => std::env::set_var("RAYON_NUM_THREADS", v),
        None => std::env::remove_var("RAYON_NUM_THREADS"),
    }
    r
}

/// `(key, id, coords, weight)`: the record the pipeline sorts and ships.
type Tagged = (u64, u64, [f64; 2], f64);

fn tagged(points: &[Point<2>], weights: &[f64]) -> Vec<Tagged> {
    let mapper = HilbertMapper::new(global_bbox(&SelfComm, points), SFC_BITS);
    points
        .iter()
        .zip(weights)
        .enumerate()
        .map(|(i, (p, &w))| (mapper.key_of(p), i as u64, *p.coords(), w))
        .collect()
}

/// `sample_sort_by_key` + `rebalance` of this rank's shard: seconds and
/// alltoallv bytes received.
fn sort_shard<C: Comm>(comm: &C, items: &[Tagged]) -> (f64, u64) {
    let (n, p, r) = (items.len(), comm.size(), comm.rank());
    let shard = items[r * n / p..(r + 1) * n / p].to_vec();
    let before = comm.stats();
    let t = Instant::now();
    let sorted = rebalance(comm, sample_sort_by_key(comm, shard, |t| t.0));
    let seconds = t.elapsed().as_secs_f64();
    black_box(&sorted);
    (
        seconds,
        comm.stats().since(&before).op(Collective::Alltoallv).bytes,
    )
}

/// Microbenchmarks of the two transports at p = 2, the same on every
/// workload: 8-f64 allreduce latency and 1 MiB-per-peer alltoallv.
fn collective_probe<C: Comm>(comm: &C, reps: usize) -> (f64, f64) {
    let mut buf = [1.0f64; 8];
    for _ in 0..reps / 10 + 1 {
        comm.allreduce_sum_f64(&mut buf);
    }
    let t = Instant::now();
    for _ in 0..reps {
        buf = [1.0; 8];
        comm.allreduce_sum_f64(&mut buf);
    }
    let allreduce_us = t.elapsed().as_secs_f64() * 1e6 / reps as f64;
    black_box(buf);
    let bytes = 1usize << 20;
    let rounds = (reps / 100).max(2);
    let t = Instant::now();
    for _ in 0..rounds {
        black_box(comm.alltoallv(vec![vec![0u8; bytes]; comm.size()]));
    }
    let received = (rounds * bytes * comm.size()) as f64;
    (allreduce_us, t.elapsed().as_secs_f64() * 1e9 / received)
}

fn max_pair(v: Vec<(f64, f64)>) -> (f64, f64) {
    v.into_iter()
        .fold((0.0, 0.0), |a, b| (a.0.max(b.0), a.1.max(b.1)))
}

/// Sum the solver counters of an op's calls (the twin's, for an op the
/// process backend ran).
fn op_stats(out: &OpOutput, twin: Option<&PlanRun<2>>) -> Vec<KMeansStats> {
    match twin {
        Some(t) => t.plan.stats.into_iter().collect(),
        None => out.calls.iter().filter_map(|c| c.stats).collect(),
    }
}

pub fn run_traced(wi: usize, w: &Workload, opt: &Options) -> (RunResult, Tracer) {
    let t_run = Instant::now();
    let n = w.points(opt.smoke);
    let recipe = w.recipe();
    let mut log = OpLog::default();
    let mut tr = Tracer::new();
    let mut m = Metrics::default();

    {
        let (inst, _) = generate(w, n, instance_seed(opt.seed, wi, 0));
        checked_op(w, &recipe, &inst, &mut log, || ());
    }

    // Each instance is solved twice, once with spans recorded and once
    // without, the order alternating: the pair gives the tracing
    // overhead and a repeat for the digest check.
    let budget = opt.seconds * LOOP_SHARE;
    let min_pairs = if opt.smoke { 2 } else { 4 };
    let (mut traced, mut plain) = (Vec::new(), Vec::new());
    let mut coverage = Vec::new();
    let mut shares = Shares::default();
    let mut proc_over_thread = Vec::new();
    let mut first: Option<(Instance, Checked)> = None;
    let mut j = 0;
    while j < min_pairs || (!opt.smoke && t_run.elapsed().as_secs_f64() < budget) {
        let setup_span = tr.begin("mesh.generate", None, j);
        let (inst, _) = generate(w, n, instance_seed(opt.seed, wi, j));
        tr.end(setup_span);
        let mut spanned: Option<Checked> = None;
        let mut plain_digest = None;
        let order = if j % 2 == 0 {
            [true, false]
        } else {
            [false, true]
        };
        for with_spans in order {
            if with_spans {
                let op_span = tr.begin("op", None, j);
                spanned = checked_op(w, &recipe, &inst, &mut log, || tr.end(op_span));
                if let Some(c) = &spanned {
                    record_calls(&mut tr, op_span, &c.out);
                    traced.push(c.out.wall_s);
                    coverage.push(tr.coverage(op_span));
                    shares.push(&c.out);
                    if let Some(twin) = &c.twin {
                        proc_over_thread.push(c.out.wall_s / twin.wall_seconds - 1.0);
                    }
                }
            } else if let Some(c) = checked_op(w, &recipe, &inst, &mut log, || ()) {
                plain.push(c.out.wall_s);
                plain_digest = Some(c.out.digest());
            }
        }
        if let Some(a) = spanned {
            check_repeat(&mut log, plain_digest, &a.out, j);
            first.get_or_insert((inst, a));
        }
        j += 1;
    }

    m.set("trace.solve_s", central(&traced));
    m.set("trace.coverage_frac", median(&coverage));
    m.set(
        "trace.overhead_frac",
        median(&traced) / median(&plain) - 1.0,
    );
    m.set("planner.solve_iqr_frac", iqr_frac(&traced));
    m.set("planner.samples", traced.len() as f64);
    m.set("planner.refine_share", median(&shares.refine));
    m.set("planner.assembly_share", median(&shares.assembly));
    m.set("planner.launch_share", median(&shares.launch));
    m.set(
        "parcomm.proc_over_thread_frac",
        if proc_over_thread.is_empty() {
            0.0
        } else {
            median(&proc_over_thread)
        },
    );

    if let Some((inst, checked)) = &first {
        layer_probes(w, &recipe, inst, checked, opt, &mut tr, &mut m, &shares);
    }
    m.set("trace.spans", tr.spans.len() as f64);

    let result = RunResult {
        attempted: log.attempted,
        failed: log.failed,
        failures: log.failures,
        metrics: m,
        walls: traced,
    };
    (result, tr)
}

#[allow(clippy::too_many_arguments)]
fn layer_probes(
    w: &Workload,
    recipe: &PlanRecipe,
    inst: &Instance,
    checked: &Checked,
    opt: &Options,
    tr: &mut Tracer,
    m: &mut Metrics,
    shares: &Shares,
) {
    let root = tr.begin("probes", None, PROBE_OP);
    let n = inst.points.len();
    let npt = |s: f64| s * 1e9 / n as f64;
    let out = &checked.out;
    let weights = &inst.weights;
    let reps = if opt.smoke { 200 } else { 2_000 };

    // mesh: the evaluation graph (see `Instance::quality_graph`).
    let (built, s) = probe(tr, root, "mesh.delaunay", || {
        CsrGraph::from_edges(n, &delaunay_edges(inst.final_points()))
    });
    m.set("mesh.delaunay_s", s);
    let graph = inst.graph.as_ref().unwrap_or(&built);

    // sfc: Hilbert keys of the instance's points.
    let mapper = HilbertMapper::new(global_bbox(&SelfComm, &inst.points), SFC_BITS);
    let key_runs: Vec<f64> = (0..5)
        .map(|_| {
            probe(tr, root, "sfc.key_of", || {
                black_box(inst.points.iter().fold(0u64, |a, p| a ^ mapper.key_of(p)))
            })
            .1
        })
        .collect();
    m.set("sfc.key_ns_per_point", npt(median(&key_runs)));

    // dsort: sort + rebalance of the pipeline's records at the
    // workload's rank count, on its backend.
    let items = tagged(&inst.points, weights);
    let (per_rank, _) = probe(tr, root, "dsort.sort_rebalance", || match w.backend {
        SpmdBackend::Thread => run_spmd(w.p, |c| sort_shard(&c, &items)),
        SpmdBackend::Proc => run_spmd_proc(w.p, |c| sort_shard(&c, &items))
            .expect("dsort probe on the process backend"),
    });
    m.set(
        "dsort.sort_ns_per_item",
        npt(per_rank.iter().map(|r| r.0).fold(0.0, f64::max)),
    );
    m.set("dsort.alltoallv_bytes", per_rank[0].1 as f64);

    // kmeans: a direct call on the Hilbert-sorted instance, one rank.
    let mut sorted = items;
    sorted.sort_by_key(|t| t.0);
    let pts: Vec<Point<2>> = sorted.iter().map(|t| Point::new(t.2)).collect();
    let wts: Vec<f64> = sorted.iter().map(|t| t.3).collect();
    let centers: Vec<Point<2>> = (0..w.k).map(|i| pts[i * n / w.k + n / (2 * w.k)]).collect();
    let cfg = w.config();
    let (km, s) = probe(tr, root, "kmeans.balanced_kmeans", || {
        balanced_kmeans(&SelfComm, &pts, &wts, w.k, centers, &cfg)
    });
    m.set("kmeans.solve_ns_per_point", npt(s));
    m.set(
        "kmeans.assignment_ns_per_point",
        npt(km.stats.assignment_seconds),
    );
    m.set(
        "kmeans.other_ns_per_point",
        npt(s - km.stats.assignment_seconds),
    );

    // The op's own solver and communication counters (exact). The
    // harness returns rank 0's plan, so the solver counters are rank 0's
    // and the per-point ones divide by its n/p points.
    let stats = op_stats(out, checked.twin.as_ref());
    let total = |f: fn(&KMeansStats) -> u64| stats.iter().map(f).sum::<u64>() as f64;
    let local_n = (n / w.p) as f64;
    m.set(
        "kmeans.movement_iterations",
        total(|s| s.movement_iterations),
    );
    m.set("kmeans.balance_iterations", total(|s| s.balance_iterations));
    m.set(
        "kmeans.distance_evals_per_point",
        total(|s| s.distance_evals) / local_n,
    );
    m.set(
        "kmeans.hamerly_skip_rate",
        total(|s| s.hamerly_skips) / total(|s| s.points_visited).max(1.0),
    );
    m.set(
        "kmeans.bbox_breaks_per_point",
        total(|s| s.bbox_breaks) / local_n,
    );
    m.set(
        "kmeans.final_imbalance",
        stats.last().map_or(0.0, |s| s.final_imbalance),
    );
    let comm_total = |f: &dyn Fn(&crate::op::Call) -> f64| out.calls.iter().map(f).sum::<f64>();
    m.set(
        "parcomm.collectives",
        comm_total(&|c| c.comm.collectives() as f64),
    );
    m.set("parcomm.rounds", comm_total(&|c| c.comm.rounds() as f64));
    m.set(
        "parcomm.bytes_per_rank",
        comm_total(&|c| c.comm.bytes_per_rank()),
    );
    m.set(
        "hierarchy.level0_comm_volume",
        out.calls
            .last()
            .and_then(|c| c.level0_comm_volume)
            .map_or(0.0, |v| v as f64),
    );

    // pipeline: phase shares of the op wall. The process backend keeps
    // the plan in its workers, so there the phases come from one direct
    // `Planner::solve` under `run_spmd_proc` that sends them back.
    let mut phase_shares = [
        median(&shares.sfc_index),
        median(&shares.redistribute),
        median(&shares.kmeans),
        median(&shares.writeback),
    ];
    let mut solve_share = median(&shares.solve);
    if w.backend == SpmdBackend::Proc {
        let (per_rank, wall) = probe(tr, root, "pipeline.proc_phases", || {
            run_spmd_proc(w.p, |c| {
                let plan = Planner::solve(&recipe.spec_view(inst.view()), None, &c);
                let ph = plan.phase_timings.unwrap_or_default();
                (ph.sfc_index, ph.redistribute, ph.kmeans, ph.writeback)
            })
            .expect("phase probe on the process backend")
        });
        let max =
            |f: fn(&(f64, f64, f64, f64)) -> f64| per_rank.iter().map(f).fold(0.0, f64::max) / wall;
        phase_shares = [max(|r| r.0), max(|r| r.1), max(|r| r.2), max(|r| r.3)];
        solve_share = phase_shares.iter().sum();
    }
    m.set("pipeline.sfc_index_share", phase_shares[0]);
    m.set("pipeline.redistribute_share", phase_shares[1]);
    m.set("pipeline.kmeans_share", phase_shares[2]);
    m.set("pipeline.writeback_share", phase_shares[3]);
    m.set("planner.solve_share", solve_share);

    // repartition: one warm re-solve of the instance from the state of
    // its cold solve, on unmoved points (the fixed-point step); and, on
    // the drifting workload, the op's chain against the same chain
    // solved cold.
    let unrefined = w.unrefined_recipe();
    let base_view = MeshView {
        graph: None,
        ..inst.view()
    };
    let cold;
    let base: &PlanRun<2> = match &inst.boot {
        Some(boot) => boot,
        None => {
            cold = solve_plan_view(base_view, &unrefined, w.p, None);
            &cold
        }
    };
    let (_, s) = probe(tr, root, "repartition.warm_step", || {
        solve_plan_view(base_view, &unrefined, w.p, base.plan.state.as_ref())
    });
    m.set("repartition.warm_step_s", s);
    if inst.boot.is_some() {
        m.set(
            "repartition.warm_movement_iterations",
            total(|s| s.movement_iterations),
        );
        let (_, cold_chain_s) = probe(tr, root, "repartition.cold_chain", || {
            for points in &inst.drift {
                let view = MeshView {
                    points,
                    weights,
                    graph: None,
                };
                black_box(solve_plan_view(view, recipe, w.p, None));
            }
        });
        m.set("repartition.warm_over_cold", out.wall_s / cold_chain_s);
        let mut prev = &base.plan.assignment;
        let mut migrated = Vec::new();
        for next in &out.assignments {
            migrated.push(relabel_free_migration(prev, next, weights, w.k).point_fraction);
            prev = next;
        }
        m.set("repartition.migrated_fraction", mean(&migrated));
    } else {
        m.set("repartition.warm_movement_iterations", 0.0);
        m.set("repartition.warm_over_cold", 0.0);
        m.set("repartition.migrated_fraction", 0.0);
    }

    // refine: both refiners, directly, on the unrefined assignment.
    let start: &[u32] = if w.hierarchy.is_some() {
        &base.plan.assignment
    } else {
        out.final_assignment()
    };
    let (_, s) = probe(tr, root, "refine.refine_partition", || {
        refine_partition(
            graph,
            &mut start.to_vec(),
            weights,
            w.k,
            &RefineConfig::default(),
        )
    });
    m.set("refine.single_s", s);
    let (report, s) = probe(tr, root, "refine.refine_multilevel", || {
        refine_multilevel(
            graph,
            &mut start.to_vec(),
            weights,
            w.k,
            &MultilevelConfig::default(),
        )
        .summary()
    });
    m.set("refine.multilevel_s", s);
    m.set(
        "refine.cut_reduction_frac",
        (report.cut_before - report.cut_after) as f64 / report.cut_before.max(1) as f64,
    );

    // baselines, then graph: the metrics code itself.
    let baselines: Vec<BaselineRun> = BASELINES
        .iter()
        .map(|&tool| probe(tr, root, tool.name(), || run_baseline(w, inst, graph, tool)).0)
        .collect();
    m.set("baselines.rcb_s", baselines[0].seconds);
    m.set("baselines.hsfc_s", baselines[1].seconds);
    m.set("baselines.mj_s", baselines[2].seconds);
    m.set("baselines.rib_s", baselines[3].seconds);
    m.set("baselines.best_comm_volume", best_volume(&baselines));
    let (_, s) = probe(tr, root, "graph.evaluate_partition", || {
        evaluate_partition(graph, out.final_assignment(), weights, w.k)
    });
    m.set("graph.evaluate_s", s);
    let (_, s) = probe(tr, root, "graph.relabel_free_migration", || {
        relabel_free_migration(
            out.final_assignment(),
            &baselines[0].assignment,
            weights,
            w.k,
        )
    });
    m.set("graph.migration_s", s);

    // planner: the op on one rank and on two (thread backend) — the
    // fixed-size scaling the box allows.
    let at_ranks = |p: usize| {
        let scaled = Workload {
            p,
            backend: SpmdBackend::Thread,
            ..*w
        };
        with_ranks(p, || {
            execute(&scaled, recipe, inst).map_or(f64::NAN, |o| o.wall_s)
        })
    };
    let (p1, _) = probe(tr, root, "planner.p1_solve", || at_ranks(1));
    let (p2, _) = probe(tr, root, "planner.p2_solve", || at_ranks(2));
    m.set("planner.p1_solve_s", p1);
    m.set("planner.p2_solve_s", p2);
    m.set("planner.speedup_p2", p1 / p2);

    // parcomm: both transports at p = 2.
    with_ranks(2, || {
        let (thread, _) = probe(tr, root, "parcomm.thread", || {
            max_pair(run_spmd(2, |c| collective_probe(&c, reps)))
        });
        m.set("parcomm.thread.allreduce_us", thread.0);
        m.set("parcomm.thread.alltoallv_ns_per_byte", thread.1);
        let (procs, _) = probe(tr, root, "parcomm.proc", || {
            max_pair(run_spmd_proc(2, |c| collective_probe(&c, reps)).expect("collective probe"))
        });
        m.set("parcomm.proc.allreduce_us", procs.0);
        m.set("parcomm.proc.alltoallv_ns_per_byte", procs.1);
        let spawns: Vec<f64> = (0..5)
            .map(|_| {
                probe(tr, root, "parcomm.proc.spawn", || {
                    run_spmd_proc(2, |_c| ()).expect("empty process job")
                })
                .1
            })
            .collect();
        m.set("parcomm.proc.spawn_ms", median(&spawns) * 1e3);
        let (ab, _) = probe(tr, root, "parcomm.proc.alpha_beta", || {
            measure_alpha_beta(reps / 100 + 2).expect("alpha-beta probe")
        });
        m.set("parcomm.proc.alpha_us", ab.alpha * 1e6);
        m.set("parcomm.proc.beta_ns_per_byte", ab.beta * 1e9);
    });
    tr.end(root);
}
