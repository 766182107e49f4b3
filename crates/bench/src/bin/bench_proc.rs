//! Multi-process backend benchmark: measured α–β vs the modeled
//! constants, on real Unix-domain-socket wires.
//!
//! Everything else in the workspace *models* communication time from
//! structural counters (`T = compute/p + α·rounds + β·bytes_per_rank`,
//! with literature constants α = 20 µs, β = 0.5 ns/B). The `ProcComm`
//! backend finally makes both sides of that equation observable on one
//! machine:
//!
//! 1. **Calibration** — the ping-pong/streaming probe
//!    (`measure_alpha_beta`) times raw pairwise exchanges at 8 B … 1 MiB
//!    and fits the line: α̂ from the small-message plateau, β̂ from the
//!    slope of the bandwidth regime. The raw probe table is committed so
//!    the fit can be re-checked.
//! 2. **Launch** — what a job costs before its first collective and after
//!    its last: the median wall of 20 empty `run_spmd_proc(p, |_| ())`
//!    jobs at p ∈ {2, 4, 8} (socketpairs, forks, `p` empty results, kill
//!    and reap).
//! 3. **Collective workload** — a fixed mix of allreduce / allgather /
//!    alltoallv / exscan rounds at p ∈ {2, 4}, run on the socket
//!    substrate with the wall clock *measured* inside the workers, next
//!    to the α–β prediction of the same run's counters under (a) the
//!    default constants and (b) the measured ones. This is the
//!    measured-vs-modeled comparison in its purest form: no compute term
//!    at all.
//! 4. **Tool runs** — the five partitioners at p ∈ {2, 4} on both
//!    backends, checking the assignments agree exactly (same collective
//!    algorithms ⇒ same reduction trees ⇒ same bits) and reporting
//!    measured process wall next to the modeled communication seconds.
//!
//! ```console
//! $ cargo run --release -p geographer_bench --bin bench_proc
//! $ cargo run --release -p geographer_bench --bin bench_proc -- --smoke
//! ```

use std::time::Instant;

use geographer::Config;
use geographer_analyze::json::Value;
use geographer_bench::{
    num, obj, write_bench_json, Cli, CostModel, PlanRecipe, SpmdBackend, Tool,
};
use geographer_mesh::delaunay_unit_square;
use geographer_parcomm::{
    measure_alpha_beta, run_spmd, run_spmd_proc, Comm, CommStats,
};
use geographer_planner::MeshView;

/// The fixed collective mix both backends run for the pure
/// measured-vs-modeled comparison (no compute worth mentioning).
fn collective_workload<C: Comm>(comm: &C) -> CommStats {
    let before = comm.stats();
    let mut buf = vec![comm.rank() as f64 + 0.5; 1024];
    for _ in 0..50 {
        comm.allreduce_sum_f64(&mut buf);
    }
    for _ in 0..20 {
        let _ = comm.allgather(vec![comm.rank() as u64; 512]);
    }
    for _ in 0..10 {
        let sends: Vec<Vec<u64>> =
            (0..comm.size()).map(|d| vec![d as u64; 256]).collect();
        let _ = comm.alltoallv(sends);
    }
    for _ in 0..50 {
        let _ = comm.exscan_sum_u64(comm.rank() as u64 + 1);
    }
    comm.stats().since(&before)
}

fn main() {
    let cli = Cli::from_env(&["--smoke"], &[]);
    let reps = if cli.smoke { 10 } else { 100 };
    let ps = [2usize, 4];
    let defaults = CostModel::default();

    // 1. Calibrate the socket substrate.
    let cal = measure_alpha_beta(reps).expect("calibration probe");
    eprintln!(
        "calibrated: alpha={:.2}us/round (model {:.2}us)  beta={:.4}ns/B (model {:.4}ns)",
        cal.alpha * 1e6,
        defaults.alpha * 1e6,
        cal.beta * 1e9,
        defaults.beta * 1e9
    );
    let sample = |&(bytes, secs): &(u64, f64)| {
        obj([("bytes", bytes.into()), ("seconds_per_exchange", num(secs))])
    };
    let samples: Vec<Value> = cal.samples.iter().map(sample).collect();

    // 2. The launcher alone: jobs that do nothing.
    let jobs = if cli.smoke { 5 } else { 20 };
    let mut spawn = Vec::new();
    for p in [2usize, 4, 8] {
        let mut walls: Vec<f64> = (0..jobs)
            .map(|_| {
                let t = Instant::now();
                let job = run_spmd_proc(p, |_| ());
                let wall = t.elapsed().as_secs_f64();
                job.expect("empty job");
                wall
            })
            .collect();
        walls.sort_by(f64::total_cmp);
        let median = 0.5 * (walls[(jobs - 1) / 2] + walls[jobs / 2]);
        eprintln!("spawn p={p}: {:.2}ms (median of {jobs} empty jobs)", median * 1e3);
        spawn.push(obj([("p", p.into()), ("median_seconds", num(median))]));
    }

    // 3. Pure collective workload, measured on the wire vs modeled from
    // the same run's counters.
    let mut workloads = Vec::new();
    for p in ps {
        let mut per_rank = run_spmd_proc(p, |comm| {
            let t = Instant::now();
            let delta = collective_workload(&comm);
            (delta, t.elapsed().as_secs_f64())
        })
        .expect("workload job");
        let measured = per_rank.iter().map(|(_, s)| *s).fold(0.0, f64::max);
        let stats = per_rank.remove(0).0; // per-rank view: rounds + own bytes
        let modeled_default = stats.modeled_seconds(defaults.alpha, defaults.beta);
        let modeled_measured = stats.modeled_seconds(cal.alpha, cal.beta);
        let t = Instant::now();
        run_spmd(p, |comm| {
            let _ = collective_workload(&comm);
        });
        let thread_wall = t.elapsed().as_secs_f64();
        eprintln!(
            "collectives p={p}: measured {:.1}ms on sockets | modeled {:.1}ms (default ab) \
             {:.1}ms (measured ab) | threads {:.1}ms",
            measured * 1e3,
            modeled_default * 1e3,
            modeled_measured * 1e3,
            thread_wall * 1e3
        );
        workloads.push(obj([
            ("p", p.into()),
            ("rounds", stats.rounds().into()),
            ("bytes_per_rank", stats.bytes_per_rank().into()),
            ("measured_seconds", num(measured)),
            ("modeled_seconds_default_ab", num(modeled_default)),
            ("modeled_seconds_measured_ab", num(modeled_measured)),
            ("thread_wall_seconds", num(thread_wall)),
        ]));
    }

    // 4. The five tools on both backends: agreement + walls.
    let n = if cli.smoke { 2_000 } else { 20_000 };
    let mesh = delaunay_unit_square(n, 41);
    let cfg = Config::default();
    let k = 8;
    let mut runs = Vec::new();
    for p in ps {
        for tool in Tool::ALL {
            let recipe = PlanRecipe::flat(tool.name(), tool, k, cfg.clone());
            let view = MeshView::from(&mesh);
            let pr = SpmdBackend::Proc.solve_cold(view, &recipe, p);
            let th = SpmdBackend::Thread.solve_cold(view, &recipe, p);
            let agree = pr.assignment == th.assignment;
            assert!(agree, "{} at p={p}: backends disagree", tool.name());
            // Per-rank view of the process run's counters for the model
            // (job-wide bytes / p; rounds are identical on every rank).
            let modeled_default =
                pr.comm.modeled_seconds(defaults.alpha, defaults.beta);
            let modeled_measured = pr.comm.modeled_seconds(cal.alpha, cal.beta);
            eprintln!(
                "  {} p={p}: proc wall {:.0}ms (thread {:.0}ms serialized) \
                 comm modeled {:.2}ms default / {:.2}ms measured — bitwise agree",
                tool.name(),
                pr.wall_seconds * 1e3,
                th.wall_seconds * 1e3,
                modeled_default * 1e3,
                modeled_measured * 1e3
            );
            runs.push(obj([
                ("tool", tool.name().into()),
                ("n", n.into()),
                ("p", p.into()),
                ("k", k.into()),
                ("assignments_agree_with_thread_backend", agree.into()),
                ("rounds", pr.comm.rounds().into()),
                ("bytes_per_rank", pr.comm.bytes_per_rank().into()),
                ("proc_wall_seconds", num(pr.wall_seconds)),
                ("thread_wall_serialized_seconds", num(th.wall_seconds)),
                ("modeled_comm_seconds_default_ab", num(modeled_default)),
                ("modeled_comm_seconds_measured_ab", num(modeled_measured)),
            ]));
        }
    }

    let record = obj([
        ("experiment", "proc_backend".into()),
        (
            "description",
            "multi-process SPMD backend: measured alpha-beta on Unix-domain sockets vs the \
             modeled constants; forked-rank runs agree bitwise with the thread backend"
                .into(),
        ),
        (
            "calibration",
            obj([
                ("probe_reps", reps.into()),
                ("measured_alpha_seconds", num(cal.alpha)),
                ("measured_beta_seconds_per_byte", num(cal.beta)),
                ("model_alpha_seconds", defaults.alpha.into()),
                ("model_beta_seconds_per_byte", defaults.beta.into()),
                ("probe_samples", samples.into()),
            ]),
        ),
        ("spawn", spawn.into()),
        ("collective_workloads", workloads.into()),
        ("tool_runs", runs.into()),
    ]);
    write_bench_json("proc", cli.smoke, SpmdBackend::Proc, &ps, &record);
}
