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
//! 2. **Collective workload** — a fixed mix of allreduce / allgather /
//!    alltoallv / exscan rounds at p ∈ {2, 4}, run on the socket
//!    substrate with the wall clock *measured* inside the workers, next
//!    to the α–β prediction of the same run's counters under (a) the
//!    default constants and (b) the measured ones. This is the
//!    measured-vs-modeled comparison in its purest form: no compute term
//!    at all.
//! 3. **Tool runs** — the five partitioners at p ∈ {2, 4} on both
//!    backends, checking the assignments agree exactly (same collective
//!    algorithms ⇒ same reduction trees ⇒ same bits) and reporting
//!    measured process wall next to the modeled communication seconds.
//!
//! ```console
//! $ cargo run --release -p geographer_bench --bin bench_proc
//! $ cargo run --release -p geographer_bench --bin bench_proc -- --smoke
//! ```

use std::fmt::Write as _;
use std::time::Instant;

use geographer::Config;
use geographer_bench::{write_bench_json, CostModel, PlanRecipe, SpmdBackend, Tool};
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
    let smoke = std::env::args().any(|a| a == "--smoke");
    let reps = if smoke { 10 } else { 100 };
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
    let mut samples = String::new();
    for (i, (bytes, secs)) in cal.samples.iter().enumerate() {
        let _ = write!(
            samples,
            "{}\n      {{\"bytes\": {}, \"seconds_per_exchange\": {:.3e}}}",
            if i > 0 { "," } else { "" },
            bytes,
            secs
        );
    }

    // 2. Pure collective workload, measured on the wire vs modeled from
    // the same run's counters.
    let mut workloads = String::new();
    for (i, p) in [2usize, 4].into_iter().enumerate() {
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
        let _ = write!(
            workloads,
            "{}\n      {{\"p\": {}, \"rounds\": {}, \"bytes_per_rank\": {:.1}, \
             \"measured_seconds\": {:.3e}, \"modeled_seconds_default_ab\": {:.3e}, \
             \"modeled_seconds_measured_ab\": {:.3e}, \"thread_wall_seconds\": {:.3e}}}",
            if i > 0 { "," } else { "" },
            p,
            stats.rounds(),
            stats.bytes_per_rank(),
            measured,
            modeled_default,
            modeled_measured,
            thread_wall,
        );
    }

    // 3. The five tools on both backends: agreement + walls.
    let n = if smoke { 2_000 } else { 20_000 };
    let mesh = delaunay_unit_square(n, 41);
    let cfg = Config::default();
    let k = 8;
    let mut runs = String::new();
    let mut first = true;
    for p in [2usize, 4] {
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
            let _ = write!(
                runs,
                "{}\n      {{\"tool\": \"{}\", \"n\": {}, \"p\": {}, \"k\": {}, \
                 \"assignments_agree_with_thread_backend\": {}, \"rounds\": {}, \
                 \"bytes_per_rank\": {:.1}, \"proc_wall_seconds\": {:.3e}, \
                 \"thread_wall_serialized_seconds\": {:.3e}, \
                 \"modeled_comm_seconds_default_ab\": {:.3e}, \
                 \"modeled_comm_seconds_measured_ab\": {:.3e}}}",
                if first { "" } else { "," },
                tool.name(),
                n,
                p,
                k,
                agree,
                pr.comm.rounds(),
                pr.comm.bytes_per_rank(),
                pr.wall_seconds,
                th.wall_seconds,
                modeled_default,
                modeled_measured,
            );
            first = false;
        }
    }

    let json = format!(
        "{{\n  \"experiment\": \"proc_backend\",\n  \
         \"description\": \"multi-process SPMD backend: measured alpha-beta on \
         Unix-domain sockets vs the modeled constants; forked-rank runs agree \
         bitwise with the thread backend\",\n  \
         \"calibration\": {{\n    \"probe_reps\": {reps},\n    \
         \"measured_alpha_seconds\": {:.3e},\n    \
         \"measured_beta_seconds_per_byte\": {:.3e},\n    \
         \"model_alpha_seconds\": {:.3e},\n    \
         \"model_beta_seconds_per_byte\": {:.3e},\n    \
         \"probe_samples\": [{samples}\n    ]\n  }},\n  \
         \"collective_workloads\": [{workloads}\n  ],\n  \
         \"tool_runs\": [{runs}\n  ]\n}}\n",
        cal.alpha, cal.beta, defaults.alpha, defaults.beta,
    );
    let path = write_bench_json("proc", smoke, &json);
    println!("wrote {path}");
}
