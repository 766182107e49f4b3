//! Scaling benchmark: the full Geographer pipeline on uniform random
//! point sets at n ∈ {100k, 1M, 4M} and p ∈ {1, 2, 4, 8}, emitting
//! `BENCH_scale.json` with *per-phase and per-assignment nanoseconds per
//! point* — the numbers the tier-1 perf gate
//! (`crates/bench/tests/perf_gate.rs`) holds the assignment hot path and
//! the SFC bootstrap (`sfc_index` + `redistribute`) accountable against —
//! next to each run's structural communication counters (rounds, bytes
//! per rank, per-collective ops), the perf-trajectory data point: those
//! are deterministic, so a substrate or hot-loop change shows as a diff
//! of the committed file.
//!
//! The instances are raw point clouds (no Delaunay graph — triangulating
//! 4M points is not what this benchmark measures), solved through the
//! planner exactly like every other bench. Per-phase seconds are the
//! maximum across ranks of each rank's own pipeline timings; ns/point
//! divides by the *global* n, so the figure is comparable across p.
//! `assignment` is the wall time spent inside k-means assignment passes
//! (kernel + block-weight sum, not the balance allreduce) on *rank 0*:
//! `solve_plan_view` returns rank 0's plan, whose stats are not reduced,
//! so at p > 1 it is not the rank maximum the phases are. A row with more
//! ranks than the machine has logical cores is stamped
//! `"oversubscribed": true`: its rank threads share cores, so its phase
//! times include waiting for one, and no gate reads it.
//!
//! The `k_sweep` block holds n and p at the gate's values and varies k ∈
//! {8, 64, 256} on a clustered cloud (the four refinement bubbles of the
//! repo benchmark's `cold_clustered_k64_p2`): k-means and assignment
//! ns/point and distance evaluations per point — what the assignment
//! kernel costs as the center count grows, which the k = 8 rows above
//! cannot show.
//!
//! The gate and sweep figures are minima over [`REPEATS`] runs — on a shared VM a
//! single measurement is at the mercy of whichever run catches a noisy
//! window, and the minimum estimates the undisturbed cost.
//!
//! ```console
//! $ cargo run --release -p geographer_bench --bin bench_scale
//! $ cargo run --release -p geographer_bench --bin bench_scale -- --smoke
//! ```

use geographer::Config;
use geographer_analyze::json::Value;
use geographer_bench::harness::ns_per_point;
use geographer_bench::{
    num, obj, solve_plan_view, write_bench_json, Cli, PlanRecipe, SpmdBackend, Tool, FOUR_BUBBLES,
};
use geographer_mesh::density::{bubbles_density, sample_by_density};
use geographer_parcomm::Collective;
use geographer_planner::MeshView;

/// Repeats for the gate measurement, reporting the minimum: on a shared
/// VM the minimum is the noise-robust estimator of the undisturbed cost.
const REPEATS: usize = 3;

fn main() {
    let cli = Cli::from_env(&["--smoke"], &[]);
    let sizes: &[usize] =
        if cli.smoke { &[100_000] } else { &[100_000, 1_000_000, 4_000_000] };
    let ps = [1usize, 2, 4, 8];
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let k = 8;
    let seed = 77;
    let cfg = Config::default();

    // The first solve in a process pays one-time costs the later ones
    // don't (heap-growth page faults, lazy binding, VM frequency ramp) —
    // measured at up to 2× the steady-state assignment time. Burn them
    // on a small instance that never gets reported.
    {
        let n = 50_000;
        let points = sample_by_density(n, seed, |_| 1.0);
        let weights = vec![1.0f64; n];
        let view = MeshView { points: &points, weights: &weights, graph: None };
        let _ = solve_plan_view(
            view,
            &PlanRecipe::flat("warmup", Tool::Geographer, k, cfg.clone()),
            1,
            None,
        );
    }

    let mut runs = Vec::new();
    let mut gate_kmeans_ns = 0.0f64;
    let mut gate_assign_ns = 0.0f64;
    let mut gate_bootstrap_ns = 0.0f64;
    for &n in sizes {
        // Uniform density ⇒ every rejection-sampling attempt accepts:
        // O(n) generation, same RNG family as the mesh benches.
        let points = sample_by_density(n, seed, |_| 1.0);
        let weights = vec![1.0f64; n];
        let view = MeshView { points: &points, weights: &weights, graph: None };
        for p in ps {
            let recipe = PlanRecipe::flat("scale", Tool::Geographer, k, cfg.clone());
            let run = solve_plan_view(view, &recipe, p, None);
            let ph = run.phase_max.expect("flat stateful solve reports phase timings");
            let st = run.plan.stats.expect("geographer solve reports stats");
            let npp = |s: f64| ns_per_point(s, n);
            if n == sizes[0] && p == 1 {
                // Min over REPEATS: the machine this baseline is meant
                // for is a noisy shared VM, and the minimum is the
                // noise-robust estimator of the undisturbed cost — the
                // gate envelope is anchored to it.
                let (mut kmeans_s, mut assign_s, mut bootstrap_s) =
                    (ph.kmeans, st.assignment_seconds, ph.sfc_index + ph.redistribute);
                for _ in 1..REPEATS {
                    let r = solve_plan_view(view, &recipe, p, None);
                    let rp = r.phase_max.unwrap();
                    kmeans_s = kmeans_s.min(rp.kmeans);
                    assign_s =
                        assign_s.min(r.plan.stats.unwrap().assignment_seconds);
                    bootstrap_s = bootstrap_s.min(rp.sfc_index + rp.redistribute);
                }
                gate_kmeans_ns = npp(kmeans_s);
                gate_assign_ns = npp(assign_s);
                gate_bootstrap_ns = npp(bootstrap_s);
            }
            let timing = |s: f64| obj([("seconds", num(s)), ("ns_per_point", num(npp(s)))]);
            let comm = run.plan.comm;
            let per_op = Collective::ALL.map(|kind| {
                let op = comm.op(kind);
                let counts =
                    obj([("ops", op.ops.into()), ("rounds", op.rounds.into()), ("bytes", op.bytes.into())]);
                (kind.name().to_string(), counts)
            });
            runs.push(obj([
                ("n", n.into()),
                ("p", p.into()),
                ("oversubscribed", (p > cores).into()),
                ("k", k.into()),
                ("wall_serialized_s", num(run.wall_seconds)),
                ("wall_max_rank_s", num(run.wall_max_rank_s)),
                ("total_ns_per_point", num(npp(ph.total()))),
                (
                    "phases",
                    obj([
                        ("sfc_index", timing(ph.sfc_index)),
                        ("redistribute", timing(ph.redistribute)),
                        ("kmeans", timing(ph.kmeans)),
                        ("writeback", timing(ph.writeback)),
                    ]),
                ),
                ("assignment", timing(st.assignment_seconds)),
                ("rounds", comm.rounds().into()),
                ("bytes_per_rank", comm.bytes_per_rank().into()),
                ("per_op", Value::Obj(per_op.into())),
            ]));
            eprintln!(
                "n={n} p={p}: wall(serialized)={:.2}s max-rank={:.2}s \
                 kmeans={:.1} ns/pt assign={:.1} ns/pt total={:.1} ns/pt",
                run.wall_seconds,
                run.wall_max_rank_s,
                npp(ph.kmeans),
                npp(st.assignment_seconds),
                npp(ph.total()),
            );
        }
    }

    // The kernel against k, on points dense where the bubbles are.
    let n = sizes[0];
    let points = sample_by_density(n, seed, bubbles_density(&FOUR_BUBBLES));
    let weights = vec![1.0f64; n];
    let view = MeshView { points: &points, weights: &weights, graph: None };
    let k_sweep: Vec<Value> = [8usize, 64, 256]
        .into_iter()
        .map(|k| {
            let recipe = PlanRecipe::flat("k_sweep", Tool::Geographer, k, cfg.clone());
            // Times are minima over the repeats; the counts repeat exactly.
            let runs: Vec<_> =
                (0..REPEATS).map(|_| solve_plan_view(view, &recipe, 1, None)).collect();
            let stats = |i: usize| runs[i].plan.stats.expect("geographer solve reports stats");
            let st = stats(0);
            let kmeans_s = (0..REPEATS)
                .map(|i| runs[i].phase_max.expect("phase timings").kmeans)
                .fold(f64::INFINITY, f64::min);
            let assign_s =
                (0..REPEATS).map(|i| stats(i).assignment_seconds).fold(f64::INFINITY, f64::min);
            let npp = |s: f64| ns_per_point(s, n);
            eprintln!(
                "k_sweep k={k}: kmeans={:.1} ns/pt assign={:.1} ns/pt evals/pt={:.1}",
                npp(kmeans_s),
                npp(assign_s),
                st.distance_evals as f64 / n as f64,
            );
            obj([
                ("k", k.into()),
                ("kmeans_ns_per_point", num(npp(kmeans_s))),
                ("assignment_ns_per_point", num(npp(assign_s))),
                ("distance_evals_per_point", num(st.distance_evals as f64 / n as f64)),
                ("balance_iterations", st.balance_iterations.into()),
                ("hamerly_skip_rate", num(st.skip_rate())),
            ])
        })
        .collect();

    let record = obj([
        ("bench", "scale".into()),
        ("tool", "Geographer".into()),
        ("mesh", obj([("kind", "uniform_random".into()), ("seed", seed.into())])),
        ("k", k.into()),
        ("epsilon", cfg.epsilon.into()),
        (
            "gate",
            obj([
                ("n", sizes[0].into()),
                ("p", 1usize.into()),
                ("repeats", REPEATS.into()),
                ("kmeans_ns_per_point", num(gate_kmeans_ns)),
                ("assignment_ns_per_point", num(gate_assign_ns)),
                ("bootstrap_ns_per_point", num(gate_bootstrap_ns)),
            ]),
        ),
        ("runs", runs.into()),
        (
            "k_sweep",
            obj([
                ("n", n.into()),
                ("p", 1usize.into()),
                ("mesh", "four_bubbles".into()),
                ("repeats", REPEATS.into()),
                ("rows", k_sweep.into()),
            ]),
        ),
    ]);
    write_bench_json("scale", cli.smoke, SpmdBackend::Thread, &ps, &record);
}
