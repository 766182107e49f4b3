//! Repartitioning benchmark: cold-vs-warm Geographer and the four cold
//! baselines over a cluster-drift scenario, emitting
//! `BENCH_repartition.json` in the current directory. The committed copy is
//! the repository's repartitioning baseline: migration fractions and step
//! counts are deterministic; wall-clock fields are machine-dependent
//! context, not a regression gate.
//!
//! The benchmark exercises the paper's reuse claim: warm-started balanced
//! k-means should repartition a drifting point set both *faster* (no global
//! sort or redistribution, few iterations) and *stabler* (lower migrated
//! fraction) than any cold re-run, at the same balance bound.
//!
//! ```console
//! $ cargo run --release -p geographer_bench --bin bench_repartition
//! $ cargo run --release -p geographer_bench --bin bench_repartition -- --smoke
//! ```

use geographer::Config;
use geographer_analyze::json::Value;
use geographer_bench::harness::{mean, ns_per_point};
use geographer_bench::{
    num, obj, run_plan_chain, scaled, write_bench_json, ChainStep, Cli, PlanRecipe, SpmdBackend,
    Tool,
};
use geographer_mesh::{delaunay_unit_square, DynamicWorkload, Scenario};

/// One recipe's chain: its JSON record, and the two figures of the
/// steady state — everything after the shared cold bootstrap of step 0 —
/// the cold-vs-warm comparison reads: re-step wall seconds and mean
/// migrated point fraction.
fn summarize(label: &str, steps: &[ChainStep<2>], n: usize) -> (Value, f64, f64) {
    let total_wall: f64 = steps.iter().map(|s| s.wall_seconds).sum();
    let restep_wall: f64 = steps[1..].iter().map(|s| s.wall_seconds).sum();
    let restep_max_rank_wall: f64 = steps[1..].iter().map(|s| s.wall_max_rank_s).sum();
    let migration = mean(steps[1..].iter().map(|s| s.migrated_point_fraction));
    let weight_migration = mean(steps[1..].iter().map(|s| s.migrated_weight_fraction));
    let max_imbalance = steps.iter().map(|s| s.imbalance).fold(0.0, f64::max);
    let mean_cut = mean(steps.iter().map(|s| s.edge_cut as f64));
    eprintln!(
        "{label:<18} wall={total_wall:.3}s (re-steps {restep_wall:.3}s) migration={migration:.3} \
         wmigration={weight_migration:.3} max_imb={max_imbalance:.4} cut≈{mean_cut:.0}"
    );
    let step_json = |r: &ChainStep<2>| {
        let mut fields = vec![
            ("step", r.step.into()),
            ("wall_s", num(r.wall_seconds)),
            ("wall_max_rank_s", num(r.wall_max_rank_s)),
            ("ns_per_point", num(ns_per_point(r.wall_max_rank_s, n))),
            ("imbalance", num(r.imbalance)),
            ("edge_cut", r.edge_cut.into()),
            ("migrated_point_fraction", num(r.migrated_point_fraction)),
            ("migrated_weight_fraction", num(r.migrated_weight_fraction)),
        ];
        // Why a Geographer step costs what it does, from rank 0's plan
        // over the n/p points rank 0 solved: the distances its kernel
        // evaluated, and what putting its points in curve order took —
        // Hilbert indexing on a cold step (the global sort is the
        // redistribution phase's), the rank-local order on a warm one.
        if let (Some(stats), Some(phases)) = (r.plan.stats, r.plan.phase_timings) {
            let local = n / r.plan.ranks;
            fields.push((
                "distance_evals_per_point",
                num(stats.distance_evals as f64 / local as f64),
            ));
            fields.push(("order_ns_per_point", num(ns_per_point(phases.sfc_index, local))));
        }
        obj(fields)
    };
    let record = obj([
        ("tool", label.into()),
        ("total_wall_s", num(total_wall)),
        ("resteps_wall_s", num(restep_wall)),
        ("resteps_max_rank_wall_s", num(restep_max_rank_wall)),
        ("mean_migrated_point_fraction", num(migration)),
        ("mean_migrated_weight_fraction", num(weight_migration)),
        ("max_imbalance", num(max_imbalance)),
        ("mean_edge_cut", num(mean_cut)),
        ("steps", Value::Arr(steps.iter().map(step_json).collect())),
    ]);
    (record, restep_wall, migration)
}

fn main() {
    let cli = Cli::from_env(&["--smoke"], &[]);
    let n = if cli.smoke { 2_500 } else { scaled(15_000) };
    let steps = if cli.smoke { 4 } else { 8 };
    let (k, p) = (8, 4);
    let seed = 29;
    let scenario = Scenario::ClusterDrift { clusters: 5, speed: 0.015 };
    let workload = DynamicWorkload::new(delaunay_unit_square(n, seed), scenario, seed);
    let cfg = Config { sampling_init: false, ..Config::default() };

    // The recipe table: warm Geographer against every cold re-run.
    let warm = PlanRecipe::flat("Geographer-warm", Tool::Geographer, k, cfg.clone()).warm();
    let cold = |tool: Tool| PlanRecipe::flat(format!("{}-cold", tool.name()), tool, k, cfg.clone());
    let recipes: Vec<PlanRecipe> = std::iter::once(warm).chain(Tool::ALL.map(cold)).collect();

    let summaries: Vec<(Value, f64, f64)> = recipes
        .iter()
        .map(|recipe| summarize(&recipe.name, &run_plan_chain(&workload, recipe, p, steps), n))
        .collect();
    let (_, warm_wall, warm_migration) = summaries[0];
    let (_, cold_wall, cold_migration) = summaries[1];
    let record = obj([
        ("bench", "repartition".into()),
        (
            "scenario",
            obj([
                ("kind", "cluster-drift".into()),
                ("clusters", 5usize.into()),
                ("speed", Value::Num(0.015)),
                ("base", "delaunay_unit_square".into()),
                ("n", n.into()),
                ("seed", seed.into()),
                ("steps", steps.into()),
            ]),
        ),
        ("k", k.into()),
        ("p", p.into()),
        ("epsilon", cfg.epsilon.into()),
        (
            "cold_vs_warm",
            obj([
                ("cold_resteps_wall_s", num(cold_wall)),
                ("warm_resteps_wall_s", num(warm_wall)),
                ("warm_speedup", num(cold_wall / warm_wall.max(1e-12))),
                ("cold_migration", num(cold_migration)),
                ("warm_migration", num(warm_migration)),
                ("migration_ratio", num(cold_migration / warm_migration.max(1e-12))),
            ]),
        ),
        ("tools", Value::Arr(summaries.into_iter().map(|(record, ..)| record).collect())),
    ]);
    write_bench_json("repartition", cli.smoke, SpmdBackend::Thread, &[p], &record);
}
