//! Repartitioning benchmark: cold-vs-warm Geographer and the four cold
//! baselines over a cluster-drift scenario, emitting
//! `BENCH_repartition.json` in the current directory. The committed copy is
//! the repository's repartitioning baseline: migration fractions and step
//! counts are deterministic; wall-clock fields are machine-dependent
//! context, not a regression gate.
//!
//! The benchmark exercises the paper's reuse claim: warm-started balanced
//! k-means should repartition a drifting point set both *faster* (no SFC
//! bootstrap, few iterations) and *stabler* (lower migrated fraction) than
//! any cold re-run, at the same balance bound.
//!
//! ```console
//! $ cargo run --release -p geographer_bench --bin bench_repartition
//! $ cargo run --release -p geographer_bench --bin bench_repartition -- --smoke
//! ```

use std::fmt::Write as _;

use geographer::Config;
use geographer_bench::{
    run_plan_chain, scaled, write_bench_json, ChainStep, PlanRecipe, Tool,
};
use geographer_mesh::{delaunay_unit_square, DynamicWorkload, Scenario};

fn mean(vals: impl Iterator<Item = f64>) -> f64 {
    let v: Vec<f64> = vals.collect();
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

struct Summary {
    label: String,
    total_wall: f64,
    restep_wall: f64,
    restep_max_rank_wall: f64,
    migration: f64,
    weight_migration: f64,
    max_imbalance: f64,
    mean_cut: f64,
}

fn summarize(label: String, steps: &[ChainStep<2>]) -> Summary {
    Summary {
        label,
        total_wall: steps.iter().map(|s| s.wall_seconds).sum(),
        // Steady-state repartitioning cost: everything after the shared
        // cold bootstrap of step 0.
        restep_wall: steps[1..].iter().map(|s| s.wall_seconds).sum(),
        restep_max_rank_wall: steps[1..].iter().map(|s| s.wall_max_rank_s).sum(),
        migration: mean(steps[1..].iter().map(|s| s.migrated_point_fraction)),
        weight_migration: mean(steps[1..].iter().map(|s| s.migrated_weight_fraction)),
        max_imbalance: steps.iter().map(|s| s.imbalance).fold(0.0, f64::max),
        mean_cut: mean(steps.iter().map(|s| s.edge_cut as f64)),
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let n = if smoke { 2_500 } else { scaled(15_000) };
    let steps = if smoke { 4 } else { 8 };
    let (k, p) = (8, 4);
    let seed = 29;
    let scenario = Scenario::ClusterDrift { clusters: 5, speed: 0.015 };
    let workload = DynamicWorkload::new(delaunay_unit_square(n, seed), scenario, seed);
    let cfg = Config { sampling_init: false, ..Config::default() };

    // The recipe table: warm Geographer against every cold re-run.
    let mut recipes = vec![PlanRecipe::flat(
        "Geographer-warm",
        Tool::Geographer,
        k,
        cfg.clone(),
    )
    .warm()];
    for tool in Tool::ALL {
        recipes.push(PlanRecipe::flat(
            format!("{}-cold", tool.name()),
            tool,
            k,
            cfg.clone(),
        ));
    }

    let mut summaries: Vec<(Summary, Vec<ChainStep<2>>)> = Vec::new();
    for recipe in &recipes {
        let rows = run_plan_chain(&workload, recipe, p, steps);
        let s = summarize(recipe.name.clone(), &rows);
        eprintln!(
            "{:<18} wall={:.3}s (re-steps {:.3}s) migration={:.3} wmigration={:.3} \
             max_imb={:.4} cut≈{:.0}",
            s.label, s.total_wall, s.restep_wall, s.migration, s.weight_migration,
            s.max_imbalance, s.mean_cut
        );
        summaries.push((s, rows));
    }

    let mut tools_json = String::new();
    for (i, (s, rows)) in summaries.iter().enumerate() {
        let mut steps_json = String::new();
        for (j, r) in rows.iter().enumerate() {
            let _ = write!(
                steps_json,
                "{}{{\"step\": {}, \"wall_s\": {:.4}, \"wall_max_rank_s\": {:.4}, \
                 \"ns_per_point\": {:.1}, \"imbalance\": {:.5}, \
                 \"edge_cut\": {}, \"migrated_point_fraction\": {:.5}, \
                 \"migrated_weight_fraction\": {:.5}}}",
                if j > 0 { ", " } else { "" },
                r.step,
                r.wall_seconds,
                r.wall_max_rank_s,
                geographer_bench::harness::ns_per_point(r.wall_max_rank_s, n),
                r.imbalance,
                r.edge_cut,
                r.migrated_point_fraction,
                r.migrated_weight_fraction
            );
        }
        let _ = write!(
            tools_json,
            "{}    {{\"tool\": \"{}\", \"total_wall_s\": {:.4}, \"resteps_wall_s\": {:.4}, \
             \"resteps_max_rank_wall_s\": {:.4}, \
             \"mean_migrated_point_fraction\": {:.5}, \
             \"mean_migrated_weight_fraction\": {:.5}, \"max_imbalance\": {:.5}, \
             \"mean_edge_cut\": {:.1},\n     \"steps\": [{}]}}",
            if i > 0 { ",\n" } else { "" },
            s.label,
            s.total_wall,
            s.restep_wall,
            s.restep_max_rank_wall,
            s.migration,
            s.weight_migration,
            s.max_imbalance,
            s.mean_cut,
            steps_json
        );
    }

    let warm = &summaries[0].0;
    let cold = &summaries[1].0;
    let json = format!(
        "{{\n  \"bench\": \"repartition\",\n  \
         \"scenario\": {{\"kind\": \"cluster-drift\", \"clusters\": 5, \"speed\": 0.015, \
         \"base\": \"delaunay_unit_square\", \"n\": {n}, \"seed\": {seed}, \
         \"steps\": {steps}}},\n  \
         \"k\": {k}, \"p\": {p}, \"epsilon\": {:.2},\n  \
         \"cold_vs_warm\": {{\"cold_resteps_wall_s\": {:.4}, \"warm_resteps_wall_s\": {:.4}, \
         \"warm_speedup\": {:.2}, \"cold_migration\": {:.5}, \"warm_migration\": {:.5}, \
         \"migration_ratio\": {:.2}}},\n  \
         \"tools\": [\n{tools_json}\n  ]\n}}\n",
        cfg.epsilon,
        cold.restep_wall,
        warm.restep_wall,
        cold.restep_wall / warm.restep_wall.max(1e-12),
        cold.migration,
        warm.migration,
        cold.migration / warm.migration.max(1e-12),
    );
    // Smoke runs (CI) must not clobber the committed full-scale baseline.
    let path = write_bench_json("repartition", smoke, &json);
    println!("{json}");
    println!("wrote {path}");
}
