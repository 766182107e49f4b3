//! Fig. 4 reproduction: running time of every tool on every instance,
//! targeting a fixed number of points per block (the paper uses 250 000;
//! we scale down), with a least-squares trend line per tool in log-log
//! space (modeled time vs n).

use geographer::Config;
use geographer_bench::{scaled, solve_plan_view, CostModel, PlanRecipe, TextTable, Tool};
use geographer_mesh::families::{climate_suite, dimacs2d_suite, three_d_suite};
use geographer_planner::MeshView;

/// Least-squares slope+intercept of y = a·x + b.
fn least_squares(xs: &[f64], ys: &[f64]) -> (f64, f64) {
    let n = xs.len() as f64;
    let sx: f64 = xs.iter().sum();
    let sy: f64 = ys.iter().sum();
    let sxx: f64 = xs.iter().map(|x| x * x).sum();
    let sxy: f64 = xs.iter().zip(ys).map(|(x, y)| x * y).sum();
    let a = (n * sxy - sx * sy) / (n * sxx - sx * sx);
    let b = (sy - a * sx) / n;
    (a, b)
}

fn main() {
    let per_block = scaled(2000);
    let model = CostModel::default();
    let cfg = Config::default();
    println!("# Fig. 4: runtime vs n, target {per_block} points per block (k = p, powers of two)");

    let mut table =
        TextTable::new(vec!["instance", "n", "k", "tool", "modeled", "serialized"]);
    // (tool index, ln n, ln modeled) for trend lines.
    let mut samples: Vec<Vec<(f64, f64)>> = vec![Vec::new(); Tool::ALL.len()];

    let mut run2d = |name: &str, mesh: &geographer_mesh::Mesh<2>| {
        let k = ((mesh.n() as f64 / per_block as f64).round().max(2.0) as usize)
            .next_power_of_two();
        let p = k.min(16);
        for (t, tool) in Tool::ALL.iter().enumerate() {
            let recipe = PlanRecipe::flat(tool.name(), *tool, k, cfg.clone());
            let out = solve_plan_view(MeshView::from(mesh), &recipe, p, None);
            let modeled = model.modeled_seconds(out.wall_seconds, p, &out.plan.comm);
            samples[t].push(((mesh.n() as f64).ln(), modeled.max(1e-9).ln()));
            table.row(vec![
                name.to_string(),
                mesh.n().to_string(),
                k.to_string(),
                tool.name().to_string(),
                format!("{:.2}ms", modeled * 1e3),
                format!("{:.2}s", out.wall_seconds),
            ]);
        }
    };

    for inst in dimacs2d_suite(scaled(10_000), 4) {
        run2d(inst.name, &inst.mesh);
    }
    for inst in climate_suite(scaled(7_000), 5) {
        run2d(inst.name, &inst.mesh);
    }
    for inst in three_d_suite(scaled(6_000), 6) {
        let mesh = inst.mesh;
        let k = ((mesh.n() as f64 / per_block as f64).round().max(2.0) as usize)
            .next_power_of_two();
        let p = k.min(16);
        for (t, tool) in Tool::ALL.iter().enumerate() {
            let recipe = PlanRecipe::flat(tool.name(), *tool, k, cfg.clone());
            let out = solve_plan_view(MeshView::from(&mesh), &recipe, p, None);
            let modeled = model.modeled_seconds(out.wall_seconds, p, &out.plan.comm);
            samples[t].push(((mesh.n() as f64).ln(), modeled.max(1e-9).ln()));
            table.row(vec![
                inst.name.to_string(),
                mesh.n().to_string(),
                k.to_string(),
                tool.name().to_string(),
                format!("{:.2}ms", modeled * 1e3),
                format!("{:.2}s", out.wall_seconds),
            ]);
        }
    }
    table.print();

    println!("\n## Least-squares trends (log-log: modeled_time ~ n^slope)");
    let mut trend = TextTable::new(vec!["tool", "slope", "intercept"]);
    for (t, tool) in Tool::ALL.iter().enumerate() {
        let xs: Vec<f64> = samples[t].iter().map(|s| s.0).collect();
        let ys: Vec<f64> = samples[t].iter().map(|s| s.1).collect();
        let (a, b) = least_squares(&xs, &ys);
        trend.row(vec![tool.name().to_string(), format!("{a:.3}"), format!("{b:.2}")]);
    }
    trend.print();
}
