//! The tool × instance experiments, one section each:
//!
//! * `fig2` — Fig. 2: aggregated metric ratios per graph class, baseline
//!   Geographer (= 1.0). Three classes — (a) 2D DIMACS-like, (b) 2.5D
//!   climate, (c) 3D — and five metrics: edgeCut, maxCommVol, totCommVol,
//!   harmDiam, timeComm. Aggregation is the geometric mean of per-instance
//!   ratios (the paper's aggregation; the diameter is itself the harmonic
//!   mean over blocks). Expected shape (paper Sec. 5.3.1): Geographer has
//!   the lowest total communication volume in every class, most pronounced
//!   on the 2D class; MultiJagged wins edge cut on 3D; no tool dominates
//!   everywhere.
//! * `table1` — Table 1: per-instance metric rows for the *large* graphs.
//!   Paper: k = p = 1024 on instances up to 2·10⁹ vertices; reproduction:
//!   k = 32 on the largest instances that fit the CI box (slow).
//! * `table2` — Table 2: the small/medium graphs. Paper: k = p = 64;
//!   reproduction: k = 16 at laptop scale (~1 min).
//! * `fig4` — Fig. 4: running time of every tool on every instance,
//!   targeting a fixed number of points per block (the paper uses 250 000;
//!   we scale down), with a least-squares trend line per tool in log-log
//!   space (modeled time vs n).
//!
//! In the tables the best value per column and instance is marked `*`.
//!
//! ```console
//! $ cargo run --release -p geographer_bench --bin tables              # all four
//! $ cargo run --release -p geographer_bench --bin tables -- table2
//! ```

use geographer::Config;
use geographer_bench::{
    evaluate_run, scaled, solve_plan_view, Cli, CostModel, PlanRecipe, TextTable, Tool, ToolRow,
};
use geographer_graph::{geometric_mean, PartitionMetrics};
use geographer_mesh::families::{
    bubbles_like, climate_suite, dimacs2d_suite, three_d_suite, trace_like,
};
use geographer_mesh::knn3d::PointCloud;
use geographer_mesh::{climate25d, delaunay_unit_square, knn3d, Mesh};
use geographer_planner::MeshView;

/// The metric row of every tool on `mesh` (`spmv_reps` SpMV repetitions).
fn tool_rows<const D: usize>(mesh: &Mesh<D>, k: usize, p: usize, spmv_reps: usize) -> Vec<ToolRow> {
    let solve = |&tool: &Tool| {
        let recipe = PlanRecipe::flat(tool.name(), tool, k, Config::default());
        let run = solve_plan_view(MeshView::from(mesh), &recipe, p, None);
        evaluate_run(mesh, &recipe, &run, spmv_reps)
    };
    Tool::ALL.iter().map(solve).collect()
}

const FIG2_METRICS: [&str; 5] = ["edgeCut", "maxCommVol", "totCommVol", "harmDiam", "timeComm"];

fn fig2_values(row: &ToolRow) -> [f64; 5] {
    [
        row.metrics.edge_cut as f64,
        row.metrics.max_comm_volume as f64,
        row.metrics.total_comm_volume as f64,
        row.metrics.harmonic_diameter,
        row.spmv_comm_seconds.max(1e-9),
    ]
}

/// One Fig. 2 graph class under construction: `ratios[tool][metric]` are
/// the per-instance ratios vs Geographer.
struct RatioClass {
    k: usize,
    p: usize,
    ratios: Vec<Vec<Vec<f64>>>,
}

impl RatioClass {
    fn new(k: usize, p: usize) -> Self {
        RatioClass { k, p, ratios: vec![vec![Vec::new(); FIG2_METRICS.len()]; Tool::ALL.len()] }
    }

    fn instance<const D: usize>(&mut self, name: &str, mesh: &Mesh<D>) {
        let rows = tool_rows(mesh, self.k, self.p, 5);
        let base = fig2_values(&rows[0]);
        eprintln!("  {name}: done (geo cut = {})", rows[0].metrics.edge_cut);
        for (tool_ratios, row) in self.ratios.iter_mut().zip(&rows) {
            for (m, value) in fig2_values(row).into_iter().enumerate() {
                let r = if base[m] > 0.0 { value / base[m] } else { 1.0 };
                if r.is_finite() && r > 0.0 {
                    tool_ratios[m].push(r);
                }
            }
        }
    }

    fn print(&self, class: &str) {
        println!("\n## Fig. 2 ({class}), k = {} — ratios vs Geographer (geometric mean)", self.k);
        let mut table = TextTable::new(
            std::iter::once("tool").chain(FIG2_METRICS).map(String::from).collect::<Vec<_>>(),
        );
        for (tool, tool_ratios) in Tool::ALL.iter().zip(&self.ratios) {
            let cell = |r: &Vec<f64>| {
                if r.is_empty() { "-".to_string() } else { format!("{:.3}", geometric_mean(r)) }
            };
            table.row(
                std::iter::once(tool.name().to_string()).chain(tool_ratios.iter().map(cell)).collect(),
            );
        }
        table.print();
    }
}

fn fig2() {
    let (k, p) = (16, 4);
    println!("# Fig. 2 reproduction (scaled: k = {k} instead of 64)");
    let mut class = RatioClass::new(k, p);
    for inst in dimacs2d_suite(scaled(8000), 1) {
        class.instance(inst.name, &inst.mesh);
    }
    class.print("a: DIMACS-like 2D");
    let mut class = RatioClass::new(k, p);
    for inst in climate_suite(scaled(6000), 2) {
        class.instance(inst.name, &inst.mesh);
    }
    class.print("b: climate 2.5D");
    let mut class = RatioClass::new(k, p);
    for inst in three_d_suite(scaled(5000), 3) {
        class.instance(inst.name, &inst.mesh);
    }
    class.print("c: 3D");
}

/// One of Tables 1–2 under construction: every tool on every instance.
struct MetricTable {
    k: usize,
    /// Ranks of the partitioning runs.
    p: usize,
    /// The table's diameter column (Table 1 prints the maximum block
    /// diameter, Table 2 the harmonic mean).
    diam: fn(&PartitionMetrics) -> String,
    table: TextTable,
}

fn max_diameter(m: &PartitionMetrics) -> String {
    // Over the connected blocks; `inf` when no block is connected.
    m.diameters.iter().flatten().max().map_or("inf".to_string(), |d| d.to_string())
}

fn harmonic_diameter(m: &PartitionMetrics) -> String {
    let d = m.harmonic_diameter;
    if d.is_finite() { format!("{d:.0}") } else { "inf".into() }
}

impl MetricTable {
    fn new(k: usize, p: usize, diam_header: &str, diam: fn(&PartitionMetrics) -> String) -> Self {
        let table = TextTable::new(vec![
            "graph", "tool", "time", "cut", "maxCommVol", "totCommVol", diam_header,
            "timeSpMVComm", "imbalance",
        ]);
        MetricTable { k, p, diam, table }
    }

    /// Run every tool on `mesh` and append its rows.
    fn instance<const D: usize>(&mut self, name: &str, mesh: &Mesh<D>) {
        eprintln!("running {name} ...");
        let rows = tool_rows(mesh, self.k, self.p, 10);
        let best_cut = rows.iter().map(|r| r.metrics.edge_cut).min().unwrap();
        let best_max = rows.iter().map(|r| r.metrics.max_comm_volume).min().unwrap();
        let best_tot = rows.iter().map(|r| r.metrics.total_comm_volume).min().unwrap();
        let best_spmv = rows.iter().map(|r| r.spmv_comm_seconds).fold(f64::INFINITY, f64::min);
        let mark = |v: String, best: bool| if best { format!("{v}*") } else { v };
        for (i, r) in rows.iter().enumerate() {
            let m = &r.metrics;
            self.table.row(vec![
                if i == 0 { format!("{name} (n={})", mesh.n()) } else { String::new() },
                r.tool.to_string(),
                format!("{:.3}s", r.time),
                mark(m.edge_cut.to_string(), m.edge_cut == best_cut),
                mark(m.max_comm_volume.to_string(), m.max_comm_volume == best_max),
                mark(m.total_comm_volume.to_string(), m.total_comm_volume == best_tot),
                (self.diam)(m),
                mark(
                    format!("{:.1}us", r.spmv_comm_seconds * 1e6),
                    (r.spmv_comm_seconds - best_spmv).abs() < 1e-12,
                ),
                format!("{:.3}", m.imbalance),
            ]);
        }
    }
}

fn table1() {
    let k = 32;
    println!("# Table 1 reproduction: large graphs, k = {k} (paper: k = p = 1024)");
    println!("('*' marks the best value per column and instance; time is serialized wall)");
    // 8 ranks: oversubscribing the box further buys nothing.
    let mut t = MetricTable::new(k, 8, "maxDiam", max_diameter);
    t.instance("delaunay-large", &delaunay_unit_square(scaled(100_000), 11));
    t.instance("trace-like-large", &trace_like(scaled(80_000), 12));
    t.instance("bubbles-like-large", &bubbles_like(scaled(80_000), 13));
    t.instance("fesom-like-large", &climate25d(scaled(60_000), 40, 14));
    t.instance("delaunay3d-like-large", &knn3d(scaled(50_000), 6, PointCloud::Uniform, 15));
    t.instance(
        "alya-like-large",
        &knn3d(scaled(50_000), 6, PointCloud::Clustered { clusters: 5 }, 16),
    );
    t.table.print();
}

fn table2() {
    let k = 16;
    println!("# Table 2 reproduction: small/medium graphs, k = {k} (paper: k = p = 64)");
    println!("('*' marks the best value per column and instance; harmDiam shown)");
    let mut t = MetricTable::new(k, 4, "harmDiam", harmonic_diameter);
    for inst in dimacs2d_suite(scaled(20_000), 21) {
        t.instance(inst.name, &inst.mesh);
    }
    for inst in climate_suite(scaled(15_000), 22) {
        t.instance(inst.name, &inst.mesh);
    }
    for inst in three_d_suite(scaled(12_000), 23) {
        t.instance(inst.name, &inst.mesh);
    }
    t.table.print();
}

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

/// Fig. 4 under construction: the runtime table and, per tool, the
/// (ln n, ln modeled seconds) samples of its trend line.
struct RuntimeTable {
    per_block: usize,
    table: TextTable,
    samples: Vec<Vec<(f64, f64)>>,
}

impl RuntimeTable {
    fn instance<const D: usize>(&mut self, name: &str, mesh: &Mesh<D>) {
        let k = ((mesh.n() as f64 / self.per_block as f64).round().max(2.0) as usize)
            .next_power_of_two();
        let p = k.min(16);
        for (t, tool) in Tool::ALL.iter().enumerate() {
            let recipe = PlanRecipe::flat(tool.name(), *tool, k, Config::default());
            let out = solve_plan_view(MeshView::from(mesh), &recipe, p, None);
            let modeled = CostModel::default().modeled_seconds(out.wall_seconds, p, &out.plan.comm);
            self.samples[t].push(((mesh.n() as f64).ln(), modeled.max(1e-9).ln()));
            self.table.row(vec![
                name.to_string(),
                mesh.n().to_string(),
                k.to_string(),
                tool.name().to_string(),
                format!("{:.2}ms", modeled * 1e3),
                format!("{:.2}s", out.wall_seconds),
            ]);
        }
    }
}

fn fig4() {
    let per_block = scaled(2000);
    println!("# Fig. 4: runtime vs n, target {per_block} points per block (k = p, powers of two)");
    let mut t = RuntimeTable {
        per_block,
        table: TextTable::new(vec!["instance", "n", "k", "tool", "modeled", "serialized"]),
        samples: vec![Vec::new(); Tool::ALL.len()],
    };
    for inst in dimacs2d_suite(scaled(10_000), 4) {
        t.instance(inst.name, &inst.mesh);
    }
    for inst in climate_suite(scaled(7_000), 5) {
        t.instance(inst.name, &inst.mesh);
    }
    for inst in three_d_suite(scaled(6_000), 6) {
        t.instance(inst.name, &inst.mesh);
    }
    t.table.print();

    println!("\n## Least-squares trends (log-log: modeled_time ~ n^slope)");
    let mut trend = TextTable::new(vec!["tool", "slope", "intercept"]);
    for (tool, samples) in Tool::ALL.iter().zip(&t.samples) {
        let (xs, ys): (Vec<f64>, Vec<f64>) = samples.iter().copied().unzip();
        let (a, b) = least_squares(&xs, &ys);
        trend.row(vec![tool.name().to_string(), format!("{a:.3}"), format!("{b:.2}")]);
    }
    trend.print();
}

fn main() {
    Cli::run_sections(&[("fig2", fig2), ("table1", table1), ("table2", table2), ("fig4", fig4)]);
}
