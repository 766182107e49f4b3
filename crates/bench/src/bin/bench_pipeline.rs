//! Perf-trajectory benchmark: run the full Geographer pipeline at a few
//! rank counts on a fixed Delaunay instance and emit `BENCH_pipeline.json`
//! in the current directory. The committed copy of that file is the
//! repository's perf baseline: re-run this binary after substrate or
//! hot-loop changes and diff the structural counters (rounds and
//! bytes/rank are deterministic; wall-clock fields are machine-dependent
//! context, not a regression gate).
//!
//! ```console
//! $ cargo run --release -p geographer_bench --bin bench_pipeline
//! ```

use std::fmt::Write as _;

use geographer::Config;
use geographer_bench::{
    scaled, solve_plan_view, write_bench_json, CostModel, PlanRecipe, Tool,
};
use geographer_mesh::delaunay_unit_square;
use geographer_parcomm::Collective;
use geographer_planner::MeshView;

fn main() {
    let n = scaled(20_000);
    let k = 8;
    let mesh = delaunay_unit_square(n, 17);
    let recipe = PlanRecipe::flat("pipeline", Tool::Geographer, k, Config::default());
    let model = CostModel::default();

    let mut runs = String::new();
    for (i, p) in [1usize, 2, 4, 8].into_iter().enumerate() {
        let run = solve_plan_view(MeshView::from(&mesh), &recipe, p, None);
        let comm = run.plan.comm;
        let modeled = model.modeled_seconds(run.wall_seconds, p, &comm);
        let mut per_op = String::new();
        for (j, kind) in Collective::ALL.into_iter().enumerate() {
            let op = comm.op(kind);
            let _ = write!(
                per_op,
                "{}\"{}\": {{\"ops\": {}, \"rounds\": {}, \"bytes\": {}}}",
                if j > 0 { ", " } else { "" },
                kind.name(),
                op.ops,
                op.rounds,
                op.bytes
            );
        }
        let _ = write!(
            runs,
            "{}    {{\"p\": {}, \"k\": {}, \"wall_serialized_s\": {:.4}, \
             \"wall_max_rank_s\": {:.4}, \"ns_per_point\": {:.1}, \
             \"modeled_parallel_s\": {:.6}, \"rounds\": {}, \"bytes_per_rank\": {}, \
             \"per_op\": {{{}}}}}",
            if i > 0 { ",\n" } else { "" },
            p,
            k,
            run.wall_seconds,
            run.wall_max_rank_s,
            geographer_bench::harness::ns_per_point(run.wall_max_rank_s, n),
            modeled,
            comm.rounds(),
            comm.bytes_per_rank(),
            per_op
        );
        eprintln!(
            "p={p}: wall(serialized)={:.3}s max-rank={:.3}s modeled={:.4}s rounds={} bytes/rank={}",
            run.wall_seconds,
            run.wall_max_rank_s,
            modeled,
            comm.rounds(),
            comm.bytes_per_rank()
        );
    }

    let json = format!(
        "{{\n  \"bench\": \"pipeline\",\n  \"tool\": \"Geographer\",\n  \
         \"mesh\": {{\"kind\": \"delaunay_unit_square\", \"n\": {n}, \"seed\": 17}},\n  \
         \"cost_model\": {{\"alpha_s\": {:.1e}, \"beta_s_per_byte\": {:.1e}}},\n  \
         \"runs\": [\n{runs}\n  ]\n}}\n",
        model.alpha, model.beta
    );
    let path = write_bench_json("pipeline", false, &json);
    println!("{json}");
    println!("wrote {path}");
}
