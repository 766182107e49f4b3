//! Multilevel-refinement benchmark: the single-level FM-style boundary
//! pass vs the coarsen→refine→project V-cycle, at equal ε, on the
//! clustered-bubbles and Delaunay mesh families, emitting
//! `BENCH_multilevel.json` in the current directory. The committed copy is
//! the repository's refinement baseline: cuts, moves, and level counts are
//! deterministic; wall-clock fields are machine-dependent context, not a
//! regression gate.
//!
//! The question the benchmark answers is the ISSUE 5 acceptance one: does
//! the V-cycle reach a strictly lower edge cut than one flat boundary
//! sweep from the *same* starting partition, at comparable wall time? Both
//! refiners start from the identical tool output (the tools are
//! deterministic with sampling off), so the comparison isolates the
//! refinement algorithm.
//!
//! ```console
//! $ cargo run --release -p geographer_bench --bin bench_multilevel
//! $ cargo run --release -p geographer_bench --bin bench_multilevel -- --smoke
//! ```

use std::fmt::Write as _;

use geographer::Config;
use geographer_bench::{
    scaled, solve_plan_view, write_bench_json, PlanRecipe, TextTable, Tool,
};
use geographer_graph::imbalance;
use geographer_mesh::{families::bubbles_like, delaunay_unit_square, Mesh};
use geographer_planner::{MeshView, RefineMode};
use geographer_refine::{MultilevelConfig, RefineConfig};

struct Row {
    mesh: &'static str,
    tool: &'static str,
    cut_initial: u64,
    single_cut: u64,
    single_moves: usize,
    single_rounds: usize,
    single_wall_s: f64,
    single_solve_wall_s: f64,
    single_solve_max_rank_s: f64,
    multi_cut: u64,
    multi_moves: usize,
    multi_levels: usize,
    multi_wall_s: f64,
    multi_solve_wall_s: f64,
    multi_solve_max_rank_s: f64,
    imbalance_single: f64,
    imbalance_multi: f64,
    levels_json: String,
}

fn bench_one(
    mesh_name: &'static str,
    mesh: &Mesh<2>,
    tool: Tool,
    k: usize,
    cfg: &Config,
    rcfg: &RefineConfig,
) -> Row {
    // Two plans from the same recipe, differing only in the refinement
    // mode. The tools are deterministic (sampling off), so both start from
    // the identical partition — the assert below pins that.
    let base = PlanRecipe::flat("ml", tool, k, cfg.clone());
    let single_run = solve_plan_view(
        MeshView::from(mesh),
        &base.clone().with_refine(RefineMode::Single(rcfg.clone())),
        2,
        None,
    );
    let multi_run = solve_plan_view(
        MeshView::from(mesh),
        &base.with_refine(RefineMode::Multilevel(MultilevelConfig {
            refine: rcfg.clone(),
            ..MultilevelConfig::default()
        })),
        2,
        None,
    );
    let (single, multi) = (single_run.plan, multi_run.plan);

    let sr = single.refine.expect("single refinement report");
    let mr = multi.refine.expect("multilevel refinement summary");
    let ml = multi.multilevel.as_ref().expect("multilevel level reports");
    assert_eq!(sr.cut_before, mr.cut_before, "both refiners start from the same partition");
    let mut levels_json = String::new();
    for (i, l) in ml.levels.iter().enumerate() {
        let _ = write!(
            levels_json,
            "{}{{\"vertices\": {}, \"edges\": {}, \"cut_before\": {}, \"cut_after\": {}, \
             \"moves\": {}, \"rounds\": {}}}",
            if i > 0 { ", " } else { "" },
            l.vertices,
            l.edges,
            l.cut_before,
            l.cut_after,
            l.moves,
            l.rounds
        );
    }
    Row {
        mesh: mesh_name,
        tool: tool.name(),
        cut_initial: sr.cut_before,
        single_cut: sr.cut_after,
        single_moves: sr.moves,
        single_rounds: sr.rounds,
        single_wall_s: single.refine_seconds,
        single_solve_wall_s: single_run.wall_seconds,
        single_solve_max_rank_s: single_run.wall_max_rank_s,
        multi_cut: mr.cut_after,
        multi_moves: mr.moves,
        multi_levels: ml.levels.len(),
        multi_wall_s: multi.refine_seconds,
        multi_solve_wall_s: multi_run.wall_seconds,
        multi_solve_max_rank_s: multi_run.wall_max_rank_s,
        imbalance_single: imbalance(&single.assignment, &mesh.weights, k),
        imbalance_multi: imbalance(&multi.assignment, &mesh.weights, k),
        levels_json,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let n = if smoke { 6_000 } else { scaled(24_000) };
    let k = 16;
    let seed = 55;
    let cfg = Config { sampling_init: false, ..Config::default() };
    let rcfg = RefineConfig::default();

    let meshes: [(&'static str, Mesh<2>); 2] = [
        ("bubbles-like", bubbles_like(n, seed)),
        ("delaunay", delaunay_unit_square(n, seed + 1)),
    ];

    let mut rows: Vec<Row> = Vec::new();
    for (name, mesh) in &meshes {
        for tool in [Tool::Hsfc, Tool::Geographer] {
            rows.push(bench_one(name, mesh, tool, k, &cfg, &rcfg));
        }
    }

    let mut table = TextTable::new(vec![
        "mesh", "tool", "cutInitial", "cutSingle", "cutMultilevel", "gainVsSingle%",
        "levels", "wallSingle", "wallMultilevel", "imbMulti",
    ]);
    for r in &rows {
        table.row(vec![
            r.mesh.to_string(),
            r.tool.to_string(),
            r.cut_initial.to_string(),
            r.single_cut.to_string(),
            r.multi_cut.to_string(),
            format!(
                "{:.2}",
                100.0 * (r.single_cut as f64 - r.multi_cut as f64) / r.single_cut.max(1) as f64
            ),
            r.multi_levels.to_string(),
            format!("{:.1}ms", r.single_wall_s * 1e3),
            format!("{:.1}ms", r.multi_wall_s * 1e3),
            format!("{:.4}", r.imbalance_multi),
        ]);
    }
    eprint!("{}", table.render());

    // The ISSUE 5 acceptance inequality: at equal ε, the V-cycle reaches a
    // strictly lower cut than the single-level pass on both mesh families
    // (HSFC rows — the wrinkled SFC boundaries have the most to recover),
    // with balance intact.
    for r in &rows {
        assert!(
            r.imbalance_multi <= rcfg.epsilon + 1e-9,
            "{}/{}: multilevel imbalance {} above ε",
            r.mesh,
            r.tool,
            r.imbalance_multi
        );
        if r.tool == "HSFC" {
            assert!(
                r.multi_cut < r.single_cut,
                "{}/{}: multilevel cut {} must be strictly below single-level {}",
                r.mesh,
                r.tool,
                r.multi_cut,
                r.single_cut
            );
        }
    }

    let mut rows_json = String::new();
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            rows_json,
            "{}    {{\"mesh\": \"{}\", \"tool\": \"{}\", \"cut_initial\": {}, \
             \"single\": {{\"cut_after\": {}, \"moves\": {}, \"rounds\": {}, \
             \"wall_s\": {:.4}, \"solve_wall_serialized_s\": {:.4}, \
             \"solve_wall_max_rank_s\": {:.4}, \"solve_ns_per_point\": {:.1}, \
             \"imbalance\": {:.5}}},\n     \
             \"multilevel\": {{\"cut_after\": {}, \"moves\": {}, \"levels\": {}, \
             \"wall_s\": {:.4}, \"solve_wall_serialized_s\": {:.4}, \
             \"solve_wall_max_rank_s\": {:.4}, \"solve_ns_per_point\": {:.1}, \
             \"imbalance\": {:.5},\n      \
             \"level_detail\": [{}]}}}}",
            if i > 0 { ",\n" } else { "" },
            r.mesh,
            r.tool,
            r.cut_initial,
            r.single_cut,
            r.single_moves,
            r.single_rounds,
            r.single_wall_s,
            r.single_solve_wall_s,
            r.single_solve_max_rank_s,
            geographer_bench::harness::ns_per_point(r.single_solve_max_rank_s, n),
            r.imbalance_single,
            r.multi_cut,
            r.multi_moves,
            r.multi_levels,
            r.multi_wall_s,
            r.multi_solve_wall_s,
            r.multi_solve_max_rank_s,
            geographer_bench::harness::ns_per_point(r.multi_solve_max_rank_s, n),
            r.imbalance_multi,
            r.levels_json
        );
    }
    let json = format!(
        "{{\n  \"bench\": \"multilevel\",\n  \
         \"meshes\": [\"bubbles_like\", \"delaunay_unit_square\"],\n  \
         \"n\": {n}, \"seed\": {seed}, \"k\": {k}, \"epsilon\": {:.2},\n  \
         \"coarsest_vertices\": {},\n  \
         \"rows\": [\n{rows_json}\n  ]\n}}\n",
        rcfg.epsilon,
        MultilevelConfig::default().coarsest_vertices,
    );
    // Smoke runs (CI) must not clobber the committed full-scale baseline.
    let path = write_bench_json("multilevel", smoke, &json);
    println!("{json}");
    println!("wrote {path}");
}
