//! Integration: the paper's headline comparative claims, at reproduction
//! scale. These are *shape* checks (who wins, roughly by how much), not
//! absolute-number checks — see DESIGN.md's experiment index.

use geographer::Config;
use geographer_bench::{evaluate_run, solve_plan_view, PlanRecipe, PlanRun, Tool};
use geographer_graph::geometric_mean;
use geographer_mesh::families::dimacs2d_suite;
use geographer_mesh::Mesh;
use geographer_planner::MeshView;

/// Default-config recipe of `tool` and its cold run on `mesh` at `p` ranks.
fn run(tool: Tool, mesh: &Mesh<2>, k: usize, p: usize) -> (PlanRecipe, PlanRun<2>) {
    let recipe = PlanRecipe::flat(tool.name(), tool, k, Config::default());
    let run = solve_plan_view(MeshView::from(mesh), &recipe, p, None);
    (recipe, run)
}

/// Sec. 5.3.1 / abstract: "Geographer produces partitions with a lower
/// communication volume than state-of-the-art geometric partitioners" —
/// on average over the 2D class, vs the *best* competitor, with ~15 %
/// advantage on DIMACS meshes. We require the aggregated ratio of the best
/// baseline to Geographer to be ≥ 1.0 (Geographer at least ties) and the
/// mean over all baselines to be clearly above 1.
#[test]
fn geographer_wins_total_comm_volume_on_2d() {
    let k = 16;
    let mut best_ratio = Vec::new();
    let mut all_ratios = Vec::new();
    for inst in dimacs2d_suite(4000, 10) {
        let volume = |tool: Tool| {
            let (recipe, run) = run(tool, &inst.mesh, k, 2);
            evaluate_run(&inst.mesh, &recipe, &run, 2).metrics.total_comm_volume
        };
        let geo_vol = volume(Tool::Geographer) as f64;
        let baselines = [Tool::Hsfc, Tool::MultiJagged, Tool::Rcb, Tool::Rib].map(volume);
        let best = *baselines.iter().min().unwrap() as f64;
        best_ratio.push(best / geo_vol);
        for b in &baselines {
            all_ratios.push(*b as f64 / geo_vol);
        }
    }
    let gm_best = geometric_mean(&best_ratio);
    let gm_all = geometric_mean(&all_ratios);
    // Geographer must at least tie the best competitor on average...
    assert!(
        gm_best >= 0.97,
        "best-competitor/Geographer totCommVol ratio {gm_best:.3} — Geographer lost the class"
    );
    // ...and clearly beat the field as a whole.
    assert!(
        gm_all >= 1.05,
        "field/Geographer totCommVol ratio {gm_all:.3} — advantage not visible"
    );
}

/// Sec. 5.2.5: "the maximum imbalance ε to 3 %, which was respected by all
/// tools."
#[test]
fn every_tool_respects_epsilon_everywhere() {
    let k = 8;
    for inst in dimacs2d_suite(2500, 11) {
        for tool in Tool::ALL {
            let plan = run(tool, &inst.mesh, k, 2).1.plan;
            let mut w = vec![0.0f64; k];
            for (&b, &wi) in plan.assignment.iter().zip(&inst.mesh.weights) {
                w[b as usize] += wi;
            }
            let total: f64 = w.iter().sum();
            let imb = w.iter().cloned().fold(0.0, f64::max) / (total / k as f64) - 1.0;
            assert!(
                imb <= 0.03 + 1e-6,
                "{} on {}: imbalance {imb}",
                tool.name(),
                inst.name
            );
        }
    }
}

/// Fig. 3's structural cause: the recursive methods need far more
/// collective rounds than MultiJagged/HSFC/Geographer at the same k, which
/// is what makes them scale poorly.
#[test]
fn recursive_methods_use_more_collectives() {
    let inst = &dimacs2d_suite(3000, 12)[4]; // delaunay
    let k = 32;
    let collectives = |tool: Tool| run(tool, &inst.mesh, k, 4).1.plan.comm.collectives();
    let rcb = collectives(Tool::Rcb);
    let rib = collectives(Tool::Rib);
    let mj = collectives(Tool::MultiJagged);
    let hsfc = collectives(Tool::Hsfc);
    assert!(
        rcb > 2 * mj,
        "RCB ({rcb}) should need well over 2× MJ's collectives ({mj}) at k=32"
    );
    assert!(rib >= rcb, "RIB ({rib}) is RCB plus covariance rounds ({rcb})");
    assert!(hsfc < mj, "HSFC ({hsfc}) is the cheapest structure (MJ {mj})");
}

/// Sec. 4.3: the Hamerly bound skips the inner loop for the (large)
/// majority of points ("about 80 % of the cases").
#[test]
fn hamerly_skip_rate_majority() {
    let inst = &dimacs2d_suite(4000, 13)[4];
    let cfg = Config { sampling_init: false, ..Config::default() };
    let recipe = PlanRecipe::flat("geo", Tool::Geographer, 16, cfg);
    let plan = solve_plan_view(MeshView::from(&inst.mesh), &recipe, 1, None).plan;
    let stats = plan.stats.expect("Geographer plans carry solver counters");
    assert!(
        stats.skip_rate() > 0.5,
        "skip rate {:.2} — bounds ineffective",
        stats.skip_rate()
    );
}
