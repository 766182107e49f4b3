//! Microbenchmark: one shared-memory partitioning run per tool on the same
//! input (the single-rank cost baseline of Fig. 4), and the refinement
//! kernels on the repo benchmark's `hier_refine_p2` mesh (group `refine`:
//! one fine-level coarsening step into reused buffers, one flat V-cycle,
//! the stacked hierarchical refinement).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use geographer::{Config, HierarchySpec};
use geographer_geometry::{Point, SplitMix64};
use geographer_graph::coarsen::{CoarsenScratch, LevelView, WeightedCsrGraph};
use geographer_mesh::families::bubbles_like;
use geographer_parcomm::SelfComm;
use geographer_planner::{refine_hierarchy_multilevel, MeshView, PlanSpec, Planner, Tool};
use geographer_refine::{refine_multilevel, MultilevelConfig};

fn bench_partitioners(c: &mut Criterion) {
    let mut rng = SplitMix64::new(4);
    let n = 50_000;
    let pts: Vec<Point<2>> =
        (0..n).map(|_| Point::new([rng.next_f64(), rng.next_f64()])).collect();
    let weights = vec![1.0; n];
    let k = 16;

    let mut g = c.benchmark_group("partition_50k_k16");
    g.sample_size(10);
    g.throughput(Throughput::Elements(n as u64));
    let view = MeshView { points: &pts, weights: &weights, graph: None };
    for tool in Tool::ALL {
        let spec = PlanSpec::flat(view, tool, k, Config::default());
        g.bench_function(tool.name(), |b| b.iter(|| Planner::solve(&spec, None, &SelfComm)));
    }
    g.finish();
}

fn bench_refine(c: &mut Criterion) {
    let n = 30_000;
    let mesh = bubbles_like(n, 2018);
    let spec = HierarchySpec::uniform(&[4, 4]);
    let cfg = Config { sampling_init: false, ..Config::default() };
    let solved = geographer::partition_hierarchical_spmd(
        &SelfComm,
        &mesh.points,
        &mesh.weights,
        &spec,
        None,
        &cfg,
    )
    .assignment;
    let nodes: Vec<u32> = solved.iter().map(|b| b / 4).collect();
    let fine = LevelView::unit(&mesh.graph, &mesh.weights);
    let (mut scratch, mut coarse, mut coarse_of_fine) =
        (CoarsenScratch::default(), WeightedCsrGraph::default(), Vec::new());
    let ml = MultilevelConfig::default();

    let mut g = c.benchmark_group("refine_30k");
    g.sample_size(20);
    g.throughput(Throughput::Elements(n as u64));
    g.bench_function("coarsen", |b| {
        b.iter(|| scratch.coarsen(fine, Some(&nodes), &mut coarse, &mut coarse_of_fine))
    });
    g.bench_function("vcycle_k4", |b| {
        b.iter(|| refine_multilevel(&mesh.graph, &mut nodes.clone(), &mesh.weights, 4, &ml))
    });
    g.bench_function("stacked_4x4", |b| {
        b.iter(|| {
            let mut asg = solved.clone();
            refine_hierarchy_multilevel(&SelfComm, &mesh.graph, &mut asg, &mesh.weights, &spec, &ml)
        })
    });
    g.finish();
}

criterion_group!(benches, bench_partitioners, bench_refine);
criterion_main!(benches);
