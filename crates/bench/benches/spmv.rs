//! Microbenchmark: distributed SpMV with halo exchange on a partitioned
//! Delaunay mesh (the machinery behind the `timeSpMVComm` column).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use geographer::Config;
use geographer_bench::{solve_plan_view, PlanRecipe, Tool};
use geographer_mesh::delaunay_unit_square;
use geographer_parcomm::{run_spmd, SelfComm};
use geographer_planner::MeshView;
use geographer_spmv::spmv_comm_time;

fn bench_spmv(c: &mut Criterion) {
    let mesh = delaunay_unit_square(20_000, 5);
    let k = 8;
    let recipe = PlanRecipe::flat("geo", Tool::Geographer, k, Config::default());
    let out = solve_plan_view(MeshView::from(&mesh), &recipe, 1, None).plan;

    let mut g = c.benchmark_group("spmv_20k_k8");
    g.sample_size(10);
    g.throughput(Throughput::Elements(mesh.n() as u64));
    g.bench_function("single_rank", |b| {
        b.iter(|| spmv_comm_time(&SelfComm, &mesh.graph, &out.assignment, k, 3))
    });
    g.bench_function("4_ranks_halo_exchange", |b| {
        b.iter(|| run_spmd(4, |comm| spmv_comm_time(&comm, &mesh.graph, &out.assignment, k, 3)))
    });
    g.finish();
}

criterion_group!(benches, bench_spmv);
criterion_main!(benches);
