//! Microbenchmark: balanced k-means assignment work, with and without the
//! geometric optimizations (the per-iteration cost behind Table 1's
//! `time` column and the Sec. 4.3 skip-rate claim).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use geographer::{balanced_kmeans, partition_spmd, Config};
use geographer_bench::FOUR_BUBBLES;
use geographer_geometry::{Aabb, Point, SplitMix64};
use geographer_mesh::density::{bubbles_density, sample_by_density};
use geographer_parcomm::SelfComm;
use geographer_sfc::HilbertMapper;

fn bench_kmeans(c: &mut Criterion) {
    let mut rng = SplitMix64::new(3);
    let n = 30_000;
    let pts: Vec<Point<2>> =
        (0..n).map(|_| Point::new([rng.next_f64(), rng.next_f64()])).collect();
    let w = vec![1.0; n];
    let k = 16;
    let centers: Vec<Point<2>> =
        (0..k).map(|i| pts[i * n / k + n / (2 * k)]).collect();

    let mut g = c.benchmark_group("balanced_kmeans_30k_k16");
    g.sample_size(10);
    g.throughput(Throughput::Elements(n as u64));
    let base = Config { max_iterations: 10, sampling_init: false, ..Config::default() };
    g.bench_function("optimized", |b| {
        b.iter(|| balanced_kmeans(&SelfComm, &pts, &w, k, centers.clone(), &base))
    });
    let naive = Config { hamerly_bounds: false, bbox_pruning: false, ..base.clone() };
    g.bench_function("naive", |b| {
        b.iter(|| balanced_kmeans(&SelfComm, &pts, &w, k, centers.clone(), &naive))
    });
    g.finish();

    // The regime the pipeline runs the kernel in: points along the Hilbert
    // curve, dense in four bubbles, k = 64 — a block's box is small and
    // its center shortlist a handful of the 64.
    let cloud = sample_by_density(n, 3, bubbles_density(&FOUR_BUBBLES));
    let bb = Aabb::from_points(&cloud).expect("points");
    let order = HilbertMapper::new(bb, 16).order(&cloud);
    let pts: Vec<Point<2>> = order.iter().map(|&i| cloud[i as usize]).collect();
    let k = 64;
    let centers: Vec<Point<2>> = (0..k).map(|i| pts[i * n / k + n / (2 * k)]).collect();

    let mut g = c.benchmark_group("balanced_kmeans_30k_k64_curve_clustered");
    g.sample_size(10);
    g.throughput(Throughput::Elements(n as u64));
    g.bench_function("optimized", |b| {
        b.iter(|| balanced_kmeans(&SelfComm, &pts, &w, k, centers.clone(), &base))
    });
    g.bench_function("naive", |b| {
        b.iter(|| balanced_kmeans(&SelfComm, &pts, &w, k, centers.clone(), &naive))
    });
    g.finish();

    // One warm re-step of the pipeline (n = 50k, k = 16, p = 1): a cold
    // boot, then the drifted points handed back in generator order — the
    // warm arm keys, sorts and gathers them along its local curve — and
    // handed back already in that order (8 bits per axis over the rank's
    // own box, ties in input order), where it finds them ascending and
    // solves them where they are. The gap is the price of the order.
    let n = 50_000;
    let k = 16;
    let w = vec![1.0; n];
    let warm = Config { sampling_init: false, ..Config::default() };
    let cloud = sample_by_density(n, 77, |_| 1.0);
    let prev = partition_spmd(&SelfComm, &cloud, &w, k, None, &warm).previous();
    let drifted: Vec<Point<2>> =
        cloud.iter().map(|p| Point::new([p[0] + 0.01 * p[1], p[1] - 0.005])).collect();
    let bb = Aabb::from_points(&drifted).expect("points");
    let order = HilbertMapper::new(bb, 8).order(&drifted);
    let ordered: Vec<Point<2>> = order.iter().map(|&i| drifted[i as usize]).collect();

    let mut g = c.benchmark_group("warm_step_50k_k16");
    g.sample_size(10);
    g.throughput(Throughput::Elements(n as u64));
    for (name, pts) in [("generator_order", &drifted), ("curve_order", &ordered)] {
        g.bench_function(name, |b| {
            b.iter(|| partition_spmd(&SelfComm, pts, &w, k, Some(&prev), &warm))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_kmeans);
criterion_main!(benches);
