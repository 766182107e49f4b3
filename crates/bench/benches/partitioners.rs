//! Microbenchmark: one shared-memory partitioning run per tool on the same
//! input (the single-rank cost baseline of Fig. 4).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use geographer::Config;
use geographer_baselines::{partition_shared, Baseline};
use geographer_geometry::{Point, SplitMix64, WeightedPoints};
use geographer_parcomm::SelfComm;

fn bench_partitioners(c: &mut Criterion) {
    let mut rng = SplitMix64::new(4);
    let n = 50_000;
    let pts: Vec<Point<2>> =
        (0..n).map(|_| Point::new([rng.next_f64(), rng.next_f64()])).collect();
    let wp = WeightedPoints::unweighted(pts);
    let k = 16;

    let mut g = c.benchmark_group("partition_50k_k16");
    g.sample_size(10);
    g.throughput(Throughput::Elements(n as u64));
    for algo in Baseline::ALL {
        g.bench_function(algo.name(), |b| b.iter(|| partition_shared(algo, &wp, k)));
    }
    g.bench_function("Geographer", |b| {
        b.iter(|| {
            geographer::partition_spmd(&SelfComm, &wp.points, &wp.weights, k, None, &Config::default())
        })
    });
    g.finish();
}

criterion_group!(benches, bench_partitioners);
criterion_main!(benches);
