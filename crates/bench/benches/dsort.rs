//! Microbenchmark: the distributed-sort and quantile primitives (single
//! rank; the collective structure is benchmarked by the scaling binaries).

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use geographer_dsort::{sample_sort_by_key, weighted_quantiles_grouped, QuantileGroup};
use geographer_geometry::SplitMix64;
use geographer_parcomm::SelfComm;

fn bench_dsort(c: &mut Criterion) {
    let mut rng = SplitMix64::new(2);
    let keys: Vec<u64> = (0..200_000).map(|_| rng.next_u64()).collect();
    // What the pipeline sorts: (key, id, coords, weight) records under
    // 32-bit Hilbert keys (16 bits/axis), in generator order.
    let records: Vec<(u64, u64, [f64; 2], f64)> = (0..200_000)
        .map(|i| (rng.next_u64() >> 32, i, [rng.next_f64(), rng.next_f64()], 1.0))
        .collect();
    let group = [QuantileGroup {
        values: (0..200_000).map(|_| rng.next_f64()).collect(),
        weights: (0..200_000).map(|_| 1.0 + rng.next_f64()).collect(),
        alphas: (1..16).map(|i| i as f64 / 16.0).collect(),
    }];

    let mut g = c.benchmark_group("dsort");
    g.sample_size(15);
    g.throughput(Throughput::Elements(keys.len() as u64));
    g.bench_function("sample_sort_200k", |b| {
        b.iter(|| sample_sort_by_key(&SelfComm, black_box(keys.clone()), |&x| x))
    });
    g.bench_function("sample_sort_200k_pipeline_records", |b| {
        b.iter(|| sample_sort_by_key(&SelfComm, black_box(records.clone()), |t| t.0))
    });
    g.bench_function("quantiles_200k_x15", |b| {
        b.iter(|| weighted_quantiles_grouped(&SelfComm, black_box(&group)))
    });
    g.finish();
}

criterion_group!(benches, bench_dsort);
criterion_main!(benches);
