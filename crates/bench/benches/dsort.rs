//! Microbenchmark: the distributed-sort and quantile primitives (single
//! rank; the collective structure is benchmarked by the scaling binaries).

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use geographer_dsort::{
    sample_sort_by_key, stable_order, weighted_quantiles_grouped, QuantileGroup,
};
use geographer_geometry::{Aabb, Point, SplitMix64};
use geographer_parcomm::SelfComm;
use geographer_sfc::HilbertMapper;

/// `(key, id, coords, weight)`: the record the pipeline ships at p > 1.
type Record = (u64, u64, [f64; 2], f64);

fn bench_dsort(c: &mut Criterion) {
    let mut rng = SplitMix64::new(2);
    let keys: Vec<u64> = (0..200_000).map(|_| rng.next_u64()).collect();
    // What the pipeline sorts: (key, id, coords, weight) records under
    // 32-bit Hilbert keys (16 bits/axis), in generator order.
    let records: Vec<Record> = (0..200_000)
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

/// The cold bootstrap at p = 1, keys to k-means-ready arrays, both ways:
/// a 40-byte record per point in input order, sorted, unpacked and kept
/// (the record path), against `(key, index)` pairs sorted in one buffer
/// and a gather through the permutation (the pair path).
fn bench_pipeline_cold(c: &mut Criterion) {
    let n = 200_000;
    let mut rng = SplitMix64::new(5);
    let points: Vec<Point<2>> =
        (0..n).map(|_| Point::new([rng.next_f64(), rng.next_f64()])).collect();
    let weights = vec![1.0; n];
    let mapper = HilbertMapper::new(Aabb::from_points(&points).expect("points"), 16);

    let mut g = c.benchmark_group("pipeline_cold_200k");
    g.sample_size(15);
    g.throughput(Throughput::Elements(n as u64));
    g.bench_function("records", |b| {
        b.iter(|| {
            let records: Vec<Record> = points
                .iter()
                .zip(&weights)
                .enumerate()
                .map(|(i, (p, &w))| (mapper.key_of(p), i as u64, *p.coords(), w))
                .collect();
            let sorted = sample_sort_by_key(&SelfComm, records, |t| t.0);
            let pts: Vec<Point<2>> = sorted.iter().map(|t| Point::new(t.2)).collect();
            let wts: Vec<f64> = sorted.iter().map(|t| t.3).collect();
            black_box((pts, wts, sorted))
        })
    });
    g.bench_function("pairs", |b| {
        b.iter(|| {
            let mut ids: Vec<u32> = Vec::with_capacity(n);
            let mut pairs = Vec::with_capacity(2 * n);
            pairs.extend(points.iter().zip(0..).map(|(p, i)| (mapper.key_of(p), i)));
            stable_order(&mut pairs);
            ids.extend(pairs.iter().map(|&(_, i)| i));
            drop(pairs);
            let pts: Vec<Point<2>> = ids.iter().map(|&i| points[i as usize]).collect();
            let wts: Vec<f64> = ids.iter().map(|&i| weights[i as usize]).collect();
            black_box((pts, wts, ids))
        })
    });
    g.finish();
}

criterion_group!(benches, bench_dsort, bench_pipeline_cold);
criterion_main!(benches);
