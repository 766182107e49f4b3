//! Micro-benchmarks of the collective algorithms of
//! `geographer_parcomm` on the thread transport: allreduce (recursive
//! doubling), alltoallv (ring, vectors moved) and exscan at several rank
//! counts and buffer sizes.
//!
//! Each iteration spawns one SPMD region and runs `REPS` back-to-back
//! collectives inside it, so the measured time amortizes the thread-spawn
//! cost and is dominated by the collective schedule itself (mailbox
//! hand-offs + payload movement). Throughput is reported as bytes of one
//! rank's payload processed per rep.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use geographer_parcomm::{run_spmd, Comm};

/// Collectives executed per SPMD region (amortizes thread spawn).
const REPS: usize = 32;

fn bench_allreduce(c: &mut Criterion) {
    let mut g = c.benchmark_group("allreduce_sum_f64");
    g.sample_size(10);
    for p in [2usize, 4, 8] {
        for m in [64usize, 4096] {
            g.throughput(Throughput::Bytes((REPS * m * 8) as u64));
            g.bench_function(&format!("p{p}/m{m}"), |b| {
                b.iter(|| {
                    run_spmd(p, |comm| {
                        let mut buf = vec![comm.rank() as f64; m];
                        for _ in 0..REPS {
                            comm.allreduce_sum_f64(&mut buf);
                        }
                        black_box(buf[0])
                    })
                })
            });
        }
    }
    g.finish();
}

fn bench_alltoallv(c: &mut Criterion) {
    let mut g = c.benchmark_group("alltoallv");
    g.sample_size(10);
    for p in [2usize, 4, 8] {
        for m_per_peer in [64usize, 1024] {
            g.throughput(Throughput::Bytes((REPS * p * m_per_peer * 8) as u64));
            g.bench_function(&format!("p{p}/m{m_per_peer}"), |b| {
                b.iter(|| {
                    run_spmd(p, |comm| {
                        let mut total = 0usize;
                        for _ in 0..REPS {
                            let sends: Vec<Vec<u64>> = (0..p)
                                .map(|d| vec![d as u64; m_per_peer])
                                .collect();
                            let recv = comm.alltoallv(sends);
                            total += recv.iter().map(Vec::len).sum::<usize>();
                        }
                        black_box(total)
                    })
                })
            });
        }
    }
    g.finish();
}

fn bench_exscan(c: &mut Criterion) {
    let mut g = c.benchmark_group("exscan_sum_u64");
    g.sample_size(10);
    for p in [2usize, 4, 8] {
        g.throughput(Throughput::Elements(REPS as u64));
        g.bench_function(&format!("p{p}"), |b| {
            b.iter(|| {
                run_spmd(p, |comm| {
                    let mut acc = 0u64;
                    for i in 0..REPS as u64 {
                        acc = acc.wrapping_add(comm.exscan_sum_u64(i + comm.rank() as u64));
                    }
                    black_box(acc)
                })
            })
        });
    }
    g.finish();
}

criterion_group!(collectives, bench_allreduce, bench_alltoallv, bench_exscan);
criterion_main!(collectives);
