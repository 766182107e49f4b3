//! Live-byte budget of the cold bootstrap, read off a counting global
//! allocator rather than RSS: what the allocator hands out is what the
//! code holds, independent of how glibc maps, trims or keeps it.
//!
//! A cold p = 1 `partition_spmd` at n = 20k (uniform points, k = 16,
//! default config) must peak at no more than `COLD_P1` live bytes per
//! point, under half of what the record-carrying bootstrap peaked at
//! (`RECORD_PATH_COLD`: 40-byte records in input order, a sorted copy of
//! them, both pair buffers, and the sorted copy held through k-means). At
//! p = 1 no record is built at all, so no allocation of the solve is as
//! large as one 40-byte record per point. A warm step of the same
//! instance peaks exactly at `WARM_STEP`.
//!
//! At p = 2 the solve runs on forked ranks (n = 40k, k = 16): each child
//! is single-threaded, so its copy of the counters is exact for its rank
//! and repeats run to run. While every point became a record and the
//! received records were merged, rebalanced and unpacked, a rank peaked in
//! the exchange (`RECORD_MERGE_P2`). Now a rank peaks at `SHARD_P2`, still
//! in the exchange but no longer in k-means, and no block is as large as
//! one 40-byte record per local point (the merged record array).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Mutex;

use geographer::{partition_spmd, Config, PipelineResult};
use geographer_geometry::Point;
use geographer_mesh::density::sample_by_density;
use geographer_parcomm::{run_spmd_proc, Comm, SelfComm};

/// Peak live bytes above the caller's, per point, of the cold solve
/// while the bootstrap still carried records.
const RECORD_PATH_COLD: usize = 117;
/// The same since no record is built at p = 1: 85 while k-means held a
/// sample permutation, 77 once it keyed its sample by the points, 57 once
/// a movement round copied no coordinate and no weight, and 56 since the
/// members and the buckets not merged yet share one array — k-means holds
/// 20 bytes per point (`assignment`, `ub`, `lb`), a `u32` per sample point
/// in `ids` (the members, then the buckets not merged yet) and one per
/// point of the largest bucket in `spare`, next to the pipeline's 32.
const COLD_P1: usize = 56;
/// Peak live bytes above the caller's, per point, of one warm step after
/// that cold solve: 68 with or without records, while the round copied
/// coordinate lanes (16 bytes per point); 52 since it reads the points
/// in place.
const WARM_STEP: usize = 52;
/// Peak live bytes above a forked rank's level at entry, per local point,
/// of the cold p = 2 solve while the exchange built a record for every
/// point and merged them into a record array.
const RECORD_MERGE_P2: usize = 110;
/// The same since the merge writes the solve's arrays, and k-means keys
/// its sample by the points: 89 while it held a per-rank permutation and
/// the sample's id lists. 84 is set in the exchange, by the wire encoding
/// of the records `dsort::exchange_sorted` sends (`ProcComm::sendrecv`).
/// A rank holds 36 through k-means — sorted points 16, weights 8, `u64`
/// origins 8 and the result 4 — where p = 1 holds 32 with `u32` origins.
/// k-means adds 20, and the sample's `ids` and `spare` (a `u32` per sample
/// point and per point of its largest bucket), about 60 in all; while its
/// round copied coordinates and weights it added 45, within a few bytes of
/// the exchange.
const SHARD_P2: usize = 84;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static LARGEST: AtomicUsize = AtomicUsize::new(0);

/// `System`, counting live bytes, their peak and the largest block.
struct Counting;

fn grew(size: usize) {
    let live = LIVE.fetch_add(size, Relaxed) + size;
    PEAK.fetch_max(live, Relaxed);
    LARGEST.fetch_max(size, Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's pointer and
// layout unchanged, so `System`'s guarantees are this allocator's; the
// counters are bookkeeping beside it and never touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // this layout.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System` with this layout; the caller
        // upholds the rest of `GlobalAlloc::realloc`'s contract.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            // Old and new block counted live together: a copying realloc
            // holds both.
            grew(new_size);
            LIVE.fetch_sub(layout.size(), Relaxed);
        }
        moved
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The harness runs tests on parallel threads; the counters are global.
static SERIAL: Mutex<()> = Mutex::new(());

/// `f`'s result, its peak live bytes above the live bytes at entry, and
/// its largest single allocation.
fn measure<R>(f: impl FnOnce() -> R) -> (R, usize, usize) {
    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    LARGEST.store(0, Relaxed);
    let out = f();
    (out, PEAK.load(Relaxed) - base, LARGEST.load(Relaxed))
}

const N: usize = 20_000;
const K: usize = 16;

fn solve(
    points: &[Point<2>],
    weights: &[f64],
    warm_from: Option<&PipelineResult<2>>,
) -> PipelineResult<2> {
    let prev = warm_from.map(PipelineResult::previous);
    partition_spmd(&SelfComm, points, weights, K, prev.as_ref(), &Config::default())
}

#[test]
fn cold_bootstrap_holds_a_quarter_less_and_builds_no_record() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let points = sample_by_density(N, 2018, |_| 1.0);
    let weights = vec![1.0; N];
    let _ = solve(&points, &weights, None);
    let (_, peak, largest) = measure(|| solve(&points, &weights, None));
    let per_point = peak / N;
    println!("cold: {per_point} live bytes per point at peak, largest block {largest}");
    assert!(
        per_point <= COLD_P1,
        "cold p = 1 solve peaks at {per_point} B/point, above {COLD_P1} \
         (the record path peaked at {RECORD_PATH_COLD})"
    );
    // A record is 40 bytes (key, id, two coordinates, weight): no array
    // of them may exist at p = 1.
    assert!(largest < 40 * N, "a {largest}-byte block: records were built at p = 1");
}

#[test]
fn warm_step_peak_is_unchanged() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let points = sample_by_density(N, 2018, |_| 1.0);
    let weights = vec![1.0; N];
    let cold = solve(&points, &weights, None);
    let drifted: Vec<Point<2>> =
        points.iter().map(|q| Point::new([q[0] + 0.01 * q[1], q[1] - 0.005])).collect();
    let (_, peak, _) = measure(|| solve(&drifted, &weights, Some(&cold)));
    let per_point = peak / N;
    println!("warm: {per_point} live bytes per point at peak");
    assert_eq!(per_point, WARM_STEP, "a warm step's peak moved");
}

#[test]
fn cold_p2_ranks_peak_in_the_exchange_and_merge_no_record_array() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let n = 2 * N;
    let points = sample_by_density(n, 2018, |_| 1.0);
    let weights = vec![1.0; n];
    let ranks = run_spmd_proc(2, |c| {
        let mine = c.rank() * N..(c.rank() + 1) * N;
        let (points, weights) = (&points[mine.clone()], &weights[mine]);
        let solve = || partition_spmd(&c, points, weights, K, None, &Config::default());
        let _ = solve();
        let (_, peak, largest) = measure(solve);
        (peak as u64, largest as u64)
    })
    .expect("forked ranks run the solve");
    for (r, &(peak, largest)) in ranks.iter().enumerate() {
        let per_point = peak as usize / N;
        println!("p = 2, rank {r}: {per_point} live bytes per local point, largest block {largest}");
        assert!(
            per_point <= SHARD_P2,
            "rank {r} peaks at {per_point} B/point: above the exchange's {SHARD_P2} \
             (the record merge peaked at {RECORD_MERGE_P2})"
        );
        assert!((largest as usize) < 40 * N, "rank {r}: a {largest}-byte block, a record array");
    }
}
