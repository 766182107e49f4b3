//! The full Geographer pipeline (Algorithm 2 including its bootstrap):
//!
//! 1. compute Hilbert indices of all points (over the global bounding box);
//! 2. globally sort and redistribute the points by Hilbert index, so every
//!    rank owns a spatially coherent, equally sized shard — the sort runs
//!    on `(key, index)` pairs, and a point travels as a record only where
//!    it crosses a wire (p > 1);
//! 3. place the k initial centers at equal distances along the sorted
//!    order (`C[i] = sortedPoints[i·n/k + n/2k]`);
//! 4. run balanced k-means;
//! 5. route the block assignments back to the original owners (evaluation
//!    convenience; not part of the paper's timed pipeline) — a rank's own
//!    points are written in place, only the others travel.
//!
//! Handed the previous solve's [`PreviousPartition`], the same call is the
//! paper's reuse argument made executable: a time-stepped simulation whose
//! points drift between steps feeds the previous centers and influence
//! values back in and converges in a few warm iterations — with most
//! points keeping their block, so little data migrates (DESIGN.md §5;
//! `geographer_graph`'s migration metrics measure the stability gain).
//! That arm has no global sort, no redistribution, no center placement and
//! no write-back: of steps 1–3 it keeps a *local* order — each rank sorts
//! its own points along a coarse curve over its own bounding box, without
//! a collective — because step 4's kernel prunes by the bounding boxes of
//! consecutive points on either arm.
//!
//! Per-phase wall-clock and communication counters are recorded — the
//! "Components" breakdown of Sec. 5.3.2 reads them directly.

use geographer_dsort::{exchange_sorted, global_bbox, stable_order, Share};
use geographer_geometry::{Aabb, Point, Stopwatch};
use geographer_parcomm::{Comm, CommStats};
use geographer_sfc::HilbertMapper;

use crate::config::{validate_k, Config};
use crate::kmeans::{balanced_kmeans, balanced_kmeans_warm, KMeansStats};
use crate::repartition::PreviousPartition;

/// Bits per axis of the bootstrap Hilbert curve.
const PIPELINE_SFC_BITS: u32 = 16;

/// Wall-clock seconds of each pipeline phase on this rank's clock. Each
/// phase starts on all ranks together, but a rank that ends its local tail
/// early stops its clock early, so these are not the maximum across ranks:
/// a caller takes that itself (`zip_with(other, f64::max)`).
#[derive(Debug, Clone, Copy, Default)]
pub struct PipelineTimings {
    /// Hilbert index computation; on the warm arm, the rank-local curve
    /// order (key, sort, gather, scatter back).
    pub sfc_index: f64,
    /// Global sort + redistribution.
    pub redistribute: f64,
    /// Balanced k-means iterations.
    pub kmeans: f64,
    /// Routing assignments back to the original distribution (evaluation
    /// only; excluded from `total`).
    pub writeback: f64,
}

impl PipelineTimings {
    /// The paper-comparable total: index + redistribute + k-means.
    pub fn total(&self) -> f64 {
        self.sfc_index + self.redistribute + self.kmeans
    }

    /// Phase by phase, `f(self, other)`: a sum over node solves, a rank maximum.
    pub fn zip_with(self, other: Self, f: impl Fn(f64, f64) -> f64) -> Self {
        PipelineTimings {
            sfc_index: f(self.sfc_index, other.sfc_index),
            redistribute: f(self.redistribute, other.redistribute),
            kmeans: f(self.kmeans, other.kmeans),
            writeback: f(self.writeback, other.writeback),
        }
    }
}

/// Per-collective communication counters of each pipeline phase, as this
/// rank's view (its own snapshots diffed around the phase boundaries;
/// bytes are what this rank received). The Components breakdown
/// of Sec. 5.3.2 reads these next to the wall-clock timings: the
/// redistribution phase is volume-dominated (one alltoallv moving the
/// points), while the k-means phase is round-dominated (one short
/// allreduce per balance iteration).
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseComm {
    /// Hilbert index phase (bounding box, id offsets).
    pub sfc_index: CommStats,
    /// Global sort + redistribution.
    pub redistribute: CommStats,
    /// Balanced k-means iterations.
    pub kmeans: CommStats,
    /// Assignment write-back (evaluation only).
    pub writeback: CommStats,
}

/// Result of a pipeline run on one rank.
#[derive(Debug, Clone)]
pub struct PipelineResult<const D: usize> {
    /// Block id of every *input-local* point, in input order.
    pub assignment: Vec<u32>,
    /// Final cluster centers (replicated across ranks).
    pub centers: Vec<Point<D>>,
    /// Final influence values (replicated across ranks). Together with
    /// `centers` this is the reusable state a later [`partition_spmd`]
    /// warm-starts from.
    pub influence: Vec<f64>,
    /// Per-phase timings.
    pub timings: PipelineTimings,
    /// k-means work counters for this rank.
    pub stats: KMeansStats,
    /// This rank's view of the communication counters, by pipeline phase.
    pub phase_comm: PhaseComm,
}

impl<const D: usize> PipelineResult<D> {
    /// Snapshot the reusable solver state for a later warm-started
    /// [`partition_spmd`] call (DESIGN.md §5).
    pub fn previous(&self) -> PreviousPartition<D> {
        PreviousPartition { centers: self.centers.clone(), influence: self.influence.clone() }
    }
}

/// A point crossing the wire in the exchange at p > 1: its Hilbert key,
/// original global id, coordinates and weight (40 bytes at D = 2, encoded
/// in that order). Made only for a point bound to another rank, straight
/// into the run for that rank; p = 1 never makes one.
type Tagged<const D: usize> = (u64, u64, [f64; D], f64);

/// A phase boundary: the seconds `clock` ran for the phase that ended and
/// this rank's counters; `clock` restarts for the next phase. A rank
/// reads only its own counters, so the snapshot needs no
/// synchronization. The one barrier after it aligns the ranks' phase
/// timers: every rank has finished the previous phase, and none starts
/// the next before all have arrived. No phase time counts the barrier,
/// and neither does `CommStats`, which has no barrier kind: only
/// `CheckedComm` sees it.
fn phase_boundary<C: Comm>(comm: &C, clock: &mut Stopwatch) -> (f64, CommStats) {
    let ended = clock.lap();
    let s = comm.stats();
    comm.barrier();
    *clock = Stopwatch::start();
    (ended, s)
}

/// Run the Geographer pipeline SPMD. `points`/`weights` are this rank's
/// shard; the returned assignment is aligned with them.
///
/// With `prev = None` this is the cold solve: all five steps of the
/// module docs. Its sort and redistribution (phase 2) sorts `(key, local
/// index)` pairs; at p = 1 that sort *is* the redistribution and the
/// points and weights are gathered through it, so no record is ever
/// built. At p > 1 a point becomes a 40-byte record only if it is bound
/// for another rank, and one merge of the rank's own pairs with the
/// records it received writes every point straight into exact-size arrays
/// of its n/p share, or into the boundary exchange with the rank that
/// owns it. Through k-means a rank then holds its sorted points and
/// weights and one origin per point (a `u32` input index at p = 1, a
/// `u64` global id at p > 1). The write-back
/// (phase 4) stores the blocks of the rank's own input points in place
/// and sends only the others: at p = 1 it is one scatter.
///
/// With `prev = Some(state)` it is the warm solve of a
/// (typically drifted) point set — the same balanced k-means started from
/// the previous centers and influences instead of from the curve:
///
/// * **No global sort, no redistribution — a local order.** The previous
///   centers already encode a good spatial decomposition, so no point
///   leaves its rank and nothing is routed back: `redistribute` and
///   `writeback` report zero time, and neither they nor `sfc_index` any
///   communication. What k-means still needs is *consecutive points that
///   are neighbours* (its kernel prunes centers by the bounding box of
///   each 256-point block), so every rank sorts its own points along a
///   coarse Hilbert curve over its own bounding box (16 key bits in all,
///   ties in input order; an input that already ascends is solved where
///   it is), solves, and scatters the blocks back to input order. That
///   key, sort, gather and scatter are what `sfc_index` times on this arm.
/// * **No sampling initialization.** `cfg.sampling_init` is forced off:
///   its only purpose is to cheapen the cold start, and a sample's
///   centroids are not the full set's, so its rounds would move the
///   centers even on an unchanged input, which would then not be a fixed
///   point (the unchanged-input ⇒ zero-migration contract).
///
/// All ranks must call this collectively with identical `k`, `prev`, and
/// `cfg`.
///
/// # Panics
/// With the [`crate::ConfigError`] text if `k` is zero or exceeds the
/// global point count ([`validate_k`]) or `cfg` is invalid for `k`; on
/// inconsistent input lengths; or if `prev` does not carry `k` centers and
/// positive influences (k-means checks both, as [`balanced_kmeans_warm`]).
pub fn partition_spmd<const D: usize, C: Comm>(
    comm: &C,
    points: &[Point<D>],
    weights: &[f64],
    k: usize,
    prev: Option<&PreviousPartition<D>>,
    cfg: &Config,
) -> PipelineResult<D> {
    assert_eq!(points.len(), weights.len());
    let local_n = points.len() as u64;
    // Taken before the first collective so the counters cover the whole
    // call, the global-n allreduce included.
    let mut clock = Stopwatch::start();
    let (_, comm_before) = phase_boundary(comm, &mut clock);

    match prev {
        None => {
            // Phase 1: Hilbert keys, as (key, local index) pairs — no
            // record is built here, and at p = 1 none is built at all.
            let bb = global_bbox(comm, points);
            let mapper = HilbertMapper::new(bb, PIPELINE_SFC_BITS);
            let id_offset = comm.exscan_sum_u64(local_n);
            let global_n = comm.allreduce(local_n, |a, b| a + b);
            validate_k(k, global_n).unwrap_or_else(|e| panic!("{e}"));
            // What outlives the sort is allocated before the pair buffer —
            // first all the result keeps, then at p = 1 the permutation —
            // so the buffer is the last block on the heap and what is
            // gathered once it is freed takes its place. A warm step
            // allocates in the same order and so peaks where this solve
            // did, and the small vectors a caller keeps sit below every
            // buffer freed after them, where they pin nothing. At p > 1
            // the exchange makes the sorted arrays once it has freed the
            // pairs it sent and the wire's buffers (DESIGN.md §9).
            let mut kept_centers = Vec::with_capacity(k);
            let mut kept_influence = Vec::with_capacity(k);
            let mut assignment = vec![u32::MAX; points.len()];
            let mut ids = Vec::with_capacity(if comm.size() == 1 { points.len() } else { 0 });
            let mut order = curve_pairs(&mapper, points);
            let (sfc_index, comm_after_index) = phase_boundary(comm, &mut clock);

            // Phase 2: global sort by key, to exactly n/p per rank. At
            // p = 1 it is the local sort, so the points are gathered
            // straight through it; at p > 1 records exist only to cross
            // the wire, and one merge writes every point into the shard.
            stable_order(&mut order);
            let (sorted_points, sorted_weights, origins) = if comm.size() == 1 {
                fill_permutation(&mut ids, order);
                (gather(points, &ids), gather(weights, &ids), Origins::Local(ids))
            } else {
                let record = |&(key, i): &(u64, u32)| {
                    let i = i as usize;
                    (key, id_offset + i as u64, *points[i].coords(), weights[i])
                };
                let shard = exchange_sorted(comm, order, global_n, record, |t| t.0, Shard::new);
                (shard.points, shard.weights, Origins::Global(shard.ids))
            };
            let (redistribute, comm_after_redistribute) = phase_boundary(comm, &mut clock);

            // Phase 3: initial centers along the curve, then balanced k-means.
            let centers = initial_centers_from_sorted(comm, &sorted_points, k, global_n);
            let out = balanced_kmeans(comm, &sorted_points, &sorted_weights, k, centers, cfg);
            let (kmeans, comm_after) = phase_boundary(comm, &mut clock);

            // Phase 4 (untimed in the paper): route assignments back to the
            // original owners so callers see blocks in input order.
            let blocks = &out.assignment;
            match &origins {
                Origins::Local(ids) => route_back(comm, ids, blocks, id_offset, &mut assignment),
                Origins::Global(ids) => route_back(comm, ids, blocks, id_offset, &mut assignment),
            }
            let (writeback, comm_after_writeback) = phase_boundary(comm, &mut clock);

            kept_centers.extend_from_slice(&out.centers);
            kept_influence.extend_from_slice(&out.influence);
            PipelineResult {
                assignment,
                centers: kept_centers,
                influence: kept_influence,
                timings: PipelineTimings { sfc_index, redistribute, kmeans, writeback },
                stats: out.stats,
                phase_comm: PhaseComm {
                    sfc_index: comm_after_index.since(&comm_before),
                    redistribute: comm_after_redistribute.since(&comm_after_index),
                    kmeans: comm_after.since(&comm_after_redistribute),
                    writeback: comm_after_writeback.since(&comm_after),
                },
            }
        }
        Some(prev) => {
            // Phase 3 alone, on the rank the caller has the points on;
            // k-means checks `k`, `prev` and `cfg`.
            let warm_cfg = Config { sampling_init: false, ..cfg.clone() };
            // k-means sees curve-ordered points on this arm too: the
            // kernel's block boxes prune only when consecutive points are
            // neighbours. The order is this rank's own — a coarse curve
            // over its own box — so no point and no key leaves the rank.
            // The allocation order is the cold arm's at p = 1: the result,
            // the permutation, the pair buffer, and — the buffer freed —
            // the gathers. The two arms then peak at the same heap extent,
            // so a warm chain after a cold boot finds its pages mapped.
            let mut assignment = vec![0; points.len()];
            let order = local_curve_order(points);
            let sorted = order.as_ref().map(|ids| (gather(points, ids), gather(weights, ids)));
            let (pts, wts) = match &sorted {
                Some((pts, wts)) => (&pts[..], &wts[..]),
                None => (points, weights),
            };
            let ordered = clock.lap();
            let out = balanced_kmeans_warm(
                comm,
                pts,
                wts,
                k,
                prev.centers.clone(),
                prev.influence.clone(),
                &warm_cfg,
            );
            let kmeans = clock.lap();
            // Back to input order; an input that already ascends kept it.
            match &order {
                Some(order) => {
                    for (&i, &b) in order.iter().zip(&out.assignment) {
                        assignment[i as usize] = b;
                    }
                }
                None => assignment = out.assignment,
            }
            let (scattered, after) = phase_boundary(comm, &mut clock);
            let sfc_index = ordered + scattered;
            PipelineResult {
                assignment,
                centers: out.centers,
                influence: out.influence,
                timings: PipelineTimings { sfc_index, kmeans, ..Default::default() },
                stats: out.stats,
                phase_comm: PhaseComm { kmeans: after.since(&comm_before), ..Default::default() },
            }
        }
    }
}

/// Bits of the warm arm's curve key, all axes together: two byte passes of
/// the pair sort. The order only has to make the kernel's 256-point blocks
/// compact, and at this resolution it prunes what 16 bits per axis prune.
const LOCAL_ORDER_KEY_BITS: u32 = 16;

/// This rank's points in the order of a coarse Hilbert curve over their
/// own bounding box, ties in input order — `None` when they already are
/// (an empty rank, coincident points, a caller that keeps them sorted).
fn local_curve_order<const D: usize>(points: &[Point<D>]) -> Option<Vec<u32>> {
    let mapper = HilbertMapper::new(Aabb::from_points(points)?, LOCAL_ORDER_KEY_BITS / D as u32);
    let mut ids = Vec::with_capacity(points.len());
    let mut pairs = curve_pairs(&mapper, points);
    stable_order(&mut pairs).then(|| {
        fill_permutation(&mut ids, pairs);
        ids
    })
}

/// `(curve key, local index)` of every point, in input order, in the one
/// buffer of 2n pairs [`stable_order`] sorts in — the key loop of both
/// arms. Inlined so each arm's key walk is compiled for its own constant
/// resolution; called through a shared copy, the warm arm's order took
/// 8–11 % longer at n = 50k.
#[inline(always)]
fn curve_pairs<const D: usize>(mapper: &HilbertMapper<D>, points: &[Point<D>]) -> Vec<(u64, u32)> {
    assert!(points.len() <= u32::MAX as usize, "the local sort indexes points by u32");
    let mut pairs = Vec::with_capacity(2 * points.len());
    // geo-analyze: hot-loop
    for (p, i) in points.iter().zip(0..) {
        pairs.push((mapper.key_of(p), i));
    }
    pairs
}

/// Fill `ids` with the permutation sorted pairs stand for, and free the
/// pair buffer: what a rank holds through the solve is 4 bytes per point,
/// not 32. Both arms reserve `ids` before they allocate the buffer.
fn fill_permutation(ids: &mut Vec<u32>, pairs: Vec<(u64, u32)>) {
    ids.extend(pairs.iter().map(|&(_, i)| i));
}

/// `src` in the order `ids` names.
fn gather<T: Copy>(src: &[T], ids: &[u32]) -> Vec<T> {
    ids.iter().map(|&i| src[i as usize]).collect()
}

/// Where each point of a rank's share of the curve came from — 4 bytes
/// per point at p = 1, 8 at p > 1, in place of the 40-byte record.
enum Origins {
    /// p = 1: its index in the caller's input.
    Local(Vec<u32>),
    /// p > 1: its global id.
    Global(Vec<u64>),
}

/// p > 1: a rank's share of the sorted points, their weights and global
/// ids, each reserved at its exact size once the exchange has freed its
/// buffers.
struct Shard<const D: usize> {
    points: Vec<Point<D>>,
    weights: Vec<f64>,
    ids: Vec<u64>,
}

impl<const D: usize> Shard<D> {
    fn new(len: usize) -> Self {
        let (points, weights) = (Vec::with_capacity(len), Vec::with_capacity(len));
        Shard { points, weights, ids: Vec::with_capacity(len) }
    }
}

impl<const D: usize> Share<Tagged<D>> for Shard<D> {
    fn put(&mut self, slot: usize, (_, id, coords, weight): Tagged<D>) {
        self.points.put(slot, Point::new(coords));
        self.weights.put(slot, weight);
        self.ids.put(slot, id);
    }
}

/// Initial center selection (Algorithm 2, line 7): the points at global
/// sorted positions `i·n/k + n/(2k)`.
fn initial_centers_from_sorted<const D: usize, C: Comm>(
    comm: &C,
    sorted_points: &[Point<D>],
    k: usize,
    global_n: u64,
) -> Vec<Point<D>> {
    let my_offset = comm.exscan_sum_u64(sorted_points.len() as u64);
    let my_end = my_offset + sorted_points.len() as u64;
    let mut mine: Vec<(u64, [f64; D])> = Vec::new();
    for i in 0..k as u64 {
        let pos = (i * global_n) / k as u64 + global_n / (2 * k as u64);
        let pos = pos.min(global_n.saturating_sub(1));
        if pos >= my_offset && pos < my_end {
            mine.push((i, *sorted_points[(pos - my_offset) as usize].coords()));
        }
    }
    let mut all: Vec<(u64, [f64; D])> =
        comm.allgather(mine).into_iter().flatten().collect();
    all.sort_by_key(|(i, _)| *i);
    all.dedup_by_key(|(i, _)| *i);
    assert_eq!(all.len(), k, "every center position must be owned by some rank");
    all.into_iter().map(|(_, c)| Point::new(c)).collect()
}

/// Return each sorted point's block to the rank that owns its input
/// position: `origins[j]` is the global id of sorted point `j`, and the
/// owners are identified by the global id ranges of the input
/// distribution. A block whose point this rank owns is written in place;
/// only the others travel, as `(id, block)` pairs in one alltoallv.
fn route_back<C: Comm, O: Copy + Into<u64>>(
    comm: &C,
    origins: &[O],
    blocks: &[u32],
    my_id_offset: u64,
    assignment: &mut [u32],
) {
    // Original ownership boundaries: allgather every rank's offset.
    let offsets: Vec<u64> =
        comm.allgather(vec![my_id_offset]).into_iter().map(|v| v[0]).collect();
    // The last rank whose offset is ≤ id: ranks with no points share an
    // offset with the next one, which owns the id.
    let owner_of = |id: u64| offsets.partition_point(|&o| o <= id) - 1;
    let mine = my_id_offset..my_id_offset + assignment.len() as u64;
    let mut sends: Vec<Vec<(u64, u32)>> = vec![Vec::new(); comm.size()];
    for (&origin, &b) in origins.iter().zip(blocks) {
        let id = origin.into();
        if mine.contains(&id) {
            assignment[(id - my_id_offset) as usize] = b;
        } else {
            sends[owner_of(id)].push((id, b));
        }
    }
    for (id, b) in comm.alltoallv(sends).into_iter().flatten() {
        assignment[(id - my_id_offset) as usize] = b;
    }
    assert!(
        assignment.iter().all(|&b| b != u32::MAX),
        "every input point must receive its block"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use geographer_geometry::SplitMix64;
    use geographer_parcomm::{run_spmd, Collective, SelfComm};

    /// A point set with its weights.
    struct WeightedPoints<const D: usize> {
        points: Vec<Point<D>>,
        weights: Vec<f64>,
    }

    impl<const D: usize> WeightedPoints<D> {
        fn unweighted(points: Vec<Point<D>>) -> Self {
            let weights = vec![1.0; points.len()];
            WeightedPoints { points, weights }
        }
    }

    /// Single-rank solve of a whole point set.
    fn solve<const D: usize>(
        wp: &WeightedPoints<D>,
        k: usize,
        prev: Option<&PreviousPartition<D>>,
        cfg: &Config,
    ) -> PipelineResult<D> {
        partition_spmd(&SelfComm, &wp.points, &wp.weights, k, prev, cfg)
    }

    fn uniform(n: usize, seed: u64) -> WeightedPoints<2> {
        let mut rng = SplitMix64::new(seed);
        WeightedPoints::unweighted(
            (0..n).map(|_| Point::new([rng.next_f64(), rng.next_f64()])).collect(),
        )
    }

    /// Every phase time is a real duration, and the assignment passes run
    /// inside the k-means phase.
    fn assert_times_nest<const D: usize>(res: &PipelineResult<D>) {
        let t = res.timings;
        for phase in [t.sfc_index, t.redistribute, t.kmeans, t.writeback] {
            assert!(phase.is_finite() && phase >= 0.0, "{t:?}");
        }
        let assignment = res.stats.assignment_seconds;
        assert!(assignment <= t.kmeans, "assignment {assignment} s outside k-means {t:?}");
    }

    #[test]
    fn shared_memory_pipeline_balances() {
        let wp = uniform(3000, 1);
        let k = 8;
        let cfg = Config::default();
        let res = solve(&wp, k, None, &cfg);
        assert_eq!(res.assignment.len(), 3000);
        let mut sizes = vec![0.0; k];
        for &b in &res.assignment {
            sizes[b as usize] += 1.0;
        }
        let max = sizes.iter().cloned().fold(0.0, f64::max);
        assert!(max / (3000.0 / k as f64) - 1.0 <= cfg.epsilon + 1e-9, "{sizes:?}");
        assert_eq!(res.centers.len(), k);
        assert!(res.timings.total() > 0.0);
        assert_times_nest(&res);
    }

    #[test]
    fn spmd_assignment_is_aligned_with_input() {
        // Each rank keeps its own input slice; the returned assignment must
        // be positionally aligned (verified through block geometric
        // coherence: a point and its block's center must be reasonably
        // close, which fails immediately under misalignment).
        let wp = uniform(2000, 2);
        let k = 4;
        let p = 4;
        let chunk = wp.points.len() / p;
        let pts = wp.points.clone();
        let results = run_spmd(p, |c| {
            let lo = c.rank() * chunk;
            let hi = lo + chunk;
            let w = vec![1.0; hi - lo];
            partition_spmd(&c, &pts[lo..hi], &w, k, None, &Config::default())
        });
        for (r, res) in results.iter().enumerate() {
            assert_eq!(res.assignment.len(), chunk);
            for (i, &b) in res.assignment.iter().enumerate() {
                let pnt = pts[r * chunk + i];
                let center = res.centers[b as usize];
                assert!(
                    pnt.dist(&center) < 0.9,
                    "rank {r} point {i} absurdly far from its center"
                );
            }
        }
        // All ranks must agree on centers.
        for res in &results[1..] {
            assert_eq!(res.centers.len(), results[0].centers.len());
        }
    }

    /// Solve `points` cold on thread ranks, rank r holding
    /// `cuts[r]..cuts[r + 1]`, under `cfg`, and hold the concatenated
    /// assignment to the single-rank one bit for bit.
    fn check_agrees_with_one_rank(points: &[Point<2>], k: usize, cuts: &[usize], cfg: &Config) {
        let serial = partition_spmd(&SelfComm, points, &vec![1.0; points.len()], k, None, cfg);
        let results = run_spmd(cuts.len() - 1, |c| {
            let mine = &points[cuts[c.rank()]..cuts[c.rank() + 1]];
            partition_spmd(&c, mine, &vec![1.0; mine.len()], k, None, cfg).assignment
        });
        let distributed: Vec<u32> = results.into_iter().flatten().collect();
        let sampling = cfg.sampling_init;
        assert_eq!(distributed, serial.assignment, "k = {k}, cuts {cuts:?}, sampling {sampling}");
    }

    #[test]
    fn spmd_and_serial_agree_globally() {
        // The pipeline is rank-count invariant by construction (global
        // sort, identical center seeds, collective-driven iterations), and
        // so is the sample, which is keyed by the points (DESIGN.md §2):
        // the uniform cases run with sampling on and off.
        let full_set = Config { sampling_init: false, ..Config::default() };
        let wp = uniform(1200, 3);
        for cfg in [&full_set, &Config::default()] {
            check_agrees_with_one_rank(&wp.points, 5, &[0, 400, 800, 1200], cfg);
            // An empty rank and a rank below one 256-point block.
            check_agrees_with_one_rank(&wp.points, 5, &[0, 0, 1200], cfg);
            check_agrees_with_one_rank(&wp.points, 5, &[0, 100, 100, 1200], cfg);
            // p ∈ {5, 7}. At p = 7 five ranks hold one point or none, so
            // the boundary exchange fills their shares.
            check_agrees_with_one_rank(&wp.points, 5, &[0, 240, 480, 720, 960, 1200], cfg);
            check_agrees_with_one_rank(&wp.points, 5, &[0, 0, 1, 1, 600, 601, 1200, 1200], cfg);
        }

        // Heavy duplicates: a 30×30 lattice under 1200 points, so most
        // 16-bit keys repeat and the sort's tie order — (source rank,
        // input position) — decides where equal keys land.
        let snap = |x: f64| (x * 30.0).floor() / 30.0;
        let lattice: Vec<Point<2>> =
            wp.points.iter().map(|q| Point::new([snap(q[0]), snap(q[1])])).collect();
        let on_lattice = |cuts: &[usize]| check_agrees_with_one_rank(&lattice, 4, cuts, &full_set);
        on_lattice(&[0, 1200]);
        on_lattice(&[0, 700, 1200]);
        on_lattice(&[0, 0, 1200]);
        on_lattice(&[0, 50, 50, 1200]);
        on_lattice(&[0, 500, 700, 1200]);
        on_lattice(&[0, 0, 300, 300, 900, 1200]);
        on_lattice(&[0, 171, 342, 513, 684, 855, 1026, 1200]);
    }

    #[test]
    fn route_back_returns_every_block_home() {
        // Input ids: rank 0 owns 0..10, rank 1 none, rank 2 10..30. Each
        // case says which ids every rank holds after the sort; the block
        // of id g is a function of g, so a misrouted block shows.
        let block = |g: u64| (g * 7 % 11) as u32;
        let inputs = [10, 0, 20];
        let cases: [(&str, [Vec<u64>; 3]); 3] = [
            ("all home", [(0..10).collect(), vec![], (10..30).collect()]),
            ("none home", [(10..30).rev().collect(), (0..10).collect(), vec![]]),
            (
                "some home",
                [(0..10).rev().collect(), (5..15).collect(), (15..30).chain(0..5).collect()],
            ),
        ];
        for (name, held) in cases {
            let results = run_spmd(3, |c| {
                let r = c.rank();
                let offset: usize = inputs[..r].iter().sum();
                let blocks: Vec<u32> = held[r].iter().map(|&g| block(g)).collect();
                let mut assignment = vec![u32::MAX; inputs[r]];
                route_back(&c, &held[r], &blocks, offset as u64, &mut assignment);
                (offset, assignment)
            });
            for (r, (offset, assignment)) in results.into_iter().enumerate() {
                let expected: Vec<u32> =
                    (offset..offset + inputs[r]).map(|g| block(g as u64)).collect();
                assert_eq!(assignment, expected, "{name}: rank {r}");
            }
        }
        // p = 1 reads local u32 indices and sends nothing.
        let ids: Vec<u32> = (0..10).rev().collect();
        let mut assignment = vec![u32::MAX; 10];
        let blocks: Vec<u32> = ids.iter().map(|&i| block(u64::from(i))).collect();
        route_back(&SelfComm, &ids, &blocks, 0, &mut assignment);
        assert_eq!(assignment, (0..10).map(block).collect::<Vec<_>>());
    }

    #[test]
    fn weighted_pipeline_balances_weight_not_count() {
        let mut rng = SplitMix64::new(4);
        let n = 2000;
        let points: Vec<Point<2>> =
            (0..n).map(|_| Point::new([rng.next_f64(), rng.next_f64()])).collect();
        // Left half heavy.
        let weights: Vec<f64> =
            points.iter().map(|p| if p[0] < 0.5 { 10.0 } else { 1.0 }).collect();
        let wp = WeightedPoints { points, weights: weights.clone() };
        let k = 4;
        let cfg = Config::default();
        let res = solve(&wp, k, None, &cfg);
        let mut bw = vec![0.0; k];
        for (&b, &w) in res.assignment.iter().zip(&weights) {
            bw[b as usize] += w;
        }
        let total: f64 = weights.iter().sum();
        let max = bw.iter().cloned().fold(0.0, f64::max);
        assert!(max / (total / k as f64) - 1.0 <= cfg.epsilon + 1e-9, "{bw:?}");
    }

    #[test]
    fn three_d_pipeline() {
        let mut rng = SplitMix64::new(5);
        let pts: Vec<Point<3>> = (0..1500)
            .map(|_| Point::new([rng.next_f64(), rng.next_f64(), rng.next_f64()]))
            .collect();
        let wp = WeightedPoints::unweighted(pts);
        let res = solve(&wp, 6, None, &Config::default());
        let mut sizes = vec![0usize; 6];
        for &b in &res.assignment {
            sizes[b as usize] += 1;
        }
        assert!(sizes.iter().all(|&s| s > 0));
        let max = *sizes.iter().max().unwrap() as f64;
        assert!(max / (1500.0 / 6.0) - 1.0 <= 0.03 + 1e-9, "{sizes:?}");
    }

    #[test]
    #[should_panic(expected = "geographer config: k = 13 exceeds global point count n = 12")]
    fn k_above_n_panics_with_the_canonical_message() {
        let wp = uniform(12, 6);
        let _ = solve(&wp, 13, None, &Config::default());
    }

    #[test]
    fn k_equal_n_every_point_its_own_block() {
        let wp = uniform(12, 6);
        let res = solve(&wp, 12, None, &Config { max_iterations: 5, ..Config::default() });
        let mut seen = vec![0usize; 12];
        for &b in &res.assignment {
            seen[b as usize] += 1;
        }
        // ε = 3 % with unit weights and k = n means every block has exactly
        // one point.
        assert_eq!(seen, vec![1; 12], "{seen:?}");
    }

    #[test]
    fn unmoved_points_migrate_nothing() {
        let wp = uniform(2000, 40);
        let k = 6;
        let cfg = Config { sampling_init: false, max_iterations: 200, ..Config::default() };
        let cold = solve(&wp, k, None, &cfg);
        assert!(cold.stats.converged, "cold run must converge for the fixed-point contract");
        let warm = solve(&wp, k, Some(&cold.previous()), &cfg);
        assert_eq!(warm.assignment, cold.assignment, "unmoved input must not migrate");
        assert_eq!(warm.stats.movement_iterations, 1);
        // The warm arm orders its points where they are: no
        // redistribution, no write-back, no collective in the order, and
        // none anywhere that moves a point.
        assert_eq!(warm.timings.redistribute, 0.0);
        assert_eq!(warm.timings.writeback, 0.0);
        assert_times_nest(&warm);
        let phases = warm.phase_comm;
        for skipped in [phases.sfc_index, phases.redistribute, phases.writeback] {
            assert_eq!(skipped.collectives(), 0);
        }
        for moving in [Collective::Alltoallv, Collective::Allgather, Collective::Exscan] {
            assert_eq!(phases.kmeans.op(moving).ops, 0, "{moving:?}");
        }
        assert!(phases.kmeans.collectives() > 0, "the counters do count on this backend");
    }

    /// Effective distance of `p` to block `b` under a solve's result.
    fn eff<const D: usize>(res: &PipelineResult<D>, p: &Point<D>, b: usize) -> f64 {
        p.dist(&res.centers[b]) / res.influence[b]
    }

    /// Solve `points` cold, then twice warm — unchanged, then drifted —
    /// with thread rank r holding `cuts[r]..cuts[r + 1]` of them, and hold
    /// the warm arm's local order to its contract: it is invisible.
    fn check_warm_arm(points: &[Point<2>], k: usize, cuts: &[usize]) {
        let p = cuts.len() - 1;
        let tag = format!("n = {}, k = {k}, cuts {cuts:?}", points.len());
        let cfg = Config { sampling_init: false, max_iterations: 300, ..Config::default() };
        let shard = |pts: &[Point<2>], r: usize| pts[cuts[r]..cuts[r + 1]].to_vec();
        let solve_all = |pts: &[Point<2>], prev: Option<&PreviousPartition<2>>| {
            run_spmd(p, |c| {
                let mine = shard(pts, c.rank());
                partition_spmd(&c, &mine, &vec![1.0; mine.len()], k, prev, &cfg)
            })
        };
        let cold = solve_all(points, None);
        assert!(cold[0].stats.converged, "{tag}: the fixed point needs a converged cold solve");

        // Unchanged input: one movement iteration, nothing migrates.
        let prev = cold[0].previous();
        let warm = solve_all(points, Some(&prev));
        for (r, (w, c)) in warm.iter().zip(&cold).enumerate() {
            assert_eq!(w.assignment, c.assignment, "{tag}: rank {r} migrated unmoved points");
            assert_eq!(w.stats.movement_iterations, 1, "{tag}");
        }

        // Drifted input: every rank's assignment is aligned with its own
        // input — each point sits in the block nearest by effective
        // distance under the returned state (a converged solve's centers
        // and influences are the ones its last pass assigned with) — and
        // the blocks are balanced.
        let drifted: Vec<Point<2>> = points
            .iter()
            .map(|q| Point::new([q[0] + 0.02 * (1.0 - q[1]), q[1] - 0.01 * q[0]]))
            .collect();
        let warm = solve_all(&drifted, Some(&prev));
        let mut sizes = vec![0usize; k];
        for (r, res) in warm.iter().enumerate() {
            assert!(res.stats.converged && res.stats.balance_achieved, "{tag}: {:?}", res.stats);
            let mine = shard(&drifted, r);
            assert_eq!(res.assignment.len(), mine.len(), "{tag}");
            for (i, (q, &b)) in mine.iter().zip(&res.assignment).enumerate() {
                sizes[b as usize] += 1;
                let own = eff(res, q, b as usize);
                let best = (0..k).map(|c| eff(res, q, c)).fold(f64::INFINITY, f64::min);
                assert!(own <= best * (1.0 + 1e-9), "{tag}: rank {r} point {i} in block {b}");
            }
        }
        let allowed = (1.0 + cfg.epsilon) * points.len() as f64 / k as f64;
        assert!(sizes.iter().all(|&s| s as f64 <= allowed.max(1.0) + 1e-9), "{tag}: {sizes:?}");
    }

    #[test]
    fn warm_arm_order_is_invisible_on_awkward_shards() {
        let n = 3000;
        let wp = uniform(n, 46);
        // One rank: every block of the kernel is a curve-ordered block.
        check_warm_arm(&wp.points, 6, &[0, n]);
        // An empty rank, a rank below one 256-point block, the rest.
        check_warm_arm(&wp.points, 6, &[0, 100, n]);
        check_warm_arm(&wp.points, 6, &[0, 0, n]);
        check_warm_arm(&wp.points, 5, &[0, 0, 100, n]);
        check_warm_arm(&wp.points, 5, &[0, 1700, 1700, n]);

        // Heavy duplicates: a 40×40 lattice under 3000 points, so most
        // locations (and nearly every coarse key) repeat.
        let snap = |x: f64| (x * 40.0).floor() / 40.0;
        let lattice: Vec<Point<2>> =
            wp.points.iter().map(|q| Point::new([snap(q[0]), snap(q[1])])).collect();
        check_warm_arm(&lattice, 4, &[0, n]);
        check_warm_arm(&lattice, 4, &[0, 900, 1000, n]);

        // A rank whose points all coincide has a zero-extent box: one key.
        let mut pinned = wp.points.clone();
        pinned[1000..1200].fill(Point::new([0.25, 0.75]));
        check_warm_arm(&pinned, 4, &[0, 1000, 1200, n]);
        // Every point coincident: one block is all k-means can make of it
        // (and a zero diagonal leaves no movement below the threshold, so
        // the solve runs out its budget instead of converging).
        let spot = Point::new([0.5, 0.5]);
        let prev = PreviousPartition { centers: vec![spot], influence: vec![1.0] };
        let cfg = Config { max_iterations: 3, ..Config::default() };
        for res in run_spmd(2, |c| {
            let mine = vec![spot; [10, 290][c.rank()]];
            partition_spmd(&c, &mine, &vec![1.0; mine.len()], 1, Some(&prev), &cfg)
        }) {
            assert!(res.assignment.iter().all(|&b| b == 0));
            assert!(res.stats.balance_achieved);
        }

        // An input already in the local curve order is solved where it is.
        let order = local_curve_order(&wp.points).expect("random points are not curve-ordered");
        let sorted: Vec<Point<2>> = order.iter().map(|&i| wp.points[i as usize]).collect();
        assert!(local_curve_order(&sorted).is_none());
        check_warm_arm(&sorted, 6, &[0, n]);
        check_warm_arm(&sorted, 6, &[0, 1500, n]);
    }

    #[test]
    fn local_curve_order_is_a_stable_permutation_into_compact_blocks() {
        let wp = uniform(5000, 47);
        let order = local_curve_order(&wp.points).expect("random points are not curve-ordered");
        let mut seen = order.clone();
        seen.sort_unstable();
        assert!(seen.iter().copied().eq(0..5000), "a permutation of the local indices");
        // 256 consecutive points of the order span a small box; 256
        // consecutive generator-ordered points span the unit square.
        let diag = |ids: &[u32]| {
            let pts: Vec<Point<2>> = ids.iter().map(|&i| wp.points[i as usize]).collect();
            Aabb::from_points(&pts).expect("non-empty").diagonal()
        };
        let worst = order.chunks(256).map(diag).fold(0.0, f64::max);
        assert!(worst < 0.5, "curve-ordered blocks are compact: {worst}");
        assert!(diag(&(0..256).collect::<Vec<u32>>()) > 1.2);
        // Equal keys keep input order: duplicates of one point stay sorted.
        let twins = [wp.points[7]; 40];
        assert!(local_curve_order(&twins).is_none());
        assert!(local_curve_order::<2>(&[]).is_none());
    }

    #[test]
    fn warm_solve_tracks_a_small_drift_within_balance() {
        let wp = uniform(2500, 41);
        let k = 5;
        let cfg = Config { sampling_init: false, ..Config::default() };
        let cold = solve(&wp, k, None, &cfg);
        // Translate every point slightly (rigid drift).
        let drifted: Vec<Point<2>> =
            wp.points.iter().map(|p| Point::new([p[0] + 0.01, p[1] - 0.005])).collect();
        let drifted = WeightedPoints::unweighted(drifted);
        let warm = solve(&drifted, k, Some(&cold.previous()), &cfg);
        assert_eq!(warm.assignment.len(), 2500);
        assert!(warm.stats.balance_achieved, "warm solve must restore balance");
        // A rigid translation moves all clusters equally: almost every
        // point keeps its block.
        let same = warm
            .assignment
            .iter()
            .zip(&cold.assignment)
            .filter(|(a, b)| a == b)
            .count();
        assert!(same as f64 / 2500.0 > 0.95, "rigid drift migrated {} points", 2500 - same);
    }

    #[test]
    fn spmd_and_serial_warm_solves_agree() {
        let wp = uniform(1200, 42);
        let k = 4;
        let cfg = Config { sampling_init: false, ..Config::default() };
        let prev = solve(&wp, k, None, &cfg).previous();
        let serial = solve(&wp, k, Some(&prev), &cfg);
        let pts = wp.points.clone();
        let results = run_spmd(3, move |c| {
            let chunk = pts.len() / 3;
            let lo = c.rank() * chunk;
            let hi = lo + chunk;
            let w = vec![1.0; hi - lo];
            partition_spmd(&c, &pts[lo..hi], &w, k, Some(&prev), &cfg).assignment
        });
        let distributed: Vec<u32> = results.into_iter().flatten().collect();
        assert_eq!(distributed, serial.assignment);
    }

    #[test]
    fn spmd_warm_assignment_is_input_aligned() {
        // The warm arm performs no redistribution, so each rank's
        // assignment must line up with its own input slice.
        let wp = uniform(1600, 43);
        let k = 4;
        let cfg = Config { sampling_init: false, ..Config::default() };
        let prev = solve(&wp, k, None, &cfg).previous();
        let pts = wp.points.clone();
        let results = run_spmd(4, move |c| {
            let chunk = pts.len() / 4;
            let lo = c.rank() * chunk;
            let hi = lo + chunk;
            let w = vec![1.0; hi - lo];
            let res = partition_spmd(&c, &pts[lo..hi], &w, k, Some(&prev), &cfg);
            (res.assignment, res.centers, lo)
        });
        let pts = wp.points;
        for (asg, centers, lo) in &results {
            assert_eq!(asg.len(), pts.len() / 4);
            for (i, &b) in asg.iter().enumerate() {
                let d = pts[lo + i].dist(&centers[b as usize]);
                assert!(d < 0.9, "point {i} absurdly far from its center");
            }
        }
    }

    #[test]
    #[should_panic(expected = "geographer config: k = 9 exceeds global point count n = 8")]
    fn warm_k_check_uses_the_canonical_message() {
        let wp = uniform(8, 44);
        let prev =
            PreviousPartition { centers: vec![wp.points[0]; 9], influence: vec![1.0; 9] };
        let _ = solve(&wp, 9, Some(&prev), &Config::default());
    }

    #[test]
    #[should_panic(expected = "need exactly k initial centers")]
    fn mismatched_previous_state_rejected() {
        let wp = uniform(100, 45);
        let prev =
            PreviousPartition { centers: vec![wp.points[0]; 3], influence: vec![1.0; 3] };
        let _ = solve(&wp, 4, Some(&prev), &Config::default());
    }
}
