//! Balanced k-means: Algorithms 1 (AssignAndBalance) and 2 (BalancedKMeans)
//! of the paper, written SPMD over [`Comm`].
//!
//! Each rank holds a shard of the points; cluster centers and influence
//! values are replicated. The only communication inside the balance loop is
//! one `globalSumVector` per balance iteration (block weights), and the
//! only communication in the movement phase is one vector sum for the new
//! weighted centroids — matching the blue-marked lines of the paper's
//! pseudocode.
//!
//! Every pass of the balance loop costs O(active): the assignment pass,
//! the block-weight sums and the bound relaxation touch only the points
//! of the current round. A full-set round runs the blocked SoA kernel
//! over the solve-wide coordinate lanes; a sampling round (Sec. 4.5)
//! gathers its sample once into a [`WorkingSet`] and runs the same kernel
//! over that (DESIGN.md §9). The per-point AoS scan
//! ([`Solver::evaluate_point`]) runs only under `soa_kernel: false`, as
//! the bitwise reference.

use geographer_geometry::{Aabb, Point, SplitMix64};
use geographer_parcomm::Comm;
use rayon::prelude::*;

use crate::bounds::Relaxation;
use crate::config::Config;
use crate::influence::{adapt_influences, erode, erosion_alpha};

/// Work counters, kept per rank. These feed the ablation experiments
/// (Hamerly skip rate, Sec. 4.3's "about 80 % of the cases") and the
/// modeled scaling times.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KMeansStats {
    /// Center-movement iterations executed (Algorithm 2 main loop).
    pub movement_iterations: u64,
    /// Total balance iterations across all movement iterations.
    pub balance_iterations: u64,
    /// Point–center effective-distance evaluations.
    pub distance_evals: u64,
    /// Points whose inner loop was skipped by the Hamerly bound test.
    pub hamerly_skips: u64,
    /// Inner loops cut short by the bounding-box sort (Algorithm 1 line 16).
    pub bbox_breaks: u64,
    /// Point visits in assignment passes (skipped or not).
    pub points_visited: u64,
    /// Wall seconds this rank spent inside assignment passes (the kernel
    /// plus the block-weight accumulation) — the figure the scaling
    /// benchmark's per-point assignment cost and its perf gate read.
    pub assignment_seconds: f64,
    /// Whether the center-movement loop converged before `max_iterations`.
    pub converged: bool,
    /// Imbalance of the final assignment (max block weight / average − 1).
    pub final_imbalance: f64,
    /// Whether the final assignment satisfies the balance constraint
    /// `max ≤ max((1+ε)·avg, avg + w_max)` — the weighted form of the
    /// paper's `|Vi| ≤ (1+ε)·⌈|V|/k⌉` (the `avg + w_max` term is the
    /// feasibility floor imposed by weight granularity, exactly what the
    /// ceiling provides in the unweighted case).
    pub balance_achieved: bool,
}

impl KMeansStats {
    /// Fraction of point visits resolved by the Hamerly skip.
    pub fn skip_rate(&self) -> f64 {
        if self.points_visited == 0 {
            0.0
        } else {
            self.hamerly_skips as f64 / self.points_visited as f64
        }
    }

    /// Sum counters across ranks (call from every rank).
    pub fn reduce<C: Comm>(&self, comm: &C) -> KMeansStats {
        let mut buf = [
            self.movement_iterations, // identical on all ranks; max below
            self.balance_iterations,
            self.distance_evals,
            self.hamerly_skips,
            self.bbox_breaks,
            self.points_visited,
        ];
        // movement/balance iterations are replicated — take them from this
        // rank; sum the per-point counters.
        let mut sums = [buf[2], buf[3], buf[4], buf[5]];
        comm.allreduce_sum_u64(&mut sums);
        buf[2] = sums[0];
        buf[3] = sums[1];
        buf[4] = sums[2];
        buf[5] = sums[3];
        KMeansStats {
            movement_iterations: buf[0],
            balance_iterations: buf[1],
            distance_evals: buf[2],
            hamerly_skips: buf[3],
            bbox_breaks: buf[4],
            points_visited: buf[5],
            // The slowest rank bounds the phase: max, not sum.
            assignment_seconds: comm.allreduce(self.assignment_seconds, f64::max),
            converged: self.converged,
            final_imbalance: self.final_imbalance,
            balance_achieved: self.balance_achieved,
        }
    }
}

/// Result of [`balanced_kmeans`] on one rank.
#[derive(Debug, Clone)]
pub struct KMeansOutput<const D: usize> {
    /// Block id of every rank-local point, in input order.
    pub assignment: Vec<u32>,
    /// Final cluster centers (replicated).
    pub centers: Vec<Point<D>>,
    /// Final influence values (replicated).
    pub influence: Vec<f64>,
    /// This rank's work counters.
    pub stats: KMeansStats,
}

/// Outcome of one point's assignment evaluation.
#[derive(Debug, Clone, Copy)]
struct Eval {
    assignment: u32,
    ub: f64,
    lb: f64,
    evals: u32,
    skipped: bool,
    bbox_break: bool,
}

/// Block width of the SoA kernel: points are processed in fixed-size runs
/// whose coordinate lanes, bounds, and center shortlist fit in L1/L2.
/// After the Hilbert redistribution consecutive points are spatial
/// neighbours, so a block's bounding box is tiny and its per-center
/// pruning bound eliminates most of the shortlist.
const SOA_BLOCK: usize = 256;

/// Dimension-major coordinate lanes (`coords[d][i]` is point i's
/// d-coordinate) and the `(lo, hi)` bounding box of every
/// [`SOA_BLOCK`]-point run — what the blocked kernel reads.
#[derive(Default)]
struct Lanes<const D: usize> {
    coords: Vec<Vec<f64>>,
    boxes: Vec<([f64; D], [f64; D])>,
}

impl<const D: usize> Lanes<D> {
    /// Recompute the per-block boxes from `coords`.
    fn rebuild_boxes(&mut self) {
        self.boxes.clear();
        let n = self.coords.first().map_or(0, Vec::len);
        for b in (0..n).step_by(SOA_BLOCK) {
            let e = (b + SOA_BLOCK).min(n);
            let block: [&[f64]; D] = std::array::from_fn(|d| &self.coords[d][b..e]);
            let mut lo = [f64::INFINITY; D];
            let mut hi = [f64::NEG_INFINITY; D];
            // Point-major: the 2·D min/max chains are independent, a
            // lane-major scan would serialize on one.
            for i in 0..e - b {
                for d in 0..D {
                    lo[d] = lo[d].min(block[d][i]);
                    hi[d] = hi[d].max(block[d][i]);
                }
            }
            self.boxes.push((lo, hi));
        }
    }

    /// Bounding box of all points: the union of the block boxes. Min and
    /// max select, they do not round, so this is the box a pass over the
    /// points in any order yields.
    fn bbox(&self) -> Option<Aabb<D>> {
        let (&(mut lo, mut hi), rest) = self.boxes.split_first()?;
        for (l, h) in rest {
            for d in 0..D {
                lo[d] = lo[d].min(l[d]);
                hi[d] = hi[d].max(h[d]);
            }
        }
        Some(Aabb { min: Point::new(lo), max: Point::new(hi) })
    }
}

/// The active sample of one sampling round, laid out for the blocked
/// kernel: the sample's point ids in ascending order (after the Hilbert
/// redistribution id order is curve order, so a block of consecutive
/// sampled ids is still spatially tight), their gathered coordinate lanes
/// and block boxes, and the sample's `assignment`/`ub`/`lb`, which live
/// here for the whole round and are written back when it ends.
///
/// The order-sensitive sums (block weights, centroids) still run in the
/// shuffled order of the `active` list, through `slot`, so they keep the
/// bits of the reference path.
///
/// Owned by the solver and sized once per solve for the largest partial
/// sample; a round refills it in place.
struct WorkingSet<const D: usize> {
    /// Sampled point ids, ascending.
    ids: Vec<u32>,
    /// `slot[i]`: position of `active[i]` in `ids`.
    slot: Vec<u32>,
    /// `weights[i]`: weight of `active[i]` — in `active` order, the order
    /// the sums read it in.
    weights: Vec<f64>,
    lanes: Lanes<D>,
    assignment: Vec<u32>,
    ub: Vec<f64>,
    lb: Vec<f64>,
    /// Membership bitmap over the local ids; with `before` it ranks the
    /// sample without sorting it.
    member: Vec<u64>,
    /// Number of members before each word of `member`.
    before: Vec<u32>,
}

impl<const D: usize> WorkingSet<D> {
    fn with_capacity(cap: usize) -> Self {
        WorkingSet {
            ids: Vec::with_capacity(cap),
            slot: Vec::with_capacity(cap),
            weights: Vec::with_capacity(cap),
            lanes: Lanes {
                coords: (0..D).map(|_| Vec::with_capacity(cap)).collect(),
                boxes: Vec::with_capacity(cap.div_ceil(SOA_BLOCK)),
            },
            assignment: Vec::with_capacity(cap),
            ub: Vec::with_capacity(cap),
            lb: Vec::with_capacity(cap),
            member: Vec::new(),
            before: Vec::new(),
        }
    }

    /// Refill from the sample `active` (distinct ids below `points.len()`).
    fn load(
        &mut self,
        active: &[u32],
        points: &[Point<D>],
        weights: &[f64],
        assignment: &[u32],
        ub: &[f64],
        lb: &[f64],
    ) {
        self.member.clear();
        self.member.resize(points.len().div_ceil(64), 0);
        for &p in active {
            self.member[p as usize / 64] |= 1 << (p % 64);
        }
        self.before.clear();
        self.ids.clear();
        for (w, &word) in self.member.iter().enumerate() {
            self.before.push(self.ids.len() as u32);
            let mut rest = word;
            while rest != 0 {
                self.ids.push(w as u32 * 64 + rest.trailing_zeros());
                rest &= rest - 1;
            }
        }
        self.slot.clear();
        self.weights.clear();
        // geo-analyze: hot-loop
        for &p in active {
            let w = p as usize / 64;
            let below = self.member[w] & ((1 << (p % 64)) - 1);
            self.slot.push(self.before[w] + below.count_ones());
            self.weights.push(weights[p as usize]);
        }
        for (d, lane) in self.lanes.coords.iter_mut().enumerate() {
            lane.clear();
            // geo-analyze: hot-loop
            for &p in &self.ids {
                lane.push(points[p as usize][d]);
            }
        }
        self.lanes.rebuild_boxes();
        self.assignment.clear();
        self.ub.clear();
        self.lb.clear();
        // geo-analyze: hot-loop
        for &p in &self.ids {
            self.assignment.push(assignment[p as usize]);
            self.ub.push(ub[p as usize]);
            self.lb.push(lb[p as usize]);
        }
    }

    /// Write the sample's assignment and bounds back to the full arrays.
    fn store(&self, assignment: &mut [u32], ub: &mut [f64], lb: &mut [f64]) {
        // geo-analyze: hot-loop
        for (j, &p) in self.ids.iter().enumerate() {
            assignment[p as usize] = self.assignment[j];
            ub[p as usize] = self.ub[j];
            lb[p as usize] = self.lb[j];
        }
    }
}

/// The center shortlist laid out for the SoA kernel, in bbox-sorted order.
#[derive(Default)]
struct CenterScratch {
    /// `(min effective distance to the active bbox, center id)`, ascending
    /// when pruning is enabled — the shared scan order of both kernels.
    order: Vec<(f64, u32)>,
    /// Sorted-center coordinates, dimension-major: lane `d` occupies
    /// `coords[d*k..(d+1)*k]`.
    coords: Vec<f64>,
    /// Influence values in sorted order.
    influence: Vec<f64>,
    /// Original center ids in sorted order.
    ids: Vec<u32>,
}

impl CenterScratch {
    /// Rebuild the sorted coordinate lanes from `order` (already filled and
    /// sorted by the caller). Allocation-free after the first call.
    fn fill_sorted<const D: usize>(&mut self, centers: &[Point<D>], influence: &[f64]) {
        let k = centers.len();
        self.coords.clear();
        self.coords.resize(D * k, 0.0);
        self.influence.clear();
        self.ids.clear();
        for (j, &(_, c)) in self.order.iter().enumerate() {
            let ci = c as usize;
            for d in 0..D {
                self.coords[d * k + j] = centers[ci][d];
            }
            self.influence.push(influence[ci]);
            self.ids.push(c);
        }
    }
}

/// Per-worker scratch of the SoA kernel.
struct KernelScratch {
    /// Effective distances for the branch-free batch sweep — two slabs of
    /// `k`, one per point of the pair the batch path evaluates together.
    ebuf: Vec<f64>,
    /// Per-center lower bound against the current block's bounding box.
    cbound: Vec<f64>,
    /// Survivor indices of the current block (points not Hamerly-skipped).
    sidx: Vec<u32>,
}

impl KernelScratch {
    fn new(k: usize) -> Self {
        KernelScratch {
            ebuf: vec![0.0; 2 * k],
            cbound: vec![0.0; k],
            sidx: Vec::with_capacity(SOA_BLOCK),
        }
    }
}

/// Largest center count for which the kernel computes every effective
/// distance branch-free (then scans the batch with the pruning skips).
/// Beyond this the skipped `sqrt`/`div` work outweighs the vectorization
/// win and the kernel falls back to the branching scan.
const SOA_BATCH_K: usize = 24;

/// Per-span work counters returned by the SoA kernel workers.
#[derive(Debug, Default, Clone, Copy)]
struct SpanStats {
    evals: u64,
    skips: u64,
    pruned_points: u64,
}

impl SpanStats {
    fn add(&mut self, o: SpanStats) {
        self.evals += o.evals;
        self.skips += o.skips;
        self.pruned_points += o.pruned_points;
    }
}

/// The SPMD solver state for one `balanced_kmeans` call.
struct Solver<'a, const D: usize> {
    points: &'a [Point<D>],
    weights: &'a [f64],
    k: usize,
    cfg: &'a Config,
    centers: Vec<Point<D>>,
    influence: Vec<f64>,
    assignment: Vec<u32>,
    ub: Vec<f64>,
    lb: Vec<f64>,
    /// Global maximum point weight (balance-feasibility granularity).
    w_max: f64,
    /// Normalized per-block target weight fractions (uniform = 1/k each).
    fractions: Vec<f64>,
    /// Reusable output buffer of the AoS reference pass (`soa_kernel:
    /// false`), grown on its first passes: the loop writes evaluations
    /// into it in place (via `collect_into_vec` on the parallel path)
    /// instead of allocating a result vector every balance iteration.
    evals: Vec<Eval>,
    /// Coordinate lanes and block boxes of all local points, built once
    /// per solve when the SoA kernel is on — coordinates never move, so
    /// no assignment pass recomputes them.
    lanes: Lanes<D>,
    /// The current sampling round's sample (SoA kernel only).
    ws: WorkingSet<D>,
    /// Bounding box of `lanes`, computed once per solve: the active box
    /// of every full-set round.
    full_bbox: Option<Aabb<D>>,
    /// Center shortlist scratch (bbox-sorted order/coords/influence/ids).
    cscratch: CenterScratch,
    /// One kernel scratch per worker thread, grown on demand.
    kscratch: Vec<KernelScratch>,
    /// Balance/movement scratch reused across iterations — the hot loops
    /// allocate nothing after the first iteration.
    old_influence: Vec<f64>,
    delta: Vec<f64>,
    center_sums: Vec<f64>,
    new_centers_buf: Vec<Point<D>>,
    relax: Relaxation,
    local_sizes: Vec<f64>,
    global_sizes: Vec<f64>,
    stats: KMeansStats,
}

/// Reduce one point's batch of effective distances to
/// `(best, second, best_c, evals, pruned)` — the select-based equivalent
/// of the strict-comparison chain in [`Solver::evaluate_point`]. Under
/// the invariant `second >= best`, on `e < best` the old best demotes to
/// second and on ties nothing moves, exactly as `else if e < second`
/// would. (Selects, not full arithmetic masking: the comparison branches
/// predict well once best/second stabilize, and speculation past them
/// beats a serialized min/max chain.)
#[inline(always)]
fn scan_batch(
    pruning: bool,
    cbound: &[f64],
    ebuf: &[f64],
    ids: &[u32],
    init_c: u32,
) -> (f64, f64, u32, u64, bool) {
    let mut best = f64::INFINITY;
    let mut second = f64::INFINITY;
    let mut best_c = init_c;
    let mut evals = 0u64;
    let mut pruned = false;
    // geo-analyze: hot-loop
    for j in 0..ebuf.len() {
        if pruning && cbound[j] > second {
            pruned = true;
            continue;
        }
        let e = ebuf[j];
        evals += 1;
        let lt = e < best;
        best_c = if lt { ids[j] } else { best_c };
        second = if lt { best } else { second.min(e) };
        best = if lt { e } else { best };
    }
    (best, second, best_c, evals, pruned)
}

/// One block of the SoA kernel: derive a per-center pruning bound from
/// the block's precomputed bounding box (`bbox`, built once per solve or,
/// for a working set, once per sampling round — coordinates never move
/// between balance iterations), then scan every
/// non-skipped point of the block against the (globally bbox-sorted)
/// center shortlist. `assign`/`ub`/`lb` hold the current values on entry
/// and the updated values on exit.
///
/// Bitwise-identical to [`Solver::evaluate_point`]: effective distances
/// use the same accumulation order, the best/second updates resolve the
/// same strict comparisons, and a center is only skipped when its block
/// bound exceeds the current `second` — in which case evaluating it could
/// not have changed `best`/`second`/`best_c` (the block bound is a lower
/// bound on every effective distance within the block). The block box is
/// contained in the active box, so its bound dominates the one the AoS
/// path breaks on: this prunes a superset of the centers at zero cost to
/// the result. `soa_matches_aos_across_dims_ranks_and_families` pins the
/// equivalence.
#[allow(clippy::too_many_arguments)]
// Outlined on purpose: one call per 256-point block amortizes the call,
// and the measured kernel numbers were taken in this shape.
#[inline(never)]
fn process_block<const D: usize>(
    hamerly: bool,
    pruning: bool,
    k: usize,
    lanes: &[&[f64]; D],
    bbox: &([f64; D], [f64; D]),
    cs: &CenterScratch,
    sc: &mut KernelScratch,
    assign: &mut [u32],
    ub: &mut [f64],
    lb: &mut [f64],
    stats: &mut SpanStats,
) {
    let blen = assign.len();
    let KernelScratch { ebuf, cbound, sidx } = sc;
    let (ebuf, cbound) = (&mut ebuf[..2 * k], &mut cbound[..k]);
    // Center coordinate lanes: `clanes[d][j]` is center j's d-coordinate,
    // contiguous in j for the vectorizable batch loop below.
    let clanes: [&[f64]; D] = std::array::from_fn(|d| &cs.coords[d * k..(d + 1) * k]);
    let infl = &cs.influence[..k];
    // Compact the points that survive the Hamerly skip; only they are
    // scanned against the shortlist. Branchless: always write the
    // candidate index, advance the cursor only for survivors — the
    // skip pattern is data-dependent and would mispredict as a branch.
    sidx.clear();
    sidx.resize(blen, 0);
    let mut slen = 0usize;
    // geo-analyze: hot-loop
    for i in 0..blen {
        let survives = !(hamerly && ub[i] < lb[i]);
        sidx[slen] = i as u32;
        slen += usize::from(survives);
    }
    stats.skips += (blen - slen) as u64;
    sidx.truncate(slen);
    if slen == 0 {
        return;
    }
    let (lo, hi) = bbox;
    if pruning {
        // Same arithmetic as `Aabb::min_dist` over the (precomputed) block
        // box. The box covers every block point, hence every survivor, so
        // `cbound[j]` lower-bounds center j's effective distance to any
        // scanned point: skipping on `cbound[j] > second` is sound.
        // geo-analyze: hot-loop
        for j in 0..k {
            let mut acc = 0.0;
            for d in 0..D {
                let c = clanes[d][j];
                let diff = if c < lo[d] {
                    lo[d] - c
                } else if c > hi[d] {
                    c - hi[d]
                } else {
                    0.0
                };
                acc += diff * diff;
            }
            cbound[j] = acc.sqrt() / infl[j];
        }
    }
    if k <= SOA_BATCH_K {
        // Branch-free batch sweep, two survivors at a time: every
        // effective distance of the pair in one vectorizable loop over
        // the contiguous center lanes (the same per-center op order as
        // `Point::dist` — sqrt and division are exact per lane, so the
        // values are identical), center coordinates loaded once for both
        // points and the two sqrt/div dependency chains overlapping in
        // the divider. A scalar reduction scan with the pruning skips
        // then resolves each point (`scan_batch`). At small k the
        // skipped work is cheaper than the branches.
        let (e0, e1) = ebuf.split_at_mut(k);
        let slen = sidx.len();
        let mut t = 0;
        // geo-analyze: hot-loop
        while t + 1 < slen {
            let i0 = sidx[t] as usize;
            let i1 = sidx[t + 1] as usize;
            let pv0: [f64; D] = std::array::from_fn(|d| lanes[d][i0]);
            let pv1: [f64; D] = std::array::from_fn(|d| lanes[d][i1]);
            for j in 0..k {
                let mut a0 = 0.0;
                let mut a1 = 0.0;
                for d in 0..D {
                    let c = clanes[d][j];
                    let d0 = pv0[d] - c;
                    a0 += d0 * d0;
                    let d1 = pv1[d] - c;
                    a1 += d1 * d1;
                }
                let f = infl[j];
                e0[j] = a0.sqrt() / f;
                e1[j] = a1.sqrt() / f;
            }
            for (i, eb) in [(i0, &*e0), (i1, &*e1)] {
                let (best, second, best_c, evals, pruned) =
                    scan_batch(pruning, cbound, eb, &cs.ids, assign[i]);
                assign[i] = best_c;
                ub[i] = best;
                lb[i] = second;
                stats.evals += evals;
                stats.pruned_points += u64::from(pruned);
            }
            t += 2;
        }
        if t < slen {
            let i = sidx[t] as usize;
            let pv: [f64; D] = std::array::from_fn(|d| lanes[d][i]);
            for j in 0..k {
                let mut acc = 0.0;
                for d in 0..D {
                    let diff = pv[d] - clanes[d][j];
                    acc += diff * diff;
                }
                e0[j] = acc.sqrt() / infl[j];
            }
            let (best, second, best_c, evals, pruned) =
                scan_batch(pruning, cbound, e0, &cs.ids, assign[i]);
            assign[i] = best_c;
            ub[i] = best;
            lb[i] = second;
            stats.evals += evals;
            stats.pruned_points += u64::from(pruned);
        }
    } else {
        // Large shortlists: branching skip-scan — the batch would spend
        // sqrt/div on centers the evolving `second` bound rules out.
        // geo-analyze: hot-loop
        for &i in sidx.iter() {
            let i = i as usize;
            let mut best = f64::INFINITY;
            let mut second = f64::INFINITY;
            let mut best_c = assign[i];
            let mut evals = 0u64;
            let mut pruned = false;
            for j in 0..k {
                if pruning && cbound[j] > second {
                    pruned = true;
                    continue;
                }
                // Explicit distance-squared over the contiguous lanes, same
                // accumulation order as `Point::dist_sq`.
                let mut acc = 0.0;
                for d in 0..D {
                    let diff = lanes[d][i] - clanes[d][j];
                    acc += diff * diff;
                }
                let e = acc.sqrt() / infl[j];
                evals += 1;
                if e < best {
                    second = best;
                    best = e;
                    best_c = cs.ids[j];
                } else if e < second {
                    second = e;
                }
            }
            assign[i] = best_c;
            ub[i] = best;
            lb[i] = second;
            stats.evals += evals;
            stats.pruned_points += u64::from(pruned);
        }
    }
}

/// Run the blocked SoA kernel over one contiguous span of `lanes`
/// starting at position `off`, updating the `assign`/`ub`/`lb` sub-slices
/// in place — the pass itself gathers and scatters nothing. `off` must be
/// a multiple of [`SOA_BLOCK`] so the span's blocks line up with the
/// precomputed per-block boxes.
#[allow(clippy::too_many_arguments)]
fn soa_span_identity<const D: usize>(
    hamerly: bool,
    pruning: bool,
    k: usize,
    lanes: &Lanes<D>,
    cs: &CenterScratch,
    off: usize,
    assign: &mut [u32],
    ub: &mut [f64],
    lb: &mut [f64],
    sc: &mut KernelScratch,
) -> SpanStats {
    debug_assert_eq!(off % SOA_BLOCK, 0, "span offset must be block-aligned");
    let mut stats = SpanStats::default();
    let len = assign.len();
    let mut b = 0;
    // geo-analyze: hot-loop
    while b < len {
        let blen = SOA_BLOCK.min(len - b);
        let block: [&[f64]; D] =
            std::array::from_fn(|d| &lanes.coords[d][off + b..off + b + blen]);
        process_block::<D>(
            hamerly,
            pruning,
            k,
            &block,
            &lanes.boxes[(off + b) / SOA_BLOCK],
            cs,
            sc,
            &mut assign[b..b + blen],
            &mut ub[b..b + blen],
            &mut lb[b..b + blen],
            &mut stats,
        );
        b += blen;
    }
    stats
}

impl<const D: usize> Solver<'_, D> {
    /// Evaluate one point against the (bbox-sorted) centers.
    /// `sorted`: `(effective distance to local bbox, center id)` ascending.
    #[inline]
    fn evaluate_point(&self, p: usize, sorted: &[(f64, u32)]) -> Eval {
        let hamerly = self.cfg.hamerly_bounds;
        if hamerly && self.ub[p] < self.lb[p] {
            return Eval {
                assignment: self.assignment[p],
                ub: self.ub[p],
                lb: self.lb[p],
                evals: 0,
                skipped: true,
                bbox_break: false,
            };
        }
        let pt = &self.points[p];
        let mut best = f64::INFINITY;
        let mut second = f64::INFINITY;
        let mut best_c = self.assignment[p];
        let mut evals = 0u32;
        let mut bbox_break = false;
        // geo-analyze: hot-loop
        for &(dist_to_bb, c) in sorted {
            if self.cfg.bbox_pruning && dist_to_bb > second {
                bbox_break = true;
                break;
            }
            let e = pt.dist(&self.centers[c as usize]) / self.influence[c as usize];
            evals += 1;
            if e < best {
                second = best;
                best = e;
                best_c = c;
            } else if e < second {
                second = e;
            }
        }
        Eval { assignment: best_c, ub: best, lb: second, evals, skipped: false, bbox_break }
    }

    /// One assignment pass through the blocked SoA kernel over the round's
    /// points: the sample held in the working set when `sampled`, else all
    /// local points. Either way the kernel slices contiguous coordinate
    /// lanes and bound arrays — the working set was gathered once when the
    /// round began, so no balance iteration gathers or scatters.
    fn soa_assignment_pass(&mut self, sampled: bool) {
        let (lanes, assign, ub, lb) = if sampled {
            let ws = &mut self.ws;
            (&ws.lanes, &mut ws.assignment[..], &mut ws.ub[..], &mut ws.lb[..])
        } else {
            (&self.lanes, &mut self.assignment[..], &mut self.ub[..], &mut self.lb[..])
        };
        let len = assign.len();
        if len == 0 {
            return;
        }
        let k = self.k;
        let hamerly = self.cfg.hamerly_bounds;
        let pruning = self.cfg.bbox_pruning;
        let nt = if self.cfg.parallel_local && len >= 4096 {
            rayon::current_num_threads().clamp(1, len.div_ceil(SOA_BLOCK))
        } else {
            1
        };
        if self.kscratch.len() < nt {
            self.kscratch.resize_with(nt, || KernelScratch::new(k));
        }
        // Block-aligned spans: every worker's blocks then coincide with
        // the blocks whose boxes were precomputed.
        let span = len.div_ceil(nt).next_multiple_of(SOA_BLOCK);
        let cs = &self.cscratch;
        let mut total = SpanStats::default();
        if nt == 1 {
            total = soa_span_identity::<D>(
                hamerly,
                pruning,
                k,
                lanes,
                cs,
                0,
                assign,
                ub,
                lb,
                &mut self.kscratch[0],
            );
        } else {
            // Scoped workers over disjoint contiguous spans — the same
            // disjoint-chunk discipline the rayon shim's
            // `collect_into_vec` uses, without staging an Eval per
            // point. Span boundaries (hence block boundaries and the
            // pruning counters) depend on `nt`, the results do not.
            std::thread::scope(|s| {
                let mut joins = Vec::new();
                let mut rest = (assign, ub, lb);
                let mut scratch = self.kscratch.iter_mut();
                let mut off = 0;
                while off < len {
                    let take = span.min(len - off);
                    let (a, ra) = rest.0.split_at_mut(take);
                    let (u, ru) = rest.1.split_at_mut(take);
                    let (l, rl) = rest.2.split_at_mut(take);
                    rest = (ra, ru, rl);
                    let sc = scratch.next().expect("one scratch per span");
                    joins.push(s.spawn(move || {
                        soa_span_identity::<D>(hamerly, pruning, k, lanes, cs, off, a, u, l, sc)
                    }));
                    off += take;
                }
                for j in joins {
                    total.add(j.join().expect("soa kernel worker panicked"));
                }
            });
        }
        self.stats.points_visited += len as u64;
        self.stats.distance_evals += total.evals;
        self.stats.hamerly_skips += total.skips;
        self.stats.bbox_breaks += total.pruned_points;
    }

    /// Algorithm 1: assign points, rebalance influences until the partition
    /// is balanced or `max_balance_iterations` is hit. The final global
    /// block weights are left in `self.global_sizes`.
    ///
    /// `sampled` says `active` is a shuffled sample that the caller has
    /// loaded into the working set (SoA kernel only); otherwise the SoA
    /// kernel takes `active` to be `0..n_local`, a full-set round.
    fn assign_and_balance<C: Comm>(&mut self, comm: &C, active: &[u32], sampled: bool) {
        let k = self.k;
        self.global_sizes.clear();
        self.global_sizes.resize(k, 0.0);
        self.local_sizes.clear();
        self.local_sizes.resize(k, 0.0);
        // Bounding box around the active local points (Alg. 1 line 1).
        // Points never move, so one box serves every balance iteration.
        let bb = if !self.cfg.soa_kernel {
            Aabb::from_points_indexed(self.points, active)
        } else if sampled {
            self.ws.lanes.bbox()
        } else {
            self.full_bbox
        };
        for balance_iter in 0..self.cfg.max_balance_iterations {
            self.stats.balance_iterations += 1;

            // Centers sorted by their *minimum* effective distance to the
            // active box (see DESIGN.md erratum 4 — the paper prints
            // maxDist, which would make the early break unsound).
            let (centers, influence) = (&self.centers, &self.influence);
            self.cscratch.order.clear();
            self.cscratch.order.extend((0..k as u32).map(|c| {
                let d = match &bb {
                    Some(bb) => {
                        bb.min_dist(&centers[c as usize]) / influence[c as usize]
                    }
                    None => 0.0,
                };
                (d, c)
            }));
            if self.cfg.bbox_pruning {
                self.cscratch
                    .order
                    .sort_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
            }

            // geo-analyze: allow(kernel-entropy): this clock IS the assignment-phase measurement; it never influences control flow or output.
            let assign_t0 = std::time::Instant::now();
            if self.cfg.soa_kernel {
                self.cscratch.fill_sorted::<D>(&self.centers, &self.influence);
                self.soa_assignment_pass(sampled);
                // Block-weight accumulation stays a single serial pass in
                // active order so the sums are bitwise-independent of the
                // worker count (and identical to the AoS path's).
                self.local_sizes.iter_mut().for_each(|s| *s = 0.0);
                if sampled {
                    let ws = &self.ws;
                    // geo-analyze: hot-loop
                    for (&j, &w) in ws.slot.iter().zip(&ws.weights) {
                        self.local_sizes[ws.assignment[j as usize] as usize] += w;
                    }
                } else {
                    for &p in active {
                        let p = p as usize;
                        self.local_sizes[self.assignment[p] as usize] += self.weights[p];
                    }
                }
            } else {
                // AoS reference path: per-point Evals through the solver's
                // reusable buffer — no per-point allocation.
                let use_rayon = self.cfg.parallel_local && active.len() >= 4096;
                let mut evals = std::mem::take(&mut self.evals);
                {
                    let this: &Solver<'_, D> = self;
                    let sorted = &this.cscratch.order;
                    if use_rayon {
                        active
                            .par_iter()
                            .map(|&p| this.evaluate_point(p as usize, sorted))
                            .collect_into_vec(&mut evals);
                    } else {
                        evals.clear();
                        evals.extend(
                            active.iter().map(|&p| this.evaluate_point(p as usize, sorted)),
                        );
                    }
                }

                self.local_sizes.iter_mut().for_each(|s| *s = 0.0);
                for (&p, ev) in active.iter().zip(&evals) {
                    let p = p as usize;
                    self.assignment[p] = ev.assignment;
                    self.ub[p] = ev.ub;
                    self.lb[p] = ev.lb;
                    self.stats.points_visited += 1;
                    self.stats.distance_evals += ev.evals as u64;
                    self.stats.hamerly_skips += u64::from(ev.skipped);
                    self.stats.bbox_breaks += u64::from(ev.bbox_break);
                    self.local_sizes[ev.assignment as usize] += self.weights[p];
                }
                self.evals = evals;
            }
            self.stats.assignment_seconds += assign_t0.elapsed().as_secs_f64();

            // The only communication of the balance loop (Alg. 1 line 31).
            self.global_sizes.copy_from_slice(&self.local_sizes);
            comm.allreduce_sum_f64(&mut self.global_sizes);

            let total: f64 = self.global_sizes.iter().sum();
            // Per-block targets: uniform total/k, or the configured
            // heterogeneous fractions (paper footnote 1).
            let mut worst_ratio = 0.0f64;
            let mut all_within = true;
            for c in 0..k {
                let target = total * self.fractions[c];
                if target <= 0.0 {
                    continue;
                }
                worst_ratio = worst_ratio.max(self.global_sizes[c] / target);
                // Weighted form of the paper's Lmax = (1+ε)·⌈w(V)/k⌉: the
                // `target + w_max` floor is what makes the constraint
                // feasible when single point weights exceed ε·target.
                let allowed =
                    ((1.0 + self.cfg.epsilon) * target).max(target + self.w_max);
                if self.global_sizes[c] > allowed + 1e-12 {
                    all_within = false;
                }
            }
            self.stats.final_imbalance = (worst_ratio - 1.0).max(0.0);
            self.stats.balance_achieved = all_within;
            if all_within {
                return;
            }
            if balance_iter + 1 == self.cfg.max_balance_iterations {
                return;
            }

            // Adapt influences (Eq. 1, corrected) and relax bounds — all
            // through solver-owned scratch.
            self.old_influence.clear();
            self.old_influence.extend_from_slice(&self.influence);
            adapt_influences(
                &mut self.influence,
                &self.global_sizes,
                &self.fractions,
                total,
                D,
                self.cfg.influence_change_cap,
            );
            if self.cfg.hamerly_bounds {
                self.relax.set_influence_only(&self.old_influence, &self.influence);
                self.relax_bounds(sampled);
            }
        }
    }

    /// Apply `self.relax` to the bounds of the round's points: the working
    /// set when `sampled`, else the full arrays. (The full arrays also
    /// serve the reference path's sampling rounds: a point no round has
    /// activated yet holds `(∞, 0)`, which every relaxation maps to
    /// itself, so relaxing it or not is the same.)
    fn relax_bounds(&mut self, sampled: bool) {
        let (ub, lb, assignment) = if sampled {
            let ws = &mut self.ws;
            (&mut ws.ub, &mut ws.lb, &ws.assignment)
        } else {
            (&mut self.ub, &mut self.lb, &self.assignment)
        };
        self.relax.apply(ub, lb, assignment, assignment.len());
    }

    /// New centers = weighted mean of the active points of each cluster
    /// (Algorithm 2 lines 12–13: local sums + one global vector sum).
    /// Clusters with zero active weight keep their old center. The result
    /// lands in `self.new_centers_buf` and the per-center movement in
    /// `self.delta`; returns the maximum movement.
    fn compute_new_centers<C: Comm>(&mut self, comm: &C, active: &[u32], sampled: bool) -> f64 {
        let k = self.k;
        let stride = D + 1;
        self.center_sums.clear();
        self.center_sums.resize(k * stride, 0.0);
        if sampled {
            // Same terms in the same (shuffled) order as below, read from
            // the working set.
            let ws = &self.ws;
            // geo-analyze: hot-loop
            for (&j, &w) in ws.slot.iter().zip(&ws.weights) {
                let j = j as usize;
                let c = ws.assignment[j] as usize;
                for d in 0..D {
                    self.center_sums[c * stride + d] += w * ws.lanes.coords[d][j];
                }
                self.center_sums[c * stride + D] += w;
            }
        } else {
            for &p in active {
                let p = p as usize;
                let c = self.assignment[p] as usize;
                let w = self.weights[p];
                for d in 0..D {
                    self.center_sums[c * stride + d] += w * self.points[p][d];
                }
                self.center_sums[c * stride + D] += w;
            }
        }
        comm.allreduce_sum_f64(&mut self.center_sums);
        let (sums, centers, buf) =
            (&self.center_sums, &self.centers, &mut self.new_centers_buf);
        buf.clear();
        for c in 0..k {
            let w = sums[c * stride + D];
            buf.push(if w > 0.0 {
                let mut coords = [0.0; D];
                for d in 0..D {
                    coords[d] = sums[c * stride + d] / w;
                }
                Point::new(coords)
            } else {
                centers[c]
            });
        }
        self.delta.clear();
        let (delta, buf) = (&mut self.delta, &self.new_centers_buf);
        delta.extend(centers.iter().zip(buf).map(|(a, b)| a.dist(b)));
        delta.iter().copied().fold(0.0, f64::max)
    }
}

/// Extension used by the solver: bounding box over an index subset.
trait AabbIndexed<const D: usize> {
    fn from_points_indexed(points: &[Point<D>], idx: &[u32]) -> Option<Aabb<D>>;
}

impl<const D: usize> AabbIndexed<D> for Aabb<D> {
    fn from_points_indexed(points: &[Point<D>], idx: &[u32]) -> Option<Aabb<D>> {
        let first = *idx.first()?;
        let p0 = points[first as usize];
        let mut bb = Aabb { min: p0, max: p0 };
        for &i in &idx[1..] {
            bb.grow(&points[i as usize]);
        }
        Some(bb)
    }
}

/// Run balanced k-means (Algorithm 2) on the rank-local `points` with the
/// given replicated `initial_centers`.
///
/// All ranks must call this collectively with identical `k`, `cfg`, and
/// `initial_centers`. Returns the local assignment plus final replicated
/// centers/influences and this rank's work counters.
pub fn balanced_kmeans<const D: usize, C: Comm>(
    comm: &C,
    points: &[Point<D>],
    weights: &[f64],
    k: usize,
    initial_centers: Vec<Point<D>>,
    cfg: &Config,
) -> KMeansOutput<D> {
    balanced_kmeans_warm(comm, points, weights, k, initial_centers, vec![1.0; k], cfg)
}

/// Warm-started balanced k-means: resume from the centers *and* influence
/// values of a previous solve instead of the neutral `I(c) = 1` start.
///
/// This is the solver behind [`crate::repartition_spmd`] (DESIGN.md §5):
/// on a converged previous solution, `(centers, influence)` exactly
/// reproduce the previous assignment, so an unchanged point set re-balances
/// in one assignment pass with zero migration, and a slightly drifted one
/// converges in a handful of iterations instead of re-running the whole
/// SFC bootstrap.
///
/// Same collective contract as [`balanced_kmeans`]; `initial_influence`
/// must be replicated, length `k`, and strictly positive.
pub fn balanced_kmeans_warm<const D: usize, C: Comm>(
    comm: &C,
    points: &[Point<D>],
    weights: &[f64],
    k: usize,
    initial_centers: Vec<Point<D>>,
    initial_influence: Vec<f64>,
    cfg: &Config,
) -> KMeansOutput<D> {
    assert_eq!(points.len(), weights.len());
    assert_eq!(initial_centers.len(), k, "need exactly k initial centers");
    assert_eq!(initial_influence.len(), k, "need exactly k initial influences");
    assert!(
        initial_influence.iter().all(|i| i.is_finite() && *i > 0.0),
        "initial influences must be positive and finite"
    );
    assert!(k >= 1, "geographer config: k must be at least 1");
    cfg.validate();
    let n_local = points.len();

    // Neighbourhood scale β(C) for the erosion sigmoid: the expected
    // cluster cell size, 2·diag/k^(1/D). A deterministic proxy for the
    // paper's "average cluster diameter" (DESIGN.md §2).
    let bb = crate::pipeline::global_bbox(comm, points);
    let local_w_max = weights.iter().copied().fold(0.0, f64::max);
    let w_max = comm.allreduce(local_w_max, f64::max);
    let diag = bb.diagonal();
    let beta = 2.0 * diag / (k as f64).powf(1.0 / D as f64);
    let delta_threshold = cfg.delta_threshold * diag;

    // Structure-of-arrays coordinate lanes for the blocked kernel, built
    // once per solve (DESIGN.md §9).
    let mut lanes = Lanes::default();
    if cfg.soa_kernel {
        lanes.coords = (0..D).map(|d| points.iter().map(|p| p[d]).collect()).collect();
        lanes.rebuild_boxes();
    }
    let full_bbox = lanes.bbox();
    // The working set is sized once, for the largest sample short of the
    // full set (the last `initial_sample·2^j < n_local`): growing it round
    // by round would hold the old and the new buffers at once.
    let mut ws_cap = 0;
    if cfg.soa_kernel && cfg.sampling_init && cfg.initial_sample < n_local {
        ws_cap = cfg.initial_sample;
        while ws_cap * 2 < n_local {
            ws_cap *= 2;
        }
    }

    let mut solver = Solver {
        points,
        weights,
        k,
        cfg,
        centers: initial_centers,
        influence: initial_influence,
        assignment: vec![0u32; n_local],
        ub: vec![f64::INFINITY; n_local],
        lb: vec![0.0; n_local],
        w_max,
        fractions: cfg.fractions(k),
        evals: Vec::new(),
        lanes,
        ws: WorkingSet::with_capacity(ws_cap),
        full_bbox,
        cscratch: CenterScratch::default(),
        kscratch: Vec::new(),
        old_influence: Vec::with_capacity(k),
        delta: Vec::with_capacity(k),
        center_sums: Vec::with_capacity(k * (D + 1)),
        new_centers_buf: Vec::with_capacity(k),
        relax: Relaxation::with_capacity(k),
        local_sizes: Vec::with_capacity(k),
        global_sizes: Vec::with_capacity(k),
        stats: KMeansStats::default(),
    };

    // Sampling initialization (Sec. 4.5): a random local permutation whose
    // prefix is the active sample, doubling every movement round. Once the
    // sample covers every local point the order is restored to the
    // identity (sorting a permutation yields 0..n): the steady-state
    // passes then run over the solve-wide lanes. Until then the SoA kernel
    // runs over the round's working set. Both kernels sum in the same
    // active order, so the (order-sensitive) weight and centroid sums stay
    // bitwise-identical between them.
    let mut perm: Vec<u32> = (0..n_local as u32).collect();
    let mut shuffled = false;
    let mut sample_len = if cfg.sampling_init {
        let mut rng = SplitMix64::new(cfg.seed ^ (comm.rank() as u64).wrapping_mul(0xA24B_AED4));
        rng.shuffle(&mut perm);
        shuffled = true;
        cfg.initial_sample.min(n_local)
    } else {
        n_local
    };

    let mut iterations_left = cfg.max_iterations;
    while iterations_left > 0 {
        iterations_left -= 1;
        solver.stats.movement_iterations += 1;
        if shuffled && sample_len >= n_local {
            perm.sort_unstable();
            shuffled = false;
        }
        let active = &perm[..sample_len];
        let sampled = cfg.soa_kernel && shuffled;
        if sampled {
            solver.ws.load(
                active,
                points,
                weights,
                &solver.assignment,
                &solver.ub,
                &solver.lb,
            );
        }

        // Everyone must agree whether this is still a sampling round.
        let local_full = u64::from(sample_len >= n_local);
        let all_full = comm.allreduce(local_full, u64::min) == 1;

        solver.assign_and_balance(comm, active, sampled);

        let max_delta = solver.compute_new_centers(comm, active, sampled);

        // Converged = centers stationary AND the balance constraint met.
        // (A stationary-but-imbalanced state keeps iterating: the influence
        // adaptation inside assign_and_balance continues to shift block
        // boundaries even with fixed centers; cf. the paper's Sec. 4.5
        // "balance was always achieved when allowing a sufficient number of
        // balance and movement iterations".)
        if all_full && max_delta < delta_threshold && solver.stats.balance_achieved {
            solver.stats.converged = true;
            break;
        }

        // Move centers; erode influences (Eqs. 2–3); relax bounds (Eqs.
        // 4–5, corrected) — all through solver-owned scratch.
        solver.old_influence.clear();
        solver.old_influence.extend_from_slice(&solver.influence);
        std::mem::swap(&mut solver.centers, &mut solver.new_centers_buf);
        if cfg.influence_erosion {
            for (inf, &d) in solver.influence.iter_mut().zip(&solver.delta) {
                *inf = erode(*inf, erosion_alpha(d, beta));
            }
        }
        if cfg.hamerly_bounds {
            solver.relax.set_movement(
                &solver.delta,
                &solver.old_influence,
                &solver.influence,
            );
            solver.relax_bounds(sampled);
        }
        if sampled {
            solver.ws.store(&mut solver.assignment, &mut solver.ub, &mut solver.lb);
        }

        if !all_full {
            sample_len = (sample_len * 2).min(n_local);
        }
    }

    // If the iteration budget ran out mid-sampling, points outside the
    // sample have never been assigned: finish with one full pass (in
    // identity order — the pass covers everything, so the sample
    // permutation no longer matters). The decision must be global so the
    // collectives stay matched.
    let local_full = u64::from(sample_len >= n_local);
    let all_full = comm.allreduce(local_full, u64::min) == 1;
    if !all_full {
        perm.sort_unstable();
        solver.assign_and_balance(comm, &perm, false);
    }

    KMeansOutput {
        assignment: solver.assignment,
        centers: solver.centers,
        influence: solver.influence,
        stats: solver.stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geographer_parcomm::SelfComm;

    fn uniform_points(n: usize, seed: u64) -> Vec<Point<2>> {
        let mut rng = SplitMix64::new(seed);
        (0..n).map(|_| Point::new([rng.next_f64(), rng.next_f64()])).collect()
    }

    fn sfc_like_centers(points: &[Point<2>], k: usize) -> Vec<Point<2>> {
        // Deterministic spread-out centers for tests: every (n/k)-th point.
        let n = points.len();
        (0..k).map(|i| points[(i * n / k + n / (2 * k)).min(n - 1)]).collect()
    }

    #[test]
    fn k1_assigns_all_to_zero() {
        let pts = uniform_points(200, 1);
        let w = vec![1.0; 200];
        let out = balanced_kmeans(&SelfComm, &pts, &w, 1, vec![pts[0]], &Config::default());
        assert!(out.assignment.iter().all(|&b| b == 0));
        assert_eq!(out.stats.final_imbalance, 0.0);
    }

    #[test]
    fn balance_constraint_met_on_uniform_data() {
        let n = 3000;
        let pts = uniform_points(n, 2);
        let w = vec![1.0; n];
        let k = 8;
        let cfg = Config::default();
        let out = balanced_kmeans(&SelfComm, &pts, &w, k, sfc_like_centers(&pts, k), &cfg);
        let mut sizes = vec![0.0; k];
        for &b in &out.assignment {
            sizes[b as usize] += 1.0;
        }
        let max = sizes.iter().cloned().fold(0.0, f64::max);
        let avg = n as f64 / k as f64;
        assert!(
            max / avg - 1.0 <= cfg.epsilon + 1e-9,
            "imbalance {} > ε, sizes {sizes:?}",
            max / avg - 1.0
        );
    }

    #[test]
    fn balance_constraint_met_on_skewed_density() {
        // Heavy cluster of points in a corner plus sparse rest: influence
        // balancing must still achieve ε.
        let mut rng = SplitMix64::new(3);
        let mut pts = Vec::new();
        for _ in 0..2000 {
            pts.push(Point::new([rng.next_f64() * 0.1, rng.next_f64() * 0.1]));
        }
        for _ in 0..1000 {
            pts.push(Point::new([rng.next_f64(), rng.next_f64()]));
        }
        let w = vec![1.0; pts.len()];
        let k = 6;
        let cfg = Config { max_iterations: 80, ..Config::default() };
        let out = balanced_kmeans(&SelfComm, &pts, &w, k, sfc_like_centers(&pts, k), &cfg);
        let mut sizes = vec![0.0; k];
        for &b in &out.assignment {
            sizes[b as usize] += 1.0;
        }
        let max = sizes.iter().cloned().fold(0.0, f64::max);
        let avg = pts.len() as f64 / k as f64;
        assert!(
            max / avg - 1.0 <= cfg.epsilon + 1e-9,
            "imbalance {} sizes {sizes:?}",
            max / avg - 1.0
        );
    }

    #[test]
    fn weighted_balance() {
        let n = 2000;
        let pts = uniform_points(n, 4);
        let mut rng = SplitMix64::new(5);
        let w: Vec<f64> = (0..n).map(|_| 1.0 + 9.0 * rng.next_f64()).collect();
        let k = 5;
        let cfg = Config::default();
        let out = balanced_kmeans(&SelfComm, &pts, &w, k, sfc_like_centers(&pts, k), &cfg);
        let mut sizes = vec![0.0; k];
        for (&b, &wi) in out.assignment.iter().zip(&w) {
            sizes[b as usize] += wi;
        }
        let total: f64 = w.iter().sum();
        let max = sizes.iter().cloned().fold(0.0, f64::max);
        assert!(max / (total / k as f64) - 1.0 <= cfg.epsilon + 1e-9, "{sizes:?}");
    }

    #[test]
    fn optimizations_do_not_change_result() {
        // With bounds/pruning on or off, the algorithm must produce the
        // *identical* assignment (they are exact optimizations).
        let n = 1500;
        let pts = uniform_points(n, 6);
        let w = vec![1.0; n];
        let k = 7;
        let centers = sfc_like_centers(&pts, k);
        let base_cfg =
            Config { sampling_init: false, ..Config::default() };
        let on = balanced_kmeans(&SelfComm, &pts, &w, k, centers.clone(), &base_cfg);
        let off = balanced_kmeans(
            &SelfComm,
            &pts,
            &w,
            k,
            centers,
            &Config { hamerly_bounds: false, bbox_pruning: false, ..base_cfg },
        );
        assert_eq!(on.assignment, off.assignment);
        assert!(
            on.stats.distance_evals < off.stats.distance_evals,
            "optimizations must save distance evaluations ({} vs {})",
            on.stats.distance_evals,
            off.stats.distance_evals
        );
    }

    #[test]
    fn hamerly_skip_rate_is_high_in_late_iterations() {
        // Sec. 4.3: "the innermost loop can be skipped in about 80 % of the
        // cases". On uniform data with enough iterations the aggregate skip
        // rate must be substantial.
        let n = 4000;
        let pts = uniform_points(n, 7);
        let w = vec![1.0; n];
        let k = 10;
        let cfg = Config { sampling_init: false, ..Config::default() };
        let out = balanced_kmeans(&SelfComm, &pts, &w, k, sfc_like_centers(&pts, k), &cfg);
        assert!(
            out.stats.skip_rate() > 0.4,
            "skip rate unexpectedly low: {}",
            out.stats.skip_rate()
        );
    }

    #[test]
    fn converges_and_reports_it() {
        let pts = uniform_points(1000, 8);
        let w = vec![1.0; 1000];
        let cfg = Config { max_iterations: 200, ..Config::default() };
        let out = balanced_kmeans(&SelfComm, &pts, &w, 4, sfc_like_centers(&pts, 4), &cfg);
        assert!(out.stats.converged, "should converge within 200 iterations");
        assert!(out.stats.movement_iterations < 200);
    }

    #[test]
    fn rayon_path_matches_serial() {
        let n = 6000; // above the rayon threshold
        let pts = uniform_points(n, 9);
        let w = vec![1.0; n];
        let k = 6;
        let centers = sfc_like_centers(&pts, k);
        let cfg = Config { sampling_init: false, ..Config::default() };
        let serial = balanced_kmeans(&SelfComm, &pts, &w, k, centers.clone(), &cfg);
        let parallel = balanced_kmeans(
            &SelfComm,
            &pts,
            &w,
            k,
            centers,
            &Config { parallel_local: true, ..cfg },
        );
        assert_eq!(serial.assignment, parallel.assignment);
    }

    #[test]
    fn soa_kernel_matches_aos_bitwise() {
        // The blocked SoA kernel is an exact restructuring of the AoS
        // reference scan: assignments, centers, and influences must agree
        // bitwise across sampling and local-parallel modes, while the
        // per-block pruning bound must never *increase* the eval count.
        let n = 5000;
        let pts = uniform_points(n, 12);
        let mut rng = SplitMix64::new(13);
        let w: Vec<f64> = (0..n).map(|_| 1.0 + rng.next_f64()).collect();
        let k = 7;
        let centers = sfc_like_centers(&pts, k);
        for sampling in [true, false] {
            for par in [false, true] {
                let cfg = Config {
                    sampling_init: sampling,
                    parallel_local: par,
                    max_iterations: 40,
                    ..Config::default()
                };
                let soa = balanced_kmeans(&SelfComm, &pts, &w, k, centers.clone(), &cfg);
                let aos = balanced_kmeans(
                    &SelfComm,
                    &pts,
                    &w,
                    k,
                    centers.clone(),
                    &Config { soa_kernel: false, ..cfg },
                );
                assert_eq!(soa.assignment, aos.assignment, "sampling={sampling} par={par}");
                assert_eq!(soa.centers, aos.centers);
                assert_eq!(soa.influence, aos.influence);
                assert_eq!(soa.stats.movement_iterations, aos.stats.movement_iterations);
                assert!(
                    soa.stats.distance_evals <= aos.stats.distance_evals,
                    "block pruning must not evaluate more: {} vs {}",
                    soa.stats.distance_evals,
                    aos.stats.distance_evals
                );
            }
        }
    }

    #[test]
    fn sampling_init_assigns_every_point() {
        let pts = uniform_points(3000, 10);
        let w = vec![1.0; 3000];
        // Few iterations: the run ends while sampling is still growing; the
        // final full pass must still assign everything within balance.
        let cfg = Config { max_iterations: 2, ..Config::default() };
        let out = balanced_kmeans(&SelfComm, &pts, &w, 5, sfc_like_centers(&pts, 5), &cfg);
        let mut sizes = vec![0usize; 5];
        for &b in &out.assignment {
            sizes[b as usize] += 1;
        }
        assert!(sizes.iter().all(|&s| s > 0), "every block populated: {sizes:?}");
    }

    #[test]
    fn heterogeneous_target_fractions() {
        // Paper footnote 1: non-uniform block sizes for heterogeneous
        // architectures. Ask for a 1/2 : 1/4 : 1/4 split.
        let n = 4000;
        let pts = uniform_points(n, 21);
        let w = vec![1.0; n];
        let fractions = vec![0.5, 0.25, 0.25];
        let cfg = Config {
            target_fractions: Some(fractions.clone()),
            max_iterations: 150,
            ..Config::default()
        };
        let out = balanced_kmeans(&SelfComm, &pts, &w, 3, sfc_like_centers(&pts, 3), &cfg);
        let mut sizes = [0.0; 3];
        for &b in &out.assignment {
            sizes[b as usize] += 1.0;
        }
        for (c, &frac) in fractions.iter().enumerate() {
            let target = n as f64 * frac;
            assert!(
                sizes[c] <= (1.0 + cfg.epsilon) * target + 1e-9,
                "block {c}: {} > (1+ε)·{target}",
                sizes[c]
            );
        }
        assert!(out.stats.balance_achieved);
        // The big block really is about twice the small ones.
        assert!(sizes[0] > 1.8 * sizes[1]);
    }

    #[test]
    #[should_panic(expected = "length must equal k")]
    fn wrong_fraction_count_panics() {
        let pts = uniform_points(100, 22);
        let w = vec![1.0; 100];
        let cfg = Config { target_fractions: Some(vec![0.5, 0.5]), ..Config::default() };
        let _ = balanced_kmeans(&SelfComm, &pts, &w, 3, sfc_like_centers(&pts, 3), &cfg);
    }

    #[test]
    fn warm_restart_of_converged_state_is_a_fixed_point() {
        // Re-running the solver from a converged (centers, influence) pair
        // on the same points must reproduce the assignment exactly and stop
        // after a single movement iteration — the contract the whole
        // repartitioning subsystem rests on (DESIGN.md §5).
        let pts = uniform_points(1500, 30);
        let w = vec![1.0; 1500];
        let k = 6;
        let cfg = Config { sampling_init: false, max_iterations: 200, ..Config::default() };
        let cold = balanced_kmeans(&SelfComm, &pts, &w, k, sfc_like_centers(&pts, k), &cfg);
        assert!(cold.stats.converged);
        let warm = balanced_kmeans_warm(
            &SelfComm,
            &pts,
            &w,
            k,
            cold.centers.clone(),
            cold.influence.clone(),
            &cfg,
        );
        assert_eq!(warm.assignment, cold.assignment);
        assert_eq!(warm.stats.movement_iterations, 1);
        assert!(warm.stats.converged);
    }

    #[test]
    #[should_panic(expected = "initial influences must be positive")]
    fn warm_restart_rejects_non_positive_influence() {
        let pts = uniform_points(100, 31);
        let w = vec![1.0; 100];
        let _ = balanced_kmeans_warm(
            &SelfComm,
            &pts,
            &w,
            2,
            sfc_like_centers(&pts, 2),
            vec![1.0, 0.0],
            &Config::default(),
        );
    }

    /// Seeded instance from one of the two test mesh families: `uniform`
    /// fills the unit cube, `clustered` packs two thirds of the points
    /// into a dense corner blob (the skewed-density regime that drives
    /// influence balancing hardest).
    fn family_points<const D: usize>(n: usize, seed: u64, clustered: bool) -> Vec<Point<D>> {
        let mut rng = SplitMix64::new(seed);
        (0..n)
            .map(|i| {
                let scale = if clustered && i % 3 != 0 { 0.12 } else { 1.0 };
                Point::new(std::array::from_fn(|_| rng.next_f64() * scale))
            })
            .collect()
    }

    fn spread_centers<const D: usize>(points: &[Point<D>], k: usize) -> Vec<Point<D>> {
        let n = points.len();
        (0..k).map(|i| points[(i * n / k + n / (2 * k)).min(n - 1)]).collect()
    }

    /// One property-sweep case: solve the same distributed instance with
    /// the SoA kernel on and off; every rank must agree bitwise. At p = 4
    /// the shards are uneven on purpose: rank 0 holds nothing, rank 1
    /// fewer points than a 100- or 257-point first sample, and no shard
    /// is a multiple of `SOA_BLOCK`.
    fn assert_soa_matches_aos<const D: usize>(
        p: usize,
        seed: u64,
        clustered: bool,
        initial_sample: usize,
        max_iterations: usize,
    ) {
        let n = 1200;
        let pts = family_points::<D>(n, seed, clustered);
        let mut rng = SplitMix64::new(seed ^ 0x9E37_79B9);
        let w: Vec<f64> = (0..n).map(|_| 1.0 + rng.next_f64()).collect();
        let k = 5;
        let centers = spread_centers(&pts, k);
        let cfg = Config { max_iterations, initial_sample, ..Config::default() };
        let aos_cfg = Config { soa_kernel: false, ..cfg.clone() };
        let cuts: &[usize] = if p == 1 { &[0, n] } else { &[0, 0, 57, 657, n] };
        assert_eq!(cuts.len(), p + 1);
        let results = geographer_parcomm::run_spmd(p, |c| {
            let (lo, hi) = (cuts[c.rank()], cuts[c.rank() + 1]);
            let soa = balanced_kmeans(&c, &pts[lo..hi], &w[lo..hi], k, centers.clone(), &cfg);
            let aos =
                balanced_kmeans(&c, &pts[lo..hi], &w[lo..hi], k, centers.clone(), &aos_cfg);
            (soa, aos)
        });
        for (r, (soa, aos)) in results.iter().enumerate() {
            let tag = format!(
                "D={D} p={p} rank={r} seed={seed} clustered={clustered} \
                 initial_sample={initial_sample} max_iterations={max_iterations}"
            );
            assert_eq!(soa.assignment, aos.assignment, "{tag}");
            assert_eq!(soa.centers, aos.centers, "{tag}");
            assert_eq!(soa.influence, aos.influence, "{tag}");
            let (s, a) = (&soa.stats, &aos.stats);
            assert_eq!(s.movement_iterations, a.movement_iterations, "{tag}");
            assert_eq!(s.balance_iterations, a.balance_iterations, "{tag}");
            assert_eq!(s.points_visited, a.points_visited, "{tag}");
            assert_eq!(s.hamerly_skips, a.hamerly_skips, "{tag}");
            assert!(
                s.distance_evals <= a.distance_evals,
                "{tag}: block pruning must not evaluate more"
            );
        }
    }

    #[test]
    fn soa_matches_aos_across_dims_ranks_and_families() {
        // Hand-rolled property sweep (the workspace carries no proptest
        // dependency): seeded random instances across D ∈ {2, 3},
        // p ∈ {1, 4}, both mesh families, and first samples of 1, 100 and
        // 257 points — sampling rounds run the SoA kernel over a gathered
        // working set, so they are where the two paths differ most. A
        // budget of 3 movement iterations runs out mid-sampling and ends
        // in the final full pass; 15 reaches the full set even from a
        // single point (11 doublings). The SoA kernel claims to be an
        // exact restructuring of the AoS scan, so every combination must
        // agree bitwise on every rank.
        for seed in [41, 42, 43] {
            for p in [1usize, 4] {
                for clustered in [false, true] {
                    for initial_sample in [1, 100, 257] {
                        for max_iterations in [3, 15] {
                            assert_soa_matches_aos::<2>(
                                p,
                                seed,
                                clustered,
                                initial_sample,
                                max_iterations,
                            );
                            assert_soa_matches_aos::<3>(
                                p,
                                seed,
                                clustered,
                                initial_sample,
                                max_iterations,
                            );
                        }
                    }
                }
            }
        }
    }

    /// Warm fixed-point property: converge cold, restart warm from the
    /// converged (centers, influence) pair — the assignment must
    /// reproduce exactly in one movement iteration.
    fn assert_warm_fixed_point<const D: usize>(soa: bool, seed: u64, clustered: bool) {
        let n = 1000;
        let pts = family_points::<D>(n, seed, clustered);
        let w = vec![1.0; n];
        let k = 5;
        let cfg = Config {
            soa_kernel: soa,
            sampling_init: false,
            max_iterations: 200,
            ..Config::default()
        };
        let cold = balanced_kmeans(&SelfComm, &pts, &w, k, spread_centers(&pts, k), &cfg);
        assert!(cold.stats.converged, "D={D} soa={soa} seed={seed}");
        let warm = balanced_kmeans_warm(
            &SelfComm,
            &pts,
            &w,
            k,
            cold.centers.clone(),
            cold.influence.clone(),
            &cfg,
        );
        let tag = format!("D={D} soa={soa} seed={seed} clustered={clustered}");
        assert_eq!(warm.assignment, cold.assignment, "{tag}");
        assert_eq!(warm.stats.movement_iterations, 1, "{tag}");
        assert!(warm.stats.converged, "{tag}");
    }

    #[test]
    fn warm_fixed_point_holds_across_kernels_and_dims() {
        // The SoA restructuring must not disturb the warm-start contract
        // (DESIGN.md §5): sweep it across kernels, dimensions, and both
        // mesh families.
        for seed in [51, 52] {
            for soa in [true, false] {
                for clustered in [false, true] {
                    assert_warm_fixed_point::<2>(soa, seed, clustered);
                    assert_warm_fixed_point::<3>(soa, seed, clustered);
                }
            }
        }
    }

    #[test]
    fn influences_stay_positive_and_finite() {
        let pts = uniform_points(2000, 11);
        let w = vec![1.0; 2000];
        let out =
            balanced_kmeans(&SelfComm, &pts, &w, 9, sfc_like_centers(&pts, 9), &Config::default());
        for &i in &out.influence {
            assert!(i.is_finite() && i > 0.0, "influence degenerated: {i}");
        }
    }
}
