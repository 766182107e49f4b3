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
//! A movement round — a Sec. 4.5 sample, or every local point — is one
//! `Round`, which copies no coordinate and no weight and grows in place
//! into the next (DESIGN.md §9). Samples are keyed by the points and sums
//! are exact, so the result is the same at every rank count (§2). Every
//! pass of the balance loop, and every growth, costs O(round). The kernel
//! is the only assignment path; in test builds an oracle checks each pass.

use std::hint::select_unpredictable as select;

use geographer_geometry::{Aabb, Point, SplitMix64, Stopwatch};
use geographer_parcomm::Comm;

use crate::bounds::Relaxation;
use crate::config::{validate_k, Config, DELTA_THRESHOLD, INFLUENCE_CHANGE_CAP};
use crate::config::{SAMPLE_BALANCE_ITERATIONS, SAMPLE_SEED};
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
    /// Evaluated points for which a box bound ruled out at least one center,
    /// for the point's whole block (its shortlist is shorter than k) or for
    /// it alone — what Algorithm 1 line 16's early break became in the kernel.
    pub bbox_breaks: u64,
    /// Point visits in assignment passes (skipped or not).
    pub points_visited: u64,
    /// Wall seconds this rank spent inside assignment passes (the kernel and
    /// the block-weight sum, not the balance allreduce after them): what the
    /// scaling benchmark's per-point assignment cost and its perf gate read.
    pub assignment_seconds: f64,
    /// Whether the center-movement loop converged before `max_iterations`.
    pub converged: bool,
    /// Imbalance of the final assignment (max block weight / average − 1).
    pub final_imbalance: f64,
    /// Whether the final assignment meets `max ≤ max((1+ε)·avg, avg + w_max)`,
    /// the weighted form of the paper's `|Vi| ≤ (1+ε)·⌈|V|/k⌉`: `avg + w_max`
    /// is the floor weight granularity imposes, as the ceiling does unweighted.
    pub balance_achieved: bool,
}

impl KMeansStats {
    /// Fraction of point visits resolved by the Hamerly skip.
    pub fn skip_rate(&self) -> f64 {
        // No visit, no skip: 0 / 1.
        self.hamerly_skips as f64 / self.points_visited.max(1) as f64
    }

    /// Sum counters across ranks (call from every rank).
    pub fn reduce<C: Comm>(&self, comm: &C) -> KMeansStats {
        let counts =
            [self.distance_evals, self.hamerly_skips, self.bbox_breaks, self.points_visited];
        let [distance_evals, hamerly_skips, bbox_breaks, points_visited] =
            comm.allreduce(counts, |a, b| std::array::from_fn(|i| a[i].wrapping_add(b[i])));
        KMeansStats {
            distance_evals,
            hamerly_skips,
            bbox_breaks,
            points_visited,
            // The slowest rank bounds the phase: max, not sum.
            assignment_seconds: comm.allreduce(self.assignment_seconds, f64::max),
            // Iteration counts, convergence and balance are replicated.
            ..*self
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

/// Block width of the SoA kernel: fixed-size runs whose points and bounds
/// fit in L1. In the pipeline's curve order consecutive points are neighbours,
/// so a block's bounding box is tiny and reaches a handful of the k centers.
const SOA_BLOCK: usize = 256;

/// The points of the current movement round: their `assignment`/`ub`/`lb`, the only copy the
/// solver holds, and the `(lo, hi)` box of every [`SOA_BLOCK`]-member run. No coordinate or weight
/// is copied: passes read the caller's arrays, through `ids` on a sample, in array order — curve
/// order on both arms of the pipeline, so a block of consecutive sample members stays tight. A
/// point joins the sample in one round and stays, and one no round has reached holds `(0, ∞, 0)`,
/// so [`Round::grow`] turns a round into the next in place; nothing is written back anywhere.
#[derive(Default)]
struct Round<const D: usize> {
    assignment: Vec<u32>,
    ub: Vec<f64>,
    lb: Vec<f64>,
    boxes: Vec<Bounds<D>>,
    /// Where round j's newcomers, by ascending local index, start in `ids`.
    starts: Vec<usize>,
    /// A sample's members, by ascending local index — member j is point
    /// `ids[j]` — then the buckets not merged yet. Empty on the full set.
    ids: Vec<u32>,
    /// The bucket being merged, reserved for the largest.
    spare: Vec<u32>,
    /// The buckets as placed, which the test oracle finds the members in.
    #[cfg(test)]
    joins: Vec<u32>,
}

/// A bounding box, `(lo, hi)`.
type Bounds<const D: usize> = ([f64; D], [f64; D]);

/// `(lo, hi)` extended by `p`: one `minsd`/`maxsd` a chain, no NaN fix-up.
#[inline(always)]
fn extend<const D: usize>((mut lo, mut hi): Bounds<D>, p: &Point<D>) -> Bounds<D> {
    for d in 0..D {
        lo[d] = if p[d] < lo[d] { p[d] } else { lo[d] };
        hi[d] = if p[d] > hi[d] { p[d] } else { hi[d] };
    }
    (lo, hi)
}

impl<const D: usize> Round<D> {
    const NO_BOX: Bounds<D> = ([f64::INFINITY; D], [f64::NEG_INFINITY; D]);

    /// An empty round over `n_local` points, whose arrays never reallocate
    /// while it grows (DESIGN.md §9).
    fn new(n_local: usize) -> Self {
        let (assignment, ub) = (Vec::with_capacity(n_local), Vec::with_capacity(n_local));
        Round { assignment, ub, lb: Vec::with_capacity(n_local), ..Default::default() }
    }

    /// The Sec. 4.5 sample's buckets over the local points: round j holds the keys below
    /// `2^64·initial_sample·2^j / n` (n: the global point count), the first j with
    /// `initial_sample·2^j ≥ n` every point. A key mixes `SAMPLE_SEED` with the point's
    /// coordinates, whichever rank holds it. Each round is counted as found and parked in
    /// `assignment`'s room, then placed without a data-dependent branch: a point of the full set
    /// writes one dummy slot past the last bucket. None with sampling off.
    fn sample_joins(&mut self, points: &[Point<D>], cfg: &Config, n: u64) {
        let sizes = std::iter::successors(Some(cfg.initial_sample as u128), |s| Some(s * 2));
        let sampled = sizes.take_while(|&s| cfg.sampling_init && s < u128::from(n));
        let thresholds: Vec<u64> = sampled.map(|s| ((s << 64) / u128::from(n)) as u64).collect();
        let [.., _] = thresholds[..] else { return }; // sampling off, or n ≤ initial_sample
        let (rounds, join) = (thresholds.len(), &mut self.assignment);
        let mut starts = vec![0; rounds + 2];
        for p in points {
            let key =
                (0..D).fold(SAMPLE_SEED, |h, d| SplitMix64::new(h ^ p[d].to_bits()).next_u64());
            let j = join_round(&thresholds, key);
            starts[j + 1] += 1;
            join.push(j as u32);
        }
        (1..=rounds).for_each(|j| starts[j] += starts[j - 1]);
        let (mut next, mut joins) = (starts.clone(), vec![0; starts[rounds] + 1]);
        for (i, j) in join.drain(..).map(|j| j as usize).enumerate() {
            joins[next[j]] = i as u32;
            next[j] += usize::from(j < rounds);
        }
        joins.pop();
        starts.pop();
        self.spare.reserve_exact(starts.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0));
        #[cfg(test)]
        self.joins.clone_from(&joins);
        (self.ids, self.starts) = (joins, starts);
    }

    /// Grow the round in place to sample round `r` (buckets `..=r`), or to every point (`None`),
    /// once: members keep their state, newcomers start at `(0, ∞, 0)`. A bucket, copied aside,
    /// merges in from the back, j selecting the larger of the two last unplaced ids; members below
    /// the first newcomer stay, with their blocks' boxes. Members: `ids[..assignment.len()]` (§9).
    fn grow(&mut self, r: Option<u8>, points: &[Point<D>]) {
        let Some(r) = r else { return self.grow_full(points) };
        let Round { assignment, ub, lb, boxes, starts, ids, spare, .. } = self;
        while assignment.len() < starts[usize::from(r) + 1] {
            let old = assignment.len();
            let len = starts[starts.partition_point(|&s| s <= old)];
            spare.clear();
            spare.extend_from_slice(&ids[old..len]);
            let (mut a, mut b, new) = (old, len - old, &spare[..]);
            let keep = ids[..old].partition_point(|&i| i < new[0]);
            assignment.resize(len, 0);
            ub.resize(len, f64::INFINITY);
            lb.resize(len, 0.0);
            boxes.resize(len.div_ceil(SOA_BLOCK), Self::NO_BOX);
            let (ids, asg, ub, lb) = (&mut ids[..], &mut assignment[..], &mut ub[..], &mut lb[..]);
            // A select of two `f64`s becomes a branch; of their bits, a `cmov`.
            let pick =
                |c, old: f64, new: f64| f64::from_bits(select(c, old.to_bits(), new.to_bits()));
            // geo-analyze: hot-loop
            for blk in (keep / SOA_BLOCK..boxes.len()).rev() {
                let (start, mut bx) = (blk * SOA_BLOCK, Self::NO_BOX);
                // From `keep` up `b ≥ 1`, and j = a + b − 1 lies above every
                // old position still to be read (< a): no write lands on one.
                for j in (start.max(keep)..(start + SOA_BLOCK).min(len)).rev() {
                    let (o, n) = (a.saturating_sub(1), new[b - 1]);
                    let c = (a > 0) & (ids[o] > n);
                    (ids[j], asg[j]) = (select(c, ids[o], n), select(c, asg[o], 0));
                    (ub[j], lb[j]) = (pick(c, ub[o], f64::INFINITY), pick(c, lb[o], 0.0));
                    (a, b) = (a - usize::from(c), b - usize::from(!c));
                    bx = extend(bx, &points[ids[j] as usize]);
                }
                let kept = ids[start..start.max(keep)].iter();
                boxes[blk] = kept.fold(bx, |bx, &i| extend(bx, &points[i as usize]));
            }
        }
    }

    /// [`Round::grow`] to every point: `[len, n)` starts at `(0, ∞, 0)`, then from the back each
    /// member moves up to its own index and leaves `(0, ∞, 0)` behind for a lower member to
    /// overwrite. `spare` is freed before the arrays grow into their last pages, `ids` after.
    fn grow_full(&mut self, points: &[Point<D>]) {
        let Round { assignment, ub, lb, boxes, starts, ids, spare, .. } = self;
        let n = points.len();
        if starts.is_empty() && assignment.len() == n {
            return;
        }
        (*spare, *starts) = Default::default();
        ids.truncate(assignment.len());
        assignment.resize(n, 0);
        ub.resize(n, f64::INFINITY);
        lb.resize(n, 0.0);
        // geo-analyze: hot-loop
        for (j, &i) in ids.iter().enumerate().rev() {
            let (i, old) = (i as usize, (assignment[j], ub[j], lb[j]));
            (assignment[j], ub[j], lb[j]) = (0, f64::INFINITY, 0.0);
            (assignment[i], ub[i], lb[i]) = old;
        }
        boxes.clear();
        points.chunks(SOA_BLOCK).for_each(|b| boxes.push(b.iter().fold(Self::NO_BOX, extend)));
        *ids = Vec::new();
    }

    /// Bounding box of all members: the union of the block boxes — min and
    /// max select, so it is the box a pass over the points in any order finds.
    fn bbox(&self) -> Option<Aabb<D>> {
        let (lo, hi) = self.boxes.iter().copied().reduce(|(lo, hi), (l, h)| {
            (std::array::from_fn(|d| lo[d].min(l[d])), std::array::from_fn(|d| hi[d].max(h[d])))
        })?;
        Some(Aabb { min: Point::new(lo), max: Point::new(hi) })
    }

    /// Add every member, in array order, into row `assignment[j]` of `rows`: its weight `w`
    /// into the row's last entry and, with `XS`, `w·(x − mid)` into the D before it — each
    /// term pre-rounded onto `grid`, so every sum is exact and its bits do not depend on
    /// the order of the terms or on how the ranks share them. `points` and `weights` are
    /// the local points'.
    fn add_rows<const XS: bool>(
        &self,
        points: &[Point<D>],
        weights: &[f64],
        grid: &Grid<D>,
        rows: &mut [f64],
    ) {
        let asg = &self.assignment[..];
        if self.ids.is_empty() {
            add_runs::<XS, D>(asg, points.iter().zip(weights), grid, rows);
        } else {
            let members = self.ids.iter().map(|&i| (&points[i as usize], &weights[i as usize]));
            add_runs::<XS, D>(asg, members, grid, rows);
        }
    }
}

/// [`Round::add_rows`] over the members' `(point, weight)` in array order,
/// which is curve order (see [`Round`]): a cluster's points come in runs, so
/// the row stays in registers until the cluster changes — the adds of
/// `rows[c] += …` per point, without the store-to-load round trip (DESIGN.md §9).
fn add_runs<'p, const XS: bool, const D: usize>(
    asg: &[u32],
    members: impl Iterator<Item = (&'p Point<D>, &'p f64)>,
    grid: &Grid<D>,
    rows: &mut [f64],
) {
    let stride = if XS { D + 1 } else { 1 };
    let Some(&first) = asg.first() else { return };
    let load = |rows: &[f64], c: usize| -> ([f64; D], f64) {
        let row = &rows[c * stride..][..stride];
        (std::array::from_fn(|d| if XS { row[d] } else { 0.0 }), row[stride - 1])
    };
    let store = |rows: &mut [f64], c: usize, (xs, w): ([f64; D], f64)| {
        let row = &mut rows[c * stride..][..stride];
        row[..stride - 1].copy_from_slice(&xs[..stride - 1]);
        row[stride - 1] = w;
    };
    let mut cur = first as usize;
    let (mut xs, mut ws) = load(rows, cur);
    // geo-analyze: hot-loop
    for (&c, (p, &w)) in asg.iter().zip(members) {
        if c as usize != cur {
            store(rows, cur, (xs, ws));
            cur = c as usize;
            (xs, ws) = load(rows, cur);
        }
        if XS {
            for d in 0..D {
                xs[d] += (w * (p[d] - grid.mid[d]) + grid.wx[d]) - grid.wx[d];
            }
        }
        ws += (w + grid.w) - grid.w;
    }
    store(rows, cur, (xs, ws));
}

/// The grids a round's sums pre-round their terms onto (DESIGN.md §2), a weight
/// by `w`, a term `w·(x_d − mid_d)` by `wx[d]` (from the box's middle: the grid
/// scales with its extent, not its offset): multiples of a power of two that
/// every partial sum of at most `n_global` terms stays an exact multiple of, so
/// a sum has one value in any order and at any p.
struct Grid<const D: usize> {
    w: f64,
    wx: [f64; D],
    mid: [f64; D],
}

impl<const D: usize> Grid<D> {
    /// The grids for `n_global` terms of weight at most `w_max` over points
    /// in `bb`, all global values. Rounding is monotone, so a computed
    /// `|x_d − mid_d|` is at most `half(d)`.
    fn new(n_global: u64, w_max: f64, bb: &Aabb<D>) -> Self {
        let bound = n_global as f64 * w_max;
        let mid: [f64; D] = std::array::from_fn(|d| 0.5 * bb.min[d] + 0.5 * bb.max[d]);
        let half = |d: usize| (bb.max[d] - mid[d]).max(mid[d] - bb.min[d]);
        Grid { w: snap(bound), wx: std::array::from_fn(|d| snap(bound * half(d))), mid }
    }
}

/// `1.5·2^e` for the least `e ≥ −1022` with `2^(e−1) ≥ bound`, capped at `e = 1022`.
/// `(x + g) − g` rounds any `|x| ≤ 2^(e−1)` exactly to a multiple of `ulp(g) = 2^(e−52)`,
/// and sums of such multiples whose magnitudes total at most `2^(e+1)` are exact. Total: a
/// zero, NaN or infinite bound gives a finite grid.
fn snap(bound: f64) -> f64 {
    let mut s = f64::MIN_POSITIVE;
    while s < 2.0 * bound && s < 2f64.powi(1022) {
        s *= 2.0;
    }
    1.5 * s
}

/// The round a point of sample key `key` joins in, `#{j : t_j ≤ key}`. The
/// thresholds (not empty) double, so `t_j`'s top bit is bit `e_0 + j`, and
/// only `t_g`, `g = e_key − e_0`, needs a compare: those below are `≤ key`.
#[inline]
fn join_round(thresholds: &[u64], key: u64) -> usize {
    let g = thresholds[0].leading_zeros() as isize - key.leading_zeros() as isize;
    let j = (g.max(0) as usize).min(thresholds.len() - 1);
    j + usize::from(thresholds[j] <= key)
}

/// The k centers laid out for the SoA kernel, in bbox-sorted order.
#[derive(Default)]
struct CenterScratch {
    /// `(min effective distance to the active bbox, center id)`, ascending
    /// when pruning is enabled — the kernel's scan order.
    order: Vec<(f64, u32)>,
    /// Sorted-center coordinates, dimension-major: lane `d` occupies
    /// `coords[d*k..(d+1)*k]`.
    coords: Vec<f64>,
    /// Influence values in sorted order.
    influence: Vec<f64>,
    /// Original center ids in sorted order.
    ids: Vec<u32>,
    /// `1 / influence²` in sorted order ([`shortlist`] ranks centers by it).
    inv_sq: Vec<f64>,
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
        self.inv_sq.clear();
        for (j, &(_, c)) in self.order.iter().enumerate() {
            let ci = c as usize;
            for d in 0..D {
                self.coords[d * k + j] = centers[ci][d];
            }
            self.influence.push(influence[ci]);
            self.ids.push(c);
            self.inv_sq.push(1.0 / (influence[ci] * influence[ci]));
        }
    }
}

/// Scratch of the SoA kernel, O(k): every vector holds k entries per lane,
/// or one block's survivors.
struct KernelScratch<const D: usize> {
    /// The pair's effective distances (2k); before that, the centers' rank ([`shortlist`]).
    ebuf: Vec<f64>,
    /// Per-center lower bound of the effective distance to any point of
    /// the current block's box; compacted in place with the shortlist.
    cbound: Vec<f64>,
    /// Survivor indices of the current block (points not Hamerly-skipped).
    sidx: Vec<u32>,
    /// The survivors' points, gathered in `sidx` order.
    pts: Vec<Point<D>>,
    /// The centers the block can reach, compacted from [`CenterScratch`] in
    /// its order: coordinates (lane `d` at `coords[d*k..]`), influences, ids.
    coords: Vec<f64>,
    influence: Vec<f64>,
    ids: Vec<u32>,
}

impl<const D: usize> KernelScratch<D> {
    fn new(k: usize) -> Self {
        KernelScratch {
            ebuf: vec![0.0; 2 * k],
            cbound: vec![0.0; k],
            sidx: Vec::with_capacity(SOA_BLOCK),
            pts: Vec::with_capacity(SOA_BLOCK),
            coords: vec![0.0; D * k],
            influence: vec![0.0; k],
            ids: vec![0; k],
        }
    }
}

/// The SPMD solver state for one `balanced_kmeans` call.
struct Solver<'a, const D: usize> {
    /// The caller's points and weights, in curve order: what every pass
    /// reads, and what the test oracle measures distances from.
    points: &'a [Point<D>],
    weights: &'a [f64],
    k: usize,
    cfg: &'a Config,
    centers: Vec<Point<D>>,
    influence: Vec<f64>,
    /// Global maximum point weight (balance-feasibility granularity).
    w_max: f64,
    /// What the round's sums pre-round their terms onto.
    grid: Grid<D>,
    /// Normalized per-block target weight fractions (uniform = 1/k each).
    fractions: Vec<f64>,
    /// The current movement round's points and their state.
    round: Round<D>,
    /// The k centers in scan order (bbox-sorted order/coords/influence/ids).
    cscratch: CenterScratch,
    kscratch: KernelScratch<D>,
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

/// Reduce one point's batch of effective distances to `(best, second,
/// best_c, evals)`, skipping what its running second-best rules out — the
/// select form of `if e < best { … } else if e < second { … }`: under
/// `second >= best` the old best demotes on `e < best`, a tie moves nothing.
/// (Selects, not arithmetic masks: the branches predict well once best and
/// second settle, and speculating past them beats a min/max chain.)
#[inline(always)]
fn scan_batch(bound: &[f64], ebuf: &[f64], ids: &[u32], init_c: u32) -> (f64, f64, u32, u64) {
    let (mut best, mut second) = (f64::INFINITY, f64::INFINITY);
    let (mut best_c, mut evals) = (init_c, 0u64);
    // geo-analyze: hot-loop
    for j in 0..ebuf.len() {
        if bound[j] > second {
            continue;
        }
        let e = ebuf[j];
        evals += 1;
        let lt = e < best;
        best_c = if lt { ids[j] } else { best_c };
        second = if lt { best } else { second.min(e) };
        best = if lt { e } else { best };
    }
    (best, second, best_c, evals)
}

/// Compact into `sc` the centers a block with bounding box `(lo, hi)` can reach, in `cs`'s
/// scan order, and return how many there are — k when the block reaches every center, which
/// the caller then scans in `cs` itself. Sound because the arithmetic rounds monotonically
/// (DESIGN.md §9): `cbound[j] = minDist(box, c_j)/I(j) ≤ e_j(x) ≤ maxDist(box, c_j)/I(j)`
/// for every point x of the box, in the kernel's own floating point. With U the larger
/// `maxDist/I` of any two centers, `second-best(x) ≤ U`, so a center with `cbound[j] > U`
/// is strictly farther from every x and could change neither `best`, `second` nor a tie.
/// Any two are sound; the two smallest by `rank[j]` ≈ `(maxDist/I)²` (a multiply per
/// center, not a `sqrt` and a division) make U tight. A NaN never excludes.
#[inline(always)]
fn shortlist<const D: usize>(
    pruning: bool,
    k: usize,
    (lo, hi): &([f64; D], [f64; D]),
    cs: &CenterScratch,
    sc: &mut KernelScratch<D>,
) -> usize {
    let (cbound, rank) = (&mut sc.cbound[..k], &mut sc.ebuf[..k]);
    let clanes: [&[f64]; D] = std::array::from_fn(|d| &cs.coords[d * k..(d + 1) * k]);
    let infl = &cs.influence[..k];
    if !pruning {
        cbound.fill(0.0);
        return k;
    }
    // geo-analyze: hot-loop
    for j in 0..k {
        let mut near = 0.0;
        for d in 0..D {
            let c = clanes[d][j];
            // `Aabb::min_dist`'s case split, spelled as selects.
            let gap = (lo[d] - c).max(c - hi[d]).max(0.0);
            near += gap * gap;
        }
        cbound[j] = near.sqrt() / infl[j];
    }
    // Every center inside the box (unsorted points): none is beyond any U.
    if !cbound.iter().any(|&b| b > 0.0) {
        return k;
    }
    // `maxDist²(box, c_j)`, accumulated like `Point::dist_sq`.
    let far_sq = |j: usize| {
        let mut far = 0.0;
        for d in 0..D {
            let c = clanes[d][j];
            let span = (c - lo[d]).abs().max((hi[d] - c).abs());
            far += span * span;
        }
        far
    };
    // geo-analyze: hot-loop
    for j in 0..k {
        rank[j] = far_sq(j) * cs.inv_sq[j];
    }
    let (mut r0, mut r1, mut j0, mut j1) = (f64::INFINITY, f64::INFINITY, k, k);
    // geo-analyze: hot-loop
    for (j, &r) in rank.iter().enumerate() {
        if r < r1 {
            (r1, j1) = (r, j);
        }
        if r1 < r0 {
            ((r0, j0), (r1, j1)) = ((r1, j1), (r0, j0));
        }
    }
    if j1 == k {
        return k;
    }
    let (u0, u1) = (far_sq(j0).sqrt() / infl[j0], far_sq(j1).sqrt() / infl[j1]);
    let reach = if u1 > u0 || u1.is_nan() { u1 } else { u0 };
    // Branchless like the survivors: always write, advance on a keep.
    let mut m = 0;
    // geo-analyze: hot-loop
    for j in 0..k {
        for d in 0..D {
            sc.coords[d * k + m] = clanes[d][j];
        }
        sc.influence[m] = infl[j];
        sc.ids[m] = cs.ids[j];
        // False when either side is NaN: the center stays.
        let beyond = cbound[j] > reach;
        cbound[m] = cbound[j];
        m += usize::from(!beyond);
    }
    m
}

/// One block of the SoA kernel: compact the points the Hamerly test does not skip and
/// gather theirs — `points[i]`, or `points[ids[i]]` on a sample — shortlist the centers the
/// block's bounding box (`bbox`, built when the round was grown) can reach, then scan every
/// survivor against the shortlist. `assign`/`ub`/`lb` are the values on entry, updated on
/// exit. Exact: effective distances accumulate in the order of `Point::dist`, so every
/// evaluated point ends with `ub`/`lb` bitwise the best and second-best of all k distances.
/// A center is only left out — of the shortlist, or of one point's scan when its block
/// bound exceeds the current `second` — when it could not have changed
/// `best`/`second`/`best_c`; the shortlist keeps the scan order, so a tie still goes to the
/// earlier position (`oracle_check`).
#[allow(clippy::too_many_arguments, reason = "points and bounds are separate borrows")]
// Outlined on purpose: one call per 256-point block amortizes the call, and
// the kernel was measured in this shape.
#[inline(never)]
fn process_block<const D: usize>(
    hamerly: bool,
    pruning: bool,
    k: usize,
    (points, ids): (&[Point<D>], &[u32]),
    bbox: &([f64; D], [f64; D]),
    cs: &CenterScratch,
    sc: &mut KernelScratch<D>,
    assign: &mut [u32],
    ub: &mut [f64],
    lb: &mut [f64],
    stats: &mut KMeansStats,
) {
    let blen = assign.len();
    // Compact the points that survive the Hamerly skip. Branchless: always
    // write the candidate index, advance the cursor only for survivors —
    // the skip pattern is data-dependent and would mispredict as a branch.
    let sidx = &mut sc.sidx;
    sidx.clear();
    sidx.resize(blen, 0);
    let mut slen = 0usize;
    // geo-analyze: hot-loop
    for i in 0..blen {
        let survives = !(hamerly && ub[i] < lb[i]);
        sidx[slen] = i as u32;
        slen += usize::from(survives);
    }
    stats.hamerly_skips += (blen - slen) as u64;
    sidx.truncate(slen);
    if slen == 0 {
        return;
    }
    // Only survivors are read, so only they are copied: on a sample the
    // Hamerly skip saves the gather too.
    sc.pts.clear();
    if ids.is_empty() {
        sc.pts.extend(sc.sidx.iter().map(|&i| points[i as usize]));
    } else {
        sc.pts.extend(sc.sidx.iter().map(|&i| points[ids[i as usize] as usize]));
    }
    let m = shortlist::<D>(pruning, k, bbox, cs, sc);
    // One scan, inlined at both calls: one set of slices for either source,
    // or copying all k, ran 5–7 % slower on blocks that reach every center.
    if m == k {
        let all = (&cs.coords[..], &cs.influence[..k], &cs.ids[..k], &sc.cbound[..k]);
        scan_survivors::<D>(k, &sc.pts, all, &sc.sidx, &mut sc.ebuf, (assign, ub, lb, stats));
    } else {
        let short = (&sc.coords[..], &sc.influence[..m], &sc.ids[..m], &sc.cbound[..m]);
        scan_survivors::<D>(k, &sc.pts, short, &sc.sidx, &mut sc.ebuf, (assign, ub, lb, stats));
    }
}

/// Scan the survivors `sidx`, whose points are `pts`, against m centers (lanes of
/// stride `k`, influences, ids, bounds).
#[inline(always)]
fn scan_survivors<const D: usize>(
    k: usize,
    pts: &[Point<D>],
    (coords, infl, ids, bound): (&[f64], &[f64], &[u32], &[f64]),
    sidx: &[u32],
    ebuf: &mut [f64],
    (assign, ub, lb, stats): (&mut [u32], &mut [f64], &mut [f64], &mut KMeansStats),
) {
    let (m, slen) = (infl.len(), sidx.len());
    let clanes: [&[f64]; D] = std::array::from_fn(|d| &coords[d * k..d * k + m]);
    let cut = u64::from(m < k);
    // Branch-free batch sweep, two survivors at a time: every effective
    // distance of the pair in one vectorizable loop over the center lanes
    // (the op order of `Point::dist`, exact per lane, so identical values),
    // center coordinates loaded once for both points, the two sqrt/div
    // chains overlapping in the divider. `scan_batch` then resolves each
    // point; the `sqrt`/`div` it skips cost less than branching, at every m (§9).
    let (e0, e1) = ebuf[..2 * m].split_at_mut(m);
    let mut t = 0;
    // geo-analyze: hot-loop
    while t < slen {
        // An odd tail pairs the last survivor with itself, committed once.
        let t1 = (t + 1).min(slen - 1);
        let (i0, i1) = (sidx[t] as usize, sidx[t1] as usize);
        let (pv0, pv1) = (pts[t].0, pts[t1].0);
        for j in 0..m {
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
        for (i, eb) in [(i0, &*e0), (i1, &*e1)].into_iter().take(slen - t) {
            let (best, second, best_c, evals) = scan_batch(bound, eb, ids, assign[i]);
            assign[i] = best_c;
            ub[i] = best;
            lb[i] = second;
            stats.distance_evals += evals;
            stats.bbox_breaks += cut | u64::from(evals < m as u64);
        }
        t += 2;
    }
}

impl<const D: usize> Solver<'_, D> {
    /// One assignment pass through the blocked SoA kernel over the round:
    /// the kernel slices the bound arrays, and reads a block's points from
    /// the caller's, through `ids` on a sample.
    fn soa_assignment_pass(&mut self) {
        #[cfg(test)]
        let before = tests::oracle_snapshot(self);
        let Round { assignment, ub, lb, boxes, ids, .. } = &mut self.round;
        let len = assignment.len();
        // geo-analyze: hot-loop
        for b in (0..len).step_by(SOA_BLOCK) {
            let e = (b + SOA_BLOCK).min(len);
            process_block::<D>(
                self.cfg.hamerly_bounds,
                self.cfg.bbox_pruning,
                self.k,
                if ids.is_empty() { (&self.points[b..e], &[]) } else { (self.points, &ids[b..e]) },
                &boxes[b / SOA_BLOCK],
                &self.cscratch,
                &mut self.kscratch,
                &mut assignment[b..e],
                &mut ub[b..e],
                &mut lb[b..e],
                &mut self.stats,
            );
        }
        self.stats.points_visited += len as u64;
        #[cfg(test)]
        tests::oracle_check(self, &before);
    }

    /// Algorithm 1: assign points, rebalance influences until the partition
    /// is balanced or `max_balance` iterations ran. The final global block
    /// weights are left in `self.global_sizes`.
    fn assign_and_balance<C: Comm>(&mut self, comm: &C, max_balance: usize) {
        let k = self.k;
        self.global_sizes.clear();
        self.global_sizes.resize(k, 0.0);
        self.local_sizes.clear();
        self.local_sizes.resize(k, 0.0);
        // Bounding box around the active local points (Alg. 1 line 1).
        // Points never move, so one box serves every balance iteration.
        let bb = self.round.bbox();
        for balance_iter in 0..max_balance {
            self.stats.balance_iterations += 1;

            // Centers sorted by their *minimum* effective distance to the
            // active box (DESIGN.md erratum 4). The box is the rank's, so an
            // exact tie may resolve differently at another p (§1).
            let (centers, influence) = (&self.centers, &self.influence);
            self.cscratch.order.clear();
            self.cscratch.order.extend((0..k as u32).map(|c| {
                let near = bb.as_ref().map_or(0.0, |bb| bb.min_dist(&centers[c as usize]));
                (near / influence[c as usize], c)
            }));
            if self.cfg.bbox_pruning {
                self.cscratch.order.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            }

            let mut clock = Stopwatch::start();
            self.cscratch.fill_sorted::<D>(&self.centers, &self.influence);
            self.soa_assignment_pass();
            // Block weights: exact sums, whatever the order or the ranks.
            self.local_sizes.iter_mut().for_each(|s| *s = 0.0);
            self.round.add_rows::<false>(
                self.points,
                self.weights,
                &self.grid,
                &mut self.local_sizes,
            );
            self.stats.assignment_seconds += clock.lap();

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
                let allowed = ((1.0 + self.cfg.epsilon) * target).max(target + self.w_max);
                if self.global_sizes[c] > allowed {
                    all_within = false;
                }
            }
            self.stats.final_imbalance = (worst_ratio - 1.0).max(0.0);
            self.stats.balance_achieved = all_within;
            if all_within || balance_iter + 1 == max_balance {
                return;
            }

            // Adapt influences (Eq. 1, corrected) and relax bounds — all
            // through solver-owned scratch.
            adapt_influences(
                &mut self.influence,
                &self.global_sizes,
                &self.fractions,
                total,
                D,
                INFLUENCE_CHANGE_CAP,
            );
            if self.cfg.hamerly_bounds {
                self.relax_bounds();
            }
        }
    }

    /// Relax the round's bounds for the center movement in `delta` and the
    /// influence change since `old_influence`, then reset both to "no
    /// change" (a zero `delta` is an influence-only change). A point no
    /// round has reached holds `(ub, lb) = (∞, 0)`, a fixed point.
    fn relax_bounds(&mut self) {
        self.relax.set_movement(&self.delta, &self.old_influence, &self.influence);
        self.delta.fill(0.0);
        self.old_influence.copy_from_slice(&self.influence);
        let Round { ub, lb, assignment, .. } = &mut self.round;
        self.relax.apply(ub, lb, assignment);
    }

    /// New centers = weighted mean of the active points of each cluster
    /// (Algorithm 2 lines 12–13: local sums + one global vector sum).
    /// Clusters with zero active weight keep their old center. The result
    /// lands in `self.new_centers_buf` and the per-center movement in
    /// `self.delta`; returns the maximum movement.
    fn compute_new_centers<C: Comm>(&mut self, comm: &C) -> f64 {
        let k = self.k;
        let stride = D + 1;
        self.center_sums.clear();
        self.center_sums.resize(k * stride, 0.0);
        // Exact, like the block weights.
        self.round.add_rows::<true>(self.points, self.weights, &self.grid, &mut self.center_sums);
        comm.allreduce_sum_f64(&mut self.center_sums);
        let (sums, centers, buf) = (&self.center_sums, &self.centers, &mut self.new_centers_buf);
        let mid = self.grid.mid;
        buf.clear();
        for c in 0..k {
            let w = sums[c * stride + D];
            let coords: [f64; D] = std::array::from_fn(|d| mid[d] + sums[c * stride + d] / w);
            // An empty cluster, or sums past the f64 range, keep the center.
            buf.push(if w > 0.0 && coords.iter().all(|x| x.is_finite()) {
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

/// Run balanced k-means (Algorithm 2) on the rank-local `points` with the given replicated
/// `initial_centers`. All ranks must call this collectively with identical `k`, `cfg`, and
/// `initial_centers`. Returns the local assignment plus final replicated centers/influences and
/// this rank's work counters.
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

/// Warm-started balanced k-means: resume from the centers *and* influence values of a
/// previous solve instead of the neutral `I(c) = 1` start — the solver behind the warm arm
/// of [`crate::partition_spmd`] (DESIGN.md §5). On a converged previous solution `(centers,
/// influence)` reproduce its assignment exactly, so an unchanged point set re-balances in
/// one pass with zero migration, and a slightly drifted one converges in a handful of
/// iterations without the SFC bootstrap. Same collective contract as [`balanced_kmeans`];
/// `initial_influence` must be replicated, length `k`, and strictly positive.
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
    cfg.validate(k).unwrap_or_else(|e| panic!("{e}"));

    // Neighbourhood scale β(C) for the erosion sigmoid: the expected
    // cluster cell size, 2·diag/k^(1/D). A deterministic proxy for the
    // paper's "average cluster diameter" (DESIGN.md §2).
    let bb = crate::global_bbox(comm, points);
    let local_w_max = weights.iter().copied().fold(0.0, f64::max);
    let (w_max, n_global) =
        comm.allreduce((local_w_max, points.len() as u64), |a, b| (a.0.max(b.0), a.1 + b.1));
    validate_k(k, n_global).unwrap_or_else(|e| panic!("{e}"));
    let diag = bb.diagonal();
    let beta = 2.0 * diag / (k as f64).powf(1.0 / D as f64);

    let mut solver = Solver {
        points,
        weights,
        k,
        cfg,
        centers: initial_centers,
        influence: initial_influence,
        w_max,
        grid: Grid::new(n_global, w_max, &bb),
        fractions: cfg.fractions(k),
        round: Round::new(points.len()),
        cscratch: CenterScratch::default(),
        kscratch: KernelScratch::new(k),
        old_influence: Vec::with_capacity(k),
        delta: vec![0.0; k],
        center_sums: Vec::with_capacity(k * (D + 1)),
        new_centers_buf: Vec::with_capacity(k),
        relax: Relaxation::with_capacity(k),
        local_sizes: Vec::with_capacity(k),
        global_sizes: Vec::with_capacity(k),
        stats: KMeansStats::default(),
    };
    solver.old_influence.extend_from_slice(&solver.influence);
    solver.round.sample_joins(points, cfg, n_global);
    let sample_rounds = solver.round.starts.len().saturating_sub(1) as u8;

    // Sampling initialization (Sec. 4.5): movement round r runs on sample
    // round r, grown in place, and balances it at most `sample_cap` times,
    // until round `sample_rounds` holds all points: it depends on n alone.
    let (mut r, cap) = (0, cfg.max_balance_iterations);
    let sample_cap = cap.min(SAMPLE_BALANCE_ITERATIONS);
    let mut sampled = true; // no round yet: nothing is assigned
    for _ in 0..cfg.max_iterations {
        solver.stats.movement_iterations += 1;
        sampled = r < sample_rounds;
        solver.round.grow(sampled.then_some(r), points);

        solver.assign_and_balance(comm, if sampled { sample_cap } else { cap });

        let max_delta = solver.compute_new_centers(comm);

        // Converged = centers stationary AND the balance constraint met. A
        // stationary-but-imbalanced state keeps iterating: influences still
        // shift block boundaries (the paper's Sec. 4.5: "balance was always
        // achieved when allowing a sufficient number of … iterations").
        if !sampled && max_delta < DELTA_THRESHOLD * diag && solver.stats.balance_achieved {
            solver.stats.converged = true;
            break;
        }

        // Move centers; erode influences (Eqs. 2–3); relax bounds (Eqs.
        // 4–5, corrected) — all through solver-owned scratch.
        std::mem::swap(&mut solver.centers, &mut solver.new_centers_buf);
        if cfg.influence_erosion {
            for (inf, &d) in solver.influence.iter_mut().zip(&solver.delta) {
                *inf = erode(*inf, erosion_alpha(d, beta));
            }
        }
        if cfg.hamerly_bounds {
            solver.relax_bounds();
        }
        r += u8::from(sampled);
    }

    // If the iteration budget ran out mid-sampling, points outside the
    // sample have never been assigned: finish with one pass over all of
    // them. What counts is the round that ran last, on every rank.
    if sampled {
        solver.round.grow(None, points);
        solver.assign_and_balance(comm, cap);
    }

    KMeansOutput {
        assignment: solver.round.assignment,
        centers: solver.centers,
        influence: solver.influence,
        stats: solver.stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geographer_parcomm::SelfComm;
    use std::cell::Cell;

    thread_local! {
        /// Point visits the oracle has checked on this thread.
        static ORACLE_VISITS: Cell<u64> = const { Cell::new(0) };
    }

    type RoundState = (Vec<u32>, Vec<f64>, Vec<f64>);

    /// The round's `(assignment, ub, lb)` as a pass finds them.
    pub(super) fn oracle_snapshot<const D: usize>(s: &Solver<'_, D>) -> RoundState {
        (s.round.assignment.clone(), s.round.ub.clone(), s.round.lb.clone())
    }

    /// The oracle every assignment pass of every unit-test solve runs
    /// under: recompute all k effective distances of each round point from
    /// the caller's points, found from the round's buckets (never through
    /// its `ids`, which must name the same points), and the solver's centers
    /// and influences — no bounds, no box sort, no break — and hold the
    /// pass to [`oracle_check_point`].
    pub(super) fn oracle_check<const D: usize>(s: &Solver<'_, D>, before: &RoundState) {
        let Round { assignment, ub, lb, .. } = &s.round;
        let ids = members(&s.round, s.points.len());
        assert_eq!(ids.len(), assignment.len(), "the round holds its members");
        assert_ids(&s.round, &ids, "oracle");
        let mut e = Vec::with_capacity(s.k);
        for (i, &p) in ids.iter().enumerate() {
            e.clear();
            e.extend(s.centers.iter().zip(&s.influence).map(|(c, f)| s.points[p].dist(c) / f));
            oracle_check_point(
                &e,
                s.cfg.hamerly_bounds,
                (before.0[i], before.1[i], before.2[i]),
                (assignment[i], ub[i], lb[i]),
            );
        }
        ORACLE_VISITS.with(|v| v.set(v.get() + assignment.len() as u64));
    }

    /// The local ids the round holds, ascending: the first `len` of its
    /// buckets, sorted, or all `n` once the buckets are gone.
    fn members<const D: usize>(round: &Round<D>, n: usize) -> Vec<usize> {
        if round.starts.is_empty() {
            return (0..n).collect();
        }
        let held = &round.joins[..round.assignment.len()];
        let mut ids: Vec<usize> = held.iter().map(|&i| i as usize).collect();
        ids.sort_unstable();
        ids
    }

    /// A sample round's `ids` are exactly its `members`, ascending; a round
    /// over every local point has none.
    fn assert_ids<const D: usize>(round: &Round<D>, members: &[usize], tag: &str) {
        if round.starts.is_empty() {
            assert!(round.ids.is_empty(), "{tag}: the full set reads the points directly");
        } else {
            let held = &round.ids[..round.assignment.len()];
            let ids: Vec<usize> = held.iter().map(|&i| i as usize).collect();
            assert_eq!(ids, members, "{tag}: a sample's ids are its members, ascending");
        }
    }

    /// One point against its k effective distances `e`: the assigned
    /// center is a nearest one; a Hamerly-skipped point (`ub < lb` on
    /// entry) kept its `(assignment, ub, lb)`; an evaluated point's `ub`
    /// and `lb` are the smallest and second-smallest of `e`. All exact.
    fn oracle_check_point(e: &[f64], hamerly: bool, old: (u32, f64, f64), new: (u32, f64, f64)) {
        let (mut best, mut second) = (f64::INFINITY, f64::INFINITY);
        for &x in e {
            if x < best {
                second = best;
                best = x;
            } else if x < second {
                second = x;
            }
        }
        let bits = |(a, u, l): (u32, f64, f64)| (a, u.to_bits(), l.to_bits());
        assert_eq!(e[new.0 as usize].to_bits(), best.to_bits(), "assigned center is not nearest");
        if hamerly && old.1 < old.2 {
            assert_eq!(bits(new), bits(old), "a Hamerly-skipped point changed");
        } else {
            assert_eq!(bits(new), bits((new.0, best, second)), "ub/lb differ from brute force");
        }
    }

    #[test]
    fn oracle_checks_every_visit_of_a_solve() {
        let pts = uniform_points(3000, 14);
        let w = vec![1.0; 3000];
        let before = ORACLE_VISITS.with(Cell::get);
        let out =
            balanced_kmeans(&SelfComm, &pts, &w, 6, sfc_like_centers(&pts, 6), &Config::default());
        assert!(out.stats.hamerly_skips > 0 && out.stats.hamerly_skips < out.stats.points_visited);
        assert_eq!(ORACLE_VISITS.with(Cell::get) - before, out.stats.points_visited);
    }

    #[test]
    fn oracle_accepts_exact_results_and_ties() {
        let e = [3.0, 1.0, 2.0, 1.0];
        oracle_check_point(&e, true, (0, f64::INFINITY, 0.0), (1, 1.0, 1.0));
        oracle_check_point(&e, true, (0, f64::INFINITY, 0.0), (3, 1.0, 1.0));
        // Skipped: the bounds are stale but the kept center is nearest.
        oracle_check_point(&e, true, (3, 1.5, 1.75), (3, 1.5, 1.75));
    }

    #[test]
    #[should_panic(expected = "ub/lb differ from brute force")]
    fn oracle_rejects_a_wrong_second_best() {
        oracle_check_point(&[3.0, 1.0, 2.0], true, (0, f64::INFINITY, 0.0), (1, 1.0, 3.0));
    }

    #[test]
    #[should_panic(expected = "assigned center is not nearest")]
    fn oracle_rejects_a_skip_that_kept_a_farther_center() {
        oracle_check_point(&[3.0, 1.0, 2.0], true, (2, 1.5, 1.75), (2, 1.5, 1.75));
    }

    #[test]
    #[should_panic(expected = "a Hamerly-skipped point changed")]
    fn oracle_rejects_a_skipped_point_that_moved() {
        oracle_check_point(&[3.0, 1.0, 2.0], true, (1, 1.5, 1.75), (1, 1.0, 2.0));
    }

    /// Walk one round over points joining in rounds `join` (`rounds`: only
    /// with the full set) through `steps` (`Some(r)`: sample round r,
    /// `None`: every point) and hold each growth to a from-scratch gather
    /// of `points`. After each check every `(assignment, ub, lb)` is
    /// overwritten with a value unique to its point and step, so the next
    /// growth must carry exactly those bits.
    fn check_growths<const D: usize>(join: Vec<u8>, rounds: u8, steps: &[Option<u8>]) {
        let n = join.len();
        let points = family_points::<D>(n, 61, true);
        let mut rng = SplitMix64::new(62);
        let weights: Vec<f64> = (0..n).map(|_| 1.0 + rng.next_f64()).collect();
        // What every local point holds, reached by a round yet or not.
        let mut home = vec![(0u32, f64::INFINITY.to_bits(), 0.0f64.to_bits()); n];
        let mut round = round_with::<D>(n, buckets(&join, rounds));
        for (step, &r) in steps.iter().enumerate() {
            round.grow(r, &points);
            let ids: Vec<usize> = (0..n).filter(|&i| r.is_none_or(|r| join[i] <= r)).collect();
            if r.is_none() {
                assert!(round.starts.is_empty() && round.spare.capacity() == 0);
            }
            let tag = format!("D={D} n={n} step {step} ({r:?})");
            assert_eq!(members(&round, n), ids, "{tag}: the buckets hold the joins");
            assert_ids(&round, &ids, &tag);
            let gathered: Vec<Point<D>> = ids.iter().map(|&id| points[id]).collect();
            let boxes: Vec<_> = gathered
                .chunks(SOA_BLOCK)
                .map(|block| {
                    let coord = |d: usize| block.iter().map(move |p| p[d]);
                    let lo = std::array::from_fn(|d| coord(d).fold(f64::INFINITY, f64::min));
                    let hi = std::array::from_fn(|d| coord(d).fold(f64::NEG_INFINITY, f64::max));
                    (lo, hi)
                })
                .collect();
            assert_eq!(round.boxes, boxes, "{tag}");
            let held: Vec<_> = (0..ids.len())
                .map(|j| (round.assignment[j], round.ub[j].to_bits(), round.lb[j].to_bits()))
                .collect();
            let expected: Vec<_> = ids.iter().map(|&id| home[id]).collect();
            assert_eq!(held, expected, "{tag}: members carry their state, newcomers (0, ∞, 0)");
            for (j, &id) in ids.iter().enumerate() {
                let x = (id * 31 + step) as f64;
                (round.assignment[j], round.ub[j], round.lb[j]) = (x as u32 % 7, x + 0.5, x / 3.0);
                home[id] = (round.assignment[j], round.ub[j].to_bits(), round.lb[j].to_bits());
            }
            assert_rows_are_exact_sums(&round, &points, &weights, 7, &tag);
        }
    }

    /// Hold both forms of `add_rows` to the exact sums of their pre-rounded
    /// terms: a naive `rows[c] += …` loop over the round's members in
    /// reverse, and over the members dealt round-robin to three "ranks"
    /// whose rows are added afterwards, must give the same bits. The
    /// grids are built for the round's own points and weights.
    fn assert_rows_are_exact_sums<const D: usize>(
        round: &Round<D>,
        points: &[Point<D>],
        weights: &[f64],
        k: usize,
        tag: &str,
    ) {
        let ids = members(round, points.len());
        let w_max = weights.iter().copied().fold(0.0, f64::max);
        let unit = Aabb { min: Point::new([0.0; D]), max: Point::new([1.0; D]) };
        let bb = Aabb::from_points(points).unwrap_or(unit);
        let grid = Grid::new(points.len() as u64, w_max, &bb);
        let stride = D + 1;
        let naive = |order: &mut dyn Iterator<Item = usize>| {
            let (mut sums, mut sizes) = (vec![0.0; k * stride], vec![0.0; k]);
            for j in order {
                let (c, w) = (round.assignment[j] as usize, weights[ids[j]]);
                for d in 0..D {
                    let x = points[ids[j]][d] - grid.mid[d];
                    sums[c * stride + d] += (w * x + grid.wx[d]) - grid.wx[d];
                }
                sums[c * stride + D] += (w + grid.w) - grid.w;
                sizes[c] += (w + grid.w) - grid.w;
            }
            (sums, sizes)
        };
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let (mut sums, mut sizes) = (vec![0.0; k * stride], vec![0.0; k]);
        round.add_rows::<true>(points, weights, &grid, &mut sums);
        round.add_rows::<false>(points, weights, &grid, &mut sizes);
        let (back_sums, back_sizes) = naive(&mut (0..ids.len()).rev());
        assert_eq!(bits(&sums), bits(&back_sums), "{tag}: center sums");
        assert_eq!(bits(&sizes), bits(&back_sizes), "{tag}: block weights");
        let (mut dealt_sums, mut dealt_sizes) = (vec![0.0; k * stride], vec![0.0; k]);
        for rank in (0..3).rev() {
            let (s, z) = naive(&mut (rank..ids.len()).step_by(3));
            dealt_sums.iter_mut().zip(s).for_each(|(a, b)| *a += b);
            dealt_sizes.iter_mut().zip(z).for_each(|(a, b)| *a += b);
        }
        assert_eq!(bits(&sums), bits(&dealt_sums), "{tag}: center sums, dealt");
        assert_eq!(bits(&sizes), bits(&dealt_sizes), "{tag}: block weights, dealt");
    }

    /// An empty round over `n` points with the given buckets, as
    /// [`Round::sample_joins`] leaves one.
    fn round_with<const D: usize>(n: usize, (joins, starts): (Vec<u32>, Vec<usize>)) -> Round<D> {
        let mut round = Round::new(n);
        round.spare.reserve_exact(starts.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0));
        (round.ids, round.joins, round.starts) = (joins.clone(), joins, starts);
        round
    }

    /// The buckets of points joining in rounds `join`, `rounds` being the
    /// full set's, built the slow way: round by round. None with sampling off.
    fn buckets(join: &[u8], rounds: u8) -> (Vec<u32>, Vec<usize>) {
        if rounds == 0 {
            return Default::default();
        }
        let (mut joins, mut starts) = (Vec::new(), vec![0]);
        for r in 0..rounds {
            joins.extend((0..join.len() as u32).filter(|&i| join[i as usize] == r));
            starts.push(joins.len());
        }
        (joins, starts)
    }

    /// Join rounds over `n` points as [`Round::sample_joins`] makes them: about
    /// half of the points join only with the full set, round `rounds`.
    fn random_joins(n: usize, rounds: u8, seed: u64) -> Vec<u8> {
        let mut rng = SplitMix64::new(seed);
        (0..n).map(|_| rounds - (rng.next_u64() | 1 << rounds).trailing_zeros() as u8).collect()
    }

    #[test]
    fn add_rows_sums_exactly_in_any_order() {
        /// A round of sample round `r` (or all) of n points whose clusters
        /// come in runs of `run` consecutive positions, each run's cluster
        /// random.
        fn check<const D: usize>(n: usize, k: usize, r: Option<u8>, run: usize) {
            let points = family_points::<D>(n, 64, false);
            let mut rng = SplitMix64::new(65);
            let weights: Vec<f64> = (0..n).map(|_| 0.5 + 1e3 * rng.next_f64()).collect();
            let buckets =
                if r.is_some() { buckets(&random_joins(n, 4, 66), 4) } else { Default::default() };
            let mut round = round_with::<D>(n, buckets);
            round.grow(r, &points);
            let mut c = 0;
            for (j, a) in round.assignment.iter_mut().enumerate() {
                if j % run == 0 {
                    c = (rng.next_u64() % k as u64) as u32;
                }
                *a = c;
            }
            let tag = format!("D={D} n={n} k={k} r={r:?} run={run}");
            assert_rows_are_exact_sums(&round, &points, &weights, k, &tag);
        }
        // Runs of length 1, long runs (one ending at the last point, one
        // of a single point after it), one cluster, an empty round, and
        // samples.
        check::<2>(1000, 7, None, 1);
        check::<3>(1000, 7, None, 1);
        check::<2>(1000, 7, None, 250);
        check::<3>(1001, 5, None, 250);
        check::<2>(600, 1, None, 1);
        check::<3>(0, 3, None, 1);
        check::<2>(1000, 7, Some(3), 1);
        check::<3>(1000, 7, Some(2), 40);
        check::<2>(1000, 7, Some(0), 1);
    }

    #[test]
    fn grow_carries_members_and_gathers_newcomers() {
        // Nested rounds across block boundaries up to every point; sampling
        // off goes from empty to full in one step; a round may hold
        // nothing, and a rank may hold nothing at all.
        check_growths::<2>(
            random_joins(1000, 5, 67),
            5,
            &[Some(0), Some(1), Some(3), Some(4), None],
        );
        check_growths::<3>(random_joins(777, 3, 68), 3, &[Some(0), Some(2), None]);
        check_growths::<2>(Vec::new(), 0, &[None]);
        check_growths::<2>(vec![2; 300], 2, &[Some(0), Some(1), None]);
        check_growths::<3>(Vec::new(), 0, &[None]);
        check_growths::<2>(Vec::new(), 3, &[Some(0), Some(2), None]);
        // The merge runs out of old members first (every one lies above
        // every newcomer), or of newcomers first (every old member lies
        // below; the block holding the last of them is part kept, part
        // new); a growth that skips rounds merges interleaved buckets.
        let m = 300;
        check_growths::<2>([vec![1; m], vec![0; m]].concat(), 2, &[Some(0), Some(1), None]);
        check_growths::<2>([vec![0; m], vec![1; m]].concat(), 2, &[Some(0), Some(1), None]);
        check_growths::<3>([vec![0; m], vec![1; m]].concat(), 3, &[Some(1), Some(2), None]);
        check_growths::<2>(random_joins(1000, 5, 69), 5, &[Some(0), Some(3), None]);
    }

    #[test]
    fn join_round_counts_the_thresholds_at_or_below_a_key() {
        // Round j holds the keys below t_j (DESIGN.md §2), so a key joins
        // in round #{j : t_j ≤ key}: checked on both sides of and at every
        // threshold of a few schedules, at both ends of the key range and
        // on both sides of every power of two.
        for (initial_sample, n) in [(100, 200_000), (100, 101), (1, 1 << 20), (7, 3 << 40)] {
            let t = thresholds(initial_sample, n);
            assert!(t.windows(2).all(|w| w[0] < w[1]), "thresholds ascend: {t:x?}");
            let count = |key: u64| t.iter().filter(|&&tj| tj <= key).count();
            for (j, &tj) in t.iter().enumerate() {
                for (key, round) in [(tj - 1, j), (tj, j + 1), (tj + 1, count(tj + 1))] {
                    assert_eq!(join_round(&t, key), round, "key {key:#x}, thresholds {t:x?}");
                    assert_eq!(round, count(key));
                }
            }
            for key in (0..64).flat_map(|e| [(1 << e) - 1, 1 << e]).chain([0, u64::MAX]) {
                assert_eq!(join_round(&t, key), count(key), "key {key:#x}, thresholds {t:x?}");
            }
            assert_eq!(join_round(&t, 0), 0);
            assert_eq!(join_round(&t, u64::MAX), t.len());
        }
    }

    /// [`Round::sample_joins`]' thresholds for `initial_sample` and n points: round
    /// j's is `2^64·initial_sample·2^j / n`, while `initial_sample·2^j < n`.
    fn thresholds(initial_sample: u128, n: u64) -> Vec<u64> {
        let sizes = (0..).map(|j| initial_sample << j).take_while(|&s| s < u128::from(n));
        sizes.map(|s| ((s << 64) / u128::from(n)) as u64).collect()
    }

    #[test]
    fn sample_joins_buckets_every_point_by_its_round() {
        // Each point in the bucket of its key's round, ascending, the full
        // set's in none — a rank's share of a larger global point set too;
        // nothing with sampling off or when `initial_sample` covers n.
        let pts = uniform_points(5000, 72);
        // The buckets of a fresh round over `pts`: its `assignment` is left
        // empty, `ids` holds the buckets and `spare` has room for the largest.
        let sampled = |pts: &[Point<2>], cfg: &Config, n: u64| {
            let mut round = Round::<2>::new(pts.len());
            round.sample_joins(pts, cfg, n);
            let largest = round.starts.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0);
            assert!(round.assignment.is_empty() && round.spare.capacity() >= largest);
            assert_eq!(round.ids, round.joins);
            (round.ids, round.starts)
        };
        for (initial_sample, local, n) in [(100, 5000, 5000), (7, 3000, 9000), (100, 40, 1000)] {
            let t = thresholds(initial_sample, n);
            let key = |p: &Point<2>| {
                (0..2).fold(SAMPLE_SEED, |h, d| SplitMix64::new(h ^ p[d].to_bits()).next_u64())
            };
            let join: Vec<u8> = pts[..local].iter().map(|p| join_round(&t, key(p)) as u8).collect();
            let cfg = Config { initial_sample: initial_sample as usize, ..Config::default() };
            let got = sampled(&pts[..local], &cfg, n);
            assert_eq!(
                got,
                buckets(&join, t.len() as u8),
                "initial_sample {initial_sample}, n {n}"
            );
            assert!(got.1.len() == t.len() + 1 && t.len() > 3);
        }
        let off = Config { sampling_init: false, ..Config::default() };
        assert_eq!(sampled(&pts, &off, 5000), Default::default());
        assert_eq!(sampled(&pts[..50], &Config::default(), 100), Default::default());
        // A rank with no point still has every round, each empty.
        assert_eq!(sampled(&pts[..0], &Config::default(), 5000), (vec![], vec![0; 7]));
    }

    #[test]
    fn grids_are_total() {
        // All-zero weights, fewer than four points, and a `w·x` bound past
        // the f64 range (heavy points far out) each end in finite centers.
        let cases: [(Vec<Point<2>>, Vec<f64>); 4] = [
            (uniform_points(50, 91), vec![0.0; 50]),
            (uniform_points(3, 92), vec![1.0; 3]),
            (uniform_points(1, 93), vec![0.0]),
            (
                uniform_points(40, 94).iter().map(|p| Point::new([p[0] * 1e150, p[1]])).collect(),
                vec![1e200; 40],
            ),
        ];
        for (pts, w) in cases {
            let k = 2.min(pts.len());
            let centers = sfc_like_centers(&pts, k);
            let out = balanced_kmeans(&SelfComm, &pts, &w, k, centers, &Config::default());
            assert!(out.centers.iter().all(|c| c.coords().iter().all(|x| x.is_finite())));
            assert!(out.influence.iter().all(|i| i.is_finite() && *i > 0.0));
        }
        for bound in [0.0, 1.0, f64::MIN_POSITIVE, f64::MAX, f64::INFINITY, f64::NAN] {
            let g = snap(bound);
            assert!(g.is_finite() && g > 0.0, "grid {g} for bound {bound}");
        }
    }

    #[test]
    fn centroid_error_scales_with_the_extent_not_the_offset() {
        // The unit square moved out to 1e6 and beyond (projected or ECEF
        // coordinates look like this): a grid sized from |x| would quantise
        // each term to ~n·1e6·2^-52 and the centroid to ~1e-8; counted from
        // the box's middle, to ~n·2^-52. Offsets that are powers of two move
        // the middle exactly and leave the grids' bits alone.
        let n = 1 << 16;
        // Coordinates on a 2^-26 grid, so `x + offset` is exact.
        let q = 2f64.powi(26);
        let unit: Vec<Point<2>> = uniform_points(n, 95)
            .iter()
            .map(|p| Point::new([(p[0] * q).round() / q, p[1]]))
            .collect();
        let weights = vec![1.0; n];
        let unit_bb = Aabb::from_points(&unit).unwrap();
        for offset in [1e6, -3.5e7, 2f64.powi(20)] {
            let pts: Vec<Point<2>> =
                unit.iter().map(|p| Point::new([p[0] + offset, p[1]])).collect();
            let grid = Grid::new(n as u64, 1.0, &Aabb::from_points(&pts).unwrap());
            let mut round = Round::<2>::new(n);
            round.grow(None, &pts);
            let mut sums = vec![0.0; 3];
            round.add_rows::<true>(&pts, &weights, &grid, &mut sums);
            // Measured from the offset, which `mid − offset` is exactly.
            let centroid = (grid.mid[0] - offset) + sums[0] / sums[2];
            let exact = unit.iter().map(|p| p[0]).sum::<f64>() / n as f64;
            let err = (centroid - exact).abs();
            assert!(err < 1e-9, "offset {offset}: centroid off by {err}");
            if offset == 2f64.powi(20) {
                let at_origin = Grid::new(n as u64, 1.0, &unit_bb);
                assert_eq!(grid.wx.map(f64::to_bits), at_origin.wx.map(f64::to_bits));
            }
        }
    }

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
        let base_cfg = Config { sampling_init: false, ..Config::default() };
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

    /// Solve one instance of the grid on `p` thread ranks: n = 1200 seeded
    /// points of one family with weights in [1, 2). At p = 4 the shards
    /// are uneven on purpose: rank 0 holds nothing, rank 1 fewer points
    /// than a 100- or 257-point first sample, and no shard is a multiple
    /// of `SOA_BLOCK`.
    fn solve_instance<const D: usize>(
        p: usize,
        seed: u64,
        clustered: bool,
        k: usize,
        cfg: &Config,
    ) -> Vec<KMeansOutput<D>> {
        let n = 1200;
        let pts = family_points::<D>(n, seed, clustered);
        let mut rng = SplitMix64::new(seed ^ 0x9E37_79B9);
        let w: Vec<f64> = (0..n).map(|_| 1.0 + rng.next_f64()).collect();
        let centers = spread_centers(&pts, k);
        let cuts: &[usize] = if p == 1 { &[0, n] } else { &[0, 0, 57, 657, n] };
        assert_eq!(cuts.len(), p + 1);
        geographer_parcomm::run_spmd(p, |c| {
            let (lo, hi) = (cuts[c.rank()], cuts[c.rank() + 1]);
            balanced_kmeans(&c, &pts[lo..hi], &w[lo..hi], k, centers.clone(), cfg)
        })
    }

    /// FNV-1a over the global assignment (the ranks' in rank order) and
    /// the trajectory counters summed over the ranks — what a kernel edit
    /// must not move and what must not depend on p — and, apart from it,
    /// the distance evaluations summed over the ranks, which depend on
    /// how the ranks' blocks prune and which an edit to the pruning
    /// re-pins on purpose.
    fn digest<const D: usize>(ranks: &[KMeansOutput<D>]) -> (String, u64) {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |v: u64| {
            for b in v.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        };
        ranks.iter().flat_map(|out| &out.assignment).for_each(|&a| eat(u64::from(a)));
        let sum = |f: fn(&KMeansStats) -> u64| ranks.iter().map(|out| f(&out.stats)).sum();
        [
            ranks[0].stats.movement_iterations,
            ranks[0].stats.balance_iterations,
            sum(|s| s.hamerly_skips),
            sum(|s| s.points_visited),
        ]
        .into_iter()
        .for_each(&mut eat);
        (format!("{h:#018x}"), sum(|s| s.distance_evals))
    }

    #[test]
    fn golden_digests_match_the_recorded_solves_at_every_p() {
        // Eight cells of the grid `oracle_holds_…` sweeps — both
        // dimensions, both families, every first-sample size, both
        // budgets, k = 32, and each pruning switch off — plus one
        // default-config solve run to convergence, each solved on one
        // rank and on four uneven ones: the digest is one value at both,
        // the evaluation counts are per p. Recorded when sample rounds
        // stopped balancing at `SAMPLE_BALANCE_ITERATIONS` (CHANGES.md has
        // the values they replaced).
        let cfg = |initial_sample, max_iterations| Config {
            initial_sample,
            max_iterations,
            ..Config::default()
        };
        let no_hamerly = Config { hamerly_bounds: false, ..cfg(100, 15) };
        let no_bbox = Config { bbox_pruning: false, ..cfg(257, 15) };
        let cell = |p: usize, c: usize| match c {
            0 => digest(&solve_instance::<2>(p, 41, false, 5, &cfg(100, 15))),
            1 => digest(&solve_instance::<3>(p, 42, true, 5, &cfg(257, 15))),
            2 => digest(&solve_instance::<2>(p, 43, true, 5, &cfg(1, 3))),
            3 => digest(&solve_instance::<3>(p, 41, false, 5, &cfg(100, 3))),
            4 => digest(&solve_instance::<2>(p, 42, false, 32, &cfg(100, 15))),
            5 => digest(&solve_instance::<3>(p, 43, true, 32, &cfg(1, 15))),
            6 => digest(&solve_instance::<2>(p, 43, true, 5, &no_hamerly)),
            7 => digest(&solve_instance::<3>(p, 41, true, 5, &no_bbox)),
            _ => digest(&solve_instance::<2>(p, 42, true, 5, &Config::default())),
        };
        let got: [_; 9] = std::array::from_fn(|c| {
            let ((h1, evals1), (h4, evals4)) = (cell(1, c), cell(4, c));
            assert_eq!(h1, h4, "cell {c}: the digest depends on p");
            (h1, evals1, evals4)
        });
        let golden = [
            ("0x7e98784c35fe4bec", 28575, 28575),
            ("0xda2af4f7f5aed19c", 104855, 104855),
            ("0xc04afb8712caa700", 102695, 102682),
            ("0x1d78676f51bbb1ef", 12985, 12979),
            ("0x2b4d9b7e9216973f", 1736128, 1735539),
            ("0x32f89e704719723e", 2142074, 2141127),
            ("0xe8437479e2b17e27", 585150, 585090),
            ("0xd37d83e24c2505bf", 74330, 74330),
            ("0xd8c09c9bd8cbae50", 195750, 195746),
        ];
        assert_eq!(got.each_ref().map(|(h, e1, e4)| (&h[..], *e1, *e4)), golden);
    }

    #[test]
    fn oracle_holds_across_dims_ranks_families_and_switches() {
        // Hand-rolled property sweep (the workspace carries no proptest
        // dependency) of seeded instances under the per-pass oracle:
        // D ∈ {2, 3}, p ∈ {1, 4}, both families, and first samples of 1,
        // 100 and 257 points — sampling rounds run the kernel over a
        // round grown in place. A budget of 3 movement iterations runs out
        // mid-sampling and ends in the final full pass; 15 reaches the
        // full set even from a single point (11 doublings). These points
        // are unsorted, so a block's box spans the domain and its
        // shortlist holds nearly all of k = 5 or 32 centers.
        // With `hamerly_bounds` off every point survives, so the odd
        // shards (57 and 543 points) end in an odd batch tail on every
        // pass. The paper's claim is that bounds and pruning never change
        // the result: each switch off must reproduce the partition.
        for seed in [41, 42, 43] {
            for p in [1usize, 4] {
                for clustered in [false, true] {
                    for initial_sample in [1, 100, 257] {
                        for max_iterations in [3, 15] {
                            let cfg =
                                Config { max_iterations, initial_sample, ..Config::default() };
                            solve_instance::<2>(p, seed, clustered, 5, &cfg);
                            solve_instance::<3>(p, seed, clustered, 5, &cfg);
                        }
                    }
                    // 32 blocks of 1200 points never balance to ε, so the
                    // balance budget is what bounds these solves.
                    let cfg = Config {
                        max_iterations: 8,
                        max_balance_iterations: 10,
                        ..Config::default()
                    };
                    for k in [5, 32] {
                        let on = solve_instance::<2>(p, seed, clustered, k, &cfg);
                        for (hamerly_bounds, bbox_pruning) in [(false, true), (true, false)] {
                            let off = Config { hamerly_bounds, bbox_pruning, ..cfg.clone() };
                            let off = solve_instance::<2>(p, seed, clustered, k, &off);
                            for (a, b) in on.iter().zip(&off) {
                                let tag = format!(
                                    "p={p} seed={seed} clustered={clustered} k={k} \
                                     hamerly={hamerly_bounds} bbox={bbox_pruning}"
                                );
                                assert_eq!(a.assignment, b.assignment, "{tag}");
                                assert_eq!(a.centers, b.centers, "{tag}");
                                assert_eq!(a.influence, b.influence, "{tag}");
                            }
                        }
                        solve_instance::<3>(p, seed, clustered, k, &cfg);
                    }
                }
            }
        }
    }

    /// `points` along the Hilbert curve — the order a rank holds them in
    /// after the redistribution, where a 256-point block is spatially
    /// tight and its center shortlist short.
    fn curve_ordered<const D: usize>(points: &[Point<D>]) -> Vec<Point<D>> {
        let bb = Aabb::from_points(points).expect("points");
        let order = geographer_sfc::HilbertMapper::new(bb, 16).order(points);
        order.into_iter().map(|i| points[i as usize]).collect()
    }

    #[test]
    fn oracle_holds_where_the_shortlist_is_short() {
        // The grid above solves 1 200 unsorted points, whose blocks span
        // the domain and reach every center. Here the points are curve
        // ordered, the influences spread over 1e-3…1e3, and the blocks
        // built on purpose (sampling off, so array blocks are kernel
        // blocks): block 0 is 256 copies of one point — a zero-extent box
        // — with center 0 inside it; block 1's box has center 1 on a face
        // and, for k > 2, center 2 at its middle; the tail block holds 43
        // points. Every pass runs under the oracle, and pruning on must
        // reproduce pruning off, work counters apart.
        fn check<const D: usize>(clustered: bool, k: usize) {
            let mut pts = curve_ordered(&family_points::<D>(1323, 71, clustered));
            pts.splice(0..0, std::iter::repeat_n(pts[700], SOA_BLOCK));
            let w = vec![1.0; pts.len()];
            let bb = Aabb::from_points(&pts[SOA_BLOCK..2 * SOA_BLOCK]).unwrap();
            let mut centers = spread_centers(&pts, k);
            centers[0] = pts[0];
            if k > 1 {
                let mut face = bb.center();
                face[0] = bb.min[0];
                centers[1] = face;
            }
            if k > 2 {
                centers[2] = bb.center();
            }
            let influence: Vec<f64> =
                (0..k).map(|c| 10f64.powf(((c * 7) % 13) as f64 / 2.0 - 3.0)).collect();
            let cfg = Config {
                sampling_init: false,
                max_iterations: 3,
                max_balance_iterations: 6,
                ..Config::default()
            };
            let solve = |cfg: &Config| {
                let (c, i) = (centers.clone(), influence.clone());
                balanced_kmeans_warm(&SelfComm, &pts, &w, k, c, i, cfg)
            };
            let on = solve(&cfg);
            let off = solve(&Config { bbox_pruning: false, ..cfg.clone() });
            let tag = format!("D={D} clustered={clustered} k={k}");
            assert_eq!(on.assignment, off.assignment, "{tag}");
            assert_eq!(on.centers, off.centers, "{tag}");
            assert_eq!(on.influence, off.influence, "{tag}");
            assert_eq!(off.stats.bbox_breaks, 0, "{tag}");
            let evaluated = off.stats.points_visited - off.stats.hamerly_skips;
            assert_eq!(off.stats.distance_evals, evaluated * k as u64, "{tag}");
            if k > 2 {
                assert!(on.stats.distance_evals < off.stats.distance_evals, "{tag}");
                assert!(on.stats.bbox_breaks > 0, "{tag}");
            }
            // Sampling on: the blocks of a sparse sample are wider.
            solve(&Config { sampling_init: true, max_iterations: 6, ..cfg });
        }
        for clustered in [false, true] {
            for k in [1, 2, 5, 32, 64, 200] {
                check::<2>(clustered, k);
                check::<3>(clustered, k);
            }
        }
    }

    #[test]
    fn shortlist_excludes_only_centers_beyond_every_second_best() {
        // The shortlist on its own: random boxes (one in four with zero
        // extent), centers in and around them (center 0 inside, center 1
        // on a face), influences over 1e-3…1e3. Every excluded center is
        // strictly farther, in `Point::dist / influence` arithmetic, than
        // the brute-force second-best of every sampled point of the box —
        // corners included — and the kept ones are the scan order's own
        // entries, in that order.
        fn check<const D: usize>(rng: &mut SplitMix64, k: usize) -> usize {
            let lo: [f64; D] = std::array::from_fn(|_| rng.next_f64());
            let extent = if rng.next_u64().is_multiple_of(4) { 0.0 } else { 0.3 * rng.next_f64() };
            let hi: [f64; D] = std::array::from_fn(|d| lo[d] + extent * rng.next_f64());
            let inside = |rng: &mut SplitMix64| -> [f64; D] {
                std::array::from_fn(|d| lo[d] + (hi[d] - lo[d]) * rng.next_f64())
            };
            let mut centers: Vec<Point<D>> = (0..k)
                .map(|_| Point::new(std::array::from_fn(|_| 1.6 * rng.next_f64() - 0.3)))
                .collect();
            centers[0] = Point::new(inside(rng));
            if k > 1 {
                let mut face = inside(rng);
                face[0] = hi[0];
                centers[1] = Point::new(face);
            }
            let influence: Vec<f64> =
                (0..k).map(|_| 10f64.powf(6.0 * rng.next_f64() - 3.0)).collect();
            let mut cs = CenterScratch::default();
            cs.order.extend((0..k as u32).map(|c| (0.0, c)));
            rng.shuffle(&mut cs.order);
            cs.fill_sorted::<D>(&centers, &influence);
            let mut sc = KernelScratch::<D>::new(k);
            let m = shortlist::<D>(true, k, &(lo, hi), &cs, &mut sc);
            // The caller's rule: m = k means "scan `cs`", nothing copied.
            let kept: &[u32] = if m == k { &cs.ids } else { &sc.ids[..m] };
            let mut rest = kept.iter().peekable();
            for id in &cs.ids {
                if rest.next_if_eq(&id).is_some() && m < k {
                    let (at, c) = (m - rest.len() - 1, *id as usize);
                    let lanes: [f64; D] = std::array::from_fn(|d| sc.coords[d * k + at]);
                    assert_eq!(Point::new(lanes), centers[c]);
                    assert_eq!(sc.influence[at], influence[c]);
                    let bb = Aabb { min: Point::new(lo), max: Point::new(hi) };
                    let near = bb.min_dist(&centers[c]);
                    assert_eq!(sc.cbound[at].to_bits(), (near / influence[c]).to_bits());
                }
            }
            assert!(rest.next().is_none(), "kept ids are a subsequence of the scan order");
            for sample in 0..(1usize << D) + 24 {
                let x = Point::new(if sample < 1 << D {
                    std::array::from_fn(|d| if sample >> d & 1 == 0 { lo[d] } else { hi[d] })
                } else {
                    inside(rng)
                });
                let e: Vec<f64> =
                    centers.iter().zip(&influence).map(|(c, f)| x.dist(c) / f).collect();
                let mut sorted = e.clone();
                sorted.sort_by(f64::total_cmp);
                let second = sorted.get(1).copied().unwrap_or(f64::INFINITY);
                for (c, &e) in e.iter().enumerate() {
                    assert!(
                        kept.contains(&(c as u32)) || e > second,
                        "D={D} k={k}: center {c} at {e} excluded, second-best {second}"
                    );
                }
            }
            k - m
        }
        let mut rng = SplitMix64::new(81);
        let mut excluded = 0;
        for _ in 0..300 {
            for k in [1, 2, 3, 17, 64] {
                excluded += check::<2>(&mut rng, k) + check::<3>(&mut rng, k);
            }
        }
        assert!(excluded > 20_000, "the property is vacuous: {excluded} exclusions");
    }

    #[test]
    fn budget_ending_on_the_last_sampling_round_still_assigns_every_point() {
        // Regression: one movement iteration over 100 of each rank's 200
        // points, whose doubling reaches `n_local`. The tail check read
        // the doubled length, skipped the full pass and left every point
        // outside the sample in block 0 — imbalance 1.51 behind a reported
        // 0.027, the sample's.
        let (n, p, k) = (600, 3, 4);
        let pts = family_points::<2>(n, 44, false);
        let w = vec![1.0; n];
        let cfg = Config { max_iterations: 1, initial_sample: 100, ..Config::default() };
        let outs = geographer_parcomm::run_spmd(p, |c| {
            let (lo, hi) = (c.rank() * n / p, (c.rank() + 1) * n / p);
            balanced_kmeans(&c, &pts[lo..hi], &w[lo..hi], k, spread_centers(&pts, k), &cfg)
        });
        let mut sizes = vec![0.0f64; k];
        for &block in outs.iter().flat_map(|out| &out.assignment) {
            sizes[block as usize] += 1.0;
        }
        assert!(sizes.iter().all(|&s| s > 0.0), "an empty block: {sizes:?}");
        let imbalance = sizes.iter().copied().fold(0.0, f64::max) / (n / k) as f64 - 1.0;
        for out in &outs {
            assert_eq!(out.stats.movement_iterations, 1);
            assert!(
                (out.stats.final_imbalance - imbalance).abs() < 1e-12,
                "reported {} for a partition of imbalance {imbalance}",
                out.stats.final_imbalance
            );
        }
    }

    #[test]
    fn sample_rounds_stop_at_the_cap() {
        // k = 64 on the clustered family: a 100-point first sample gives a
        // block about 1.6 points, and a sample round that balanced toward ε
        // ran all `max_balance_iterations`. Only the full set may.
        let (n, k, defaults) = (6400, 64, Config::default());
        let pts = family_points::<2>(n, 45, true);
        let w = vec![1.0; n];
        let centers = spread_centers(&pts, k);
        // Samples of 100, 200, …, 3200 points, then the full set.
        let sample_rounds = (0..).take_while(|&j| 100 << j < n).count() as u64;
        let solve = |max_iterations| {
            let cfg = Config { max_iterations, ..defaults.clone() };
            balanced_kmeans(&SelfComm, &pts, &w, k, centers.clone(), &cfg)
        };
        let (cap, full) =
            (SAMPLE_BALANCE_ITERATIONS as u64, defaults.max_balance_iterations as u64);
        // A budget that ends on the last sample: every movement round is a
        // sample, and only the tail pass over the full set runs uncapped.
        let tail = solve(sample_rounds as usize).stats;
        assert_eq!(tail.movement_iterations, sample_rounds);
        assert!(tail.balance_iterations <= cap * sample_rounds + full, "{tail:?}");
        let out = solve(defaults.max_iterations);
        let s = out.stats;
        assert!(s.movement_iterations > sample_rounds && s.converged, "{s:?}");
        let bound = cap * sample_rounds + full * (s.movement_iterations - sample_rounds);
        assert!(s.balance_iterations <= bound, "{} > {bound}", s.balance_iterations);
        // ε holds on the assignment itself, not only as reported.
        let mut sizes = vec![0.0f64; k];
        out.assignment.iter().for_each(|&b| sizes[b as usize] += 1.0);
        let allowed = (1.0 + defaults.epsilon) * (n / k) as f64;
        assert!(s.balance_achieved && sizes.iter().all(|&x| x <= allowed), "{sizes:?}");
    }

    /// Warm fixed-point property: converge cold, restart warm from the
    /// converged (centers, influence) pair — the assignment must
    /// reproduce exactly in one movement iteration.
    fn assert_warm_fixed_point<const D: usize>(seed: u64, clustered: bool) {
        let n = 1000;
        let pts = family_points::<D>(n, seed, clustered);
        let w = vec![1.0; n];
        let k = 5;
        let cfg = Config { sampling_init: false, max_iterations: 200, ..Config::default() };
        let cold = balanced_kmeans(&SelfComm, &pts, &w, k, spread_centers(&pts, k), &cfg);
        assert!(cold.stats.converged, "D={D} seed={seed}");
        let warm = balanced_kmeans_warm(
            &SelfComm,
            &pts,
            &w,
            k,
            cold.centers.clone(),
            cold.influence.clone(),
            &cfg,
        );
        let tag = format!("D={D} seed={seed} clustered={clustered}");
        assert_eq!(warm.assignment, cold.assignment, "{tag}");
        assert_eq!(warm.stats.movement_iterations, 1, "{tag}");
        assert!(warm.stats.converged, "{tag}");
    }

    #[test]
    fn warm_fixed_point_holds_across_dims_and_families() {
        // The warm-start contract (DESIGN.md §5), swept across dimensions
        // and both mesh families.
        for seed in [51, 52] {
            for clustered in [false, true] {
                assert_warm_fixed_point::<2>(seed, clustered);
                assert_warm_fixed_point::<3>(seed, clustered);
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
