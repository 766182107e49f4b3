//! Distributed sorting and selection over a [`Comm`].
//!
//! Two primitives back most of the workspace:
//!
//! * [`sample_sort_by_key`] — the global sort-by-Hilbert-key and
//!   redistribution step of Geographer's bootstrap (Algorithm 2, lines
//!   4–6), ending with exactly the rank's n/p share of the order. The
//!   paper uses the schizophrenic quicksort of Axtmann et al.; sample sort
//!   plays the same role (one splitter-selection round, one personalized
//!   exchange) with simpler machinery. Locally it is an LSD radix sort on
//!   `(key, index)` pairs before the exchange; after it, one p-way merge
//!   of the rank's own run and the received runs puts every item straight
//!   where it ends: into the rank's share, or into a boundary exchange
//!   with the rank that owns it. Equal keys keep (source rank, input
//!   position) order. The two halves are public on their own —
//!   [`stable_order`] and [`exchange_sorted`] — so the pipeline can sort
//!   its keys as pairs, build a record only where one crosses the wire and
//!   merge into its own arrays; [`rebalance`] is the placement alone. See
//!   DESIGN.md §3.
//! * [`weighted_quantiles_grouped`] / [`weighted_quantiles_u64`] — distributed
//!   weighted quantile selection by bisection, the communication kernel
//!   inside the RCB/RIB/MultiJagged/HSFC baselines (this is also how
//!   Zoltan's RCB finds its median cuts: iterated weight counting).
//!
//! Both primitives run on the native collectives of `geographer_parcomm`
//! (DESIGN.md §4): the sample sort is a sample allgather, a move-once
//! `alltoallv`, one recursive-doubling exscan and the boundary
//! `alltoallv`, and every bisection iteration costs one
//! `O(m·log p)`-volume allreduce. Range
//! discovery is fused into a single reduction per search — the f64 paths
//! pack `(min, −max)` pairs into one min-reduce, the u64 path reduces a
//! `(min, max)` tuple — so a quantile search never spends two latency
//! rounds where one suffices. [`global_bbox`] is the same trick for a
//! point set's box, the one the curve keys, k-means and HSFC all use.

#![allow(clippy::needless_range_loop, reason = "fixed-dimension coordinate loops index \
          several parallel arrays at once; iterator-zip rewrites of those loops are less \
          readable, not more")]

use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};
use std::ops::Range;
use std::vec::IntoIter;

use geographer_geometry::{Aabb, Point};
use geographer_parcomm::{Comm, Wire};

/// Oversampling factor for splitter selection. Higher values buy better
/// balance for one slightly larger allgather.
const OVERSAMPLE: usize = 16;

/// Sort `(key, index)` pairs by key in place, equal keys in their input
/// order; `false`, with nothing moved, when the keys already ascend (an
/// empty input does). Built with each index its position, the index halves
/// are then the permutation a stable sort by key applies, and `false`
/// says it is the identity. Both of the workspace's curve orders come from
/// here: the bootstrap's local sort and the rank-local order of the
/// pipeline's warm arm.
///
/// One xor-fold over the pairs finds the key bytes that vary at all (4 of
/// 8 for the pipeline's 32-bit Hilbert keys, 2 for the warm arm's coarse
/// ones); each varying byte then costs one counting pass and one scatter
/// of 16-byte pairs between the two halves of **one** buffer of 2n pairs.
/// A caller that reserved `2 * pairs.len()` lets the sort allocate
/// nothing; otherwise the vector grows once. On return it holds the n
/// sorted pairs at that capacity: drop it before allocating what outlives
/// it. A counting scatter keeps the order of equal bytes, so every pass
/// is stable, and so is their composition.
pub fn stable_order(pairs: &mut Vec<(u64, u32)>) -> bool {
    let n = pairs.len();
    let Some(&(first, _)) = pairs.first() else { return false };
    let (mut varying, mut ascending, mut prev) = (0u64, true, first);
    // geo-analyze: hot-loop
    for &(k, _) in pairs.iter() {
        varying |= k ^ first;
        ascending &= prev <= k;
        prev = k;
    }
    if ascending {
        return false;
    }

    pairs.resize(2 * n, (0, 0));
    let (mut src, mut dst) = pairs.split_at_mut(n);
    let mut in_lower = true;
    for shift in (0..u64::BITS).step_by(8) {
        if (varying >> shift) & 0xff == 0 {
            continue;
        }
        let byte = |k: u64| (k >> shift) as usize & 0xff;
        let mut next = [0usize; 256];
        // geo-analyze: hot-loop
        for &(k, _) in src.iter() {
            next[byte(k)] += 1;
        }
        // Counts to first output positions.
        let mut sum = 0;
        for slot in &mut next {
            sum += std::mem::replace(slot, sum);
        }
        // geo-analyze: hot-loop
        for &pair in src.iter() {
            let slot = &mut next[byte(pair.0)];
            dst[*slot] = pair;
            *slot += 1;
        }
        std::mem::swap(&mut src, &mut dst);
        in_lower = !in_lower;
    }
    if !in_lower {
        pairs.copy_within(n.., 0);
    }
    pairs.truncate(n);
    true
}

/// Where [`exchange_sorted`] and [`rebalance`] write a rank's share of the
/// global order. Slots at or past the length come in ascending order; the
/// ones they skip (items from lower ranks, which arrive last) are written
/// later.
pub trait Share<T> {
    /// Write `item` at `slot`.
    fn put(&mut self, slot: usize, item: T);
}

impl<T: Clone> Share<T> for Vec<T> {
    fn put(&mut self, slot: usize, item: T) {
        if slot < self.len() {
            self[slot] = item;
            return;
        }
        if slot > self.len() {
            self.resize(slot, item.clone());
        }
        self.push(item);
    }
}

/// The global positions rank `r` of `p` owns in an order of `n` items,
/// `⌈r·n/p⌉..⌈(r+1)·n/p⌉`: position `g` belongs to rank `⌊g·p/n⌋`.
fn owned(r: usize, p: usize, n: u64) -> Range<u64> {
    let start = |r: usize| (r as u128 * n as u128).div_ceil(p as u128) as u64;
    start(r)..start(r + 1)
}

/// Globally sort `items` by `key` across all ranks of `comm`: rank `r`
/// ends with exactly the positions `⌈r·n/p⌉..⌈(r+1)·n/p⌉` of the order,
/// in an exact-size vector, so a [`rebalance`] after it moves nothing.
///
/// **Tie order is part of the contract:** equal keys end up in (source
/// rank, position in that rank's input) order — at p = 1 exactly
/// `slice::sort_by_key`. The local sort ([`stable_order`]) is stable and
/// the merge in [`exchange_sorted`] breaks ties by source rank; the
/// thread ≡ process bitwise contract and the golden digests rest on it,
/// because 16-bit-per-axis Hilbert keys do collide (DESIGN.md §3).
pub fn sample_sort_by_key<T, C, K>(comm: &C, items: Vec<T>, key: K) -> Vec<T>
where
    T: Wire,
    C: Comm,
    K: Fn(&T) -> u64,
{
    assert!(items.len() <= u32::MAX as usize, "the local sort indexes items by u32");
    let (p, local_n) = (comm.size(), items.len() as u64);
    let n = if p == 1 { local_n } else { comm.allreduce(local_n, |a, b| a + b) };
    let mut order = Vec::with_capacity(2 * items.len());
    order.extend(items.iter().zip(0..).map(|(t, i)| (key(t), i)));
    if !stable_order(&mut order) && p == 1 {
        return items;
    }
    exchange_sorted(comm, order, n, |&(_, i)| items[i as usize].clone(), key, Vec::with_capacity)
}

/// The exchange half of [`sample_sort_by_key`]. `order` is this rank's
/// `(key, index)` pairs as [`stable_order`] left them, `n` the global item
/// count, `record` makes the item a pair stands for, and `key` reads the
/// key back off an item. Only an item bound for another rank becomes a
/// record before the merge, straight into the run for the rank that owns
/// its key; the own run stays as pairs, and the rest of the pair buffer
/// is handed back before the exchange. One merge of the own and the
/// received runs by `(key, source rank)` then writes each item into the
/// rank's n/p share — `out(len)` makes it, once the exchange has
/// freed its buffers — or sends it to the rank that owns it. At p = 1 this
/// is the local gather and no collective.
pub fn exchange_sorted<T, C, S>(
    comm: &C,
    mut order: Vec<(u64, u32)>,
    n: u64,
    record: impl Fn(&(u64, u32)) -> T,
    key: impl Fn(&T) -> u64,
    out: impl FnOnce(usize) -> S,
) -> S
where
    T: Wire,
    C: Comm,
    S: Share<T>,
{
    let (p, me) = (comm.size(), comm.rank());
    // In place: a shrinking realloc does not copy.
    order.shrink_to_fit();
    if p == 1 {
        let mut out = out(order.len());
        order.iter().enumerate().for_each(|(slot, pair)| out.put(slot, record(pair)));
        return out;
    }
    // Regular sampling of the locally sorted keys, then p−1 splitters at
    // regular positions in the gathered sample. Key `k` goes to rank
    // `#{splitters ≤ k}`: the keys are sorted, so the run boundaries fall
    // out of binary searches.
    let s = if order.is_empty() { 0 } else { OVERSAMPLE * (p - 1) };
    let samples = (0..s).map(|j| order[(j * order.len()) / s].0).collect();
    let mut all = comm.allgather(samples).concat();
    all.sort_unstable();
    let splitter = |r: usize| all.get((r * all.len()) / p).map_or(0, |&k| k);
    let mut bounds: Vec<usize> =
        (0..p).map(|r| order.partition_point(|&(k, _)| r > 0 && k < splitter(r))).collect();
    bounds.push(order.len());
    let run = |r: usize| bounds[r]..bounds[r + 1];
    let sends: Vec<Vec<T>> =
        (0..p).map(|r| order[run(r)].iter().filter(|_| r != me).map(&record).collect()).collect();
    order.copy_within(run(me), 0);
    order.truncate(run(me).len());
    order.shrink_to_fit();
    let runs = comm.alltoallv(sends);
    let len = (order.len() + runs.iter().map(Vec::len).sum::<usize>()) as u64;
    let offset = comm.exscan_sum_u64(len);
    let mine = owned(me, p, n);
    let mut out = out((mine.end - mine.start) as usize);
    place(comm, n, offset..offset + len, merge(me, order, record, runs, key), &mut out);
    out
}

/// This rank's own run (pairs, made into items by `record`) and the runs
/// it received, merged by `(key, source rank)` — what a stable sort of
/// their concatenation in rank order yields — by a heap over the head key
/// of each unfinished run. The runs are freed with the iterator.
fn merge<'a, T: 'a>(
    me: usize,
    own: Vec<(u64, u32)>,
    record: impl Fn(&(u64, u32)) -> T + 'a,
    runs: Vec<Vec<T>>,
    key: impl Fn(&T) -> u64 + 'a,
) -> impl Iterator<Item = T> + 'a {
    let mut own = own.into_iter();
    let mut runs: Vec<_> = runs.into_iter().map(Vec::into_iter).collect();
    let head = move |r: usize, own: &IntoIter<(u64, u32)>, runs: &[IntoIter<T>]| match r == me {
        true => own.as_slice().first().map(|q| q.0),
        false => runs[r].as_slice().first().map(&key),
    };
    let mut heads: BinaryHeap<_> =
        (0..runs.len()).filter_map(|r| Some(Reverse((head(r, &own, &runs)?, r)))).collect();
    std::iter::from_fn(move || {
        let mut top = heads.peek_mut()?;
        let r = top.0 .1;
        let item = if r == me { record(&own.next()?) } else { runs[r].next()? };
        match head(r, &own, &runs) {
            Some(k) => top.0 .0 = k,
            None => drop(PeekMut::pop(top)),
        }
        Some(item)
    })
}

/// Redistribute data already ordered across ranks (a sort's output, say)
/// so rank `r` owns exactly its positions `⌈r·n/p⌉..⌈(r+1)·n/p⌉`, in an
/// exact-size vector: the placement half of [`exchange_sorted`] on its
/// own, which sends only what another rank owns.
pub fn rebalance<T, C>(comm: &C, items: Vec<T>) -> Vec<T>
where
    T: Wire,
    C: Comm,
{
    let (p, local_n) = (comm.size(), items.len() as u64);
    if p == 1 {
        return items;
    }
    let offset = comm.exscan_sum_u64(local_n);
    let n = comm.allreduce(local_n, |a, b| a + b);
    let mine = owned(comm.rank(), p, n);
    let mut out = Vec::with_capacity((mine.end - mine.start) as usize);
    place(comm, n, offset..offset + local_n, items.into_iter(), &mut out);
    out
}

/// Deal this rank's run of the global order — `items`, at the global
/// positions `run` — to their [`owned`] places. An item this rank owns is
/// written into `out` at once; the others cross one alltoallv, whose
/// arrivals fill the rest of `out`: those from lower ranks the slots
/// before the run, those from higher ranks the slots after it.
fn place<T: Wire, C: Comm>(
    comm: &C,
    n: u64,
    run: Range<u64>,
    items: impl Iterator<Item = T>,
    out: &mut impl Share<T>,
) {
    let (p, me) = (comm.size(), comm.rank());
    let starts: Vec<u64> = (0..=p).map(|r| owned(r, p, n).start).collect();
    let clip = |g: u64| g.clamp(run.start, run.end);
    let piece = |r: usize| if r == me { 0 } else { (clip(starts[r + 1]) - clip(starts[r])) as usize };
    let mut sends: Vec<Vec<T>> = (0..p).map(|r| Vec::with_capacity(piece(r))).collect();
    let mut dest = 0;
    for (g, item) in run.clone().zip(items) {
        while g >= starts[dest + 1] {
            dest += 1;
        }
        if dest == me {
            out.put((g - starts[me]) as usize, item);
        } else {
            sends[dest].push(item);
        }
    }
    let mut below = 0;
    let mut above = (run.end.clamp(starts[me], starts[me + 1]) - starts[me]) as usize;
    for (r, arrived) in comm.alltoallv(sends).into_iter().enumerate() {
        let slot = if r < me { &mut below } else { &mut above };
        for item in arrived {
            out.put(*slot, item);
            *slot += 1;
        }
    }
}

/// Global bounding box of a distributed point set — a single min-reduce:
/// the buffer carries `[min_0…min_{D−1}, −max_0…−max_{D−1}]`, so one
/// collective finds both corners (the min(−max) trick of the quantile
/// searches below). A globally empty set gets the unit box at the origin.
pub fn global_bbox<const D: usize, C: Comm>(comm: &C, points: &[Point<D>]) -> Aabb<D> {
    let mut buf = vec![f64::INFINITY; 2 * D];
    for p in points {
        for d in 0..D {
            buf[d] = buf[d].min(p[d]);
            buf[D + d] = buf[D + d].min(-p[d]);
        }
    }
    comm.allreduce_min_f64(&mut buf);
    let empty = |d: usize| buf[d] > -buf[D + d];
    let lo = std::array::from_fn(|d| if empty(d) { 0.0 } else { buf[d] });
    let hi = std::array::from_fn(|d| if empty(d) { 1.0 } else { -buf[D + d] });
    Aabb::new(Point::new(lo), Point::new(hi))
}

/// Result tolerance of the floating-point bisection, relative to the value
/// range.
const F64_BISECT_ITERS: usize = 60;

/// One independent quantile problem inside a batched
/// [`weighted_quantiles_grouped`] call.
#[derive(Debug, Clone, Default)]
pub struct QuantileGroup {
    /// Local values of this group.
    pub values: Vec<f64>,
    /// Local weights, same length as `values`.
    pub weights: Vec<f64>,
    /// Quantile fractions to find for this group.
    pub alphas: Vec<f64>,
}

/// Distributed weighted quantiles over `f64` values, batched.
///
/// For each group and each of its `alphas` (each in `[0, 1]`), find a
/// threshold `x` such that the global weight of the group's `{v_i ≤ x}` is
/// as close as possible to `alpha · total_weight`; a group that is empty
/// on every rank gets `0.0`. All ranks receive identical thresholds.
///
/// Many independent quantile problems (e.g. all region cuts of one
/// recursion level of RCB or MultiJagged) share a *single* bisection — one
/// allreduce per iteration regardless of the number of groups, exactly the
/// communication pattern of a multi-way Zoltan cut search. This
/// level-synchronous batching is what keeps the collective count of
/// recursive partitioners at `O(levels)` instead of `O(k)`, the property
/// behind their scaling behaviour in the paper's Fig. 3.
pub fn weighted_quantiles_grouped<C: Comm>(
    comm: &C,
    groups: &[QuantileGroup],
) -> Vec<Vec<f64>> {
    if groups.is_empty() {
        return Vec::new();
    }
    let g = groups.len();
    // Batched range + weight reduction: one min-reduce (carrying min and
    // -max per group) and one sum-reduce.
    let mut minmax = vec![f64::INFINITY; 2 * g];
    let mut wsum = vec![0.0f64; g];
    for (j, grp) in groups.iter().enumerate() {
        debug_assert_eq!(grp.values.len(), grp.weights.len());
        for &v in &grp.values {
            minmax[2 * j] = minmax[2 * j].min(v);
            minmax[2 * j + 1] = minmax[2 * j + 1].min(-v);
        }
        wsum[j] = grp.weights.iter().sum();
    }
    comm.allreduce_min_f64(&mut minmax);
    comm.allreduce_sum_f64(&mut wsum);

    // Flattened per-alpha bisection state.
    let mut offsets = vec![0usize];
    for grp in groups {
        offsets.push(offsets[offsets.len() - 1] + grp.alphas.len());
    }
    let total = offsets[g];
    let mut lo = vec![0.0f64; total];
    let mut hi = vec![0.0f64; total];
    let mut valid = vec![false; total];
    for j in 0..g {
        let (glo, ghi) = (minmax[2 * j], -minmax[2 * j + 1]);
        let ok = glo.is_finite() && ghi.is_finite() && wsum[j] > 0.0;
        for idx in offsets[j]..offsets[j + 1] {
            valid[idx] = ok;
            lo[idx] = if ok { glo } else { 0.0 };
            hi[idx] = if ok { ghi } else { 0.0 };
        }
    }

    for _ in 0..F64_BISECT_ITERS {
        let mids: Vec<f64> = lo.iter().zip(&hi).map(|(a, b)| 0.5 * (a + b)).collect();
        let mut below = vec![0.0f64; total];
        for (j, grp) in groups.iter().enumerate() {
            let span = offsets[j]..offsets[j + 1];
            for (v, w) in grp.values.iter().zip(&grp.weights) {
                for idx in span.clone() {
                    if v <= &mids[idx] {
                        below[idx] += w;
                    }
                }
            }
        }
        comm.allreduce_sum_f64(&mut below);
        for (j, grp) in groups.iter().enumerate() {
            for (idx, &alpha) in (offsets[j]..).zip(&grp.alphas).filter(|&(idx, _)| valid[idx]) {
                let side = if below[idx] < alpha * wsum[j] { &mut lo } else { &mut hi };
                side[idx] = mids[idx];
            }
        }
    }

    (0..g).map(|j| (offsets[j]..offsets[j + 1]).map(|i| 0.5 * (lo[i] + hi[i])).collect()).collect()
}

/// Distributed weighted quantiles over `u64` keys (exact integer bisection).
/// Semantics as [`weighted_quantiles_grouped`], with thresholds `x` such that
/// keys `≤ x` hold approximately `alpha · total_weight`.
pub fn weighted_quantiles_u64<C: Comm>(
    comm: &C,
    keys: &[u64],
    weights: &[f64],
    alphas: &[f64],
) -> Vec<u64> {
    assert_eq!(keys.len(), weights.len());
    if alphas.is_empty() {
        return Vec::new();
    }
    let local_min = keys.iter().copied().min().unwrap_or(u64::MAX);
    let local_max = keys.iter().copied().max().unwrap_or(0);
    // One fused reduction finds both ends of the key range.
    let (glo, ghi) = comm.allreduce((local_min, local_max), |a, b| {
        (a.0.min(b.0), a.1.max(b.1))
    });
    let mut wsum = [weights.iter().sum::<f64>()];
    comm.allreduce_sum_f64(&mut wsum);
    let total_w = wsum[0];
    if total_w <= 0.0 || glo > ghi {
        return vec![0; alphas.len()];
    }

    let m = alphas.len();
    let mut lo = vec![glo; m]; // invariant: weight(<= lo-1) < target  (loose)
    let mut hi = vec![ghi; m]; // invariant: weight(<= hi) >= target
    while lo.iter().zip(&hi).any(|(a, b)| a < b) {
        let mids: Vec<u64> = lo.iter().zip(&hi).map(|(a, b)| a + (b - a) / 2).collect();
        let mut below = vec![0.0; m];
        for (k, w) in keys.iter().zip(weights) {
            for (j, mid) in mids.iter().enumerate() {
                if k <= mid {
                    below[j] += w;
                }
            }
        }
        comm.allreduce_sum_f64(&mut below);
        for j in 0..m {
            if lo[j] < hi[j] && below[j] < alphas[j] * total_w {
                lo[j] = mids[j] + 1;
            } else if lo[j] < hi[j] {
                hi[j] = mids[j];
            }
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;
    use geographer_parcomm::{run_spmd, Collective, SelfComm};

    #[test]
    fn global_bbox_merges_ranks_and_boxes_an_empty_set() {
        let results = run_spmd(2, |c| {
            let pts = if c.rank() == 0 {
                vec![Point::new([0.0, -1.0])]
            } else {
                vec![Point::new([5.0, 3.0])]
            };
            global_bbox(&c, &pts)
        });
        for bb in results {
            assert_eq!(bb.min.coords(), &[0.0, -1.0]);
            assert_eq!(bb.max.coords(), &[5.0, 3.0]);
        }
        let empty = global_bbox::<2, _>(&SelfComm, &[]);
        assert_eq!((empty.min.coords(), empty.max.coords()), (&[0.0; 2], &[1.0; 2]));
    }

    /// The quantiles of one group, through the batched search.
    fn one_group<C: Comm>(c: &C, values: &[f64], weights: &[f64], alphas: &[f64]) -> Vec<f64> {
        let group = QuantileGroup {
            values: values.to_vec(),
            weights: weights.to_vec(),
            alphas: alphas.to_vec(),
        };
        weighted_quantiles_grouped(c, &[group]).remove(0)
    }

    fn seq_weighted_quantile(mut vw: Vec<(f64, f64)>, alpha: f64) -> f64 {
        vw.sort_by(|a, b| a.0.total_cmp(&b.0));
        let total: f64 = vw.iter().map(|x| x.1).sum();
        let mut acc = 0.0;
        for (v, w) in &vw {
            acc += w;
            if acc >= alpha * total {
                return *v;
            }
        }
        vw.last().unwrap().0
    }

    #[test]
    fn sample_sort_single_rank_is_plain_sort() {
        let items = vec![5u64, 3, 9, 1];
        let sorted = sample_sort_by_key(&SelfComm, items, |&x| x);
        assert_eq!(sorted, vec![1, 3, 5, 9]);
    }

    #[test]
    fn radix_sort_is_slice_sort_by_key() {
        // Fibonacci hashing: pseudo-random bits in every byte.
        fn mix(i: usize) -> u64 {
            (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        }
        type Shape = fn(usize, usize) -> u64; // (i, n) -> key of item i
        let shapes: [(&str, Shape); 6] = [
            ("all equal", |_, _| 42),
            ("ascending", |i, _| i as u64 / 3),
            ("descending", |i, n| (n - i) as u64 / 3),
            ("top byte only", |i, _| mix(i) & 0xff << 56),
            ("full width", |i, _| mix(i)),
            // The pipeline's shape: 32-bit keys, each shared by ~4 items.
            ("32-bit with duplicates", |i, n| mix(mix(i) as usize % (n / 4 + 1)) >> 32),
        ];
        for n in [0, 1, 2, 255, 256, 257, 70_000] {
            for (name, shape) in shapes {
                // Payload = original index, so stability is compared too.
                let items: Vec<(u64, usize)> = (0..n).map(|i| (shape(i, n), i)).collect();
                let mut expected = items.clone();
                expected.sort_by_key(|t| t.0);
                // An input that already ascends is told so, not permuted;
                // the 2n reserved up front is the only buffer, whether an
                // odd or an even number of byte passes ran.
                let mut pairs = Vec::with_capacity(2 * n);
                pairs.extend(items.iter().zip(0..).map(|(t, i)| (t.0, i)));
                let buffer = pairs.as_ptr();
                assert_eq!(stable_order(&mut pairs), items != expected, "{name}, n = {n}");
                assert_eq!((pairs.as_ptr(), pairs.len()), (buffer, n), "{name}, n = {n}");
                let by_pairs: Vec<_> = pairs.iter().map(|&(_, i)| items[i as usize]).collect();
                assert_eq!(by_pairs, expected, "{name}, n = {n}");
                let sorted = sample_sort_by_key(&SelfComm, items, |t| t.0);
                assert_eq!(sorted, expected, "{name}, n = {n}");
            }
        }
    }

    #[test]
    fn sample_sort_multi_rank_matches_sequential() {
        let per_rank = 500;
        for p in [1, 4] {
            let results = run_spmd(p, |c| {
                // Deterministic pseudo-random input, different per rank; at
                // p > 1 the last rank has nothing to contribute.
                let mine = if p > 1 && c.rank() == p - 1 { 0 } else { per_rank };
                let items: Vec<u64> = (0..mine)
                    .map(|i| {
                        let x = (c.rank() as u64 * 1_000_003 + i as u64)
                            .wrapping_mul(0x9E37_79B9_7F4A_7C15);
                        x >> 16
                    })
                    .collect();
                let mine = sample_sort_by_key(&c, items.clone(), |&x| x);
                (items, mine)
            });
            let mut expected: Vec<u64> =
                results.iter().flat_map(|(inp, _)| inp.clone()).collect();
            expected.sort_unstable();
            let got: Vec<u64> = results.iter().flat_map(|(_, out)| out.clone()).collect();
            assert_eq!(got, expected, "concatenated rank outputs must equal global sort");
            // Balance check: no rank should be grossly overloaded.
            for (_, out) in &results {
                assert!(p == 1 || out.len() < 3 * per_rank, "splitters badly unbalanced");
            }
        }
    }

    #[test]
    fn sample_sort_with_heavy_duplicates() {
        // Four distinct keys: the global order is decided by the tie
        // contract — (key, source rank, position in the source's input).
        for p in [1, 3, 4] {
            let results = run_spmd(p, |c| {
                let items: Vec<(u64, u64, u64)> =
                    (0..300).map(|i| (i % 4, c.rank() as u64, i)).collect();
                sample_sort_by_key(&c, items, |t| t.0)
            });
            let got: Vec<(u64, u64, u64)> = results.into_iter().flatten().collect();
            assert_eq!(got.len(), 300 * p);
            assert!(got.windows(2).all(|w| w[0] < w[1]), "p = {p}: not in (key, rank, position) order");
        }
    }

    #[test]
    fn sample_sort_places_exactly_under_bad_splitters() {
        // Items are (key, source rank, position): the expected order is the
        // tuple order, and an item's place is its rank in it.
        type Keys = fn(usize, usize) -> Vec<u64>; // (rank, p) -> keys
        let inputs: [(&str, Keys); 4] = [
            ("all keys on one rank", |r, _| {
                if r == 1 { (0..300).map(|i| i * 37 % 101).collect() } else { Vec::new() }
            }),
            // Most items share one key, so splitters sit inside its run.
            ("one key shared by most", |r, _| {
                (0..200u64).map(|i| if i % 9 == 0 { i * 13 % 50 + r as u64 } else { 42 }).collect()
            }),
            ("an empty rank", |r, _| {
                let mix = |i: u64| (i + 1000 * r as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
                if r == 0 { Vec::new() } else { (0..150).map(mix).collect() }
            }),
            ("n < p", |r, p| if r % 2 == 1 { vec![(p - r) as u64 % 3] } else { Vec::new() }),
        ];
        for p in [2, 3, 4, 5, 7] {
            for (name, keys) in inputs {
                let results = run_spmd(p, |c| {
                    let rank = c.rank() as u64;
                    let items: Vec<(u64, u64, u64)> =
                        keys(c.rank(), p).into_iter().zip(0..).map(|(k, i)| (k, rank, i)).collect();
                    let sorted = sample_sort_by_key(&c, items.clone(), |t| t.0);
                    let capacity = sorted.capacity();
                    let before = c.stats();
                    let again = rebalance(&c, sorted.clone());
                    let moved = c.stats().since(&before).op(Collective::Alltoallv).bytes;
                    (items, sorted, capacity, again, moved)
                });
                let mut all: Vec<_> = results.iter().flat_map(|r| r.0.clone()).collect();
                all.sort_unstable();
                let n = all.len() as u64;
                for (r, (_, sorted, capacity, again, moved)) in results.into_iter().enumerate() {
                    let mine = owned(r, p, n);
                    let tag = format!("{name}, p = {p}, rank {r}");
                    assert_eq!(sorted, all[mine.start as usize..mine.end as usize], "{tag}");
                    assert_eq!(capacity, sorted.len(), "{tag}: not an exact-size buffer");
                    assert_eq!((again, moved), (sorted, 0), "{tag}: rebalance moved items");
                }
            }
        }
    }

    #[test]
    fn rebalance_equalizes_counts_and_preserves_order() {
        let results = run_spmd(4, |c| {
            // Rank r starts with r*10 elements of a globally ordered sequence.
            let start: u64 = (0..c.rank() as u64).map(|r| r * 10).sum();
            let items: Vec<u64> = (0..(c.rank() as u64 * 10)).map(|i| start + i).collect();
            rebalance(&c, items)
        });
        let total: usize = results.iter().map(|r| r.len()).sum();
        assert_eq!(total, 60);
        for r in &results {
            assert!(r.len() == 15, "each rank must own n/p elements, got {}", r.len());
        }
        let flat: Vec<u64> = results.iter().flatten().copied().collect();
        assert_eq!(flat, (0..60).collect::<Vec<_>>());
    }

    #[test]
    fn rebalance_returns_an_exact_size_buffer() {
        // Rank r starts with r·7 items, so rank 0 is empty at every p.
        for p in [1, 3, 4] {
            let results = run_spmd(p, |c| {
                let start: u64 = (0..c.rank() as u64).map(|r| r * 7).sum();
                let items: Vec<u64> = (start..start + c.rank() as u64 * 7).collect();
                let out = rebalance(&c, items);
                (out.capacity(), out)
            });
            for (r, (capacity, out)) in results.iter().enumerate() {
                assert_eq!(*capacity, out.len(), "p = {p}, rank {r}");
            }
            let flat: Vec<u64> = results.into_iter().flat_map(|(_, out)| out).collect();
            assert_eq!(flat, (0..flat.len() as u64).collect::<Vec<_>>(), "p = {p}");
        }
    }

    #[test]
    fn rebalance_empty_input() {
        let results = run_spmd(3, |c| rebalance::<u64, _>(&c, Vec::new()));
        assert!(results.iter().all(|r| r.is_empty()));
    }

    #[test]
    fn f64_quantiles_match_sequential() {
        let p = 3;
        let per_rank = 200;
        let results = run_spmd(p, |c| {
            let values: Vec<f64> = (0..per_rank)
                .map(|i| ((c.rank() * per_rank + i) as f64 * 0.731).sin() * 100.0)
                .collect();
            let weights: Vec<f64> = (0..per_rank).map(|i| 1.0 + (i % 5) as f64).collect();
            let q = one_group(&c, &values, &weights, &[0.25, 0.5, 0.9]);
            (values, weights, q)
        });
        let all: Vec<(f64, f64)> = results
            .iter()
            .flat_map(|(v, w, _)| v.iter().copied().zip(w.iter().copied()))
            .collect();
        let q = &results[0].2;
        for (j, &alpha) in [0.25, 0.5, 0.9].iter().enumerate() {
            let exact = seq_weighted_quantile(all.clone(), alpha);
            assert!(
                (q[j] - exact).abs() < 1.0,
                "alpha={alpha}: got {} want {exact}",
                q[j]
            );
            // The defining property: weight below threshold ≈ alpha.
            let total: f64 = all.iter().map(|x| x.1).sum();
            let below: f64 = all.iter().filter(|x| x.0 <= q[j]).map(|x| x.1).sum();
            assert!((below / total - alpha).abs() < 0.02, "alpha={alpha} below={below}");
        }
        // All ranks agree.
        for (_, _, qr) in &results {
            assert_eq!(qr, q);
        }
    }

    #[test]
    fn u64_quantiles_split_weight() {
        let results = run_spmd(4, |c| {
            let keys: Vec<u64> = (0..100).map(|i| (c.rank() * 100 + i) as u64).collect();
            let weights = vec![1.0; 100];
            weighted_quantiles_u64(&c, &keys, &weights, &[0.5])
        });
        let t = results[0][0];
        // 400 unit-weight keys 0..400; the median threshold is ~199.
        assert!((195..=205).contains(&(t as i64)), "median threshold {t}");
        for r in &results {
            assert_eq!(r[0], t);
        }
    }

    #[test]
    fn quantiles_empty_input_all_ranks() {
        let results = run_spmd(2, |c| weighted_quantiles_u64(&c, &[], &[], &[0.5]));
        assert_eq!(results[0], vec![0]);
    }

    #[test]
    fn grouped_quantiles_match_single_group_calls() {
        let results = run_spmd(3, |c| {
            let mk = |seed: u64, n: usize| -> (Vec<f64>, Vec<f64>) {
                let vals: Vec<f64> = (0..n)
                    .map(|i| ((seed + c.rank() as u64 * 31 + i as u64) as f64 * 0.37).sin())
                    .collect();
                let w: Vec<f64> = (0..n).map(|i| 1.0 + (i % 4) as f64).collect();
                (vals, w)
            };
            let (v1, w1) = mk(1, 120);
            let (v2, w2) = mk(2, 80);
            let grouped = weighted_quantiles_grouped(
                &c,
                &[
                    QuantileGroup { values: v1.clone(), weights: w1.clone(), alphas: vec![0.3, 0.7] },
                    QuantileGroup { values: v2.clone(), weights: w2.clone(), alphas: vec![0.5] },
                ],
            );
            let single1 = one_group(&c, &v1, &w1, &[0.3, 0.7]);
            let single2 = one_group(&c, &v2, &w2, &[0.5]);
            (grouped, single1, single2)
        });
        for (grouped, s1, s2) in results {
            for (a, b) in grouped[0].iter().zip(&s1) {
                assert!((a - b).abs() < 1e-9, "group0: {a} vs {b}");
            }
            assert!((grouped[1][0] - s2[0]).abs() < 1e-9);
        }
    }

    #[test]
    fn grouped_quantiles_handle_empty_group() {
        let results = run_spmd(2, |c| {
            weighted_quantiles_grouped(
                &c,
                &[
                    QuantileGroup { values: vec![], weights: vec![], alphas: vec![0.5] },
                    QuantileGroup {
                        values: vec![c.rank() as f64],
                        weights: vec![1.0],
                        alphas: vec![0.5],
                    },
                ],
            )
        });
        assert_eq!(results[0][0], vec![0.0], "empty group falls back to 0");
        assert!((results[0][1][0] - 0.0).abs() < 0.51, "median of {{0,1}}");
    }

    #[test]
    fn quantiles_skewed_weights() {
        // One huge-weight element dominates: every quantile ≤ its mass lands
        // on it.
        let q = one_group(&SelfComm, &[1.0, 2.0, 3.0], &[1.0, 100.0, 1.0], &[0.5, 0.95]);
        assert!((q[0] - 2.0).abs() < 1e-6);
        assert!((q[1] - 2.0).abs() < 1e-6);
    }
}
