//! Distributed sorting and selection over a [`Comm`].
//!
//! Two primitives back most of the workspace:
//!
//! * [`sample_sort_by_key`] + [`rebalance`] — the global sort-by-Hilbert-key
//!   and redistribution step of Geographer's bootstrap (Algorithm 2, lines
//!   4–6). The paper uses the schizophrenic quicksort of Axtmann et al.;
//!   sample sort plays the same role (one splitter-selection round, one
//!   personalized exchange) with simpler machinery. Locally it is an LSD
//!   radix sort on `(key, index)` pairs before the exchange and a p-way
//!   merge of the received runs after it: a record moves once per stage,
//!   and equal keys keep (source rank, input position) order. The two
//!   halves are public on their own — [`stable_order`] and
//!   [`exchange_sorted`] — so the pipeline can sort its keys as pairs and
//!   build a record only where one crosses the wire. See DESIGN.md §3.
//! * [`weighted_quantiles_grouped`] / [`weighted_quantiles_u64`] — distributed
//!   weighted quantile selection by bisection, the communication kernel
//!   inside the RCB/RIB/MultiJagged/HSFC baselines (this is also how
//!   Zoltan's RCB finds its median cuts: iterated weight counting).
//!
//! Both primitives run on the native collectives of `geographer_parcomm`
//! (DESIGN.md §4): the sample-sort exchange is one move-once `alltoallv`
//! plus a recursive-doubling exscan/allreduce pair in [`rebalance`], and
//! every bisection iteration costs one `O(m·log p)`-volume allreduce. Range
//! discovery is fused into a single reduction per search — the f64 paths
//! pack `(min, −max)` pairs into one min-reduce, the u64 path reduces a
//! `(min, max)` tuple — so a quantile search never spends two latency
//! rounds where one suffices.

// Fixed-dimension coordinate loops index several parallel arrays at once;
// iterator-zip rewrites of those loops are less readable, not more.
#![allow(clippy::needless_range_loop)]

use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

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

/// Globally sort `items` by `key` across all ranks of `comm`.
///
/// On return, each rank holds a contiguous run of the global sorted order,
/// runs ascending with rank. Run lengths are approximately balanced (use
/// [`rebalance`] for exact `n/p` splits).
///
/// **Tie order is part of the contract:** items with equal keys end up on
/// one rank, ordered by (source rank, position in that rank's input) — at
/// p = 1 exactly `slice::sort_by_key`. The local sort is stable and the
/// merge of the received runs breaks ties by source rank, which is all it
/// takes; the thread ≡ process bitwise contract and the golden digests
/// rest on it, because 16-bit-per-axis Hilbert keys do collide
/// (DESIGN.md §3).
///
/// The local half is [`stable_order`] on `(key, index)` pairs; the
/// exchange half is [`exchange_sorted`], which gathers each item once,
/// straight into the run bound for its rank.
pub fn sample_sort_by_key<T, C, K>(comm: &C, items: Vec<T>, key: K) -> Vec<T>
where
    T: Wire,
    C: Comm,
    K: Fn(&T) -> u64,
{
    assert!(items.len() <= u32::MAX as usize, "the local sort indexes items by u32");
    let mut order = Vec::with_capacity(2 * items.len());
    order.extend(items.iter().zip(0..).map(|(t, i)| (key(t), i)));
    if !stable_order(&mut order) && comm.size() == 1 {
        return items;
    }
    // Hand the sort's second half back before the items are gathered
    // (in place: a shrinking realloc does not copy), so the gather peaks
    // over n pairs, not 2n.
    order.shrink_to_fit();
    exchange_sorted(comm, order, move |&(_, i)| items[i as usize].clone(), key)
}

/// The exchange half of [`sample_sort_by_key`]. `order` is this rank's
/// `(key, index)` pairs as [`stable_order`] left them, `record` makes the
/// item a pair stands for, and `key` reads the key back off an item. Each
/// item is made once, directly into the run for the rank that owns its
/// key; `order` and `record` (with whatever it owns) are dropped before
/// the exchange, and the received runs are merged by `(key, source rank)`.
/// At p = 1 this is the local gather and no collective.
pub fn exchange_sorted<T, C>(
    comm: &C,
    order: Vec<(u64, u32)>,
    record: impl Fn(&(u64, u32)) -> T,
    key: impl Fn(&T) -> u64,
) -> Vec<T>
where
    T: Wire,
    C: Comm,
{
    let p = comm.size();
    let gather = |run: &[(u64, u32)]| -> Vec<T> { run.iter().map(&record).collect() };
    if p == 1 {
        return gather(&order);
    }

    // Regular sampling of the locally sorted keys.
    let s = OVERSAMPLE * (p - 1);
    let samples: Vec<u64> = if order.is_empty() {
        Vec::new()
    } else {
        (0..s).map(|j| order[(j * order.len()) / s].0).collect()
    };
    let mut all_samples: Vec<u64> = comm.allgather(samples).into_iter().flatten().collect();
    all_samples.sort_unstable();

    // p-1 splitters at regular positions in the gathered sample.
    let splitters: Vec<u64> = if all_samples.is_empty() {
        vec![0; p - 1]
    } else {
        (1..p)
            .map(|r| all_samples[(r * all_samples.len()) / p])
            .collect()
    };

    // The keys are sorted, so destinations are monotone: key `k` goes to
    // rank `#{sp ≤ k}`, and the p−1 run boundaries fall out of binary
    // searches. Each run is gathered into an exact-size send vector.
    let mut bounds = Vec::with_capacity(p + 1);
    bounds.push(0);
    for &sp in &splitters {
        bounds.push(order.partition_point(|&(k, _)| k < sp));
    }
    bounds.push(order.len());
    debug_assert!(bounds.windows(2).all(|w| w[0] <= w[1]));
    let sends: Vec<Vec<T>> = bounds.windows(2).map(|w| gather(&order[w[0]..w[1]])).collect();
    drop(order);
    drop(record);
    merge_sorted_runs(&comm.alltoallv(sends), key)
}

/// Merge runs that are each ascending in `key` into one, equal keys in
/// (run, position) order — what a stable sort of the concatenation yields,
/// in one pass that moves every record once: a heap holds the head key of
/// each unfinished run, and its `(key, run)` order is the tie order.
fn merge_sorted_runs<T: Clone>(runs: &[Vec<T>], key: impl Fn(&T) -> u64) -> Vec<T> {
    let mut heads: BinaryHeap<Reverse<(u64, usize)>> = runs
        .iter()
        .enumerate()
        .filter_map(|(r, run)| run.first().map(|t| Reverse((key(t), r))))
        .collect();
    let mut taken = vec![0usize; runs.len()];
    let mut merged = Vec::with_capacity(runs.iter().map(Vec::len).sum());
    while let Some(mut head) = heads.peek_mut() {
        let r = head.0 .1;
        merged.push(runs[r][taken[r]].clone());
        taken[r] += 1;
        match runs[r].get(taken[r]) {
            Some(t) => head.0 .0 = key(t),
            None => {
                PeekMut::pop(head);
            }
        }
    }
    merged
}

/// Redistribute globally ordered data so rank `r` owns exactly the global
/// slice `[r·n/p, (r+1)·n/p)`, preserving order. Input must already be
/// globally ordered by rank (e.g. the output of [`sample_sort_by_key`]).
pub fn rebalance<T, C>(comm: &C, items: Vec<T>) -> Vec<T>
where
    T: Wire,
    C: Comm,
{
    let p = comm.size();
    if p == 1 {
        return items;
    }
    let local_n = items.len() as u64;
    let offset = comm.exscan_sum_u64(local_n);
    let total = comm.allreduce(local_n, |a, b| a + b);
    if total == 0 {
        return items;
    }

    // Global element g belongs to rank r = ⌊g·p/total⌋, i.e. rank r owns
    // the contiguous global range [⌈r·total/p⌉, ⌈(r+1)·total/p⌉). The
    // local run covers [offset, offset + n): slice it at the arithmetic
    // boundaries directly — no per-element owner computation, no growing
    // send vectors.
    let start =
        |r: usize| -> u64 { (r as u128 * total as u128).div_ceil(p as u128) as u64 };
    let end_g = offset + local_n;
    let mut items = items;
    let mut sends: Vec<Vec<T>> = Vec::with_capacity(p);
    for r in (1..p).rev() {
        let lo = start(r).clamp(offset, end_g) - offset;
        sends.push(items.split_off(lo as usize));
    }
    sends.push(items);
    sends.reverse();
    // Concatenating by source rank preserves global order: sources hold
    // ascending disjoint runs. One exact-size buffer: the result is held
    // through the caller's whole solve.
    let received = comm.alltoallv(sends);
    let mut out = Vec::with_capacity(received.iter().map(Vec::len).sum());
    for run in received {
        out.extend(run);
    }
    out
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
    let offsets: Vec<usize> = {
        let mut off = vec![0usize];
        for grp in groups {
            off.push(off.last().unwrap() + grp.alphas.len());
        }
        off
    };
    let total = *offsets.last().unwrap();
    let mut lo = vec![0.0f64; total];
    let mut hi = vec![0.0f64; total];
    let mut valid = vec![false; total];
    for (j, grp) in groups.iter().enumerate() {
        let (glo, ghi) = (minmax[2 * j], -minmax[2 * j + 1]);
        let ok = glo.is_finite() && ghi.is_finite() && wsum[j] > 0.0;
        for (a, _) in grp.alphas.iter().enumerate() {
            let idx = offsets[j] + a;
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
            for (a, &alpha) in grp.alphas.iter().enumerate() {
                let idx = offsets[j] + a;
                if !valid[idx] {
                    continue;
                }
                if below[idx] < alpha * wsum[j] {
                    lo[idx] = mids[idx];
                } else {
                    hi[idx] = mids[idx];
                }
            }
        }
    }

    groups
        .iter()
        .enumerate()
        .map(|(j, grp)| {
            (0..grp.alphas.len())
                .map(|a| {
                    let idx = offsets[j] + a;
                    0.5 * (lo[idx] + hi[idx])
                })
                .collect()
        })
        .collect()
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
            if lo[j] < hi[j] {
                if below[j] < alphas[j] * total_w {
                    lo[j] = mids[j] + 1;
                } else {
                    hi[j] = mids[j];
                }
            }
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;
    use geographer_parcomm::{run_spmd, SelfComm};

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
