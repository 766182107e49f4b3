//! The competitor partitioners from the paper's evaluation (Sec. 5.2.2):
//! Zoltan's Recursive Coordinate Bisection (RCB), Recursive Inertial
//! Bisection (RIB), MultiJagged (MJ) multisection, and Hilbert space-filling
//! curve partitioning (zoltanSFC / HSFC).
//!
//! Every algorithm is written SPMD over [`geographer_parcomm::Comm`]: each
//! rank holds a shard of the points and all global decisions (medians,
//! inertia axes, curve splitters) go through collectives — the same
//! communication structure as Zoltan's MPI implementations. Running with
//! [`geographer_parcomm::SelfComm`] gives the shared-memory variant.
//!
//! MultiJagged generalises recursive bisection (Deveci et al., TPDS 2016),
//! so RCB, RIB and MJ are one level-synchronous driver, `recursive_cuts`,
//! that each tool tells per level what to cut along, into how many blocks
//! per slab, and what the children carry: RCB the widest axis of a
//! region's box and `⌊k/2⌋ : ⌈k/2⌉`, RIB the principal inertia axis and
//! the same halves, MJ a cycling axis, `m ≈ k^(1/L)` slabs and the next
//! axis. HSFC is one flat cut of the Hilbert curve.

#![allow(clippy::needless_range_loop, reason = "fixed-dimension coordinate loops index \
          several parallel arrays at once; iterator-zip rewrites of those loops are less \
          readable, not more")]

pub mod hsfc;
pub mod mj;
pub mod rcb;
pub mod rib;

use geographer_dsort::{weighted_quantiles_grouped, QuantileGroup};
use geographer_parcomm::Comm;

pub use hsfc::hsfc_partition;
pub use mj::multi_jagged;
pub use rcb::rcb_partition;
pub use rib::rib_partition;

/// A region of the recursion: a set of rank-local point indices, the
/// range of block ids it will be divided into, and its tool's state.
pub(crate) struct Region<S> {
    /// Number of blocks this region still has to produce.
    pub k: usize,
    /// First block id owned by this region.
    pub offset: u32,
    /// Rank-local indices of the points in this region.
    pub idx: Vec<u32>,
    /// What the tool carries from a region to its children.
    pub state: S,
}

/// How a tool cuts one region at this level.
pub(crate) struct Cut<S> {
    /// The value each point of the region is cut along, in `idx` order.
    pub values: Vec<f64>,
    /// Block counts of the slabs, lowest values first; they sum to `k`.
    pub parts: Vec<usize>,
    /// The state every child of the region starts from.
    pub child: S,
}

/// The level-synchronous recursion of RCB, RIB and MultiJagged. All
/// rank-local points start as one region of `k` blocks in state `root`.
/// Each level retires the regions left with one block, asks `cut_level`
/// for the [`Cut`] of the others, finds all of the level's thresholds in
/// one [`weighted_quantiles_grouped`] call (the weight fractions are the
/// cumulative parts over `k`) and replaces each region by its slabs.
/// Returns the block of each local point.
///
/// Every rank walks the identical region tree in the identical order, so
/// the collectives inside `cut_level` and the quantile search stay
/// matched. A point goes to the first slab whose threshold is not below
/// its value; a NaN value is below none and goes to the first slab.
pub(crate) fn recursive_cuts<S: Copy, C: Comm>(
    comm: &C,
    weights: &[f64],
    k: usize,
    root: S,
    mut cut_level: impl FnMut(&[Region<S>]) -> Vec<Cut<S>>,
) -> Vec<u32> {
    assert!(k >= 1);
    let mut assignment = vec![0u32; weights.len()];
    let idx = (0..weights.len() as u32).collect();
    let mut level = vec![Region { k, offset: 0, idx, state: root }];
    loop {
        level.retain(|region| {
            if region.k == 1 {
                for &i in &region.idx {
                    assignment[i as usize] = region.offset;
                }
            }
            region.k > 1
        });
        if level.is_empty() {
            return assignment;
        }
        let mut splits = Vec::with_capacity(level.len());
        let groups: Vec<QuantileGroup> = level
            .iter()
            .zip(cut_level(&level))
            .map(|(region, cut)| {
                let alphas = (1..cut.parts.len())
                    .map(|s| cut.parts[..s].iter().sum::<usize>() as f64 / region.k as f64)
                    .collect();
                splits.push((cut.parts, cut.child));
                let weights = region.idx.iter().map(|&i| weights[i as usize]).collect();
                QuantileGroup { values: cut.values, weights, alphas }
            })
            .collect();
        let thresholds = weighted_quantiles_grouped(comm, &groups);

        let mut children = Vec::new();
        for ((region, group), (cuts, (parts, child))) in
            level.iter().zip(&groups).zip(thresholds.iter().zip(splits))
        {
            let mut slabs = vec![Vec::new(); parts.len()];
            for (&i, &v) in region.idx.iter().zip(&group.values) {
                slabs[cuts.partition_point(|&c| c < v)].push(i);
            }
            let mut offset = region.offset;
            for (idx, k) in slabs.into_iter().zip(parts) {
                children.push(Region { k, offset, idx, state: child });
                offset += k as u32;
            }
        }
        level = children;
    }
}

/// The two halves of a bisection, `⌊k/2⌋` blocks on the low side.
pub(crate) fn halves(k: usize) -> Vec<usize> {
    vec![k / 2, k - k / 2]
}

#[cfg(test)]
mod tests {
    use super::*;
    use geographer_geometry::{Point, SplitMix64};
    use geographer_parcomm::SelfComm;

    type Partitioner = fn(&SelfComm, &[Point<2>], &[f64], usize) -> Vec<u32>;

    /// Every baseline must respect block-id ranges and produce a roughly
    /// balanced unweighted partition on uniform data.
    #[test]
    fn all_baselines_balanced_on_uniform_points() {
        let mut rng = SplitMix64::new(5);
        let n = 4000;
        let pts: Vec<Point<2>> =
            (0..n).map(|_| Point::new([rng.next_f64(), rng.next_f64()])).collect();
        let w = vec![1.0; n];
        let tools: [(&str, Partitioner); 4] = [
            ("HSFC", hsfc_partition),
            ("MultiJagged", multi_jagged),
            ("RCB", rcb_partition),
            ("RIB", rib_partition),
        ];
        for (name, partition) in tools {
            for k in [2usize, 5, 8] {
                let asg = partition(&SelfComm, &pts, &w, k);
                assert_eq!(asg.len(), n);
                let mut counts = vec![0usize; k];
                for &b in &asg {
                    assert!((b as usize) < k, "{name}: block out of range");
                    counts[b as usize] += 1;
                }
                let max = *counts.iter().max().unwrap() as f64;
                let avg = n as f64 / k as f64;
                assert!(
                    max / avg < 1.06,
                    "{name} k={k}: imbalance {} too high ({counts:?})",
                    max / avg - 1.0
                );
            }
        }
    }

    #[test]
    fn slabs_follow_the_values_and_nan_joins_the_first() {
        // One region cut in three along the given values.
        let values = [0.1, 0.9, 0.5, f64::NAN, 0.6, 0.4, 0.8, 0.2];
        let w = vec![1.0; values.len()];
        let asg = recursive_cuts(&SelfComm, &w, 3, (), |level| {
            level
                .iter()
                .map(|region| Cut {
                    values: region.idx.iter().map(|&i| values[i as usize]).collect(),
                    parts: vec![1; region.k],
                    child: (),
                })
                .collect()
        });
        assert_eq!(asg[3], 0, "NaN goes to the first slab");
        let mut by_value: Vec<(f64, u32)> =
            values.iter().zip(&asg).filter(|(v, _)| !v.is_nan()).map(|(&v, &b)| (v, b)).collect();
        by_value.sort_by(|a, b| a.0.total_cmp(&b.0));
        assert!(by_value.windows(2).all(|w| w[0].1 <= w[1].1), "{by_value:?}");
        assert_eq!((by_value[0].1, by_value[6].1), (0, 2), "{by_value:?}");
    }
}
