//! Recursive Coordinate Bisection (Berger & Bokhari 1987; Simon 1991).
//!
//! Repeatedly bisect the current region at the weighted median of the
//! widest coordinate direction. For k blocks, the recursion assigns
//! `⌊k/2⌋ : ⌈k/2⌉` of the weight to the two sides, so any k is supported.
//! Every median search is a distributed weighted quantile (bisection on the
//! coordinate with one weight-count allreduce per step), which is exactly
//! how Zoltan's RCB finds cuts in parallel.

use geographer_geometry::{Aabb, Point};
use geographer_parcomm::Comm;

use crate::{halves, recursive_cuts, Cut};

/// Partition the rank-local `points` into `k` blocks with RCB.
/// Returns the block of each local point.
///
/// The recursion is processed *level-synchronously*: all regions at the
/// same tree depth find their cuts in one batched quantile search (one
/// fused bounding-box reduction plus one shared bisection per level), so
/// the collective count is `O(log k)`, matching the structure of Zoltan's
/// parallel RCB.
pub fn rcb_partition<const D: usize, C: Comm>(
    comm: &C,
    points: &[Point<D>],
    weights: &[f64],
    k: usize,
) -> Vec<u32> {
    assert_eq!(points.len(), weights.len());
    recursive_cuts(comm, weights, k, (), |level| {
        // Batched global bounding boxes → widest dimension per region. One
        // fused min-reduce carries the mins and the negated maxs of every
        // region at this level.
        let g = level.len();
        let mut bounds = vec![f64::INFINITY; 2 * g * D];
        let (mins, neg_maxs) = bounds.split_at_mut(g * D);
        for (j, region) in level.iter().enumerate() {
            for &i in &region.idx {
                let p = &points[i as usize];
                for d in 0..D {
                    mins[j * D + d] = mins[j * D + d].min(p[d]);
                    neg_maxs[j * D + d] = neg_maxs[j * D + d].min(-p[d]);
                }
            }
        }
        comm.allreduce_min_f64(&mut bounds);
        let (mins, neg_maxs) = bounds.split_at(g * D);
        level
            .iter()
            .enumerate()
            .map(|(j, region)| {
                // A region empty on every rank has an inverted box, which
                // `Aabb::new` rejects; any axis cuts it.
                let bb = Aabb::<D> {
                    min: Point::new(std::array::from_fn(|d| mins[j * D + d])),
                    max: Point::new(std::array::from_fn(|d| -neg_maxs[j * D + d])),
                };
                let dim = bb.widest_dim();
                Cut {
                    values: region.idx.iter().map(|&i| points[i as usize][dim]).collect(),
                    parts: halves(region.k),
                    child: (),
                }
            })
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use geographer_geometry::SplitMix64;
    use geographer_parcomm::{run_spmd, SelfComm};

    fn random_points(n: usize, seed: u64) -> (Vec<Point<2>>, Vec<f64>) {
        let mut rng = SplitMix64::new(seed);
        let pts = (0..n).map(|_| Point::new([rng.next_f64(), rng.next_f64()])).collect();
        let w = vec![1.0; n];
        (pts, w)
    }

    #[test]
    fn k1_assigns_everything_to_block_zero() {
        let (pts, w) = random_points(50, 1);
        let asg = rcb_partition(&SelfComm, &pts, &w, 1);
        assert!(asg.iter().all(|&b| b == 0));
    }

    #[test]
    fn bisection_cuts_along_widest_dim() {
        // Points stretched along x: the k=2 cut must split by x.
        let pts: Vec<Point<2>> =
            (0..100).map(|i| Point::new([i as f64, (i % 3) as f64 * 0.1])).collect();
        let w = vec![1.0; 100];
        let asg = rcb_partition(&SelfComm, &pts, &w, 2);
        for (i, &b) in asg.iter().enumerate() {
            assert_eq!(b, if i < 50 { 0 } else { 1 }, "point {i} on wrong side");
        }
    }

    #[test]
    fn respects_weights() {
        // Two heavy points on the left must balance many light ones on the
        // right.
        let mut pts = vec![Point::new([0.0, 0.0]), Point::new([0.1, 0.0])];
        let mut w = vec![50.0, 50.0];
        for i in 0..100 {
            pts.push(Point::new([1.0 + (i % 10) as f64 * 0.01, (i / 10) as f64 * 0.01]));
            w.push(1.0);
        }
        let asg = rcb_partition(&SelfComm, &pts, &w, 2);
        let w0: f64 = asg.iter().zip(&w).filter(|(b, _)| **b == 0).map(|(_, w)| w).sum();
        let total: f64 = w.iter().sum();
        assert!((w0 / total - 0.5).abs() < 0.05, "weighted split off: {}", w0 / total);
    }

    #[test]
    fn nonpower_of_two_k() {
        let (pts, w) = random_points(3000, 2);
        let asg = rcb_partition(&SelfComm, &pts, &w, 7);
        let mut counts = vec![0usize; 7];
        for &b in &asg {
            counts[b as usize] += 1;
        }
        let max = *counts.iter().max().unwrap() as f64;
        assert!(max / (3000.0 / 7.0) < 1.05, "k=7 imbalance: {counts:?}");
    }

    #[test]
    fn spmd_matches_shared_memory() {
        let (pts, w) = random_points(2000, 3);
        let serial = rcb_partition(&SelfComm, &pts, &w, 8);
        let p = 4;
        let chunk = pts.len() / p;
        let results = run_spmd(p, |c| {
            let lo = c.rank() * chunk;
            let hi = if c.rank() == p - 1 { pts.len() } else { lo + chunk };
            rcb_partition(&c, &pts[lo..hi], &w[lo..hi], 8)
        });
        let distributed: Vec<u32> = results.into_iter().flatten().collect();
        assert_eq!(distributed, serial, "SPMD result must equal single-rank result");
    }

    #[test]
    fn blocks_are_axis_aligned_rectangles() {
        // RCB blocks are intersections of half-spaces: each block's
        // bounding boxes must not overlap another block's points (2D,
        // strict separation check on a coarse grid of probes).
        let (pts, w) = random_points(1500, 4);
        let k = 4;
        let asg = rcb_partition(&SelfComm, &pts, &w, k);
        // Check: for every pair of blocks, their bounding boxes intersect
        // in at most a degenerate band in one dimension. Weaker practical
        // check: no point of block b lies strictly inside the bbox core of
        // another block.
        let mut boxes: Vec<(Point<2>, Point<2>)> =
            vec![(Point::new([f64::INFINITY; 2]), Point::new([f64::NEG_INFINITY; 2])); k];
        for (p, &b) in pts.iter().zip(&asg) {
            let (mn, mx) = &mut boxes[b as usize];
            for d in 0..2 {
                mn[d] = mn[d].min(p[d]);
                mx[d] = mx[d].max(p[d]);
            }
        }
        let eps = 1e-9;
        for (p, &b) in pts.iter().zip(&asg) {
            for (ob, (mn, mx)) in boxes.iter().enumerate() {
                if ob == b as usize {
                    continue;
                }
                let inside_core = (0..2).all(|d| p[d] > mn[d] + eps && p[d] < mx[d] - eps);
                assert!(
                    !inside_core,
                    "point of block {b} strictly inside core of block {ob}"
                );
            }
        }
    }
}
