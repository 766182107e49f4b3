//! MultiJagged (Deveci, Rajamanickam, Devine, Çatalyürek, TPDS 2016).
//!
//! A generalization of recursive bisection: instead of cutting each region
//! in two, MJ cuts it into `m ≈ k^(1/L)` slabs at once (L = levels left),
//! cycling through the coordinate dimensions. One region therefore needs a
//! single multi-way quantile search (all `m−1` cut lines found together),
//! which gives MJ its shallow recursion depth — the property behind its
//! superior scaling in the paper's Fig. 3.

use geographer_geometry::Point;
use geographer_parcomm::Comm;

use crate::{recursive_cuts, Cut};

/// Choose how many parts to cut a region with `k` target blocks into, with
/// `levels_left` recursion levels remaining (≥ 1).
fn fanout(k: usize, levels_left: usize) -> usize {
    if levels_left <= 1 {
        return k;
    }
    let m = (k as f64).powf(1.0 / levels_left as f64).round() as usize;
    m.clamp(2, k)
}

/// Split `k` into `m` nearly equal integer parts (sizes differ by ≤ 1,
/// larger ones first).
fn split_k(k: usize, m: usize) -> Vec<usize> {
    let q = k / m;
    let r = k % m;
    (0..m).map(|i| q + usize::from(i < r)).collect()
}

/// Partition the rank-local `points` into `k` blocks with MultiJagged.
///
/// All regions of one recursion level find *all* their cut lines in a
/// single grouped quantile search — MJ's defining property: for 2D and
/// `k = m²`, two collective phases suffice no matter how large `k` is.
pub fn multi_jagged<const D: usize, C: Comm>(
    comm: &C,
    points: &[Point<D>],
    weights: &[f64],
    k: usize,
) -> Vec<u32> {
    assert_eq!(points.len(), weights.len());
    // A region's state: the dimension it is cut along and the levels left
    // in the current sweep over the dimensions.
    recursive_cuts(comm, weights, k, (0, D), |level| {
        level
            .iter()
            .map(|region| {
                let (dim, levels_left) = region.state;
                let next_levels = if levels_left > 1 { levels_left - 1 } else { D };
                Cut {
                    values: region.idx.iter().map(|&i| points[i as usize][dim]).collect(),
                    parts: split_k(region.k, fanout(region.k, levels_left)),
                    child: ((dim + 1) % D, next_levels),
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

    #[test]
    fn fanout_square_for_2d() {
        assert_eq!(fanout(16, 2), 4);
        assert_eq!(fanout(9, 2), 3);
        assert_eq!(fanout(8, 2), 3); // rounds sqrt(8)≈2.83 to 3
        assert_eq!(fanout(5, 1), 5);
        assert_eq!(fanout(27, 3), 3);
    }

    #[test]
    fn split_k_sums_and_balances() {
        assert_eq!(split_k(10, 3), vec![4, 3, 3]);
        assert_eq!(split_k(9, 3), vec![3, 3, 3]);
        assert_eq!(split_k(7, 7), vec![1; 7]);
        for k in 1..40 {
            for m in 1..=k {
                let parts = split_k(k, m);
                assert_eq!(parts.iter().sum::<usize>(), k);
                let mx = parts.iter().max().unwrap();
                let mn = parts.iter().min().unwrap();
                assert!(mx - mn <= 1);
            }
        }
    }

    #[test]
    fn square_k_gives_grid_of_rectangles() {
        // k = 9 on uniform points: the first level cuts x into 3 slabs,
        // second level y — block boundaries must align to 1/3 lines.
        let mut rng = SplitMix64::new(1);
        let pts: Vec<Point<2>> =
            (0..9000).map(|_| Point::new([rng.next_f64(), rng.next_f64()])).collect();
        let w = vec![1.0; pts.len()];
        let asg = multi_jagged(&SelfComm, &pts, &w, 9);
        for (p, &b) in pts.iter().zip(&asg) {
            let col = (p[0] * 3.0) as usize;
            // The block id encodes column-major traversal: column = b / 3.
            let expected_col = (b / 3) as usize;
            // Quantile cuts sit near (not exactly at) 1/3 boundaries: allow
            // points close to boundaries to fall either way.
            let x_frac = (p[0] * 3.0).fract();
            if x_frac > 0.05 && x_frac < 0.95 {
                assert_eq!(col, expected_col, "point {p:?} in block {b}");
            }
        }
    }

    #[test]
    fn balanced_for_awkward_k() {
        let mut rng = SplitMix64::new(2);
        let pts: Vec<Point<2>> =
            (0..7000).map(|_| Point::new([rng.next_f64(), rng.next_f64()])).collect();
        let w = vec![1.0; pts.len()];
        for k in [3usize, 7, 11, 13] {
            let asg = multi_jagged(&SelfComm, &pts, &w, k);
            let mut counts = vec![0usize; k];
            for &b in &asg {
                counts[b as usize] += 1;
            }
            let max = *counts.iter().max().unwrap() as f64;
            assert!(
                max / (pts.len() as f64 / k as f64) < 1.05,
                "k={k}: {counts:?}"
            );
        }
    }

    #[test]
    fn three_d_partition_valid() {
        let mut rng = SplitMix64::new(3);
        let pts: Vec<Point<3>> = (0..4000)
            .map(|_| Point::new([rng.next_f64(), rng.next_f64(), rng.next_f64()]))
            .collect();
        let w = vec![1.0; pts.len()];
        let asg = multi_jagged(&SelfComm, &pts, &w, 8);
        let mut counts = vec![0usize; 8];
        for &b in &asg {
            counts[b as usize] += 1;
        }
        assert!(counts.iter().all(|&c| c > 0), "no block may be empty: {counts:?}");
    }

    #[test]
    fn spmd_matches_shared_memory() {
        let mut rng = SplitMix64::new(4);
        let pts: Vec<Point<2>> =
            (0..1600).map(|_| Point::new([rng.next_f64(), rng.next_f64()])).collect();
        let w = vec![1.0; pts.len()];
        let serial = multi_jagged(&SelfComm, &pts, &w, 6);
        let results = run_spmd(4, |c| {
            let chunk = pts.len() / 4;
            let lo = c.rank() * chunk;
            let hi = lo + chunk;
            multi_jagged(&c, &pts[lo..hi], &w[lo..hi], 6)
        });
        let distributed: Vec<u32> = results.into_iter().flatten().collect();
        assert_eq!(distributed, serial);
    }
}
