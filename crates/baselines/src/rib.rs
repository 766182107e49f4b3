//! Recursive Inertial Bisection (Taylor & Nour-Omid; Williams 1991).
//!
//! Like RCB, but each region is cut orthogonally to its principal inertia
//! axis — the direction of largest weighted variance — instead of a
//! coordinate axis. The axis comes from the weighted covariance matrix of
//! the region (accumulated locally, combined with one allreduce) whose
//! dominant eigenvector we extract with a deterministic power iteration, so
//! all ranks agree on the axis bit-for-bit.

use geographer_geometry::Point;
use geographer_parcomm::Comm;

use crate::{halves, recursive_cuts, Cut};

/// Power-iteration steps for the dominant eigenvector. The covariance
/// matrices here are tiny (D ≤ 3) and well-separated for real meshes;
/// 64 steps is far beyond convergence.
const POWER_ITERS: usize = 64;

/// Dominant eigenvector of a symmetric positive semidefinite `D×D` matrix
/// (row-major). Deterministic; falls back to e₀ for the zero matrix.
pub(crate) fn dominant_eigenvector<const D: usize>(m: &[[f64; D]; D]) -> [f64; D] {
    // Start from a fixed, slightly asymmetric vector so we don't sit on an
    // eigenvector boundary of symmetric inputs.
    let mut v: [f64; D] = std::array::from_fn(|i| 1.0 + 0.1 * (i as f64 + 1.0));
    for _ in 0..POWER_ITERS {
        let mut next = [0.0f64; D];
        for r in 0..D {
            for c in 0..D {
                next[r] += m[r][c] * v[c];
            }
        }
        let norm = next.iter().map(|x| x * x).sum::<f64>().sqrt();
        if norm < 1e-300 {
            // Zero matrix: any direction works.
            let mut e0 = [0.0; D];
            e0[0] = 1.0;
            return e0;
        }
        v = next.map(|x| x / norm);
    }
    v
}

/// Partition the rank-local `points` into `k` blocks with RIB.
///
/// Level-synchronous like [`crate::rcb_partition`]: all regions of one
/// recursion depth batch their mean, covariance, and median searches, so a
/// level costs a fixed number of collectives.
pub fn rib_partition<const D: usize, C: Comm>(
    comm: &C,
    points: &[Point<D>],
    weights: &[f64],
    k: usize,
) -> Vec<u32> {
    assert_eq!(points.len(), weights.len());
    recursive_cuts(comm, weights, k, (), |level| {
        let g = level.len();
        // Batched weighted means: one allreduce of g·(D+1) sums.
        let stride = D + 1;
        let mut sums = vec![0.0f64; g * stride];
        for (j, region) in level.iter().enumerate() {
            for &i in &region.idx {
                let (p, w) = (&points[i as usize], weights[i as usize]);
                for d in 0..D {
                    sums[j * stride + d] += w * p[d];
                }
                sums[j * stride + D] += w;
            }
        }
        comm.allreduce_sum_f64(&mut sums);
        let means: Vec<[f64; D]> = sums
            .chunks_exact(stride)
            .map(|s| std::array::from_fn(|d| if s[D] > 0.0 { s[d] / s[D] } else { 0.0 }))
            .collect();

        // Batched weighted covariances: one allreduce of g·D² sums.
        let mut cov_flat = vec![0.0f64; g * D * D];
        for (j, region) in level.iter().enumerate() {
            let mean = &means[j];
            for &i in &region.idx {
                let (p, w) = (&points[i as usize], weights[i as usize]);
                for r in 0..D {
                    for c in r..D {
                        cov_flat[j * D * D + r * D + c] +=
                            w * (p[r] - mean[r]) * (p[c] - mean[c]);
                    }
                }
            }
        }
        comm.allreduce_sum_f64(&mut cov_flat);

        // Each region is cut along its principal axis.
        level
            .iter()
            .enumerate()
            .map(|(j, region)| {
                // The upper triangle, mirrored.
                let cov: [[f64; D]; D] = std::array::from_fn(|r| {
                    std::array::from_fn(|c| cov_flat[j * D * D + r.min(c) * D + r.max(c)])
                });
                let axis = Point::new(dominant_eigenvector(&cov));
                Cut {
                    values: region.idx.iter().map(|&i| points[i as usize].dot(&axis)).collect(),
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

    #[test]
    fn eigenvector_of_diagonal_matrix() {
        let m = [[4.0, 0.0], [0.0, 1.0]];
        let v = dominant_eigenvector(&m);
        assert!(v[0].abs() > 0.999, "should align with x: {v:?}");
    }

    #[test]
    fn eigenvector_of_rotated_matrix() {
        // Covariance of points along the diagonal y = x.
        let m = [[1.0, 1.0], [1.0, 1.0]];
        let v = dominant_eigenvector(&m);
        assert!(
            (v[0] - v[1]).abs() < 1e-9,
            "should align with the diagonal: {v:?}"
        );
    }

    #[test]
    fn eigenvector_zero_matrix_fallback() {
        let v = dominant_eigenvector(&[[0.0; 3]; 3]);
        assert_eq!(v, [1.0, 0.0, 0.0]);
    }

    #[test]
    fn cuts_orthogonal_to_diagonal_cloud() {
        // Points stretched along the diagonal: RIB must separate the two
        // diagonal ends (which RCB would only do after picking x or y).
        let mut rng = SplitMix64::new(1);
        let pts: Vec<Point<2>> = (0..1000)
            .map(|_| {
                let t = rng.next_f64();
                // Narrow band around y = x.
                Point::new([t + rng.next_f64() * 0.01, t + rng.next_f64() * 0.01])
            })
            .collect();
        let w = vec![1.0; pts.len()];
        let asg = rib_partition(&SelfComm, &pts, &w, 2);
        // All low-diagonal points in one block, high-diagonal in the other.
        let low_block = pts
            .iter()
            .zip(&asg)
            .min_by(|a, b| (a.0[0] + a.0[1]).total_cmp(&(b.0[0] + b.0[1])))
            .map(|(_, &b)| b)
            .unwrap();
        for (p, &b) in pts.iter().zip(&asg) {
            let t = (p[0] + p[1]) / 2.0;
            if t < 0.45 {
                assert_eq!(b, low_block, "low end split");
            }
            if t > 0.55 {
                assert_ne!(b, low_block, "high end not separated");
            }
        }
    }

    #[test]
    fn balanced_on_weighted_input() {
        let mut rng = SplitMix64::new(2);
        let pts: Vec<Point<3>> = (0..2000)
            .map(|_| Point::new([rng.next_f64(), rng.next_f64(), rng.next_f64()]))
            .collect();
        let w: Vec<f64> = (0..2000).map(|i| 1.0 + (i % 7) as f64).collect();
        let k = 6;
        let asg = rib_partition(&SelfComm, &pts, &w, k);
        let mut bw = vec![0.0; k];
        for (&b, &wi) in asg.iter().zip(&w) {
            bw[b as usize] += wi;
        }
        let total: f64 = w.iter().sum();
        let max = bw.iter().cloned().fold(0.0, f64::max);
        assert!(max / (total / k as f64) < 1.05, "weighted imbalance: {bw:?}");
    }

    #[test]
    fn spmd_matches_shared_memory() {
        // RIB's covariance sums are inexact floating-point reductions, so a
        // multi-rank run follows a different (fixed) reduction tree than
        // the single-rank one — last-ulp differences may flip individual
        // points that lie exactly on a cut. Same contract as
        // tests/spmd_invariance.rs: ≥ 99.5 % agreement and intact balance.
        let mut rng = SplitMix64::new(3);
        let pts: Vec<Point<2>> =
            (0..1200).map(|_| Point::new([rng.next_f64(), rng.next_f64()])).collect();
        let w = vec![1.0; pts.len()];
        let k = 5;
        let serial = rib_partition(&SelfComm, &pts, &w, k);
        let results = run_spmd(3, |c| {
            let chunk = pts.len() / 3;
            let lo = c.rank() * chunk;
            let hi = if c.rank() == 2 { pts.len() } else { lo + chunk };
            rib_partition(&c, &pts[lo..hi], &w[lo..hi], k)
        });
        let distributed: Vec<u32> = results.into_iter().flatten().collect();
        let agree = distributed
            .iter()
            .zip(&serial)
            .filter(|(a, b)| a == b)
            .count() as f64
            / serial.len() as f64;
        assert!(agree >= 0.995, "only {:.2}% agreement with p=1", agree * 100.0);
        let mut counts = vec![0usize; k];
        for &b in &distributed {
            counts[b as usize] += 1;
        }
        let max = *counts.iter().max().unwrap() as f64;
        assert!(max / (pts.len() as f64 / k as f64) < 1.05, "imbalance: {counts:?}");
    }
}
