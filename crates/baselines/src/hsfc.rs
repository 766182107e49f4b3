//! Hilbert space-filling-curve partitioning (zoltanSFC analogue).
//!
//! Map every point to its Hilbert key over the *global* bounding box, then
//! cut the key space into `k` consecutive weighted chunks. The k−1 key
//! splitters are found with an exact distributed integer quantile search —
//! the same "bin and refine" idea as Zoltan's HSFC, collapsed into a
//! bisection.

use geographer_dsort::{global_bbox, weighted_quantiles_u64};
use geographer_geometry::Point;
use geographer_parcomm::Comm;
use geographer_sfc::HilbertMapper;

/// Bits per axis for the partitioning curve. 16 gives 2^32 cells in 2D —
/// ample separation for reproduction-scale instances while keeping keys
/// comfortably inside u64 in 3D too.
const HSFC_BITS: u32 = 16;

/// Partition the rank-local `points` into `k` blocks by cutting the Hilbert
/// curve into weighted chunks.
pub fn hsfc_partition<const D: usize, C: Comm>(
    comm: &C,
    points: &[Point<D>],
    weights: &[f64],
    k: usize,
) -> Vec<u32> {
    assert!(k >= 1);
    assert_eq!(points.len(), weights.len());
    if k == 1 {
        return vec![0; points.len()];
    }
    let bb = global_bbox(comm, points);
    let mapper = HilbertMapper::new(bb, HSFC_BITS);
    let keys: Vec<u64> = points.iter().map(|p| mapper.key_of(p)).collect();

    let alphas: Vec<f64> = (1..k).map(|i| i as f64 / k as f64).collect();
    let splitters = weighted_quantiles_u64(comm, &keys, weights, &alphas);

    keys.iter()
        .map(|&key| splitters.partition_point(|&s| s < key) as u32)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use geographer_geometry::SplitMix64;
    use geographer_parcomm::{run_spmd, SelfComm};

    #[test]
    fn k1_trivial() {
        let pts = vec![Point::new([0.0, 0.0])];
        assert_eq!(hsfc_partition(&SelfComm, &pts, &[1.0], 1), vec![0]);
    }

    #[test]
    fn blocks_are_contiguous_on_curve() {
        let mut rng = SplitMix64::new(1);
        let pts: Vec<Point<2>> =
            (0..3000).map(|_| Point::new([rng.next_f64(), rng.next_f64()])).collect();
        let w = vec![1.0; pts.len()];
        let k = 8;
        let asg = hsfc_partition(&SelfComm, &pts, &w, k);
        // Sort points by key; block ids must be non-decreasing.
        let bb = global_bbox(&SelfComm, &pts);
        let order = HilbertMapper::new(bb, 16).order(&pts);
        let seq: Vec<u32> = order.iter().map(|&i| asg[i as usize]).collect();
        assert!(seq.windows(2).all(|w| w[0] <= w[1]), "blocks must be curve-contiguous");
    }

    #[test]
    fn balanced_weighted() {
        let mut rng = SplitMix64::new(2);
        let pts: Vec<Point<2>> =
            (0..5000).map(|_| Point::new([rng.next_f64(), rng.next_f64()])).collect();
        let w: Vec<f64> = (0..5000).map(|i| 1.0 + (i % 3) as f64).collect();
        let k = 10;
        let asg = hsfc_partition(&SelfComm, &pts, &w, k);
        let mut bw = vec![0.0; k];
        for (&b, &wi) in asg.iter().zip(&w) {
            bw[b as usize] += wi;
        }
        let total: f64 = w.iter().sum();
        let max = bw.iter().cloned().fold(0.0, f64::max);
        assert!(max / (total / k as f64) < 1.05, "{bw:?}");
    }

    #[test]
    fn spmd_matches_shared_memory() {
        let mut rng = SplitMix64::new(3);
        let pts: Vec<Point<3>> = (0..900)
            .map(|_| Point::new([rng.next_f64(), rng.next_f64(), rng.next_f64()]))
            .collect();
        let w = vec![1.0; pts.len()];
        let serial = hsfc_partition(&SelfComm, &pts, &w, 4);
        let results = run_spmd(3, |c| {
            let chunk = pts.len() / 3;
            let lo = c.rank() * chunk;
            hsfc_partition(&c, &pts[lo..lo + chunk], &w[lo..lo + chunk], 4)
        });
        let distributed: Vec<u32> = results.into_iter().flatten().collect();
        assert_eq!(distributed, serial);
    }
}
