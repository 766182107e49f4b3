//! Property-based tests over the whole stack: random point sets, weights,
//! and parameters must never break the partitioners' contracts.

use geographer::{balanced_kmeans, Config};
use geographer_geometry::Point;
use geographer_parcomm::SelfComm;
use geographer_planner::{MeshView, PlanSpec, Planner, Tool};
use geographer_sfc::{hilbert_coords, hilbert_index};
use proptest::prelude::*;

fn arb_points(max_n: usize) -> impl Strategy<Value = Vec<Point<2>>> {
    prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), 50..max_n)
        .prop_map(|v| v.into_iter().map(|(x, y)| Point::new([x, y])).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Hilbert index is a bijection on random cells.
    #[test]
    fn hilbert_roundtrip_2d(x in 0u32..(1 << 12), y in 0u32..(1 << 12)) {
        let idx = hilbert_index([x, y], 12);
        prop_assert_eq!(hilbert_coords::<2>(idx, 12), [x, y]);
    }

    /// Hilbert index is a bijection in 3D too.
    #[test]
    fn hilbert_roundtrip_3d(x in 0u32..(1 << 8), y in 0u32..(1 << 8), z in 0u32..(1 << 8)) {
        let idx = hilbert_index([x, y, z], 8);
        prop_assert_eq!(hilbert_coords::<3>(idx, 8), [x, y, z]);
    }

    /// Every baseline produces a complete, in-range, ε-balanced partition
    /// on arbitrary point sets with unit weights.
    #[test]
    fn baselines_contract(pts in arb_points(400), k in 2usize..9) {
        let n = pts.len();
        let w = vec![1.0; n];
        for tool in [Tool::Hsfc, Tool::MultiJagged, Tool::Rcb, Tool::Rib] {
            let view = MeshView { points: &pts, weights: &w, graph: None };
            let spec = PlanSpec::flat(view, tool, k, Config::default());
            let asg = Planner::solve(&spec, None, &SelfComm).assignment;
            prop_assert_eq!(asg.len(), n);
            let mut counts = vec![0usize; k];
            for &b in &asg {
                prop_assert!((b as usize) < k);
                counts[b as usize] += 1;
            }
            // Quantile cuts put each block within one point of its target.
            let max = *counts.iter().max().unwrap() as f64;
            let avg = n as f64 / k as f64;
            prop_assert!(max <= avg + (k as f64), "{}: {:?}", tool.name(), counts);
        }
    }

    /// Balanced k-means always meets ε on random inputs (given enough
    /// iterations) and never leaves an influence non-positive.
    #[test]
    fn kmeans_contract(pts in arb_points(300), k in 2usize..7) {
        let n = pts.len();
        let w = vec![1.0; n];
        let centers: Vec<Point<2>> =
            (0..k).map(|i| pts[(i * n / k + n / (2 * k)).min(n - 1)]).collect();
        let cfg = Config { max_iterations: 60, ..Config::default() };
        let out = balanced_kmeans(&SelfComm, &pts, &w, k, centers, &cfg);
        prop_assert_eq!(out.assignment.len(), n);
        for &b in &out.assignment {
            prop_assert!((b as usize) < k);
        }
        for &i in &out.influence {
            prop_assert!(i.is_finite() && i > 0.0);
        }
        let mut sizes = vec![0.0; k];
        for &b in &out.assignment {
            sizes[b as usize] += 1.0;
        }
        // The solver's contract: max ≤ max((1+ε)·avg, avg + w_max) — the
        // weighted form of the paper's (1+ε)·⌈n/k⌉ (w_max = 1 here).
        let avg = n as f64 / k as f64;
        let allowed = ((1.0 + cfg.epsilon) * avg).max(avg + 1.0);
        let max = sizes.iter().cloned().fold(0.0, f64::max);
        prop_assert!(max <= allowed + 1e-9, "max {} > allowed {} sizes {:?}", max, allowed, sizes);
        prop_assert!(out.stats.balance_achieved, "solver must report balance, sizes {:?}", sizes);
    }

    /// Weighted quantiles really split the weight (SelfComm path).
    #[test]
    fn quantile_splits_weight(
        vals in prop::collection::vec(-100.0f64..100.0, 20..200),
        alpha in 0.05f64..0.95,
    ) {
        let group = geographer_dsort::QuantileGroup {
            weights: vec![1.0; vals.len()],
            values: vals.clone(),
            alphas: vec![alpha],
        };
        let q = geographer_dsort::weighted_quantiles_grouped(&SelfComm, &[group])[0][0];
        let below = vals.iter().filter(|v| **v <= q).count() as f64;
        let frac = below / vals.len() as f64;
        // Within one element of the target fraction.
        prop_assert!((frac - alpha).abs() <= 1.5 / vals.len() as f64 + 1e-9,
            "alpha={} frac={}", alpha, frac);
    }
}
