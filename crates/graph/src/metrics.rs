//! Partition quality metrics from Sec. 2 of the paper.
//!
//! For a partition Π = (V₁, …, V_k):
//!
//! * edge cut — number of edges with endpoints in different blocks;
//! * communication volume of a block,
//!   `comm(Vi) = Σ_{v∈Vi} |{Vj ≠ Vi : v has a neighbour in Vj}|` —
//!   the number of boundary values Vi must send in an SpMV;
//! * diameter of a block — iFUB-style lower bound on the induced subgraph,
//!   infinite (None) if a block is disconnected;
//! * imbalance — `max_i w(Vi) / target_i − 1`, with `target_i = w(V)/k`
//!   uniformly or `w(V)·f_i` under heterogeneous target fractions (see
//!   [`imbalance_with_targets`] and DESIGN.md §7 erratum b).

use crate::csr::CsrGraph;
use crate::traversal::diameter_lower_bound;

/// All per-partition metrics the experiments report.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionMetrics {
    /// Number of blocks the metrics were computed for.
    pub k: usize,
    /// Edge cut (each cut edge counted once).
    pub edge_cut: u64,
    /// Per-block communication volume.
    pub comm_volume: Vec<u64>,
    /// Max over blocks of the communication volume.
    pub max_comm_volume: u64,
    /// Sum over blocks of the communication volume.
    pub total_comm_volume: u64,
    /// Per-block diameter lower bound; `None` = disconnected block.
    pub diameters: Vec<Option<u32>>,
    /// Harmonic mean of block diameters (see [`harmonic_mean_diameter`]).
    pub harmonic_diameter: f64,
    /// Target-aware weighted imbalance `max_i w(Vi)/target_i − 1`
    /// (uniform targets unless the metrics were computed through
    /// [`evaluate_partition_with_targets`]).
    pub imbalance: f64,
}

/// Weighted imbalance of an assignment against uniform targets:
/// `max_i w(Vi) / (w(V)/k) − 1`. Zero means perfectly balanced; the
/// balance constraint of the paper is `imbalance ≤ ε`. For partitions
/// solved with heterogeneous `target_fractions`, use
/// [`imbalance_with_targets`] — measuring those against the uniform
/// average reports a deliberate skew as imbalance.
pub fn imbalance(assignment: &[u32], weights: &[f64], k: usize) -> f64 {
    imbalance_with_targets(assignment, weights, k, None)
}

/// Target-aware weighted imbalance: `max_i w(Vi) / target_i − 1` with
/// `target_i = w(V) · f_i` and `f` the normalized `target_fractions`
/// (`None` = uniform `1/k`, reproducing [`imbalance`]).
///
/// A partition that exactly hits heterogeneous targets reports 0 here,
/// while the uniform form would report `max_i f_i · k − 1` — e.g. a
/// perfect (0.5, 0.25, 0.25) solve would read as 50 % "imbalanced".
/// Regression-tested against a deliberately skewed solve in
/// `tests/multilevel_props.rs`; see DESIGN.md §7 erratum b.
///
/// # Panics
/// If `target_fractions` is `Some` with length ≠ k or non-positive
/// entries.
pub fn imbalance_with_targets(
    assignment: &[u32],
    weights: &[f64],
    k: usize,
    target_fractions: Option<&[f64]>,
) -> f64 {
    assert_eq!(assignment.len(), weights.len());
    assert!(k > 0);
    let mut block_w = vec![0.0; k];
    for (&b, &w) in assignment.iter().zip(weights) {
        block_w[b as usize] += w;
    }
    let total: f64 = block_w.iter().sum();
    if total <= 0.0 {
        return 0.0;
    }
    match target_fractions {
        None => {
            let avg = total / k as f64;
            block_w.iter().copied().fold(0.0, f64::max) / avg - 1.0
        }
        Some(f) => {
            assert!(
                f.len() == k,
                "geographer config: target_fractions length must equal k (got {}, k = {k})",
                f.len()
            );
            assert!(
                f.iter().all(|x| x.is_finite() && *x > 0.0),
                "geographer config: target_fractions must be positive"
            );
            let sum: f64 = f.iter().sum();
            block_w
                .iter()
                .zip(f)
                .map(|(&w, &frac)| w / (total * frac / sum))
                .fold(0.0, f64::max)
                - 1.0
        }
    }
}

/// Geometric mean of strictly positive values (the paper's aggregation for
/// everything except the diameter).
pub fn geometric_mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty());
    let log_sum: f64 = values
        .iter()
        .map(|&v| {
            assert!(v > 0.0, "geometric mean needs positive values, got {v}");
            v.ln()
        })
        .sum();
    (log_sum / values.len() as f64).exp()
}

/// Harmonic mean over block diameters, treating disconnected blocks as
/// infinite diameter (contributing 0 to the reciprocal sum) — exactly the
/// paper's workaround: "In some cases, blocks are disconnected and thus
/// have an infinite diameter. To avoid a potentially infinite mean
/// diameter, we use the harmonic instead of the geometric mean."
///
/// A diameter of 0 (a singleton block — the most compact a block can be)
/// is clamped to 1 so it contributes a *finite* reciprocal. Until PR 5 it
/// was lumped with `None` and contributed 0, so an all-singletons
/// partition reported an **infinite** mean diameter — the opposite of
/// what it is (DESIGN.md §7 erratum a).
pub fn harmonic_mean_diameter(diameters: &[Option<u32>]) -> f64 {
    assert!(!diameters.is_empty());
    let recip_sum: f64 = diameters
        .iter()
        .map(|d| match d {
            None => 0.0,
            Some(0) => 1.0, // singleton block: clamp diameter to 1
            Some(d) => 1.0 / *d as f64,
        })
        .sum();
    if recip_sum == 0.0 {
        f64::INFINITY
    } else {
        diameters.len() as f64 / recip_sum
    }
}

/// Compute every metric for `assignment` (block id per vertex) on `g`.
///
/// `weights` are the node weights used for the balance constraint (pass all
/// ones for the unweighted case). Diameters are computed per block in
/// parallel — they dominate the evaluation cost on larger instances.
///
/// The reported imbalance measures against uniform `w(V)/k` targets; for
/// partitions solved with heterogeneous `target_fractions` use
/// [`evaluate_partition_with_targets`].
pub fn evaluate_partition(
    g: &CsrGraph,
    assignment: &[u32],
    weights: &[f64],
    k: usize,
) -> PartitionMetrics {
    evaluate_partition_with_targets(g, assignment, weights, k, None)
}

/// [`evaluate_partition`] with the partition's per-block target fractions:
/// the reported imbalance is [`imbalance_with_targets`], so a solve that
/// hits its heterogeneous targets reads as balanced instead of skewed.
pub fn evaluate_partition_with_targets(
    g: &CsrGraph,
    assignment: &[u32],
    weights: &[f64],
    k: usize,
    target_fractions: Option<&[f64]>,
) -> PartitionMetrics {
    assert_eq!(assignment.len(), g.n());
    assert_eq!(weights.len(), g.n());
    assert!(assignment.iter().all(|&b| (b as usize) < k), "block id out of range");

    // Edge cut + communication volume in one pass (the shared metric core
    // also behind the per-level hierarchy metrics).
    let crate::hierarchy::LevelMetrics {
        edge_cut,
        comm_volume,
        max_comm_volume,
        total_comm_volume,
        ..
    } = crate::hierarchy::cut_and_volume(g, assignment, k);

    // Per-block vertex lists, then one diameter bound per block.
    let mut members: Vec<Vec<u32>> = vec![Vec::new(); k];
    for (v, &b) in assignment.iter().enumerate() {
        members[b as usize].push(v as u32);
    }
    let diameters: Vec<Option<u32>> = members
        .iter()
        .map(|verts| {
            if verts.is_empty() {
                return None;
            }
            let sub = g.induced_subgraph(verts);
            diameter_lower_bound(&sub)
        })
        .collect();
    let harmonic_diameter = harmonic_mean_diameter(&diameters);

    PartitionMetrics {
        k,
        edge_cut,
        comm_volume,
        max_comm_volume,
        total_comm_volume,
        diameters,
        harmonic_diameter,
        imbalance: imbalance_with_targets(assignment, weights, k, target_fractions),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 2x4 grid, split into left/right halves of 4 vertices each:
    ///
    /// ```text
    ///   0 - 1 | 2 - 3
    ///   |   | | |   |
    ///   4 - 5 | 6 - 7
    /// ```
    fn grid_2x4() -> (CsrGraph, Vec<u32>) {
        let edges = [
            (0, 1), (1, 2), (2, 3),
            (4, 5), (5, 6), (6, 7),
            (0, 4), (1, 5), (2, 6), (3, 7),
        ];
        let g = CsrGraph::from_edges(8, &edges);
        let assignment = vec![0, 0, 1, 1, 0, 0, 1, 1];
        (g, assignment)
    }

    #[test]
    fn metrics_on_split_grid() {
        let (g, asg) = grid_2x4();
        let w = vec![1.0; 8];
        let m = evaluate_partition(&g, &asg, &w, 2);
        // Cut edges: (1,2) and (5,6).
        assert_eq!(m.edge_cut, 2);
        // Vertices 1 and 5 each see one foreign block; same for 2 and 6.
        assert_eq!(m.comm_volume, vec![2, 2]);
        assert_eq!(m.max_comm_volume, 2);
        assert_eq!(m.total_comm_volume, 4);
        // Each half is a 2x2 square: diameter 2.
        assert_eq!(m.diameters, vec![Some(2), Some(2)]);
        assert!((m.harmonic_diameter - 2.0).abs() < 1e-12);
        assert_eq!(m.imbalance, 0.0);
    }

    #[test]
    fn comm_volume_counts_distinct_blocks() {
        // Star: center 0 with leaves in three different blocks.
        let g = CsrGraph::from_edges(4, &[(0, 1), (0, 2), (0, 3)]);
        let asg = vec![0, 1, 2, 3];
        let m = evaluate_partition(&g, &asg, &[1.0; 4], 4);
        // Center sees 3 foreign blocks, each leaf sees 1.
        assert_eq!(m.comm_volume, vec![3, 1, 1, 1]);
        assert_eq!(m.edge_cut, 3);
    }

    #[test]
    fn disconnected_block_has_infinite_diameter() {
        // Path 0-1-2-3 with blocks {0,3} and {1,2}: block 0 is disconnected.
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let asg = vec![0, 1, 1, 0];
        let m = evaluate_partition(&g, &asg, &[1.0; 4], 2);
        assert_eq!(m.diameters[0], None);
        assert_eq!(m.diameters[1], Some(1));
        assert!(m.harmonic_diameter.is_finite(), "harmonic mean absorbs infinity");
    }

    #[test]
    fn imbalance_simple() {
        // 3 vs 1 vertices in k=2: max/avg - 1 = 3/2 - 1 = 0.5.
        let asg = vec![0, 0, 0, 1];
        assert!((imbalance(&asg, &[1.0; 4], 2) - 0.5).abs() < 1e-12);
        // Weighted: weights flip the balance.
        let w = vec![1.0, 1.0, 1.0, 3.0];
        assert!((imbalance(&asg, &w, 2) - 0.0).abs() < 1e-12);
    }

    #[test]
    fn geometric_mean_basics() {
        assert!((geometric_mean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geometric_mean(&[5.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn harmonic_mean_all_infinite() {
        assert!(harmonic_mean_diameter(&[None, None]).is_infinite());
        assert!((harmonic_mean_diameter(&[Some(2), Some(2)]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn singleton_diameters_are_finite_not_infinite() {
        // Regression (DESIGN.md §7 erratum a): Some(0) used to be lumped
        // with None and contribute 0 to the reciprocal sum, so an
        // all-singletons partition — the most compact possible — reported
        // an *infinite* mean diameter. A singleton clamps to diameter 1.
        let hm = harmonic_mean_diameter(&[Some(0), Some(0)]);
        assert!(hm.is_finite(), "all-singleton partition must be finite");
        assert!((hm - 1.0).abs() < 1e-12);
        // Mixed: recip sum = 1 + 1/4, mean = 2 / 1.25 = 1.6 (pre-fix: 8).
        let hm = harmonic_mean_diameter(&[Some(0), Some(4)]);
        assert!((hm - 1.6).abs() < 1e-12);
        // Disconnected blocks still absorb into the mean as infinite.
        assert!(harmonic_mean_diameter(&[None, Some(0)]).is_finite());
        // End-to-end: a partition of isolated-singleton blocks.
        let g = CsrGraph::from_edges(3, &[]);
        let m = evaluate_partition(&g, &[0, 1, 2], &[1.0; 3], 3);
        assert_eq!(m.diameters, vec![Some(0), Some(0), Some(0)]);
        assert!(
            m.harmonic_diameter.is_finite(),
            "singletons are maximally compact, not disconnected"
        );
    }

    #[test]
    fn heterogeneous_targets_read_as_balanced() {
        // Regression (DESIGN.md §7 erratum b): a partition that exactly
        // hits (0.5, 0.25, 0.25) targets used to report max/avg − 1 = 50 %
        // imbalance against the uniform average. Target-aware it is 0.
        let asg = vec![0, 0, 1, 2];
        let w = vec![1.0; 4];
        let fr = [0.5, 0.25, 0.25];
        assert!((imbalance(&asg, &w, 3) - 0.5).abs() < 1e-12, "uniform form sees the skew");
        let ti = imbalance_with_targets(&asg, &w, 3, Some(&fr));
        assert!(ti.abs() < 1e-12, "target-aware form must be 0, got {ti}");
        // Unnormalized fractions are normalized.
        let ti = imbalance_with_targets(&asg, &w, 3, Some(&[2.0, 1.0, 1.0]));
        assert!(ti.abs() < 1e-12);
        // None reproduces the uniform form exactly.
        assert_eq!(imbalance_with_targets(&asg, &w, 3, None), imbalance(&asg, &w, 3));
        // Overfull vs its own target is reported: block 1 at 2/1 = +100 %.
        let ti = imbalance_with_targets(&[0, 0, 1, 1], &w, 3, Some(&fr));
        assert!((ti - 1.0).abs() < 1e-12);
        // Threaded through evaluate_partition_with_targets.
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let m = evaluate_partition_with_targets(&g, &asg, &w, 3, Some(&fr));
        assert!(m.imbalance.abs() < 1e-12);
    }

    // The texts of core's `Config` checks, spelled again here: graph does
    // not depend on core (`refine::block_capacities` calls the checks).
    #[test]
    #[should_panic(
        expected = "geographer config: target_fractions length must equal k (got 2, k = 3)"
    )]
    fn target_fractions_of_the_wrong_length_panic_with_the_config_text() {
        imbalance_with_targets(&[0, 1, 2], &[1.0; 3], 3, Some(&[0.5, 0.5]));
    }

    #[test]
    #[should_panic(expected = "geographer config: target_fractions must be positive")]
    fn non_positive_target_fractions_panic_with_the_config_text() {
        imbalance_with_targets(&[0, 1, 2], &[1.0; 3], 3, Some(&[0.5, 0.0, 0.5]));
    }

    #[test]
    fn csr_and_per_block_accounting_agree_on_random_graphs() {
        // Cross-check the one-pass CSR computation in `evaluate_partition`
        // against independent per-block accounting, on deterministic
        // pseudo-random graphs and assignments.
        let mut rng = geographer_geometry::SplitMix64::new(0x0123_4567_89AB_CDEF);
        let mut next = move || rng.next_u64();
        for trial in 0..20 {
            let n = 2 + (next() % 120) as usize;
            let k = 1 + (next() % 6) as usize;
            let m_raw = (next() % 400) as usize;
            let edges: Vec<(u32, u32)> = (0..m_raw)
                .map(|_| ((next() % n as u64) as u32, (next() % n as u64) as u32))
                .collect();
            let g = CsrGraph::from_edges(n, &edges);
            let asg: Vec<u32> = (0..n).map(|_| (next() % k as u64) as u32).collect();
            let w: Vec<f64> = (0..n).map(|_| 1.0 + (next() % 5) as f64).collect();

            let m = evaluate_partition(&g, &asg, &w, k);

            // Edge cut, recounted straight off the CSR adjacency.
            let mut cut = 0u64;
            for v in 0..n as u32 {
                for &u in g.neighbors(v) {
                    if v < u && asg[v as usize] != asg[u as usize] {
                        cut += 1;
                    }
                }
            }
            assert_eq!(m.edge_cut, cut, "trial {trial}: edge cut mismatch");

            // Communication volume, recounted per block from scratch.
            let mut comm = vec![0u64; k];
            for v in 0..n as u32 {
                let bv = asg[v as usize];
                let mut foreign: Vec<u32> = g
                    .neighbors(v)
                    .iter()
                    .map(|&u| asg[u as usize])
                    .filter(|&b| b != bv)
                    .collect();
                foreign.sort_unstable();
                foreign.dedup();
                comm[bv as usize] += foreign.len() as u64;
            }
            assert_eq!(m.comm_volume, comm, "trial {trial}: comm volume mismatch");
            assert_eq!(m.max_comm_volume, comm.iter().copied().max().unwrap());
            assert_eq!(m.total_comm_volume, comm.iter().sum::<u64>());

            // Imbalance, recomputed from per-block weights.
            let mut bw = vec![0.0f64; k];
            for (v, &b) in asg.iter().enumerate() {
                bw[b as usize] += w[v];
            }
            let avg = bw.iter().sum::<f64>() / k as f64;
            let want = bw.iter().copied().fold(0.0, f64::max) / avg - 1.0;
            assert!(
                (m.imbalance - want).abs() < 1e-12,
                "trial {trial}: imbalance {} != {want}",
                m.imbalance
            );
        }
    }

    #[test]
    fn empty_block_allowed() {
        let g = CsrGraph::from_edges(2, &[(0, 1)]);
        let m = evaluate_partition(&g, &[0, 0], &[1.0; 2], 2);
        assert_eq!(m.diameters[1], None);
        assert_eq!(m.comm_volume[1], 0);
        assert!((m.imbalance - 1.0).abs() < 1e-12);
    }
}
