//! α–β communication cost model.
//!
//! The reproduction machine has a single core, so the wall-clock of a
//! `ThreadComm` run with `p` ranks is (approximately) the *serialized
//! total* compute of all ranks — wall-clock speedup cannot be observed.
//! The scaling figures therefore report a modeled time
//!
//! ```text
//! T(p) = serialized_compute / p  +  α · rounds  +  β · bytes_per_rank
//! ```
//!
//! where `rounds` (steps of the collectives' schedules) and
//! `bytes_per_rank` (payload bytes received by a rank) come from the
//! per-collective counters the substrate measures — they are structural
//! properties of the algorithm, not of the machine — and α/β are set to
//! typical cluster-interconnect constants. With native collectives the two
//! terms are faithful: a recursive-doubling allreduce contributes
//! `⌈log₂ p⌉` rounds and `O(m·log p)` received bytes per rank, exactly the
//! α–β cost of its MPI counterpart, where the earlier allgather-derived
//! substrate charged `O(m·p)` volume and poisoned the model. The compute
//! term assumes perfect scaling — balanced k-means and the baselines are
//! all data-parallel in their point loops, which is what the paper
//! observes too; what differentiates the tools at scale is the collective
//! structure, which we measure rather than model. See DESIGN.md §3.

use geographer_parcomm::CommStats;

/// Machine constants of the modeled cluster.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// Seconds per synchronization round (latency + synchronisation).
    pub alpha: f64,
    /// Seconds per payload byte received by a rank (inverse per-link
    /// bandwidth).
    pub beta: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        // 20 µs per round, 0.5 ns/byte (≈ 2 GB/s effective) — typical
        // commodity-cluster MPI numbers.
        CostModel { alpha: 20e-6, beta: 0.5e-9 }
    }
}

impl CostModel {
    /// Modeled parallel seconds for a run whose serialized compute took
    /// `serialized_seconds`, on `p` ranks, with measured `comm` counters.
    pub fn modeled_seconds(&self, serialized_seconds: f64, p: usize, comm: &CommStats) -> f64 {
        assert!(p >= 1);
        serialized_seconds / p as f64 + comm.modeled_seconds(self.alpha, self.beta)
    }

    /// Typical intra-node constants: shared-memory/NVLink-class links are
    /// roughly an order of magnitude better than the cluster interconnect
    /// in both latency and bandwidth.
    pub fn intra_node() -> Self {
        // 2 µs per round, 0.05 ns/byte (≈ 20 GB/s effective).
        CostModel { alpha: 2e-6, beta: 0.05e-9 }
    }
}

/// Two-tier α–β model of a hierarchical machine: traffic crossing a node
/// boundary pays the interconnect constants, traffic between ranks of the
/// same node the (much cheaper) intra-node constants. It turns structural
/// volumes into modeled exchange seconds that actually reflect the
/// hierarchy — a flat model charges sibling-block chatter at interconnect
/// prices and overstates the cost of everything the hierarchical solver
/// deliberately keeps on-node.
///
/// Two byte sources exist and they count *differently* — pick one and
/// stay with it when comparing numbers:
///
/// * `geographer_spmv::spmv_comm_time_on_nodes` counts what the wire
///   carries: one value per **destination rank** that needs it, so a
///   vertex with neighbours in two blocks hosted by the same remote node
///   is sent twice (8 × 2 bytes);
/// * `geographer_graph::evaluate_levels`' level-0 volume coarsens to
///   node groups *first*: the same vertex counts once per **destination
///   node** (8 bytes) — the idealized volume a node-aware runtime that
///   deduplicates per node would move.
///
/// `BENCH_hierarchy.json` and `bench_hierarchy` use the `evaluate_levels`
/// convention throughout.
#[derive(Debug, Clone, Copy)]
pub struct TieredCostModel {
    /// Constants of the inter-node links (the cluster interconnect).
    pub inter: CostModel,
    /// Constants of the intra-node links.
    pub intra: CostModel,
}

impl Default for TieredCostModel {
    fn default() -> Self {
        TieredCostModel { inter: CostModel::default(), intra: CostModel::intra_node() }
    }
}

impl TieredCostModel {
    /// Modeled seconds of one neighbourhood exchange (e.g. one SpMV halo
    /// exchange) that moves `intra_bytes` between ranks of the same node
    /// and `inter_bytes` across nodes. Each tier that carries traffic is
    /// charged one latency round; bytes are charged at the tier's inverse
    /// bandwidth.
    pub fn exchange_seconds(&self, intra_bytes: u64, inter_bytes: u64) -> f64 {
        let mut t = 0.0;
        if intra_bytes > 0 {
            t += self.intra.alpha + self.intra.beta * intra_bytes as f64;
        }
        if inter_bytes > 0 {
            t += self.inter.alpha + self.inter.beta * inter_bytes as f64;
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geographer_parcomm::{Collective, OpStats};

    fn stats(ranks: u64, rounds: u64, total_bytes: u64) -> CommStats {
        let mut s = CommStats { ranks, ..CommStats::default() };
        s.per_op[Collective::Allreduce as usize] =
            OpStats { ops: rounds.max(1), rounds, bytes: total_bytes };
        s
    }

    #[test]
    fn compute_term_scales_down_with_p() {
        let m = CostModel::default();
        let comm = CommStats::default();
        let t1 = m.modeled_seconds(8.0, 1, &comm);
        let t8 = m.modeled_seconds(8.0, 8, &comm);
        assert_eq!(t1, 8.0);
        assert_eq!(t8, 1.0);
    }

    #[test]
    fn latency_term_does_not_scale() {
        let m = CostModel { alpha: 1e-3, beta: 0.0 };
        let t2 = m.modeled_seconds(0.0, 2, &stats(2, 100, 0));
        let t64 = m.modeled_seconds(0.0, 64, &stats(64, 100, 0));
        assert_eq!(t2, t64, "latency is the non-scaling floor");
        assert_eq!(t2, 0.1);
    }

    #[test]
    fn bandwidth_term_uses_per_rank_volume() {
        let m = CostModel { alpha: 0.0, beta: 1e-6 };
        // 4000 total received bytes over 4 ranks → 1000 per rank.
        let t = m.modeled_seconds(0.0, 4, &stats(4, 1, 4000));
        assert!((t - 1e-3).abs() < 1e-12);
    }

    #[test]
    fn tiered_model_prices_inter_node_traffic_higher() {
        let m = TieredCostModel::default();
        let on_node = m.exchange_seconds(10_000, 0);
        let cross_node = m.exchange_seconds(0, 10_000);
        assert!(
            cross_node > 5.0 * on_node,
            "inter-node bytes must be much more expensive: {cross_node} vs {on_node}"
        );
        // Splitting traffic toward the cheap tier lowers the modeled time.
        let mixed = m.exchange_seconds(8_000, 2_000);
        assert!(mixed < cross_node);
        // No traffic, no time.
        assert_eq!(m.exchange_seconds(0, 0), 0.0);
    }

    #[test]
    fn more_rounds_cost_more() {
        let m = CostModel::default();
        let few = stats(4, 10, 1000);
        let many = stats(4, 1000, 1000);
        assert!(m.modeled_seconds(1.0, 4, &many) > m.modeled_seconds(1.0, 4, &few));
    }
}
