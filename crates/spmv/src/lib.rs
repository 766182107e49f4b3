//! Distributed sparse matrix–vector multiplication with halo exchange.
//!
//! This is the empirical quality measure of the paper (Sec. 2): "we
//! redistribute the input graph according to [the partition], perform
//! sparse matrix-vector multiplications with the adjacency matrix ... and
//! measure the communication time needed within the SpMV", averaged over
//! many repetitions (`timeSpMVComm` in Tables 1–2).
//!
//! Each rank owns the vertices of its block(s) (blocks map to ranks
//! contiguously). One multiplication is: exchange boundary values (each
//! owned vertex value goes once to every *rank* that has a neighbour of
//! it — exactly the communication-volume metric), then multiply locally.
//! Only the exchange is timed.

#![allow(clippy::needless_range_loop, reason = "fixed-dimension coordinate loops index \
          several parallel arrays at once; iterator-zip rewrites of those loops are less \
          readable, not more")]

use geographer_geometry::Stopwatch;
use geographer_graph::CsrGraph;
use geographer_parcomm::Comm;

/// Measurements of a repeated SpMV run on one rank.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpmvReport {
    /// Average seconds per multiplication spent in the halo exchange.
    pub comm_seconds_avg: f64,
    /// Payload bytes this rank sends per multiplication.
    pub bytes_sent_per_iter: u64,
    /// The subset of [`Self::bytes_sent_per_iter`] that crosses a *node*
    /// boundary when ranks are grouped onto nodes (see
    /// [`spmv_comm_time_on_nodes`]). With the flat default of one rank per
    /// node this equals `bytes_sent_per_iter`.
    pub inter_node_bytes_per_iter: u64,
    /// Sum of the final result vector entries owned by this rank
    /// (determinism check; also keeps the compute from being optimized out).
    pub checksum: f64,
}

/// Map block `b` of `k` to its owning rank among `p` (contiguous ranges;
/// identity when `k == p`).
///
/// Contiguity is what makes this mapping *hierarchy-aware*: the
/// hierarchical solver flattens leaf paths lexicographically, so sibling
/// leaves have consecutive flat ids and land on consecutive ranks — with
/// ranks grouped onto nodes in the same contiguous fashion
/// ([`node_of_rank`]), a subtree of blocks stays inside one node.
#[inline]
pub fn owner_of_block(b: u32, k: usize, p: usize) -> usize {
    ((b as usize * p) / k).min(p - 1)
}

/// Node of rank `r` when `p` ranks are packed onto nodes of
/// `ranks_per_node` consecutive ranks each (the contiguous rank→node
/// mapping matching [`owner_of_block`]). `ranks_per_node = 1` is the flat
/// machine: every rank is its own node and all cross-rank traffic is
/// inter-node.
#[inline]
pub fn node_of_rank(r: usize, ranks_per_node: usize) -> usize {
    r / ranks_per_node.max(1)
}

/// Run `reps` SpMV iterations on the partition `assignment` (block per
/// vertex, `k` blocks) of `g`, SPMD over `comm`. The graph structure and
/// assignment are replicated (reproduction-scale instances fit easily);
/// the *vector* is distributed and every boundary value moves through a
/// real `alltoallv` per iteration.
pub fn spmv_comm_time<C: Comm>(
    comm: &C,
    g: &CsrGraph,
    assignment: &[u32],
    k: usize,
    reps: usize,
) -> SpmvReport {
    spmv_comm_time_on_nodes(comm, g, assignment, k, reps, 1)
}

/// [`spmv_comm_time`] on a two-tier machine: ranks are packed onto nodes
/// of `ranks_per_node` consecutive ranks, and the report additionally
/// splits the sent bytes into intra-node and inter-node traffic
/// (`inter_node_bytes_per_iter`). The exchange itself is identical — the
/// grouping only drives the accounting, which the tiered α–β cost model
/// in `geographer_bench` prices per link class.
///
/// Counting convention: bytes are per **destination rank** (what the
/// wire carries — a value needed by two ranks of the same remote node is
/// sent twice). The level-0 communication volume of
/// `geographer_graph::evaluate_levels` instead deduplicates per
/// destination *node*, so the two inter-node numbers for the same
/// partition differ slightly; don't mix them in one comparison.
pub fn spmv_comm_time_on_nodes<C: Comm>(
    comm: &C,
    g: &CsrGraph,
    assignment: &[u32],
    k: usize,
    reps: usize,
    ranks_per_node: usize,
) -> SpmvReport {
    assert_eq!(assignment.len(), g.n());
    assert!(reps >= 1);
    let p = comm.size();
    let me = comm.rank();
    let owner = |v: u32| owner_of_block(assignment[v as usize], k, p);

    let owned: Vec<u32> = (0..g.n() as u32).filter(|&v| owner(v) == me).collect();

    // Send lists: owned vertices that each foreign rank needs (a vertex is
    // sent at most once per rank — the comm-volume semantics). `v` ascends,
    // so a list already holding `v` ends with it.
    let mut send_list: Vec<Vec<u32>> = vec![Vec::new(); p];
    for &v in &owned {
        for &u in g.neighbors(v) {
            let r = owner(u);
            if r != me && send_list[r].last() != Some(&v) {
                send_list[r].push(v);
            }
        }
    }
    // Receive lists: the foreign vertices with a neighbour here, per owner.
    // Values arrive in the sender's send_list order, which both sides can
    // compute (replicated structure): ascending vertex id.
    let mut recv_from: Vec<Vec<u32>> = vec![Vec::new(); p];
    for v in 0..g.n() as u32 {
        let r = owner(v);
        if r != me && g.neighbors(v).iter().any(|&u| owner(u) == me) {
            recv_from[r].push(v);
        }
    }

    let bytes_sent_per_iter: u64 =
        send_list.iter().map(|l| (l.len() * std::mem::size_of::<f64>()) as u64).sum();
    let my_node = node_of_rank(me, ranks_per_node);
    let inter_node_bytes_per_iter: u64 = send_list
        .iter()
        .enumerate()
        .filter(|(r, _)| node_of_rank(*r, ranks_per_node) != my_node)
        .map(|(_, l)| (l.len() * std::mem::size_of::<f64>()) as u64)
        .sum();

    // Distributed vector, indexed by vertex id: owned entries are this
    // rank's, ghost entries are overwritten by every exchange.
    let mut x = vec![0.0f64; g.n()];
    for &v in &owned {
        x[v as usize] = 1.0 + (v % 7) as f64;
    }
    let mut y = vec![0.0f64; owned.len()];

    let mut comm_secs = 0.0;
    for _ in 0..reps {
        // Halo exchange (timed).
        let mut clock = Stopwatch::start();
        let sends: Vec<Vec<f64>> =
            send_list.iter().map(|l| l.iter().map(|&v| x[v as usize]).collect()).collect();
        let received = comm.alltoallv(sends);
        for (r, vals) in received.into_iter().enumerate() {
            debug_assert_eq!(vals.len(), recv_from[r].len());
            for (&v, val) in recv_from[r].iter().zip(vals) {
                x[v as usize] = val;
            }
        }
        comm_secs += clock.lap();

        // Local multiply: y = A·x with unit edge weights.
        for (yi, &v) in y.iter_mut().zip(&owned) {
            *yi = g.neighbors(v).iter().fold(0.0, |acc, &u| acc + x[u as usize]);
        }
        // Keep values bounded across iterations (Jacobi-like damping).
        let scale = 1.0 / (1.0 + g.n() as f64).sqrt();
        for (&v, &yi) in owned.iter().zip(&y) {
            x[v as usize] = 0.5 * x[v as usize] + scale * yi;
        }
    }

    SpmvReport {
        comm_seconds_avg: comm_secs / reps as f64,
        bytes_sent_per_iter,
        inter_node_bytes_per_iter,
        checksum: owned.iter().map(|&v| x[v as usize]).sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geographer_parcomm::{run_spmd, SelfComm};

    fn path_graph(n: usize) -> CsrGraph {
        let edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
        CsrGraph::from_edges(n, &edges)
    }

    #[test]
    fn owner_mapping_contiguous() {
        assert_eq!(owner_of_block(0, 4, 2), 0);
        assert_eq!(owner_of_block(1, 4, 2), 0);
        assert_eq!(owner_of_block(2, 4, 2), 1);
        assert_eq!(owner_of_block(3, 4, 2), 1);
        // k == p: identity.
        for b in 0..6u32 {
            assert_eq!(owner_of_block(b, 6, 6), b as usize);
        }
    }

    #[test]
    fn single_rank_runs_and_checksums() {
        let g = path_graph(50);
        let asg = vec![0u32; 50];
        let r = spmv_comm_time(&SelfComm, &g, &asg, 1, 5);
        assert_eq!(r.bytes_sent_per_iter, 0, "one rank sends nothing");
        assert!(r.checksum.is_finite());
    }

    #[test]
    fn bytes_match_comm_volume_metric() {
        // For k == p, per-iteration sent bytes across all ranks must be
        // 8 × total communication volume of the partition.
        let g = path_graph(40);
        let asg: Vec<u32> = (0..40).map(|v| (v / 10) as u32).collect();
        let k = 4;
        let metrics = geographer_graph::evaluate_partition(&g, &asg, &vec![1.0; 40], k);
        let reports = run_spmd(k, |c| spmv_comm_time(&c, &g, &asg, k, 3));
        let total_bytes: u64 = reports.iter().map(|r| r.bytes_sent_per_iter).sum();
        assert_eq!(total_bytes, 8 * metrics.total_comm_volume);
    }

    #[test]
    fn distributed_matches_serial_checksum() {
        let g = path_graph(60);
        let asg: Vec<u32> = (0..60).map(|v| (v / 20) as u32).collect();
        let serial = spmv_comm_time(&SelfComm, &g, &asg, 3, 4);
        let reports = run_spmd(3, |c| spmv_comm_time(&c, &g, &asg, 3, 4));
        let dist_sum: f64 = reports.iter().map(|r| r.checksum).sum();
        assert!(
            (dist_sum - serial.checksum).abs() < 1e-9,
            "distributed {dist_sum} vs serial {}",
            serial.checksum
        );
    }

    #[test]
    fn worse_partition_sends_more() {
        // Stripes (every other vertex alternating blocks) send far more
        // than contiguous halves on a path.
        let g = path_graph(100);
        let good: Vec<u32> = (0..100).map(|v| (v / 50) as u32).collect();
        let bad: Vec<u32> = (0..100).map(|v| (v % 2) as u32).collect();
        let good_bytes: u64 = run_spmd(2, |c| spmv_comm_time(&c, &g, &good, 2, 2))
            .iter()
            .map(|r| r.bytes_sent_per_iter)
            .sum();
        let bad_bytes: u64 = run_spmd(2, |c| spmv_comm_time(&c, &g, &bad, 2, 2))
            .iter()
            .map(|r| r.bytes_sent_per_iter)
            .sum();
        assert!(bad_bytes > 10 * good_bytes, "{bad_bytes} vs {good_bytes}");
    }

    #[test]
    fn flat_default_counts_everything_as_inter_node() {
        let g = path_graph(40);
        let asg: Vec<u32> = (0..40).map(|v| (v / 10) as u32).collect();
        let reports = run_spmd(4, |c| spmv_comm_time(&c, &g, &asg, 4, 2));
        for r in &reports {
            assert_eq!(r.inter_node_bytes_per_iter, r.bytes_sent_per_iter);
        }
    }

    #[test]
    fn grouping_splits_bytes_by_tier() {
        // Path of 40 in 4 contiguous blocks on 4 ranks; 2 ranks per node.
        // Boundaries 0|1 and 2|3 are intra-node, 1|2 is inter-node.
        let g = path_graph(40);
        let asg: Vec<u32> = (0..40).map(|v| (v / 10) as u32).collect();
        let reports = run_spmd(4, |c| spmv_comm_time_on_nodes(&c, &g, &asg, 4, 2, 2));
        let total: u64 = reports.iter().map(|r| r.bytes_sent_per_iter).sum();
        let inter: u64 = reports.iter().map(|r| r.inter_node_bytes_per_iter).sum();
        // 3 cut boundaries, one vertex each way: 6 values total; only the
        // middle boundary (2 values) crosses nodes.
        assert_eq!(total, 6 * 8);
        assert_eq!(inter, 2 * 8);
        // All ranks on one node: nothing is inter-node.
        let reports = run_spmd(4, |c| spmv_comm_time_on_nodes(&c, &g, &asg, 4, 2, 4));
        assert!(reports.iter().all(|r| r.inter_node_bytes_per_iter == 0));
        assert!(reports.iter().any(|r| r.bytes_sent_per_iter > 0));
    }

    #[test]
    fn node_of_rank_is_contiguous() {
        assert_eq!(node_of_rank(0, 2), 0);
        assert_eq!(node_of_rank(1, 2), 0);
        assert_eq!(node_of_rank(2, 2), 1);
        // Degenerate ranks_per_node = 0 clamps to 1.
        assert_eq!(node_of_rank(3, 0), 3);
    }

    #[test]
    fn more_blocks_than_ranks() {
        let g = path_graph(80);
        let asg: Vec<u32> = (0..80).map(|v| (v / 10) as u32).collect();
        // k = 8 blocks on p = 2 ranks.
        let reports = run_spmd(2, |c| spmv_comm_time(&c, &g, &asg, 8, 2));
        // Only the single edge crossing the rank boundary (block 3|4)
        // carries data: one vertex each way.
        let total: u64 = reports.iter().map(|r| r.bytes_sent_per_iter).sum();
        assert_eq!(total, 16);
    }
}
