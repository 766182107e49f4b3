//! Per-collective communication counters.
//!
//! Every rank records, for each collective *kind*, how many operations it
//! entered, how many communication rounds those operations took, and how
//! many payload bytes it *received*. The recording happens in one place —
//! the generic collective layer ([`crate::collectives`]) — so the numbers
//! are a property of the schedule, not of the communicator underneath.
//! The scaling experiments diff two [`CommStats`] snapshots around a phase
//! and feed the result into an α–β cost model (latency per round + inverse
//! bandwidth per received byte), mirroring how the paper attributes its
//! running time to communication vs. computation (DESIGN.md §3).
//!
//! Semantics of the three counters per [`Collective`] kind:
//!
//! * `ops` — logical collective calls (in an SPMD program every rank
//!   enters the same calls, so this is the same on every rank).
//! * `rounds` — steps of the collective's schedule, also the same on every
//!   rank: `log₂ q` for a recursive-doubling allreduce (`q` the largest
//!   power of two `≤ p`; +2 when `p ≠ q`), `⌈log₂ p⌉` for the exscan,
//!   `p − 1` for the ring allgather and alltoallv, 0 at `p = 1`. The α (latency) term of the cost model multiplies *rounds*,
//!   not ops.
//! * `bytes` — payload bytes received. Sizes are shallow
//!   (`size_of::<T>()` per element); heap payloads inside elements are not
//!   followed, and no framing or length prefix is counted.
//!
//! [`Comm::stats`](crate::Comm::stats) returns the *calling rank's* view
//! (`ranks = 1`, bytes = what this rank received). No collective ends in a
//! barrier, so a peer may still be inside a collective this rank has left;
//! reading only its own cell is what makes a rank's snapshot exact. The
//! job-wide view — ops/rounds of rank 0, bytes summed over ranks,
//! `ranks = p` — is built with [`CommStats::from_rank_views`] where the
//! ranks' results are gathered; the β (bandwidth) term divides its bytes
//! by the rank count to get the per-rank volume that bounds the parallel
//! time.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::wire::{Wire, WireCursor};

/// The collective kinds the substrate distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Collective {
    /// Every rank gathers every rank's buffer.
    Allgather,
    /// Global reductions (element-wise sums and minima, or any value
    /// under a caller's combine).
    Allreduce,
    /// Exclusive prefix sum over ranks.
    Exscan,
    /// Personalized all-to-all exchange.
    Alltoallv,
}

/// Number of distinct [`Collective`] kinds.
pub const COLLECTIVE_KINDS: usize = 4;

impl Collective {
    /// All kinds, in display order.
    pub const ALL: [Collective; COLLECTIVE_KINDS] = [
        Collective::Allgather,
        Collective::Allreduce,
        Collective::Exscan,
        Collective::Alltoallv,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Collective::Allgather => "allgather",
            Collective::Allreduce => "allreduce",
            Collective::Exscan => "exscan",
            Collective::Alltoallv => "alltoallv",
        }
    }
}

/// Counters of one collective kind (monotone; see the module docs for the
/// exact semantics of each field).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpStats {
    /// Logical collective calls.
    pub ops: u64,
    /// Schedule rounds across those calls.
    pub rounds: u64,
    /// Payload bytes received (by one rank, or summed over `ranks`).
    pub bytes: u64,
}

impl OpStats {
    fn since(&self, earlier: &OpStats) -> OpStats {
        OpStats {
            ops: self.ops - earlier.ops,
            rounds: self.rounds - earlier.rounds,
            bytes: self.bytes - earlier.bytes,
        }
    }
}

/// One rank's monotone counters (each rank of a communicator owns one cell
/// and is the only one to write or read it).
#[derive(Debug, Default)]
pub struct StatsCell {
    ops: [AtomicU64; COLLECTIVE_KINDS],
    rounds: [AtomicU64; COLLECTIVE_KINDS],
    bytes: [AtomicU64; COLLECTIVE_KINDS],
}

impl StatsCell {
    /// Record one collective of `kind` that took `rounds` schedule rounds
    /// and in which this rank received `received_bytes` payload bytes.
    pub fn record(&self, kind: Collective, rounds: u64, received_bytes: u64) {
        let i = kind as usize;
        self.ops[i].fetch_add(1, Ordering::Relaxed);
        self.rounds[i].fetch_add(rounds, Ordering::Relaxed);
        self.bytes[i].fetch_add(received_bytes, Ordering::Relaxed);
    }

    /// Current counters of one kind.
    pub fn op_snapshot(&self, kind: Collective) -> OpStats {
        let i = kind as usize;
        OpStats {
            ops: self.ops[i].load(Ordering::Relaxed),
            rounds: self.rounds[i].load(Ordering::Relaxed),
            bytes: self.bytes[i].load(Ordering::Relaxed),
        }
    }

    /// Current counters of every kind, as this rank's view (`ranks = 1`).
    pub fn snapshot(&self) -> CommStats {
        CommStats { ranks: 1, per_op: Collective::ALL.map(|kind| self.op_snapshot(kind)) }
    }
}

/// A point-in-time view of a communicator's counters, broken down by
/// collective kind. Subtract snapshots with [`CommStats::since`] to measure
/// a phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommStats {
    /// How many ranks' received bytes are summed in here: 1 for a rank's
    /// own view ([`crate::Comm::stats`]), `p` for a job-wide view
    /// ([`CommStats::from_rank_views`]), 0 for the default (treated as 1
    /// by the per-rank accessors).
    pub ranks: u64,
    /// Counters per collective kind, indexed by `Collective as usize`.
    pub per_op: [OpStats; COLLECTIVE_KINDS],
}

impl CommStats {
    /// Combine the ranks' own snapshots (`views[r]` from rank `r`) into
    /// one job-wide view: logical op/round counts from rank 0 (identical
    /// on every rank by the SPMD contract), received bytes summed over
    /// all ranks.
    pub fn from_rank_views(views: &[CommStats]) -> CommStats {
        assert!(!views.is_empty(), "need at least one rank view");
        let mut out = CommStats { ranks: views.len() as u64, per_op: views[0].per_op };
        for i in 0..COLLECTIVE_KINDS {
            out.per_op[i].bytes = views.iter().map(|v| v.per_op[i].bytes).sum();
        }
        out
    }

    /// Counters of one collective kind.
    pub fn op(&self, kind: Collective) -> OpStats {
        self.per_op[kind as usize]
    }

    /// Total logical collective calls across all kinds.
    pub fn collectives(&self) -> u64 {
        self.per_op.iter().map(|o| o.ops).sum()
    }

    /// Total schedule rounds across all kinds (the latency count).
    pub fn rounds(&self) -> u64 {
        self.per_op.iter().map(|o| o.rounds).sum()
    }

    /// Total payload bytes received, summed over the view's ranks.
    pub fn bytes(&self) -> u64 {
        self.per_op.iter().map(|o| o.bytes).sum()
    }

    /// Average payload bytes received per rank — the volume that bounds the
    /// parallel communication time of a symmetric collective schedule.
    ///
    /// Returned as an `f64` average: the earlier integer division floored
    /// sub-rank-count payloads to 0 bytes, silently dropping the β term of
    /// [`CommStats::modeled_seconds`] for small messages — exactly the
    /// regime where the scaling figures' latency/bandwidth split matters.
    pub fn bytes_per_rank(&self) -> f64 {
        self.bytes() as f64 / self.ranks.max(1) as f64
    }

    /// Counter deltas since `earlier` (the rank count carries over).
    pub fn since(&self, earlier: &CommStats) -> CommStats {
        let mut out = CommStats { ranks: self.ranks, per_op: Default::default() };
        for i in 0..COLLECTIVE_KINDS {
            out.per_op[i] = self.per_op[i].since(&earlier.per_op[i]);
        }
        out
    }

    /// Modeled communication seconds under an α–β model: `alpha` seconds
    /// per round plus `beta` seconds per byte received by
    /// a rank.
    pub fn modeled_seconds(&self, alpha: f64, beta: f64) -> f64 {
        self.rounds() as f64 * alpha + self.bytes_per_rank() * beta
    }
}

// Snapshots cross the process boundary when the multi-process backend
// reports per-rank counters back to the parent.
impl Wire for OpStats {
    fn wire_write(&self, out: &mut Vec<u8>) {
        self.ops.wire_write(out);
        self.rounds.wire_write(out);
        self.bytes.wire_write(out);
    }
    fn wire_read(r: &mut WireCursor<'_>) -> Self {
        OpStats { ops: u64::wire_read(r), rounds: u64::wire_read(r), bytes: u64::wire_read(r) }
    }
}

impl Wire for CommStats {
    fn wire_write(&self, out: &mut Vec<u8>) {
        self.ranks.wire_write(out);
        self.per_op.wire_write(out);
    }
    fn wire_read(r: &mut WireCursor<'_>) -> Self {
        CommStats { ranks: u64::wire_read(r), per_op: Wire::wire_read(r) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_snapshot() {
        let cell = StatsCell::default();
        cell.record(Collective::Allreduce, 3, 100);
        cell.record(Collective::Allreduce, 3, 20);
        cell.record(Collective::Alltoallv, 1, 8);
        let red = cell.op_snapshot(Collective::Allreduce);
        assert_eq!(red, OpStats { ops: 2, rounds: 6, bytes: 120 });
        let a2a = cell.op_snapshot(Collective::Alltoallv);
        assert_eq!(a2a, OpStats { ops: 1, rounds: 1, bytes: 8 });
        assert_eq!(cell.op_snapshot(Collective::Exscan), OpStats::default());
    }

    #[test]
    fn rank_views_sum_bytes_and_keep_logical_counts() {
        let cells = [StatsCell::default(), StatsCell::default()];
        cells[0].record(Collective::Allgather, 1, 32);
        cells[1].record(Collective::Allgather, 1, 32);
        assert_eq!(cells[0].snapshot().ranks, 1);
        let s = CommStats::from_rank_views(&cells.each_ref().map(StatsCell::snapshot));
        assert_eq!(s.ranks, 2);
        assert_eq!(s.op(Collective::Allgather), OpStats { ops: 1, rounds: 1, bytes: 64 });
        assert_eq!(s.collectives(), 1);
        assert_eq!(s.rounds(), 1);
        assert_eq!(s.bytes(), 64);
        assert_eq!(s.bytes_per_rank(), 32.0);
    }

    #[test]
    fn bytes_per_rank_keeps_sub_rank_payloads() {
        // Regression: 3 bytes over 4 ranks used to floor to 0 and erase
        // the β term; the average must stay positive.
        let mut s = CommStats { ranks: 4, per_op: Default::default() };
        s.per_op[Collective::Alltoallv as usize] = OpStats { ops: 1, rounds: 1, bytes: 3 };
        assert_eq!(s.bytes_per_rank(), 0.75);
        let t = s.modeled_seconds(0.0, 1.0);
        assert!(t > 0.0, "β term must survive bytes < ranks, got {t}");
    }

    #[test]
    fn from_rank_views_takes_logical_counts_from_rank_zero() {
        let mut a = CommStats { ranks: 1, per_op: Default::default() };
        a.per_op[Collective::Allreduce as usize] = OpStats { ops: 2, rounds: 4, bytes: 100 };
        let mut b = a;
        b.per_op[Collective::Allreduce as usize].bytes = 60;
        let s = CommStats::from_rank_views(&[a, b]);
        assert_eq!(s.ranks, 2);
        assert_eq!(s.op(Collective::Allreduce), OpStats { ops: 2, rounds: 4, bytes: 160 });
        assert_eq!(s.bytes_per_rank(), 80.0);
    }

    #[test]
    fn comm_stats_roundtrip_the_wire() {
        let mut s = CommStats { ranks: 3, per_op: Default::default() };
        s.per_op[Collective::Exscan as usize] = OpStats { ops: 1, rounds: 2, bytes: 16 };
        let back = crate::wire::from_wire::<CommStats>(&crate::wire::to_wire(&s));
        assert_eq!(back, s);
    }

    #[test]
    fn since_diffs_every_kind() {
        let cell = StatsCell::default();
        cell.record(Collective::Allreduce, 2, 100);
        let a = cell.snapshot();
        cell.record(Collective::Allreduce, 2, 80);
        cell.record(Collective::Alltoallv, 1, 50);
        let b = cell.snapshot();
        let d = b.since(&a);
        assert_eq!(d.op(Collective::Allreduce), OpStats { ops: 1, rounds: 2, bytes: 80 });
        assert_eq!(d.op(Collective::Alltoallv), OpStats { ops: 1, rounds: 1, bytes: 50 });
        assert_eq!(d.collectives(), 2);
    }

    #[test]
    fn modeled_seconds_is_linear_in_rounds_and_per_rank_bytes() {
        let mut s = CommStats { ranks: 4, per_op: Default::default() };
        s.per_op[Collective::Allreduce as usize] =
            OpStats { ops: 5, rounds: 10, bytes: 4000 };
        let t = s.modeled_seconds(1e-5, 1e-9);
        assert!((t - (10.0 * 1e-5 + 1000.0 * 1e-9)).abs() < 1e-15);
    }

    #[test]
    fn default_stats_are_zero_and_safe() {
        let s = CommStats::default();
        assert_eq!(s.collectives(), 0);
        assert_eq!(s.bytes_per_rank(), 0.0, "no division by zero ranks");
    }
}
