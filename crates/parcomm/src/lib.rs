//! SPMD communication layer: the workspace's stand-in for MPI.
//!
//! The paper's Geographer is an MPI code built on LAMA; every communication
//! it performs is a collective (global reductions, one global sort/exchange).
//! This crate provides the same programming model on one machine: a
//! [`Comm`] trait with MPI-shaped collectives, whose algorithms are written
//! **once**, in [`collectives`], over a point-to-point
//! [`Transport`](collectives::Transport). The communicators are transports
//! and nothing more:
//!
//! * [`SelfComm`] — the single rank, which has no peer to talk to;
//! * [`thread::ThreadComm`] — `p` OS threads acting as ranks, values moved
//!   between them through per-sender FIFO mailboxes, never encoded;
//! * [`proc::ProcComm`] — `p` forked processes acting as ranks, values
//!   [`Wire`]-encoded into frames over Unix-domain sockets;
//!
//! and [`CheckedComm`] wraps any of them with a lockstep check.
//!
//! Algorithms written against [`Comm`] are structured exactly like their MPI
//! counterparts: each rank owns a shard of the data and all cross-rank data
//! flow is explicit. Because every communicator runs the same schedules
//! with the same rank-ordered combine, results — and the per-collective
//! `(ops, rounds, bytes)` counters ([`CommStats`]) — are identical across
//! them at equal `p` by construction. The volumes match real MPI
//! implementations: `O(m·log p)` received bytes per rank for an
//! `m`-element reduction.
//!
//! The counters feed the α–β cost model used by the scaling experiments
//! (see DESIGN.md §3: on a 1-core CI box, wall-clock speedup is not
//! observable, so scaling figures report modeled time from measured
//! communication volume and per-rank work).

pub mod checked;
pub mod collectives;
pub mod proc;
pub mod stats;
pub mod thread;
pub mod wire;

pub use checked::{run_spmd_checked, run_spmd_proc_checked, CheckedCall, CheckedComm, ProtocolError};
pub use proc::{measure_alpha_beta, run_spmd_proc, MeasuredAlphaBeta, ProcComm, ProcError};
pub use stats::{Collective, CommStats, OpStats};
pub use thread::{run_spmd, ThreadComm};
pub use wire::{from_wire, to_wire, Wire, WireCursor};

/// An MPI-like communicator. All collectives must be called by every rank
/// of the communicator, in the same order (the usual MPI contract).
///
/// Implemented for every [`collectives::Transport`] by the one generic layer
/// in [`collectives`], and by [`CheckedComm`] around any `Comm`. Cross-rank
/// floating-point reductions follow a *fixed reduction tree* that depends on
/// the rank count only — exactly the associativity caveat of `MPI_Allreduce`.
#[deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo)]
pub trait Comm {
    /// This rank's id in `0..size()`.
    fn rank(&self) -> usize;

    /// Number of ranks.
    fn size(&self) -> usize;

    /// Block until every rank has entered the barrier.
    fn barrier(&self);

    /// Gather every rank's `local` vector on every rank
    /// (`result[r]` = rank `r`'s contribution).
    fn allgather<T: Wire>(&self, local: Vec<T>) -> Vec<Vec<T>>;

    /// Personalized all-to-all: `sends[r]` goes to rank `r`; the result's
    /// entry `s` is what rank `s` sent to this rank.
    fn alltoallv<T: Wire>(&self, sends: Vec<Vec<T>>) -> Vec<Vec<T>>;

    /// Snapshot of **this rank's** communication counters (monotone; diff
    /// two snapshots to measure a phase). Ops and rounds are the same on
    /// every rank; bytes are what this rank received. Combine the ranks'
    /// snapshots with [`CommStats::from_rank_views`] for a job-wide view.
    fn stats(&self) -> CommStats;

    /// Generic allreduce with a commutative, associative `combine`.
    fn allreduce<T, F>(&self, value: T, combine: F) -> T
    where
        T: Wire,
        F: Fn(T, T) -> T;

    /// Element-wise global sum of a vector, in place. This is the
    /// `globalSumVector` of Algorithm 1 (the only communication inside the
    /// assign-and-balance loop).
    fn allreduce_sum_f64(&self, buf: &mut [f64]);

    /// Element-wise global min, in place.
    fn allreduce_min_f64(&self, buf: &mut [f64]);

    /// Exclusive prefix sum over ranks: rank r receives Σ_{s<r} value_s.
    fn exscan_sum_u64(&self, value: u64) -> u64;
}

/// Fail this rank with `payload`, without the panic hook: the unwind is
/// the one `panic_any` starts — `thread::panicking()` holds, the runners
/// catch and downcast it — but nothing is printed and, the reason it
/// exists, the hook's process-global lock is never taken. A forked worker
/// may have inherited that lock held (DESIGN.md §10), so the failures this
/// crate raises *itself* — a dead peer, a lockstep divergence — go
/// through here.
pub(crate) fn raise<P: std::any::Any + Send>(payload: P) -> ! {
    std::panic::resume_unwind(Box::new(payload))
}

/// The trivial communicator: one rank, nobody to talk to. Its collectives
/// are the generic layer's `p = 1` paths, which return their input and
/// record one op of zero rounds and zero bytes — what any size-1
/// communicator records, so p = 1 runs report the same per-kind op counts
/// whichever communicator they ran on.
///
/// The counters live in a thread-local cell shared by all `SelfComm`
/// values on a thread — the instances are stateless and
/// indistinguishable, and [`CommStats`] snapshots are diffed around
/// phases, so sharing monotone counters is observationally equivalent to
/// per-instance cells.
#[derive(Debug, Clone, Default)]
pub struct SelfComm;

thread_local! {
    static SELF_STATS: stats::StatsCell = stats::StatsCell::default();
}

impl collectives::Transport for SelfComm {
    fn rank(&self) -> usize {
        0
    }

    fn size(&self) -> usize {
        1
    }

    fn send<T: Wire>(&self, _tag: collectives::Tag, to: usize, _value: T) {
        unreachable!("the single rank has no peer {to} to send to")
    }

    fn recv<T: Wire>(&self, _tag: collectives::Tag, from: usize) -> T {
        unreachable!("the single rank has no peer {from} to receive from")
    }

    fn with_stats<R>(&self, f: impl FnOnce(&stats::StatsCell) -> R) -> R {
        SELF_STATS.with(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_comm_identity() {
        let c = SelfComm;
        assert_eq!(c.rank(), 0);
        assert_eq!(c.size(), 1);
        c.barrier();
        let before = c.stats();
        assert_eq!(c.allgather(vec![1, 2, 3]), vec![vec![1, 2, 3]]);
        assert_eq!(c.alltoallv(vec![vec![9]]), vec![vec![9]]);
        let mut buf = [1.0, 2.0];
        c.allreduce_sum_f64(&mut buf);
        assert_eq!(buf, [1.0, 2.0]);
        assert_eq!(c.exscan_sum_u64(5), 0);
        assert_eq!(c.allreduce(3, |a, b| a + b), 3);
        // Every collective kind records one op of zero rounds/bytes —
        // exactly what a size-1 ThreadComm records for the same calls.
        let d = c.stats().since(&before);
        assert_eq!(d.rounds(), 0);
        assert_eq!(d.bytes(), 0);
        assert_eq!(d.op(Collective::Allgather).ops, 1);
        assert_eq!(d.op(Collective::Alltoallv).ops, 1);
        assert_eq!(d.op(Collective::Allreduce).ops, 2);
        assert_eq!(d.op(Collective::Exscan).ops, 1);
    }

    #[test]
    fn self_comm_op_counts_match_a_size_one_thread_comm() {
        let sc = SelfComm;
        let before = sc.stats();
        let mut buf = vec![1.0f64; 3];
        sc.allreduce_sum_f64(&mut buf);
        let _ = sc.exscan_sum_u64(2);
        let _ = sc.allgather(vec![1u8]);
        let _ = sc.alltoallv(vec![vec![2u8]]);
        let self_delta = sc.stats().since(&before);
        let thread_delta = run_spmd(1, |c| {
            let before = c.stats();
            let mut buf = vec![1.0f64; 3];
            c.allreduce_sum_f64(&mut buf);
            let _ = c.exscan_sum_u64(2);
            let _ = c.allgather(vec![1u8]);
            let _ = c.alltoallv(vec![vec![2u8]]);
            c.stats().since(&before)
        })
        .remove(0);
        assert_eq!(self_delta.per_op, thread_delta.per_op);
    }
}
