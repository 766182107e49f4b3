//! Lockstep validation of collective call sequences: [`CheckedComm`].
//!
//! The SPMD contract (see [`Comm`]) says every rank issues the same
//! collectives in the same order with compatible arguments. When code
//! breaks that contract, today's failure modes are terrible: the thread
//! backend deadlocks (a rank waits for a message its peer never sends)
//! and the process backend panics with a frame-desync error at whichever
//! rank happens to read the mismatched frame first. [`CheckedComm`] turns
//! call-sequence divergence into a typed [`ProtocolError`] naming the
//! diverging ranks, raised on **every** rank at the first diverging call,
//! on both backends.
//!
//! Mechanism: before forwarding a collective to the inner communicator,
//! every rank contributes its call signature `(call counter, collective
//! kind, detail)` to a digest allgather **on the inner comm**. The digest
//! is the same wire operation regardless of which user-level collective
//! the rank was about to issue, so the side channel itself stays aligned
//! even when the user calls diverge; every rank then holds the full
//! signature table and, on mismatch, panics with the same
//! [`ProtocolError`] simultaneously — no rank is left blocked. The
//! `detail` slot carries what must agree per collective: element count
//! for the typed reductions (a length mismatch would otherwise silently
//! zip-truncate), the root for broadcast, the fan-out for alltoallv.
//!
//! Cost: one extra small allgather per collective — fine for tests and
//! debugging sessions ([`run_spmd_checked`] / [`run_spmd_proc_checked`]),
//! not for the bench hot path. What the digest cannot catch: a rank that
//! simply *stops* calling collectives (returns early) — that remains the
//! backends' liveness problem (EOF detection / the parent deadline on
//! processes, communicator poisoning on threads — DESIGN.md §10).

use std::cell::{Cell, RefCell};

use crate::proc::{run_spmd_proc, ProcComm, ProcError};
use crate::stats::CommStats;
use crate::thread::{run_spmd, ThreadComm};
use crate::wire::{Wire, WireCursor};
use crate::Comm;

/// Which checked collective a rank entered. Ids are wire-stable, and each
/// allreduce *variant* is distinct: a sum-vs-max divergence would not
/// hang (the wire traffic is identical), it would silently disagree —
/// exactly the kind of bug a lockstep check exists to surface.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u64)]
pub enum CheckedCall {
    Barrier = 1,
    Allgather = 2,
    Alltoallv = 3,
    Allreduce = 4,
    AllreduceSumF64 = 5,
    AllreduceMaxF64 = 6,
    AllreduceMinF64 = 7,
    AllreduceSumU64 = 8,
    ExscanSumU64 = 9,
    Broadcast = 10,
}

/// Human-readable name for a wire call id: the exact [`Comm`] method
/// name. Used for [`ProtocolError`] display and by the static-protocol
/// refinement test to compare a runtime trace against `geo-analyze`'s
/// collective-kind alphabet.
pub fn call_name(id: u64) -> &'static str {
    match id {
        1 => "barrier",
        2 => "allgather",
        3 => "alltoallv",
        4 => "allreduce",
        5 => "allreduce_sum_f64",
        6 => "allreduce_max_f64",
        7 => "allreduce_min_f64",
        8 => "allreduce_sum_u64",
        9 => "exscan_sum_u64",
        10 => "broadcast",
        _ => "unknown-collective",
    }
}

/// A lockstep check failed: at call index [`ProtocolError::seq`], the
/// ranks did not all issue the same collective with compatible arguments.
///
/// On the thread backend this is the panic payload re-propagated by
/// [`run_spmd`] (downcast it from `catch_unwind`'s error); on the process
/// backend it crosses the control socket typed and surfaces as
/// [`ProcError::Protocol`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolError {
    /// Per-rank collective call counter at which the divergence occurred
    /// (0 = the first checked collective of the job).
    pub seq: u64,
    /// Ranks whose signature disagrees with the majority (ties resolved
    /// toward the lowest-ranked signature, so at p = 2 rank 0 is the
    /// reference). Identical on every rank.
    pub diverging: Vec<usize>,
    /// Per-rank `(call id, detail)` signatures at the diverging index —
    /// `calls[r]` is what rank `r` issued.
    pub calls: Vec<(u64, u64)>,
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SPMD collective call #{} diverged across ranks (diverging: {:?}): ",
            self.seq, self.diverging
        )?;
        for (r, (call, detail)) in self.calls.iter().enumerate() {
            if r > 0 {
                write!(f, ", ")?;
            }
            write!(f, "rank {r}: {}({detail})", call_name(*call))?;
        }
        Ok(())
    }
}

impl std::error::Error for ProtocolError {}

impl Wire for ProtocolError {
    fn wire_write(&self, out: &mut Vec<u8>) {
        self.seq.wire_write(out);
        self.diverging.wire_write(out);
        self.calls.wire_write(out);
    }
    fn wire_read(r: &mut WireCursor<'_>) -> Self {
        ProtocolError {
            seq: u64::wire_read(r),
            diverging: Vec::<usize>::wire_read(r),
            calls: Vec::<(u64, u64)>::wire_read(r),
        }
    }
}

/// A [`Comm`] wrapper that lockstep-validates every collective call
/// across ranks before forwarding it to the inner communicator. Wrap each
/// rank's communicator ([`CheckedComm::new`]), or use the
/// [`run_spmd_checked`] / [`run_spmd_proc_checked`] entry points.
#[derive(Debug)]
pub struct CheckedComm<C: Comm> {
    inner: C,
    /// Count of checked collectives issued by this rank.
    calls: Cell<u64>,
    /// Call-id trace of every checked collective, in issue order (the
    /// runtime side of the static-protocol refinement contract).
    trace: RefCell<Vec<u64>>,
}

impl<C: Comm> CheckedComm<C> {
    /// Wrap `inner`; every rank of the job must wrap (the digest is
    /// itself a collective).
    pub fn new(inner: C) -> Self {
        CheckedComm { inner, calls: Cell::new(0), trace: RefCell::new(Vec::new()) }
    }

    /// The wire call ids ([`CheckedCall`] values) of every collective this
    /// rank has issued so far, in order. Map through [`call_name`] to get
    /// the collective-kind sequence `geo-analyze protocol` summarizes.
    pub fn trace_ids(&self) -> Vec<u64> {
        self.trace.borrow().clone()
    }

    /// The wrapped communicator (e.g. for backend-specific calls like
    /// [`ProcComm::probe_exchange`]).
    pub fn inner(&self) -> &C {
        &self.inner
    }

    /// Unwrap.
    pub fn into_inner(self) -> C {
        self.inner
    }

    /// Exchange call signatures and fail every rank on divergence.
    fn check(&self, call: CheckedCall, detail: u64) {
        let seq = self.calls.get();
        self.calls.set(seq + 1);
        self.trace.borrow_mut().push(call as u64);
        let sig = (seq, call as u64, detail);
        let table = self.inner.allgather(vec![sig]);
        let sigs: Vec<(u64, u64, u64)> = table.iter().map(|row| row[0]).collect();
        if sigs.iter().all(|s| *s == sigs[0]) {
            return;
        }
        // Majority signature is the reference; ties resolve to the
        // lowest rank's, so every rank computes the identical verdict
        // from the identical table.
        let mut best = sigs[0];
        let mut best_count = 0usize;
        for cand in &sigs {
            let count = sigs.iter().filter(|s| *s == cand).count();
            if count > best_count {
                best = *cand;
                best_count = count;
            }
        }
        let diverging: Vec<usize> =
            sigs.iter().enumerate().filter(|(_, s)| **s != best).map(|(r, _)| r).collect();
        let err = ProtocolError {
            seq,
            diverging,
            calls: sigs.iter().map(|&(_, call, detail)| (call, detail)).collect(),
        };
        // Raised on every rank at once: the thread runner re-propagates
        // the typed payload, the process runner forwards it over the
        // control socket as a PROTOCOL frame.
        std::panic::panic_any(err);
    }
}

impl<C: Comm> Comm for CheckedComm<C> {
    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn size(&self) -> usize {
        self.inner.size()
    }

    fn barrier(&self) {
        self.check(CheckedCall::Barrier, 0);
        self.inner.barrier();
    }

    fn allgather<T: Wire>(&self, local: Vec<T>) -> Vec<Vec<T>> {
        // Per-rank element counts legitimately differ here: detail 0.
        self.check(CheckedCall::Allgather, 0);
        self.inner.allgather(local)
    }

    fn alltoallv<T: Wire>(&self, sends: Vec<Vec<T>>) -> Vec<Vec<T>> {
        self.check(CheckedCall::Alltoallv, sends.len() as u64);
        self.inner.alltoallv(sends)
    }

    fn stats(&self) -> CommStats {
        self.inner.stats()
    }

    fn allreduce<T, F>(&self, value: T, combine: F) -> T
    where
        T: Wire,
        F: Fn(T, T) -> T,
    {
        self.check(CheckedCall::Allreduce, 0);
        self.inner.allreduce(value, combine)
    }

    fn allreduce_sum_f64(&self, buf: &mut [f64]) {
        // The element count is part of the contract: mismatched lengths
        // would silently zip-truncate in the butterfly's combine.
        self.check(CheckedCall::AllreduceSumF64, buf.len() as u64);
        self.inner.allreduce_sum_f64(buf);
    }

    fn allreduce_max_f64(&self, buf: &mut [f64]) {
        self.check(CheckedCall::AllreduceMaxF64, buf.len() as u64);
        self.inner.allreduce_max_f64(buf);
    }

    fn allreduce_min_f64(&self, buf: &mut [f64]) {
        self.check(CheckedCall::AllreduceMinF64, buf.len() as u64);
        self.inner.allreduce_min_f64(buf);
    }

    fn allreduce_sum_u64(&self, buf: &mut [u64]) {
        self.check(CheckedCall::AllreduceSumU64, buf.len() as u64);
        self.inner.allreduce_sum_u64(buf);
    }

    fn exscan_sum_u64(&self, value: u64) -> u64 {
        self.check(CheckedCall::ExscanSumU64, 0);
        self.inner.exscan_sum_u64(value)
    }

    fn broadcast<T: Wire>(&self, root: usize, value: Option<T>) -> T {
        self.check(CheckedCall::Broadcast, root as u64);
        self.inner.broadcast(root, value)
    }
}

/// [`run_spmd`] with every rank's communicator wrapped in a
/// [`CheckedComm`]: the debug/test entry point. A diverging call sequence
/// panics the job with a [`ProtocolError`] payload instead of hanging.
pub fn run_spmd_checked<R, F>(p: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(CheckedComm<ThreadComm>) -> R + Sync,
{
    run_spmd(p, move |c| f(CheckedComm::new(c)))
}

/// [`run_spmd_proc`] with every rank's communicator wrapped in a
/// [`CheckedComm`]: a diverging call sequence fails the job with
/// [`ProcError::Protocol`] instead of a frame desync or a timeout.
pub fn run_spmd_proc_checked<R, F>(p: usize, f: F) -> Result<Vec<R>, ProcError>
where
    R: Wire,
    F: Fn(CheckedComm<ProcComm>) -> R,
{
    run_spmd_proc(p, move |c| f(CheckedComm::new(c)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{from_wire, to_wire};

    #[test]
    fn protocol_error_roundtrips_on_the_wire() {
        let e = ProtocolError { seq: 7, diverging: vec![1, 3], calls: vec![(1, 0), (5, 4)] };
        assert_eq!(from_wire::<ProtocolError>(&to_wire(&e)), e);
        let msg = e.to_string();
        assert!(msg.contains("call #7") && msg.contains("barrier(0)"), "{msg}");
        assert!(msg.contains("allreduce_sum_f64(4)"), "{msg}");
    }

    #[test]
    fn checked_comm_is_transparent_for_conforming_programs() {
        let checked = run_spmd_checked(4, |c| {
            let mut buf = vec![c.rank() as f64, 1.0];
            c.allreduce_sum_f64(&mut buf);
            let ex = c.exscan_sum_u64(c.rank() as u64);
            let bc = c.broadcast(2, (c.rank() == 2).then_some(9u64));
            c.barrier();
            let all = c.allgather(vec![c.rank() as u64; c.rank() + 1]);
            (buf, ex, bc, all.len())
        });
        let plain = run_spmd(4, |c| {
            let mut buf = vec![c.rank() as f64, 1.0];
            c.allreduce_sum_f64(&mut buf);
            let ex = c.exscan_sum_u64(c.rank() as u64);
            let bc = c.broadcast(2, (c.rank() == 2).then_some(9u64));
            c.barrier();
            let all = c.allgather(vec![c.rank() as u64; c.rank() + 1]);
            (buf, ex, bc, all.len())
        });
        assert_eq!(checked, plain);
    }

    #[test]
    fn mismatched_collective_kind_is_a_typed_error_on_threads() {
        let err = std::panic::catch_unwind(|| {
            run_spmd_checked(3, |c| {
                if c.rank() == 1 {
                    c.barrier();
                } else {
                    let mut buf = vec![1.0, 2.0];
                    c.allreduce_sum_f64(&mut buf);
                }
                0u64
            })
        })
        .expect_err("diverging job must fail");
        let e = err.downcast_ref::<ProtocolError>().expect("typed ProtocolError payload");
        assert_eq!(e.seq, 0);
        assert_eq!(e.diverging, vec![1]);
        assert_eq!(e.calls[1].0, CheckedCall::Barrier as u64);
        assert_eq!(e.calls[0], (CheckedCall::AllreduceSumF64 as u64, 2));
    }

    #[test]
    fn mismatched_element_count_is_detected_not_truncated() {
        let err = std::panic::catch_unwind(|| {
            run_spmd_checked(3, |c| {
                // Rank 0 brings a short buffer: same collective, wrong m.
                let m = if c.rank() == 0 { 3 } else { 4 };
                let mut buf = vec![1.0f64; m];
                c.allreduce_sum_f64(&mut buf);
                buf.len()
            })
        })
        .expect_err("length divergence must fail");
        let e = err.downcast_ref::<ProtocolError>().expect("typed ProtocolError payload");
        assert_eq!(e.diverging, vec![0]);
        assert_eq!(e.calls[0], (CheckedCall::AllreduceSumF64 as u64, 3));
        assert_eq!(e.calls[1], (CheckedCall::AllreduceSumF64 as u64, 4));
    }

    #[test]
    fn divergence_after_agreeing_prefix_reports_the_right_call_index() {
        let err = std::panic::catch_unwind(|| {
            run_spmd_checked(2, |c| {
                c.barrier();
                let _ = c.exscan_sum_u64(1);
                // Call #2 diverges: different broadcast roots.
                let root = c.rank();
                let _ = c.broadcast(root, Some(1u64));
                0u64
            })
        })
        .expect_err("root divergence must fail");
        let e = err.downcast_ref::<ProtocolError>().expect("typed ProtocolError payload");
        assert_eq!(e.seq, 2);
        assert_eq!(e.diverging, vec![1], "lowest rank is the tie reference at p=2");
        assert_eq!(e.calls[0], (CheckedCall::Broadcast as u64, 0));
        assert_eq!(e.calls[1], (CheckedCall::Broadcast as u64, 1));
    }
}
