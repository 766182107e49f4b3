//! Lockstep validation of collective call sequences: [`CheckedComm`].
//!
//! The SPMD contract (see [`Comm`]) says every rank issues the same
//! collectives in the same order with compatible arguments. When code breaks
//! that contract, today's failure modes are terrible: the thread backend
//! deadlocks (a rank waits for a message its peer never sends) and the
//! process backend panics with a frame-desync error at whichever rank happens
//! to read the mismatched frame first. [`CheckedComm`] turns call-sequence
//! divergence into a typed [`ProtocolError`] naming the diverging ranks,
//! raised on **every** rank at the first diverging call, on both backends.
//!
//! Mechanism: before forwarding a collective to the inner communicator,
//! every rank contributes its call signature `(call counter, collective
//! kind, detail)` to a digest allgather **on the inner comm**. The digest
//! is the same wire operation regardless of which user-level collective
//! the rank was about to issue, so the side channel itself stays aligned
//! even when the user calls diverge; every rank then holds the full
//! signature table and, on mismatch, raises the same [`ProtocolError`]
//! — no rank is left blocked. The `detail` slot carries what must agree
//! per collective: element count for the typed reductions (a length
//! mismatch would otherwise silently zip-truncate), the fan-out for
//! alltoallv.
//!
//! A rank that simply *stops* calling collectives (returns early) is
//! caught the same way: a [`CheckedComm`] dropped without unwinding
//! contributes a [`CheckedCall::Finalize`] signature to one more digest,
//! which meets the peers' next collective (or their own finalize, when the
//! job conformed). A rank that is unwinding from a panic contributes
//! nothing — that stays the backends' liveness problem (communicator
//! poisoning on threads, EOF detection on processes — DESIGN.md §10).
//!
//! Cost: one extra small allgather per collective plus one per job — fine
//! for tests and debugging sessions ([`run_spmd_checked`] /
//! [`run_spmd_proc_checked`]), not for the bench hot path.

use std::cell::{Cell, RefCell};

use crate::proc::{run_spmd_proc, ProcComm, ProcError};
use crate::stats::CommStats;
use crate::thread::{run_spmd, ThreadComm};
use crate::wire::{Wire, WireCursor};
use crate::Comm;

/// Which checked collective a rank entered. Ids are wire-stable, and each
/// allreduce *variant* is distinct: a sum-vs-min divergence would not
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
    AllreduceMinF64 = 7,
    ExscanSumU64 = 9,
    /// Not a [`Comm`] method: what a [`CheckedComm`] contributes when it is
    /// dropped, so a rank that returned early diverges from its peers'
    /// next collective instead of leaving them blocked.
    Finalize = 11,
}

/// Human-readable name for a wire call id: the exact [`Comm`] method
/// name (`finalize` for the drop-time digest). Used for [`ProtocolError`]
/// display and to read a [`CheckedComm::trace_ids`] trace.
pub fn call_name(id: u64) -> &'static str {
    match id {
        1 => "barrier",
        2 => "allgather",
        3 => "alltoallv",
        4 => "allreduce",
        5 => "allreduce_sum_f64",
        7 => "allreduce_min_f64",
        9 => "exscan_sum_u64",
        11 => "finalize",
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
    /// Call-id trace of every checked collective, in issue order.
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
    /// the collective-kind sequence.
    pub fn trace_ids(&self) -> Vec<u64> {
        self.trace.borrow().clone()
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
        // control socket as a PROTOCOL frame. Neither prints it, so rank 0
        // says what diverged — before anyone raises: the first rank to
        // unwind poisons a thread job (closes its sockets, on processes)
        // and would cut a slower rank 0 short. Nobody leaves a barrier
        // before rank 0 has entered it, and every rank holds the same
        // table, so they all take this path.
        if self.inner.rank() == 0 {
            let line = format!("{err}\n");
            eprint!("{line}");
        }
        self.inner.barrier();
        crate::raise(err)
    }
}

/// The finalize digest: a rank that leaves the job normally says so, and a
/// peer still issuing collectives sees `finalize` against its own call.
impl<C: Comm> Drop for CheckedComm<C> {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            self.check(CheckedCall::Finalize, 0);
        }
    }
}

#[deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo)]
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

    fn allreduce_min_f64(&self, buf: &mut [f64]) {
        self.check(CheckedCall::AllreduceMinF64, buf.len() as u64);
        self.inner.allreduce_min_f64(buf);
    }

    fn exscan_sum_u64(&self, value: u64) -> u64 {
        self.check(CheckedCall::ExscanSumU64, 0);
        self.inner.exscan_sum_u64(value)
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

    /// Run `body` on a helper thread and give it 10 s: an implementation
    /// that leaves a rank blocked fails the test instead of wedging tier-1.
    fn within_deadline<T: Send + 'static>(body: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(std::panic::catch_unwind(std::panic::AssertUnwindSafe(body)));
        });
        match rx.recv_timeout(std::time::Duration::from_secs(10)) {
            Ok(Ok(v)) => v,
            Ok(Err(payload)) => std::panic::resume_unwind(payload),
            Err(_) => panic!("SPMD job still blocked after 10 s"),
        }
    }

    /// The [`ProtocolError`] a diverging thread-backend job fails with.
    fn thread_divergence<R: Send + 'static>(
        p: usize,
        f: impl Fn(CheckedComm<ThreadComm>) -> R + Sync + Send + 'static,
    ) -> ProtocolError {
        let payload = within_deadline(move || {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_spmd_checked(p, f)))
                .err()
                .expect("diverging job must fail")
        });
        payload.downcast_ref::<ProtocolError>().expect("typed ProtocolError payload").clone()
    }

    #[test]
    fn checked_comm_is_transparent_for_conforming_programs() {
        fn body<C: Comm>(c: &C) -> (Vec<f64>, u64, u64, usize) {
            let mut buf = vec![c.rank() as f64, 1.0];
            c.allreduce_sum_f64(&mut buf);
            let ex = c.exscan_sum_u64(c.rank() as u64);
            let top = c.allreduce(c.rank() as u64, u64::max);
            c.barrier();
            let all = c.allgather(vec![c.rank() as u64; c.rank() + 1]);
            (buf, ex, top, all.len())
        }
        let checked = within_deadline(|| run_spmd_checked(4, |c| (body(&c), c.trace_ids())));
        let plain = run_spmd(4, |c| body(&c));
        // The finalize digest runs after the closure body: it neither
        // changes a result nor shows in the trace a rank can read.
        let calls = [
            CheckedCall::AllreduceSumF64,
            CheckedCall::ExscanSumU64,
            CheckedCall::Allreduce,
            CheckedCall::Barrier,
            CheckedCall::Allgather,
        ];
        let trace: Vec<u64> = calls.iter().map(|&c| c as u64).collect();
        for (r, (result, ids)) in checked.into_iter().enumerate() {
            assert_eq!(result, plain[r]);
            assert_eq!(ids, trace, "rank {r}");
        }
    }

    #[test]
    fn rank_that_stops_early_meets_its_peers_next_digest() {
        // Rank 0 issues one more barrier than rank 1, whose communicator
        // is dropped instead: `barrier` against `finalize` at call #1.
        let e = thread_divergence(2, |c| {
            c.barrier();
            if c.rank() == 0 {
                c.barrier();
            }
        });
        assert_eq!(e.seq, 1);
        assert_eq!(e.diverging, vec![1], "the early rank diverges from the reference");
        assert_eq!(e.calls, vec![(CheckedCall::Barrier as u64, 0), (CheckedCall::Finalize as u64, 0)]);
        assert!(e.to_string().contains("rank 1: finalize(0)"), "{e}");
    }

    #[test]
    fn rank_that_stops_early_is_a_protocol_error_on_processes() {
        let err = within_deadline(|| {
            run_spmd_proc_checked(2, |c| {
                c.barrier();
                if c.rank() == 0 {
                    c.barrier();
                }
                0u64
            })
        })
        .expect_err("early exit must fail the job");
        match err {
            ProcError::Protocol { error, .. } => {
                assert_eq!((error.seq, error.diverging), (1, vec![1]));
                assert_eq!(error.calls[1].0, CheckedCall::Finalize as u64);
            }
            other => panic!("expected ProcError::Protocol, got: {other}"),
        }
    }

    #[test]
    fn rank_that_returns_before_any_collective_is_caught() {
        let e = thread_divergence(3, |c| {
            if c.rank() == 1 {
                return 0;
            }
            c.allgather(vec![c.rank() as u64]).len()
        });
        assert_eq!((e.seq, e.diverging), (0, vec![1]));
        assert_eq!(e.calls[1].0, CheckedCall::Finalize as u64);
        assert_eq!(e.calls[0].0, CheckedCall::Allgather as u64);
    }

    #[test]
    fn panicking_rank_contributes_no_finalize() {
        // Rank 2 unwinds mid-sequence: its drop stays silent, the peers
        // are unblocked by the poison, and the original panic surfaces —
        // not a `ProtocolError` blaming the dead rank.
        let payload = within_deadline(|| {
            std::panic::catch_unwind(|| {
                run_spmd_checked(3, |c| {
                    c.barrier();
                    if c.rank() == 2 {
                        panic!("rank 2 exploded");
                    }
                    c.barrier();
                })
            })
            .expect_err("job must fail")
        });
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"rank 2 exploded"));
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
                // Call #2 diverges: sum against min, which move the same
                // bytes and would silently disagree.
                let mut buf = [1.0];
                if c.rank() == 0 {
                    c.allreduce_sum_f64(&mut buf);
                } else {
                    c.allreduce_min_f64(&mut buf);
                }
                0u64
            })
        })
        .expect_err("variant divergence must fail");
        let e = err.downcast_ref::<ProtocolError>().expect("typed ProtocolError payload");
        assert_eq!(e.seq, 2);
        assert_eq!(e.diverging, vec![1], "lowest rank is the tie reference at p=2");
        assert_eq!(e.calls[0], (CheckedCall::AllreduceSumF64 as u64, 1));
        assert_eq!(e.calls[1], (CheckedCall::AllreduceMinF64 as u64, 1));
    }
}
