//! Threads-as-ranks communicator.
//!
//! [`run_spmd`] launches `p` OS threads, each holding a [`ThreadComm`] with
//! a distinct rank, and runs the same closure on all of them — the SPMD
//! model of an `mpirun -np p` job. A `ThreadComm` is only a
//! [`Transport`](crate::collectives::Transport): every rank owns an inbox
//! with one FIFO queue per sender, `send` boxes the value and pushes it
//! onto the receiver's queue, `recv` waits on the inbox's condvar and pops
//! it. Values are **moved** between ranks as type-erased boxes and never
//! encoded; the collective algorithms on top are the generic ones of
//! [`crate::collectives`], shared with every other communicator.
//!
//! Sends never block (the queues are unbounded), so the default
//! `sendrecv` — send, then receive — cannot deadlock here.

use std::any::Any;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use crate::collectives::Tag;
use crate::stats::StatsCell;
use crate::wire::Wire;

/// Sentinel for "no rank has poisoned the communicator".
const NOT_POISONED: usize = usize::MAX;

type Parcel = Box<dyn Any + Send>;

/// What the other ranks have sent to one rank and it has not yet taken.
#[derive(Debug)]
struct Inbox {
    /// `queues[s]` holds rank `s`'s messages to this inbox's owner, in
    /// the order sent.
    queues: Mutex<Vec<VecDeque<Parcel>>>,
    /// Signalled on every push, and by [`CommCore::poison`].
    arrived: Condvar,
}

impl Inbox {
    /// Lock the queues, poisoned or not: [`CommCore::check_poison`] panics
    /// *while holding this lock* by design, so a poisoned mutex is the
    /// ordinary state of a failed job, and the queues behind it are whole.
    fn lock(&self) -> MutexGuard<'_, Vec<VecDeque<Parcel>>> {
        self.queues.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Shared state of one communicator instance.
#[derive(Debug)]
struct CommCore {
    /// One inbox per rank.
    inboxes: Vec<Inbox>,
    /// One counter cell per rank; each rank touches only its own.
    stats: Vec<StatsCell>,
    /// Rank of the first rank that panicked, or [`NOT_POISONED`].
    ///
    /// A rank that panics never sends what its peers are waiting for;
    /// without the flag they would wait forever (and `run_spmd`'s joins
    /// would never complete). Poisoning wakes every waiter and turns its
    /// wait into a panic, so the whole SPMD job unwinds and the
    /// *original* panic can be propagated.
    poisoned: AtomicUsize,
}

impl CommCore {
    fn check_poison(&self) {
        let p = self.poisoned.load(Ordering::Acquire);
        if p != NOT_POISONED {
            // Deliberate fail-loud abort — poisoning unparks peers of a dead rank; run_spmd re-propagates the first panic (DESIGN.md §10).
            panic!("SPMD aborted: rank {p} panicked while peers were in a collective");
        }
    }

    /// Mark the communicator dead on behalf of `rank` and wake every
    /// waiter. Idempotent; only the first poisoner is recorded.
    fn poison(&self, rank: usize) {
        let _ = self.poisoned.compare_exchange(
            NOT_POISONED,
            rank,
            Ordering::Release,
            Ordering::Relaxed,
        );
        for inbox in &self.inboxes {
            // Take the queue lock before notifying so a waiter cannot slip
            // between its poison check and its wait and miss the wakeup.
            let _guard = inbox.lock();
            inbox.arrived.notify_all();
        }
    }
}

/// One rank's handle into a threads-as-ranks communicator.
#[derive(Debug, Clone)]
pub struct ThreadComm {
    core: Arc<CommCore>,
    rank: usize,
}

impl ThreadComm {
    /// Create handles for all `size` ranks of a fresh communicator.
    /// (Usually you want [`run_spmd`] instead.)
    pub fn create(size: usize) -> Vec<ThreadComm> {
        assert!(size > 0, "communicator needs at least one rank");
        let inbox = || Inbox {
            queues: Mutex::new((0..size).map(|_| VecDeque::new()).collect()),
            arrived: Condvar::new(),
        };
        let core = Arc::new(CommCore {
            inboxes: (0..size).map(|_| inbox()).collect(),
            stats: (0..size).map(|_| StatsCell::default()).collect(),
            poisoned: AtomicUsize::new(NOT_POISONED),
        });
        (0..size).map(|rank| ThreadComm { core: Arc::clone(&core), rank }).collect()
    }
}

impl crate::collectives::Transport for ThreadComm {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.core.inboxes.len()
    }

    fn send<T: Wire>(&self, _tag: Tag, to: usize, value: T) {
        let inbox = &self.core.inboxes[to];
        inbox.lock()[self.rank].push_back(Box::new(value));
        inbox.arrived.notify_all();
    }

    fn recv<T: Wire>(&self, _tag: Tag, from: usize) -> T {
        let inbox = &self.core.inboxes[self.rank];
        let mut queues = inbox.lock();
        let parcel = loop {
            // Checked under the lock on every pass: a poisoner wakes all
            // waiters without pushing anything.
            self.core.check_poison();
            if let Some(parcel) = queues[from].pop_front() {
                break parcel;
            }
            // Same policy as `Inbox::lock` for the re-acquired guard.
            queues = inbox.arrived.wait(queues).unwrap_or_else(PoisonError::into_inner);
        };
        drop(queues);
        // Fail-loud SPMD-contract check — ranks disagreeing on T must not silently reinterpret a value.
        *parcel.downcast::<T>().expect("collective type mismatch")
    }

    fn with_stats<R>(&self, f: impl FnOnce(&StatsCell) -> R) -> R {
        f(&self.core.stats[self.rank])
    }
}

/// Poisons the communicator if its rank unwinds, so peers blocked in
/// collectives abort instead of waiting forever for a message that will
/// never be sent.
struct PoisonOnPanic {
    core: Arc<CommCore>,
    rank: usize,
}

impl Drop for PoisonOnPanic {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.core.poison(self.rank);
        }
    }
}

/// Run `f` as an SPMD program on `p` ranks (threads) and return the
/// per-rank results, indexed by rank.
///
/// If any rank panics, the communicator is poisoned so surviving ranks
/// abort out of their collectives (instead of waiting on the dead rank's
/// messages), and the **first** panic is re-propagated from this call
/// with its original payload. Ranks that were aborted by the poison
/// unwind with a secondary "SPMD aborted" panic that is joined and
/// discarded.
pub fn run_spmd<R, F>(p: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(ThreadComm) -> R + Sync,
{
    let comms = ThreadComm::create(p);
    let core = Arc::clone(&comms[0].core);
    let joined: Vec<std::thread::Result<R>> = std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = comms
            .into_iter()
            .map(|comm| {
                scope.spawn(move || {
                    // Dropped on both exits, so its share of the core is
                    // released either way; it poisons the communicator
                    // only when dropped by a panic unwinding out of `f`.
                    let _guard =
                        PoisonOnPanic { core: Arc::clone(&comm.core), rank: comm.rank };
                    f(comm)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    let first_panicker = core.poisoned.load(Ordering::Acquire);
    let mut payloads: Vec<(usize, Box<dyn Any + Send>)> = Vec::new();
    let mut results = Vec::with_capacity(p);
    for (rank, r) in joined.into_iter().enumerate() {
        match r {
            Ok(v) => results.push(v),
            Err(payload) => payloads.push((rank, payload)),
        }
    }
    if let Some(pos) = payloads.iter().position(|(r, _)| *r == first_panicker) {
        // Re-raise the original panic, not the secondary aborts it caused.
        std::panic::resume_unwind(payloads.swap_remove(pos).1);
    }
    if let Some((_, payload)) = payloads.into_iter().next() {
        std::panic::resume_unwind(payload);
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{Collective, OpStats};
    use crate::Comm;

    #[test]
    fn allgather_collects_everyone() {
        let results = run_spmd(4, |c| {
            let all = c.allgather(vec![c.rank() as u64; c.rank() + 1]);
            all.iter().map(|v| v.len()).collect::<Vec<_>>()
        });
        for r in results {
            assert_eq!(r, vec![1, 2, 3, 4]);
        }
    }

    #[test]
    fn allreduce_sum_matches_serial() {
        let results = run_spmd(5, |c| {
            let mut buf = vec![c.rank() as f64, 1.0];
            c.allreduce_sum_f64(&mut buf);
            buf
        });
        for r in results {
            assert_eq!(r, vec![0.0 + 1.0 + 2.0 + 3.0 + 4.0, 5.0]);
        }
    }

    #[test]
    fn allreduce_min_over_many_rank_counts() {
        for p in 1..=9 {
            let results = run_spmd(p, |c| {
                let mut mn = vec![c.rank() as f64, -(c.rank() as f64)];
                c.allreduce_min_f64(&mut mn);
                mn
            });
            for mn in results {
                assert_eq!(mn, vec![0.0, -((p - 1) as f64)], "p={p}");
            }
        }
    }

    #[test]
    fn allreduce_identical_bits_on_every_rank() {
        // The butterfly applies one fixed reduction tree: all ranks must
        // produce bitwise-identical sums even for non-associative f64 data.
        for p in [2usize, 3, 5, 6, 7, 8] {
            let results = run_spmd(p, |c| {
                let mut buf: Vec<f64> =
                    (0..17).map(|i| 0.1 * (c.rank() * 31 + i) as f64).collect();
                c.allreduce_sum_f64(&mut buf);
                buf
            });
            for r in &results[1..] {
                assert_eq!(
                    r.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    results[0].iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    "p={p}: ranks disagree bitwise"
                );
            }
        }
    }

    #[test]
    fn alltoallv_routes_correctly() {
        // Rank s sends the value 100*s + r to rank r.
        let results = run_spmd(4, |c| {
            let sends: Vec<Vec<u64>> =
                (0..4).map(|r| vec![100 * c.rank() as u64 + r as u64]).collect();
            c.alltoallv(sends)
        });
        for (r, recv) in results.iter().enumerate() {
            for (s, v) in recv.iter().enumerate() {
                assert_eq!(v, &vec![100 * s as u64 + r as u64]);
            }
        }
    }

    #[test]
    fn alltoallv_with_empty_buffers() {
        let results = run_spmd(3, |c| {
            // Only rank 0 sends anything, and only to rank 2.
            let mut sends: Vec<Vec<u8>> = vec![vec![]; 3];
            if c.rank() == 0 {
                sends[2] = vec![42];
            }
            c.alltoallv(sends)
        });
        assert_eq!(results[2][0], vec![42]);
        assert!(results[0].iter().all(|v| v.is_empty()));
        assert!(results[1].iter().all(|v| v.is_empty()));
    }

    #[test]
    fn exscan_is_exclusive_prefix() {
        let results = run_spmd(4, |c| c.exscan_sum_u64(10 * (c.rank() as u64 + 1)));
        assert_eq!(results, vec![0, 10, 30, 60]);
    }

    #[test]
    fn exscan_nonpower_of_two() {
        for p in [3usize, 5, 6, 7] {
            let results = run_spmd(p, |c| c.exscan_sum_u64(c.rank() as u64 + 1));
            let expected: Vec<u64> =
                (0..p as u64).map(|r| (1..=r).sum::<u64>()).collect();
            assert_eq!(results, expected, "p={p}");
        }
    }

    #[test]
    fn generic_allreduce_max() {
        let results = run_spmd(6, |c| c.allreduce(c.rank() as u64, u64::max));
        assert!(results.iter().all(|&m| m == 5));
    }

    #[test]
    fn generic_allreduce_tuple_minmax() {
        // The fused (min, max) reduction the quantile searches use.
        let results = run_spmd(5, |c| {
            let v = c.rank() as u64 * 10;
            c.allreduce((v, v), |a, b| (a.0.min(b.0), a.1.max(b.1)))
        });
        assert!(results.iter().all(|&mm| mm == (0, 40)));
    }

    #[test]
    fn repeated_collectives_do_not_deadlock_or_cross() {
        let results = run_spmd(3, |c| {
            let mut acc = 0u64;
            for round in 0..50u64 {
                let sum = c.allreduce(round + c.rank() as u64, |a, b| a + b);
                acc = acc.wrapping_add(sum);
            }
            acc
        });
        assert!(results.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn stats_break_down_by_collective() {
        // A rank reads only its own cell, so its snapshots are exact with
        // no synchronization around them.
        let results = run_spmd(2, |c| {
            let before = c.stats();
            let _ = c.allgather(vec![0u64; 4]);
            let mut buf = vec![0.0f64; 4];
            c.allreduce_sum_f64(&mut buf);
            let _ = c.exscan_sum_u64(1);
            let _ = c.alltoallv(vec![vec![1u8], vec![2u8]]);
            c.stats().since(&before)
        });
        for (r, d) in results.iter().enumerate() {
            assert_eq!(d.ranks, 1, "a rank's own view");
            // allgather: the peer's 32 bytes in one ring step.
            assert_eq!(d.op(Collective::Allgather), OpStats { ops: 1, rounds: 1, bytes: 32 });
            // allreduce at p=2: one butterfly round, 32 bytes.
            assert_eq!(d.op(Collective::Allreduce), OpStats { ops: 1, rounds: 1, bytes: 32 });
            // exscan at p=2: one round, only rank 1 receives 8 bytes.
            let ex = if r == 1 { 8 } else { 0 };
            assert_eq!(d.op(Collective::Exscan), OpStats { ops: 1, rounds: 1, bytes: ex });
            // alltoallv: 1 off-rank byte.
            assert_eq!(d.op(Collective::Alltoallv), OpStats { ops: 1, rounds: 1, bytes: 1 });
            assert_eq!(d.collectives(), 4);
        }
        // The job-wide view sums the bytes and keeps the logical counts.
        let job = crate::CommStats::from_rank_views(&results);
        assert_eq!(job.ranks, 2);
        assert_eq!(job.op(Collective::Allgather), OpStats { ops: 1, rounds: 1, bytes: 64 });
        assert_eq!(job.op(Collective::Exscan), OpStats { ops: 1, rounds: 1, bytes: 8 });
    }

    #[test]
    fn butterfly_allreduce_beats_allgather_volume_by_2x() {
        // The ISSUE-2 acceptance bound: p = 8, 4096-element f64 buffer —
        // per-rank received bytes of the butterfly allreduce must be at
        // least 2× below gathering everything.
        let (p, m) = (8usize, 4096usize);
        let results = run_spmd(p, |c| {
            let s0 = c.stats();
            let mut buf = vec![1.0f64; m];
            c.allreduce_sum_f64(&mut buf);
            let s1 = c.stats();
            let _ = c.allgather(vec![1.0f64; m]);
            (s1.since(&s0), c.stats().since(&s1))
        });
        for (reduce, gather) in &results {
            let reduce_bytes = reduce.op(Collective::Allreduce).bytes;
            let gather_bytes = gather.op(Collective::Allgather).bytes;
            // Exactly log₂(8) = 3 exchange rounds of 4096·8 bytes each...
            assert_eq!(reduce.op(Collective::Allreduce).rounds, 3);
            assert_eq!(reduce_bytes, 3 * (m as u64) * 8);
            // ...versus p−1 ring steps of m·8 for the gather.
            assert_eq!(gather.op(Collective::Allgather).rounds, 7);
            assert_eq!(gather_bytes, 7 * (m as u64) * 8);
            assert!(
                gather_bytes >= 2 * reduce_bytes,
                "allreduce must receive ≥2× fewer bytes than the allgather \
                 baseline ({reduce_bytes} vs {gather_bytes})"
            );
        }
    }

    #[test]
    fn single_rank_thread_comm_works() {
        let results = run_spmd(1, |c| {
            let mut buf = vec![3.0];
            c.allreduce_sum_f64(&mut buf);
            (buf[0], c.exscan_sum_u64(9))
        });
        assert_eq!(results, vec![(3.0, 0)]);
    }

    #[test]
    fn barrier_reusable_many_times() {
        run_spmd(4, |c| {
            for _ in 0..200 {
                c.barrier();
            }
        });
    }

    #[test]
    fn panicking_rank_unblocks_peers_and_propagates_the_original_panic() {
        // Regression: rank 2 dies *before* entering the collective its
        // peers are already blocked in. Without poisoning, ranks 0/1/3
        // wait forever for a message that never comes and the job hangs.
        let err = std::panic::catch_unwind(|| {
            run_spmd(4, |c| {
                if c.rank() == 2 {
                    panic!("rank 2 exploded");
                }
                let mut buf = vec![1.0];
                c.allreduce_sum_f64(&mut buf);
                buf[0]
            })
        })
        .expect_err("the job must fail, not hang");
        let msg = err
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| err.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert_eq!(
            msg, "rank 2 exploded",
            "the original panic must propagate, not the secondary aborts"
        );
    }

    /// Payload that counts its live instances: up on creation and clone,
    /// down on drop.
    struct Counted(Arc<std::sync::atomic::AtomicIsize>);

    impl Counted {
        fn new(live: &Arc<std::sync::atomic::AtomicIsize>) -> Self {
            live.fetch_add(1, Ordering::SeqCst);
            Counted(Arc::clone(live))
        }
    }

    impl Clone for Counted {
        fn clone(&self) -> Self {
            Counted::new(&self.0)
        }
    }

    impl Drop for Counted {
        fn drop(&mut self) {
            self.0.fetch_sub(1, Ordering::SeqCst);
        }
    }

    impl crate::Wire for Counted {
        fn wire_write(&self, _out: &mut Vec<u8>) {
            unreachable!("the thread backend moves values, it never encodes them")
        }
        fn wire_read(_r: &mut crate::WireCursor<'_>) -> Self {
            unreachable!("the thread backend moves values, it never decodes them")
        }
    }

    #[test]
    fn run_spmd_frees_every_payload_left_in_the_communicator() {
        // Regression: the success path used to `mem::forget` a guard that
        // owns a share of the communicator core, so the core — and every
        // payload still queued in it — was never freed.
        let live = Arc::new(std::sync::atomic::AtomicIsize::new(0));
        let results = run_spmd(3, |c| {
            let all = c.allgather(vec![Counted::new(&live); 2]);
            let one = c.allreduce(Counted::new(&live), |a, _| a);
            (all, one)
        });
        assert_eq!(results.len(), 3);
        drop(results);
        assert_eq!(live.load(Ordering::SeqCst), 0, "payloads outlived run_spmd");

        // A rank that panics with payloads in flight releases them too.
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_spmd(3, |c| {
                let all = c.allgather(vec![Counted::new(&live)]);
                if c.rank() == 1 {
                    panic!("boom");
                }
                c.barrier();
                all
            })
        }));
        assert!(err.is_err());
        assert_eq!(live.load(Ordering::SeqCst), 0, "payloads outlived a failed run_spmd");
    }

    #[test]
    fn panicking_rank_mid_collective_sequence_aborts_cleanly() {
        // The panicker completes one collective first, so peers are
        // mid-stream with live mailbox state when the poison lands.
        let err = std::panic::catch_unwind(|| {
            run_spmd(3, |c| {
                let mut buf = vec![c.rank() as f64];
                c.allreduce_sum_f64(&mut buf);
                if c.rank() == 0 {
                    panic!("late failure");
                }
                c.barrier();
                let all = c.allgather(vec![c.rank() as u64]);
                all.len()
            })
        })
        .expect_err("the job must fail, not hang");
        let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "late failure");
    }
}
