//! The collective algorithms, written once over a point-to-point [`Transport`].
//!
//! Every communicator of this crate is a transport — it knows how to hand
//! one typed value to one peer and take one from a peer — and gets its
//! [`Comm`] implementation from the blanket impl below. The schedules are
//! those of the MPI counterparts (DESIGN.md §4):
//!
//! * **allreduce** — recursive doubling: `p` is folded to the largest
//!   power of two `q ≤ p`, `log₂ q` pairwise exchange rounds run among the
//!   first `q` ranks, and the folded ranks get the result back. `combine`
//!   is always applied lower rank's partial first, so every rank — on
//!   every transport — ends with the bits of one fixed reduction tree;
//! * **exscan** — Hillis–Steele: `⌈log₂ p⌉` rounds, rank `r` passes its
//!   inclusive partial to `r + gap` and accumulates from `r − gap`;
//! * **allgather / alltoallv** — a ring of `p − 1` steps, step `d`
//!   sending to `r + d` while receiving from `r − d`;
//! * **barrier** — dissemination: `⌈log₂ p⌉` rounds of empty messages.
//!
//! A single rank (`p = 1`) takes none of these paths: each collective
//! records its op with zero rounds and bytes and returns its input.
//!
//! This is also the one place counters are defined ([`crate::stats`]):
//! `rounds` is the schedule's step count above, `bytes` the shallow
//! payload bytes *this rank received*, computed here from the typed value
//! — so they cannot differ between transports.

use std::mem::{size_of, size_of_val};

use crate::stats::{Collective, CommStats, StatsCell};
use crate::wire::Wire;
use crate::Comm;

/// What a message belongs to. A transport that frames its messages stamps
/// this into every frame, so ranks that diverge in call order fail loudly
/// instead of decoding each other's payloads as the wrong type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tag {
    /// The (uncounted) barrier.
    Barrier,
    /// One of the counted collectives.
    Op(Collective),
}

/// Point-to-point message passing between the ranks of one job: all a
/// communicator has to provide. Messages between one (sender, receiver)
/// pair arrive in the order sent; `T` is agreed on by the SPMD contract.
pub trait Transport {
    /// This rank's id in `0..size()`.
    fn rank(&self) -> usize;

    /// Number of ranks.
    fn size(&self) -> usize;

    /// Hand `value` to rank `to`.
    fn send<T: Wire>(&self, tag: Tag, to: usize, value: T);

    /// Take the next value rank `from` sent to this rank (blocking).
    fn recv<T: Wire>(&self, tag: Tag, from: usize) -> T;

    /// One step of a symmetric schedule: every rank sends to its `to` and
    /// receives from its `from` at once. The default is right wherever
    /// `send` cannot block; a transport with bounded buffers overrides it
    /// with its deadlock rule.
    fn sendrecv<T: Wire>(&self, tag: Tag, to: usize, value: T, from: usize) -> T {
        self.send(tag, to, value);
        self.recv(tag, from)
    }

    /// Run `f` on this rank's counter cell.
    fn with_stats<R>(&self, f: impl FnOnce(&StatsCell) -> R) -> R;
}

fn record<X: Transport>(x: &X, kind: Collective, rounds: u64, received_bytes: u64) {
    x.with_stats(|cell| cell.record(kind, rounds, received_bytes));
}

/// Largest power of two `≤ n` (`n ≥ 1`).
fn prev_power_of_two(n: usize) -> usize {
    debug_assert!(n >= 1);
    1 << (usize::BITS - 1 - n.leading_zeros())
}

/// Peers of ring step `d` for rank `r` of `p`: `(send to, receive from)`.
fn ring_peers(r: usize, d: usize, p: usize) -> (usize, usize) {
    ((r + d) % p, (r + p - d) % p)
}

/// Shallow payload bytes of a received vector.
fn vec_bytes<T>(v: &[T]) -> u64 {
    size_of_val(v) as u64
}

/// Recursive-doubling allreduce of one value; `msg_bytes` is the shallow
/// size of one exchanged message.
fn butterfly<X, T, F>(x: &X, value: T, msg_bytes: u64, combine: F) -> T
where
    X: Transport,
    T: Wire,
    F: Fn(T, T) -> T,
{
    let (p, r) = (x.size(), x.rank());
    if p == 1 {
        record(x, Collective::Allreduce, 0, 0);
        return value;
    }
    let tag = Tag::Op(Collective::Allreduce);
    let q = prev_power_of_two(p);
    let extra = p - q;
    let rounds = u64::from(q.trailing_zeros()) + if extra > 0 { 2 } else { 0 };
    let mut messages = 0u64;
    let acc = if r >= q {
        // Folded rank: pre-reduce into r−q, get the finished result back.
        x.send(tag, r - q, value);
        messages += 1;
        x.recv(tag, r - q)
    } else {
        let mut acc = value;
        if r < extra {
            acc = combine(acc, x.recv(tag, r + q));
            messages += 1;
        }
        let mut gap = 1;
        while gap < q {
            let partner = r ^ gap;
            let theirs = x.sendrecv(tag, partner, acc.clone(), partner);
            acc = if partner < r { combine(theirs, acc) } else { combine(acc, theirs) };
            messages += 1;
            gap <<= 1;
        }
        if r < extra {
            x.send(tag, r + q, acc.clone());
        }
        acc
    };
    record(x, Collective::Allreduce, rounds, messages * msg_bytes);
    acc
}

/// Element-wise butterfly reduction of a slice, in place.
fn butterfly_slice<X, T, F>(x: &X, buf: &mut [T], op: F)
where
    X: Transport,
    T: Wire + Copy,
    F: Fn(T, T) -> T,
{
    let out = butterfly(x, buf.to_vec(), vec_bytes(buf), |mut lower, higher| {
        for (a, b) in lower.iter_mut().zip(higher) {
            *a = op(*a, b);
        }
        lower
    });
    buf.copy_from_slice(&out);
}

#[deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo)]
impl<X: Transport> Comm for X {
    fn rank(&self) -> usize {
        Transport::rank(self)
    }

    fn size(&self) -> usize {
        Transport::size(self)
    }

    fn barrier(&self) {
        let (p, r) = (Transport::size(self), Transport::rank(self));
        let mut gap = 1;
        while gap < p {
            let (to, from) = ring_peers(r, gap, p);
            self.sendrecv(Tag::Barrier, to, (), from);
            gap <<= 1;
        }
    }

    fn allgather<T: Wire>(&self, local: Vec<T>) -> Vec<Vec<T>> {
        let (p, r) = (Transport::size(self), Transport::rank(self));
        let tag = Tag::Op(Collective::Allgather);
        let mut out: Vec<Vec<T>> = (0..p).map(|_| Vec::new()).collect();
        let mut received = 0u64;
        for d in 1..p {
            let (to, from) = ring_peers(r, d, p);
            out[from] = self.sendrecv(tag, to, local.clone(), from);
            received += vec_bytes(&out[from]);
        }
        out[r] = local;
        record(self, Collective::Allgather, (p - 1) as u64, received);
        out
    }

    fn alltoallv<T: Wire>(&self, mut sends: Vec<Vec<T>>) -> Vec<Vec<T>> {
        let (p, r) = (Transport::size(self), Transport::rank(self));
        assert_eq!(sends.len(), p, "one send buffer per rank");
        let tag = Tag::Op(Collective::Alltoallv);
        let mut out: Vec<Vec<T>> = (0..p).map(|_| Vec::new()).collect();
        let mut received = 0u64;
        for d in 1..p {
            let (to, from) = ring_peers(r, d, p);
            // Each send vector is handed over whole: moved, not copied.
            out[from] = self.sendrecv(tag, to, std::mem::take(&mut sends[to]), from);
            received += vec_bytes(&out[from]);
        }
        out[r] = std::mem::take(&mut sends[r]);
        record(self, Collective::Alltoallv, (p - 1) as u64, received);
        out
    }

    fn stats(&self) -> CommStats {
        self.with_stats(StatsCell::snapshot)
    }

    fn allreduce<T, F>(&self, value: T, combine: F) -> T
    where
        T: Wire,
        F: Fn(T, T) -> T,
    {
        butterfly(self, value, size_of::<T>() as u64, combine)
    }

    fn allreduce_sum_f64(&self, buf: &mut [f64]) {
        butterfly_slice(self, buf, |a, b| a + b);
    }

    fn allreduce_min_f64(&self, buf: &mut [f64]) {
        butterfly_slice(self, buf, f64::min);
    }

    fn exscan_sum_u64(&self, value: u64) -> u64 {
        let (p, r) = (Transport::size(self), Transport::rank(self));
        let tag = Tag::Op(Collective::Exscan);
        let (mut exclusive, mut inclusive) = (0u64, value);
        let (mut rounds, mut received) = (0u64, 0u64);
        let mut gap = 1;
        while gap < p {
            // Downstream send first: the sends form a DAG toward higher
            // ranks, so even blocking sends cannot cycle.
            if r + gap < p {
                self.send(tag, r + gap, inclusive);
            }
            if r >= gap {
                let theirs: u64 = self.recv(tag, r - gap);
                exclusive += theirs;
                inclusive += theirs;
                received += size_of::<u64>() as u64;
            }
            rounds += 1;
            gap <<= 1;
        }
        record(self, Collective::Exscan, rounds, received);
        exclusive
    }
}
