//! Processes-as-ranks communicator: the real-wires SPMD backend.
//!
//! [`run_spmd_proc`] forks `p` worker **OS processes** and runs the same
//! closure on all of them, exactly like [`run_spmd`](crate::run_spmd) does
//! with threads — except nothing is shared: every collective payload
//! crosses a process boundary through Unix-domain sockets, so the α–β
//! numbers the substrate reports can be *measured* against real kernel
//! round-trips instead of modeled from counters alone.
//!
//! Every socket exists before the first fork: the parent makes the
//! p(p−1)/2 links of the full mesh and one control pair per rank as
//! `UnixStream::pair()`s, a worker keeps its own row and closes every
//! other end it inherited (DESIGN.md §10 has who closes what). On top of
//! that the substrate has two layers:
//!
//! * **Framing** — every message is `[magic, kind, seq, len]` +
//!   payload. `kind` is the collective the message belongs to, `seq`
//!   counts the frames sent so far on that link in that direction:
//!   because SPMD ranks issue collectives in identical order, a mismatch
//!   means the streams desynchronized and the worker fails loudly instead
//!   of deserializing garbage. Payloads are [`Wire`]-encoded.
//! * **Transport** — `send` / `recv` / `sendrecv` of one typed value to
//!   or from one peer, which is all the generic collective layer
//!   ([`crate::collectives`]) needs. The algorithms, their reduction
//!   trees and their counters are therefore the *same code* as on
//!   [`ThreadComm`](crate::ThreadComm), and results are **bitwise-equal**
//!   at the same `p` by construction.
//!
//! Failure semantics (the part a shared-memory simulation cannot give
//! you): a rank that panics reports through its control socket and exits;
//! a rank that *dies* (kill -9, `_exit`) just disappears — its sockets
//! close, peers' blocking reads return EOF, and they raise a "peer hung
//! up" error that propagates the failure instead of hanging the job. The
//! parent additionally enforces a deadline (`GEO_PROC_TIMEOUT_SECS`,
//! default 120 s), so a genuinely hung worker also becomes a clean
//! [`ProcError`]; on every path, success included, it ends the job by
//! SIGKILLing and reaping every worker.
//!
//! **Fork safety.** `fork` copies one thread of a process whose other
//! threads may each hold a process-global std lock; the copy of such a
//! lock is never released. So a worker never takes a lock another parent
//! thread could have held: it starts no thread, leaves through `_exit`
//! (no exit handlers), and raises its own failures with `crate::raise`
//! (no panic hook). What is left is a closure's *genuine* panic, which
//! still runs the hook: if a foreign thread was inside it at fork time
//! the worker blocks and the job ends at the deadline as
//! [`ProcError::Timeout`].

#![cfg(unix)]

use std::cell::Cell;
use std::io::{self, Read, Write};
use std::os::unix::net::UnixStream;
use std::panic::AssertUnwindSafe;
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use crate::collectives::Tag;
use crate::stats::{Collective, StatsCell};
use crate::wire::{from_wire, to_wire, Wire};

/// Largest piece of a frame written before the next read: must stay
/// comfortably under the kernel's default Unix-socket buffer, so that a
/// chunk always fits an *empty* buffer (see `ProcComm::sendrecv_frames`).
const EAGER_MAX: usize = 64 * 1024;

/// Seconds a job may run before the parent kills the workers
/// (override with `GEO_PROC_TIMEOUT_SECS`).
const DEFAULT_TIMEOUT_SECS: f64 = 120.0;

/// Raw process primitives, declared directly against the platform libc
/// that std already links (the workspace builds offline; no `libc` crate).
mod sys {
    extern "C" {
        pub fn fork() -> i32;
        pub fn waitpid(pid: i32, status: *mut i32, options: i32) -> i32;
        pub fn kill(pid: i32, sig: i32) -> i32;
        pub fn _exit(code: i32) -> !;
    }

    pub const SIGKILL: i32 = 9;
}

/// Why a multi-process SPMD job failed.
#[derive(Debug)]
pub enum ProcError {
    /// A socketpair could not be made (`EMFILE` past the descriptor
    /// limit) or a worker could not be forked; no worker is left running.
    Spawn(io::Error),
    /// A rank died, panicked, or broke the protocol; `detail` carries the
    /// panic message or exit status.
    RankFailed {
        /// The failing rank.
        rank: usize,
        /// Panic message, exit status, or protocol violation.
        detail: String,
    },
    /// A rank did not report a result before the job deadline and was
    /// killed.
    Timeout {
        /// The first rank that missed the deadline.
        rank: usize,
        /// The deadline that was enforced.
        seconds: f64,
    },
    /// A [`crate::CheckedComm`] lockstep check failed: the ranks diverged
    /// from the single SPMD call sequence (different collective, element
    /// count, or root). Carries the typed report instead of the frame
    /// desync / timeout the divergence would otherwise decay into.
    Protocol {
        /// The first rank whose report reached the parent.
        rank: usize,
        /// The structured divergence report (identical on every rank).
        error: crate::checked::ProtocolError,
    },
}

impl std::fmt::Display for ProcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProcError::Spawn(e) => write!(f, "failed to spawn SPMD workers: {e}"),
            ProcError::RankFailed { rank, detail } => {
                write!(f, "SPMD rank {rank} failed: {detail}")
            }
            ProcError::Timeout { rank, seconds } => {
                write!(f, "SPMD rank {rank} missed the {seconds}s job deadline and was killed")
            }
            ProcError::Protocol { rank, error } => {
                write!(f, "SPMD rank {rank} reported a protocol violation: {error}")
            }
        }
    }
}

impl std::error::Error for ProcError {}

/// Frame kinds on the wire (one byte). An enum, so the compiler keeps the
/// table: two kinds with one value do not compile (E0081), a kind nothing
/// sends is a `dead_code` warning, an unknown one is an unresolved name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
enum Kind {
    Barrier = 1,
    Allgather = 2,
    Allreduce = 3,
    Exscan = 5,
    Alltoallv = 6,
    Probe = 7,
    Result = 8,
    Panic = 9,
    /// A worker's `CheckedComm` lockstep check failed: the payload is a
    /// wire-encoded [`crate::checked::ProtocolError`], not a panic string.
    Protocol = 10,
}

/// The frame kind a message of `tag` travels under.
impl From<Tag> for Kind {
    fn from(tag: Tag) -> Kind {
        match tag {
            Tag::Barrier => Kind::Barrier,
            Tag::Op(Collective::Allgather) => Kind::Allgather,
            Tag::Op(Collective::Allreduce) => Kind::Allreduce,
            Tag::Op(Collective::Exscan) => Kind::Exscan,
            Tag::Op(Collective::Alltoallv) => Kind::Alltoallv,
        }
    }
}

/// Length-prefixed framing over a stream: `[magic u32][kind u8][pad ×3]
/// [seq u64][len u64]` followed by `len` payload bytes.
mod frame {
    use super::*;

    pub const MAGIC: u32 = 0x47454F46; // "GEOF"
    pub const HEADER: usize = 24;
    /// Upper bound on a single frame payload (8 GiB): a corrupt length
    /// fails fast instead of attempting a matching allocation.
    const MAX_LEN: u64 = 1 << 33;

    /// A frame as the byte stream carries it, cut after its first
    /// [`EAGER_MAX`] bytes: the header with the head of the payload behind
    /// it in one buffer (a small message is one write), and the rest of
    /// the payload.
    pub fn split(kind: Kind, seq: u64, payload: &[u8]) -> (Vec<u8>, &[u8]) {
        let (head, rest) = payload.split_at(payload.len().min(EAGER_MAX - HEADER));
        let mut first = Vec::with_capacity(HEADER + head.len());
        first.extend_from_slice(&MAGIC.to_le_bytes());
        first.extend_from_slice(&[kind as u8, 0, 0, 0]);
        first.extend_from_slice(&seq.to_le_bytes());
        first.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        first.extend_from_slice(head);
        (first, rest)
    }

    /// Write one whole frame, blocking until the peer has taken it.
    pub fn write(stream: &UnixStream, kind: Kind, seq: u64, payload: &[u8]) -> io::Result<()> {
        let (first, rest) = split(kind, seq, payload);
        let mut w = stream;
        w.write_all(&first)?;
        w.write_all(rest)
    }

    /// Read and validate one header: `(kind, seq, len)`. The one place a
    /// length off the wire is trusted: bad magic or a `len` above
    /// [`MAX_LEN`] is `InvalidData` before anything is allocated for it.
    pub fn read_header(stream: &UnixStream) -> io::Result<(u8, u64, usize)> {
        let mut r = stream;
        let mut head = [0u8; HEADER];
        r.read_exact(&mut head)?;
        let word = |off: usize| {
            let mut b = [0u8; 8];
            b.copy_from_slice(&head[off..off + 8]);
            u64::from_le_bytes(b)
        };
        // The first word is `[magic u32][kind u8][pad ×3]`: magic is its low half.
        let (magic, kind, seq, len) = (word(0) as u32, head[4], word(8), word(16));
        match usize::try_from(len) {
            Ok(len_bytes) if magic == MAGIC && len <= MAX_LEN => Ok((kind, seq, len_bytes)),
            _ => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "corrupt frame header: magic {magic:#x}, kind {kind}, seq {seq}, len {len}"
                ),
            )),
        }
    }

    /// Read one header, requiring `kind` and `seq` to match what the SPMD
    /// call order predicts: the length of the payload that follows.
    pub fn expect_header(stream: &UnixStream, kind: Kind, seq: u64) -> io::Result<usize> {
        let (got_kind, got_seq, len) = read_header(stream)?;
        if got_kind != kind as u8 || got_seq != seq {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "frame desync: got (kind {got_kind}, seq {got_seq}), \
                     expected ({kind:?} = {}, seq {seq})",
                    kind as u8
                ),
            ));
        }
        Ok(len)
    }

    /// Read the `len` payload bytes a validated header announced.
    pub fn read_payload(stream: &UnixStream, len: usize) -> io::Result<Vec<u8>> {
        let mut r = stream;
        let mut payload = vec![0u8; len];
        r.read_exact(&mut payload)?;
        Ok(payload)
    }
}

/// One link of the mesh: the stream to a peer and the frame counters of
/// its two directions (the `seq` stamped into, and expected from, the
/// next frame).
#[derive(Debug)]
struct Peer {
    stream: UnixStream,
    sent: Cell<u64>,
    received: Cell<u64>,
}

impl Peer {
    fn new(stream: UnixStream) -> Peer {
        Peer { stream, sent: Cell::new(0), received: Cell::new(0) }
    }
}

/// Post-increment a frame counter.
fn bump(counter: &Cell<u64>) -> u64 {
    counter.replace(counter.get() + 1)
}

/// One rank's handle into a processes-as-ranks communicator: a full mesh
/// of per-peer Unix-domain streams plus this rank's counters.
#[derive(Debug)]
pub struct ProcComm {
    rank: usize,
    size: usize,
    /// `peers[s]` is the link to rank `s` (`None` at `s == rank`).
    peers: Vec<Option<Peer>>,
    stats: StatsCell,
}

impl ProcComm {
    fn peer(&self, r: usize) -> &Peer {
        // Infallible — the mesh is full except s == rank, and no collective addresses self.
        self.peers[r].as_ref().unwrap_or_else(|| panic!("rank {} has no stream to {r}", self.rank))
    }

    /// Deliberate fail-loud abort — a wire fault means a peer died; the
    /// parent reports a ProcError (DESIGN.md §10).
    fn send_failed(&self, to: usize, k: Kind, seq: u64, e: io::Error) -> ! {
        crate::raise(format!("rank {}: send to rank {to} failed ({k:?}, seq {seq}): {e}", self.rank))
    }

    /// Deliberate fail-loud abort — EOF here is the designed dead-peer
    /// signal; the parent reports a ProcError (DESIGN.md §10).
    fn recv_failed(&self, from: usize, k: Kind, seq: u64, e: io::Error) -> ! {
        let why = if e.kind() == io::ErrorKind::UnexpectedEof {
            "peer hung up mid-collective (rank died?)".to_string()
        } else {
            e.to_string()
        };
        crate::raise(format!(
            "rank {}: recv from rank {from} failed ({k:?}, seq {seq}): {why}",
            self.rank
        ))
    }

    fn send_frame(&self, to: usize, k: Kind, payload: &[u8]) {
        let peer = self.peer(to);
        let seq = bump(&peer.sent);
        frame::write(&peer.stream, k, seq, payload)
            .unwrap_or_else(|e| self.send_failed(to, k, seq, e));
    }

    fn recv_frame(&self, from: usize, k: Kind) -> Vec<u8> {
        let peer = self.peer(from);
        let seq = bump(&peer.received);
        frame::expect_header(&peer.stream, k, seq)
            .and_then(|len| frame::read_payload(&peer.stream, len))
            .unwrap_or_else(|e| self.recv_failed(from, k, seq, e))
    }

    /// Send `payload` to `to` while receiving a same-kind frame from
    /// `from`, in lockstep: write one chunk of at most [`EAGER_MAX`] bytes
    /// of the outgoing frame, read one of the incoming frame, and repeat
    /// until both directions are done.
    ///
    /// Deadlock-free for any two lengths and any schedule stride
    /// (`to == from` in a butterfly, `to != from` in a ring): a chunk fits
    /// an empty socket buffer, so a write blocks only behind data its
    /// reader has not taken yet. Take the rank that is least far along. If
    /// it is writing chunk `i`, its reader — further along — has read
    /// every chunk before `i`, the buffer is empty and the write
    /// completes; if it is reading chunk `i`, its writer has written it.
    /// Put the other way round: a cycle of blocked writers would need
    /// every rank ahead of its successor.
    fn sendrecv_frames(&self, to: usize, k: Kind, payload: &[u8], from: usize) -> Vec<u8> {
        let (out, inc) = (self.peer(to), self.peer(from));
        let (out_seq, in_seq) = (bump(&out.sent), bump(&inc.received));
        let write = |chunk: &[u8]| {
            (&out.stream).write_all(chunk).unwrap_or_else(|e| self.send_failed(to, k, out_seq, e))
        };
        let read = |buf: &mut [u8]| {
            (&inc.stream).read_exact(buf).unwrap_or_else(|e| self.recv_failed(from, k, in_seq, e))
        };

        let (first, rest) = frame::split(k, out_seq, payload);
        let mut chunks = rest.chunks(EAGER_MAX);
        write(&first);
        let len = frame::expect_header(&inc.stream, k, in_seq)
            .unwrap_or_else(|e| self.recv_failed(from, k, in_seq, e));
        let mut got = vec![0u8; len];
        // The incoming frame is cut where its writer cut it: the first
        // chunk carried the header.
        let (mut filled, mut room) = (0, EAGER_MAX - frame::HEADER);
        loop {
            let end = len.min(filled + room);
            read(&mut got[filled..end]);
            (filled, room) = (end, EAGER_MAX);
            match chunks.next() {
                Some(chunk) => write(chunk),
                None if filled == len => return got,
                None => {}
            }
        }
    }

    /// Raw pairwise exchange with rank `rank ^ 1`, outside the collective
    /// bookkeeping: the calibration probe [`measure_alpha_beta`] uses this
    /// to time exactly one frame each way with no serialization overhead.
    pub fn probe_exchange(&self, payload: &[u8]) -> Vec<u8> {
        assert!(self.size >= 2, "probe needs a partner rank");
        let partner = self.rank ^ 1;
        self.sendrecv_frames(partner, Kind::Probe, payload, partner)
    }
}

impl crate::collectives::Transport for ProcComm {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.size
    }

    fn send<T: Wire>(&self, tag: Tag, to: usize, value: T) {
        self.send_frame(to, tag.into(), &to_wire(&value));
    }

    fn recv<T: Wire>(&self, tag: Tag, from: usize) -> T {
        from_wire(&self.recv_frame(from, tag.into()))
    }

    fn sendrecv<T: Wire>(&self, tag: Tag, to: usize, value: T, from: usize) -> T {
        // Each copy is freed as soon as the next one exists, so a rank
        // holds two of the value, its encoding, the received bytes and
        // their decoding at a time, not all four.
        let payload = to_wire(&value);
        drop(value);
        let got = self.sendrecv_frames(to, tag.into(), &payload, from);
        drop(payload);
        from_wire(&got)
    }

    fn with_stats<R>(&self, f: impl FnOnce(&StatsCell) -> R) -> R {
        f(&self.stats)
    }
}

fn job_timeout() -> f64 {
    std::env::var("GEO_PROC_TIMEOUT_SECS")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|s| *s > 0.0)
        .unwrap_or(DEFAULT_TIMEOUT_SECS)
}

/// Worker body after the fork: run `f`, report the result (or what it
/// failed with) over the control socket, and leave without returning into
/// the caller's stack or running an exit handler.
fn child_main<R, F>(ctrl: UnixStream, comm: ProcComm, f: F) -> !
where
    R: Wire,
    F: Fn(ProcComm) -> R,
{
    let _ = match std::panic::catch_unwind(AssertUnwindSafe(|| f(comm))) {
        Ok(v) => frame::write(&ctrl, Kind::Result, 0, &to_wire(&v)),
        Err(payload) => {
            // A CheckedComm lockstep report crosses the control socket
            // typed, not flattened to a panic string.
            if let Some(pe) = payload.downcast_ref::<crate::checked::ProtocolError>() {
                frame::write(&ctrl, Kind::Protocol, 0, &to_wire(pe))
            } else {
                let msg: &str = if let Some(s) = payload.downcast_ref::<&str>() {
                    s
                } else if let Some(s) = payload.downcast_ref::<String>() {
                    s
                } else {
                    "worker panicked (non-string payload)"
                };
                frame::write(&ctrl, Kind::Panic, 0, msg.as_bytes())
            }
        }
    };
    // SAFETY: _exit(2) takes no pointer and does not return. The frame
    // above is already in the parent's socket buffer; nothing else this
    // process owns outlives it.
    unsafe { sys::_exit(0) }
}

/// SIGKILL and reap every worker: how a job ends, whatever its outcome. A
/// worker that has delivered its frame has nothing left to do, and a
/// killed process cannot keep the `waitpid` waiting.
fn kill_all(pids: &[i32]) {
    for &pid in pids {
        // SAFETY: plain kill(2) on a pid this parent forked and has
        // not yet reaped; on an already-dead pid it is a harmless
        // ESRCH. No memory is touched.
        unsafe {
            sys::kill(pid, sys::SIGKILL);
        }
    }
    for &pid in pids {
        let mut status = 0i32;
        // SAFETY: waitpid(2) on a child of this process; the status
        // out-pointer refers to a live i32 on this stack frame.
        unsafe {
            sys::waitpid(pid, &mut status, 0);
        }
    }
}

/// Wait for rank `rank`'s control frame until `deadline`: its
/// [`Wire`]-encoded result, or the error it stands for.
fn read_result(
    ctrl: &UnixStream,
    rank: usize,
    deadline: Instant,
    timeout: f64,
) -> Result<Vec<u8>, ProcError> {
    let failed = |detail: String| ProcError::RankFailed { rank, detail };
    let remaining = deadline.saturating_duration_since(Instant::now());
    // `set_read_timeout` rejects a zero duration.
    if remaining.is_zero() {
        return Err(ProcError::Timeout { rank, seconds: timeout });
    }
    ctrl.set_read_timeout(Some(remaining))
        .map_err(|_| failed("control socket unusable".into()))?;
    let frame = frame::read_header(ctrl)
        .and_then(|(k, _, len)| Ok((k, frame::read_payload(ctrl, len)?)));
    match frame {
        Ok((k, payload)) if k == Kind::Result as u8 => Ok(payload),
        Ok((k, payload)) if k == Kind::Panic as u8 => {
            Err(failed(String::from_utf8_lossy(&payload).into_owned()))
        }
        Ok((k, payload)) if k == Kind::Protocol as u8 => {
            Err(ProcError::Protocol { rank, error: from_wire(&payload) })
        }
        Ok((k, _)) => Err(failed(format!("protocol violation: unexpected frame kind {k}"))),
        Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {
            Err(ProcError::Timeout { rank, seconds: timeout })
        }
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => {
            Err(failed("worker process died without reporting a result".into()))
        }
        Err(e) => Err(failed(e.to_string())),
    }
}

/// Make rank `rank`'s links to every higher rank, one end into each of the
/// two rows, and its control pair.
fn make_ends(rows: &mut [Vec<Option<Peer>>], rank: usize) -> io::Result<(UnixStream, UnixStream)> {
    #[allow(clippy::needless_range_loop, reason = "`s` is a rank id, not just an index")]
    for s in rank + 1..rows.len() {
        let (mine, theirs) = UnixStream::pair()?;
        rows[rank][s] = Some(Peer::new(mine));
        rows[s][rank] = Some(Peer::new(theirs));
    }
    UnixStream::pair()
}

/// Held from a job's first socketpair to its last parent-side close: a
/// worker forked meanwhile by *another* job would inherit a copy of a link
/// end, and a dead rank's peers would then never see EOF.
static SPAWN: Mutex<()> = Mutex::new(());

/// Run `f` as an SPMD program on `p` ranks, each a forked **worker
/// process**, and return the per-rank results indexed by rank.
///
/// The closure is inherited through `fork`, so like
/// [`run_spmd`](crate::run_spmd) it can capture arbitrary borrowed data — but all
/// rank-to-rank communication goes over Unix-domain sockets and the
/// result crosses back to the parent [`Wire`]-encoded. Any rank that
/// panics, dies, or hangs turns into an `Err` here instead of a deadlock:
/// peers of a dead rank fail on EOF, and the parent SIGKILLs the job at
/// the `GEO_PROC_TIMEOUT_SECS` deadline (default 120 s).
///
/// Descriptors: the links are made row by row — rank `r`'s to every
/// `s > r` just before fork `r`, the parent dropping `r`'s ends right
/// after — so the parent and a newborn worker hold at most ≈ p²/4 + 2p at
/// once (≈ 1 150 at p = 64), a running worker `p`. Past the limit the job
/// fails up front as [`ProcError::Spawn`].
pub fn run_spmd_proc<R, F>(p: usize, f: F) -> Result<Vec<R>, ProcError>
where
    R: Wire,
    F: Fn(ProcComm) -> R,
{
    assert!(p > 0, "communicator needs at least one rank");
    // Taken before any socket exists and declared first, so that an early
    // return closes every end before releasing it.
    let spawning = SPAWN.lock().unwrap_or_else(PoisonError::into_inner);
    // `rows[r]` is the `peers` vector of a rank not yet forked, as far as
    // its links have been made.
    let mut rows: Vec<Vec<Option<Peer>>> =
        (0..p).map(|_| (0..p).map(|_| None).collect()).collect();
    let mut ctrls: Vec<UnixStream> = Vec::with_capacity(p);
    let mut pids: Vec<i32> = Vec::with_capacity(p);
    let spawn_failed = |pids: &[i32], e: io::Error| {
        kill_all(pids);
        Err(ProcError::Spawn(e))
    };
    for rank in 0..p {
        let (ctrl, report) = match make_ends(&mut rows, rank) {
            Ok(pair) => pair,
            Err(e) => return spawn_failed(&pids, e),
        };
        // SAFETY: direct fork(2). The child never returns into the
        // caller's stack: it diverges into `child_main`, which ends in
        // _exit — so no foreign Drop impls, exit handlers or locks from
        // the parent run in the child, and the parent side only inspects
        // the returned pid.
        let pid = unsafe { sys::fork() };
        if pid < 0 {
            return spawn_failed(&pids, io::Error::last_os_error());
        }
        if pid == 0 {
            // Worker: keep our row and our control end, close every other
            // end we inherited — the rows of ranks not yet forked and the
            // parent's control ends — and release our copy of the spawn
            // lock (this thread took it) for a job nested in `f`.
            let peers = std::mem::take(&mut rows[rank]);
            drop((rows, ctrls, ctrl, spawning));
            child_main(report, ProcComm { rank, size: p, peers, stats: StatsCell::default() }, f)
        }
        // The parent keeps none of the new worker's ends.
        rows[rank].clear();
        drop(report);
        ctrls.push(ctrl);
        pids.push(pid);
    }
    drop(spawning);

    // One control frame per rank under the job deadline, up to the first
    // that is not a result.
    let timeout = job_timeout();
    let deadline = Instant::now() + Duration::from_secs_f64(timeout);
    let results: Result<Vec<Vec<u8>>, ProcError> = ctrls
        .iter()
        .enumerate()
        .map(|(rank, ctrl)| read_result(ctrl, rank, deadline, timeout))
        .collect();
    kill_all(&pids);
    // Consumed one by one: an encoded result is freed as soon as it is decoded.
    Ok(results?.into_iter().map(|bytes| from_wire::<R>(&bytes)).collect())
}

/// Measured α–β constants of the process substrate, from wire-level
/// probes.
#[derive(Debug, Clone)]
pub struct MeasuredAlphaBeta {
    /// Seconds per synchronization round (one pairwise exchange):
    /// intercept of the probe line.
    pub alpha: f64,
    /// Seconds per payload byte received by a rank: slope of the probe
    /// line in the bandwidth-bound regime.
    pub beta: f64,
    /// Raw probe table: `(message bytes, seconds per exchange)`.
    pub samples: Vec<(u64, f64)>,
}

/// Measure α (per-round latency) and β (per-byte cost) of the real
/// socket substrate with a two-rank ping-pong and streaming probe:
/// `reps` timed pairwise exchanges at each message size; α comes from the
/// small-message plateau, β from the slope between the largest sizes.
pub fn measure_alpha_beta(reps: usize) -> Result<MeasuredAlphaBeta, ProcError> {
    assert!(reps >= 1);
    let sizes: [usize; 6] = [8, 1024, 8192, 65536, 262144, 1048576];
    let mut results = run_spmd_proc(2, |c| {
        let mut samples: Vec<(u64, f64)> = Vec::new();
        for &s in &sizes {
            let payload = vec![0u8; s];
            for _ in 0..3 {
                let _ = c.probe_exchange(&payload);
            }
            let t = Instant::now();
            for _ in 0..reps {
                let _ = c.probe_exchange(&payload);
            }
            samples.push((s as u64, t.elapsed().as_secs_f64() / reps as f64));
        }
        samples
    })?;
    let samples = results.remove(0);
    let (s_lo, t_lo) = samples[samples.len() - 2];
    let (s_hi, t_hi) = samples[samples.len() - 1];
    let beta = ((t_hi - t_lo) / (s_hi - s_lo) as f64).max(0.0);
    let alpha = samples
        .iter()
        .take(2)
        .map(|&(s, t)| (t - beta * s as f64).max(0.0))
        .sum::<f64>()
        / 2.0;
    Ok(MeasuredAlphaBeta { alpha, beta, samples })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Comm, CommStats};

    #[test]
    fn corrupt_headers_are_invalid_data_before_any_allocation() {
        // Both readers — a peer's frame and the parent's control frame —
        // go through `read_header`: bad magic and an absurd length are
        // rejected from the 24 header bytes alone.
        let header = |magic: u32, len: u64| {
            let mut head = [0u8; frame::HEADER];
            head[..4].copy_from_slice(&magic.to_le_bytes());
            head[4] = Kind::Result as u8;
            head[16..].copy_from_slice(&len.to_le_bytes());
            head
        };
        for (head, what) in [
            (header(0xDEAD_BEEF, 0), "bad magic"),
            (header(frame::MAGIC, u64::MAX), "len = u64::MAX"),
        ] {
            let (a, b) = UnixStream::pair().expect("socketpair");
            (&a).write_all(&head).expect("header fits the socket buffer");
            let err = frame::read_header(&b).expect_err(what);
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}: {err}");
            (&a).write_all(&head).expect("header fits the socket buffer");
            let err = frame::expect_header(&b, Kind::Result, 0).expect_err(what);
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}: {err}");
        }
        // A well-formed frame still round-trips through the same reader.
        let (a, b) = UnixStream::pair().expect("socketpair");
        frame::write(&a, Kind::Result, 7, b"ok").expect("write");
        let len = frame::expect_header(&b, Kind::Result, 7).expect("header");
        assert_eq!(frame::read_payload(&b, len).expect("payload"), b"ok");
    }

    #[test]
    fn proc_allreduce_sum_matches_serial() {
        let results = run_spmd_proc(4, |c| {
            let mut buf = vec![c.rank() as f64, 1.0];
            c.allreduce_sum_f64(&mut buf);
            buf
        })
        .expect("job runs");
        for r in results {
            assert_eq!(r, vec![6.0, 4.0]);
        }
    }

    /// Every collective of [`Comm`] plus the barrier, the exchanging ones
    /// at frame lengths on every side of the lockstep loop's chunk
    /// boundaries: the results' bits and this rank's counters for the lot.
    fn every_collective<C: Comm>(c: &C) -> (Vec<u64>, CommStats) {
        let (p, r) = (c.size(), c.rank());
        let f = |i: usize| 0.1 * (r * 13 + i) as f64;
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let before = c.stats();
        let mut out = Vec::new();
        c.barrier();
        let mut sum: Vec<f64> = (0..9).map(f).collect();
        c.allreduce_sum_f64(&mut sum);
        out.extend(bits(&sum));
        let mut big: Vec<f64> = (0..EAGER_MAX / 8 + 1).map(f).collect();
        c.allreduce_sum_f64(&mut big);
        out.extend(bits(&big));
        let mut min = [f(2), -f(3)];
        c.allreduce_min_f64(&mut min);
        out.extend(bits(&min));
        out.extend(c.allreduce([r as u64 + 1, 7], |a, b| [a[0] + b[0], a[1] + b[1]]));
        let (lo, total) = c.allreduce((f(0), f(1)), |a, b| (a.0.min(b.0), a.1 + b.1));
        out.extend(bits(&[lo, total]));
        out.push(c.exscan_sum_u64(r as u64 + 3));
        for row in c.allgather(vec![f(6); r + 1]) {
            out.extend(bits(&row));
        }
        // A byte vector travels as its 8-byte length plus its bytes, behind
        // a 24-byte header: an empty and a one-byte vector, then frames
        // that end with the first chunk, 24 and 25 bytes into the second,
        // and 31 into the fourth.
        for payload in [8, 9, EAGER_MAX - 24, EAGER_MAX, EAGER_MAX + 1, 3 * EAGER_MAX + 7] {
            for row in c.allgather(vec![r as u8 + 1; payload - 8]) {
                out.extend([row.len() as u64, u64::from(row.iter().all(|&b| b == row[0]))]);
            }
        }
        for row in c.alltoallv((0..p).map(|d| vec![(100 * r + d) as u64; d + 1]).collect()) {
            out.extend(row);
        }
        // Unequal lengths on the two directions of every ring step.
        let mine = |d: usize| if d == r { Vec::new() } else { vec![r as u8; (r + 1) * 100 * 1024] };
        for row in c.alltoallv((0..p).map(mine).collect()) {
            out.extend([row.len() as u64, row.iter().map(|&b| u64::from(b)).sum()]);
        }
        c.barrier();
        (out, c.stats().since(&before))
    }

    #[test]
    fn proc_collectives_match_thread_comm_bitwise() {
        // Both backends run the one generic collective layer, so equal
        // results and equal per-rank counters hold by construction; this
        // guards it — power-of-two and folded rank counts, and p = 1.
        for p in [1usize, 2, 3, 5] {
            let thread = crate::run_spmd(p, |c| every_collective(&c));
            let procs = run_spmd_proc(p, |c| every_collective(&c)).expect("job runs");
            for (r, (t, q)) in thread.iter().zip(&procs).enumerate() {
                assert_eq!(t.0, q.0, "p={p} rank {r}: backends disagree bitwise");
                assert_eq!(t.1, q.1, "p={p} rank {r}: counters disagree");
                assert_eq!(t.1.collectives(), 15, "p={p} rank {r}");
                assert_eq!(t.1.rounds() > 0, p > 1, "p={p} rank {r}");
            }
        }
    }

    #[test]
    fn proc_allgather_and_alltoallv_route_correctly() {
        let results = run_spmd_proc(4, |c| {
            let all = c.allgather(vec![c.rank() as u64; c.rank() + 1]);
            let sends: Vec<Vec<u64>> =
                (0..4).map(|d| vec![100 * c.rank() as u64 + d as u64]).collect();
            let recv = c.alltoallv(sends);
            (all, recv)
        })
        .expect("job runs");
        for (r, (all, recv)) in results.iter().enumerate() {
            assert_eq!(all.iter().map(|v| v.len()).collect::<Vec<_>>(), vec![1, 2, 3, 4]);
            for (s, v) in recv.iter().enumerate() {
                assert_eq!(v, &vec![100 * s as u64 + r as u64]);
            }
        }
    }

    #[test]
    fn proc_single_rank_works() {
        let results = run_spmd_proc(1, |c| {
            let mut buf = vec![3.0];
            c.allreduce_sum_f64(&mut buf);
            (buf[0], c.exscan_sum_u64(9))
        })
        .expect("job runs");
        assert_eq!(results, vec![(3.0, 0)]);
    }

    #[test]
    fn proc_large_payload_exchange() {
        // Above EAGER_MAX: five chunks each way per message.
        let n = 40_000; // 320 KB of f64 per message
        let results = run_spmd_proc(2, |c| {
            let mut buf = vec![1.5f64; n];
            c.allreduce_sum_f64(&mut buf);
            let all = c.allgather(vec![c.rank() as u64; n]);
            (buf[0], all[1][0])
        })
        .expect("job runs");
        for (sum, g) in results {
            assert_eq!(sum, 3.0);
            assert_eq!(g, 1);
        }
    }

    #[test]
    fn proc_panicking_rank_is_a_clean_error_not_a_hang() {
        let err = run_spmd_proc(3, |c| {
            if c.rank() == 1 {
                panic!("rank 1 exploded");
            }
            let mut buf = vec![1.0];
            c.allreduce_sum_f64(&mut buf);
            buf[0]
        })
        .expect_err("job must fail");
        let msg = err.to_string();
        assert!(msg.contains("exploded") || msg.contains("rank"), "unhelpful error: {msg}");
    }

    #[test]
    fn proc_killed_rank_is_a_clean_error_not_a_hang() {
        // A worker that dies without unwinding or reporting (`_exit` ≈
        // kill -9 as far as peers can tell: its sockets close) — while
        // another thread spawns a job whose workers stay alive until
        // released. Had one of *them* inherited an end of this job's links,
        // the survivors would wait for an EOF that cannot come.
        let (release, gate) = UnixStream::pair().expect("socketpair");
        let together = std::sync::Barrier::new(2);
        let (outcome, seconds) = std::thread::scope(|sc| {
            sc.spawn(|| {
                let wait = |_: ProcComm| (&gate).read_exact(&mut [0u8]).is_ok();
                together.wait();
                assert_eq!(run_spmd_proc(2, wait).expect("bystander job runs"), [true, true]);
            });
            together.wait();
            let t = Instant::now();
            let outcome = run_spmd_proc(3, |c| {
                if c.rank() == 2 {
                    // SAFETY: _exit(2) takes no pointer and does not return.
                    unsafe { sys::_exit(7) }
                }
                let mut buf = vec![1.0];
                c.allreduce_sum_f64(&mut buf);
                buf[0]
            });
            let seconds = t.elapsed().as_secs_f64();
            (&release).write_all(&[0u8; 2]).expect("release the bystanders");
            (outcome, seconds)
        });
        match outcome.expect_err("job must fail") {
            ProcError::RankFailed { .. } => {}
            other => panic!("unexpected error shape: {other}"),
        }
        assert!(seconds < 5.0, "a dead rank took {seconds:.1} s to notice");
    }

    #[test]
    fn proc_sixteen_idle_ranks_launch_and_are_reaped() {
        // 120 links and 16 control pairs, made row by row; nothing is sent.
        let ranks = run_spmd_proc(16, |c| c.rank()).expect("job runs");
        assert_eq!(ranks, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn proc_stats_are_per_rank_views() {
        let results = run_spmd_proc(2, |c| {
            let before = c.stats();
            let mut buf = vec![0.0f64; 4];
            c.allreduce_sum_f64(&mut buf);
            let d = c.stats().since(&before);
            (d.op(Collective::Allreduce).rounds, d.op(Collective::Allreduce).bytes)
        })
        .expect("job runs");
        for (rounds, bytes) in results {
            assert_eq!(rounds, 1, "p=2 butterfly is one round");
            // Four f64 payload bytes; the wire's length prefix is not counted.
            assert_eq!(bytes, 32);
        }
    }

    #[test]
    fn measured_alpha_beta_is_sane() {
        let m = measure_alpha_beta(20).expect("calibration runs");
        assert!(m.alpha > 0.0 && m.alpha < 0.1, "alpha {} out of range", m.alpha);
        assert!(m.beta >= 0.0 && m.beta < 1e-4, "beta {} out of range", m.beta);
        assert_eq!(m.samples.len(), 6);
    }
}
