//! Processes-as-ranks communicator: the real-wires SPMD backend.
//!
//! [`run_spmd_proc`] forks `p` worker **OS processes** and runs the same
//! closure on all of them, exactly like [`run_spmd`](crate::run_spmd) does
//! with threads — except nothing is shared: every collective payload
//! crosses a process boundary through Unix-domain sockets, so the α–β
//! numbers the substrate reports can be *measured* against real kernel
//! round-trips instead of modeled from counters alone.
//!
//! The substrate has three layers:
//!
//! * **Rendezvous** — the parent forks workers that meet in a private
//!   socket directory: each rank binds its own listener, dials every
//!   lower rank (with retry until the peer has bound), and both sides
//!   exchange a `HELLO` frame carrying the rank id and a per-job token,
//!   yielding a full mesh of per-peer streams. A control socketpair per
//!   rank (created before the fork) carries the final result or panic
//!   back to the parent.
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
//! a rank that *dies* (kill -9, `process::exit`) just disappears — its
//! sockets close, peers' blocking reads return EOF, and they panic with a
//! "peer hung up" error that propagates the failure instead of hanging
//! the job. The parent additionally enforces a deadline
//! (`GEO_PROC_TIMEOUT_SECS`, default 120 s) and SIGKILLs stragglers, so a
//! genuinely hung worker also becomes a clean [`ProcError`].
//!
//! Deadlock avoidance on the wire, all behind `sendrecv`: frames at or
//! below `EAGER_MAX` bytes are written eagerly (they fit the socket
//! buffer, so the write cannot block) and read afterwards; larger pairwise
//! exchanges fall back to a rank-ordered rendezvous (lower rank writes
//! first while the higher rank drains), and larger ring steps overlap the
//! write on a scoped thread — the same eager/rendezvous split real MPI
//! implementations use.

#![cfg(unix)]

use std::cell::Cell;
use std::io::{self, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::AssertUnwindSafe;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant, SystemTime};

use crate::collectives::Tag;
use crate::stats::{Collective, StatsCell};
use crate::wire::{from_wire, to_wire, Wire};

/// Largest frame payload written eagerly (before reading): must stay
/// comfortably under the kernel's default Unix-socket buffer so an eager
/// write can never block against an un-drained peer.
const EAGER_MAX: usize = 64 * 1024;

/// Seconds a job may run before the parent kills the workers
/// (override with `GEO_PROC_TIMEOUT_SECS`).
const DEFAULT_TIMEOUT_SECS: f64 = 120.0;

/// Seconds the mesh rendezvous may take before a worker gives up.
const RENDEZVOUS_TIMEOUT_SECS: f64 = 20.0;

/// Raw process primitives, declared directly against the platform libc
/// that std already links (the workspace builds offline; no `libc` crate).
mod sys {
    extern "C" {
        pub fn fork() -> i32;
        pub fn waitpid(pid: i32, status: *mut i32, options: i32) -> i32;
        pub fn kill(pid: i32, sig: i32) -> i32;
    }

    pub const SIGKILL: i32 = 9;

    /// Decode a `waitpid` status into a human-readable failure, or `None`
    /// for a clean zero exit.
    pub fn failure_of(status: i32) -> Option<String> {
        if status & 0x7f == 0 {
            let code = (status >> 8) & 0xff;
            (code != 0).then(|| format!("exited with code {code}"))
        } else {
            Some(format!("killed by signal {}", status & 0x7f))
        }
    }
}

/// Why a multi-process SPMD job failed.
#[derive(Debug)]
pub enum ProcError {
    /// The workers could not be spawned or the rendezvous directory could
    /// not be set up.
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

/// Frame kinds on the wire (one byte).
mod kind {
    pub const HELLO: u8 = 1;
    pub const BARRIER: u8 = 2;
    pub const ALLGATHER: u8 = 3;
    pub const ALLREDUCE: u8 = 4;
    pub const BROADCAST: u8 = 5;
    pub const EXSCAN: u8 = 6;
    pub const ALLTOALLV: u8 = 7;
    pub const PROBE: u8 = 8;
    pub const RESULT: u8 = 9;
    pub const PANIC: u8 = 10;
    /// A worker's `CheckedComm` lockstep check failed: the payload is a
    /// wire-encoded [`crate::checked::ProtocolError`], not a panic string.
    pub const PROTOCOL: u8 = 11;
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

    pub fn write(stream: &UnixStream, kind: u8, seq: u64, payload: &[u8]) -> io::Result<()> {
        let mut head = [0u8; HEADER];
        head[..4].copy_from_slice(&MAGIC.to_le_bytes());
        head[4] = kind;
        head[8..16].copy_from_slice(&seq.to_le_bytes());
        head[16..24].copy_from_slice(&(payload.len() as u64).to_le_bytes());
        let mut w = stream;
        if payload.len() <= EAGER_MAX {
            // One buffer, one write: eager frames must hit the socket in a
            // single syscall so the "cannot block" reasoning holds.
            let mut buf = Vec::with_capacity(HEADER + payload.len());
            buf.extend_from_slice(&head);
            buf.extend_from_slice(payload);
            w.write_all(&buf)
        } else {
            w.write_all(&head)?;
            w.write_all(payload)
        }
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

    /// Read the `len` payload bytes a validated header announced.
    pub fn read_payload(stream: &UnixStream, len: usize) -> io::Result<Vec<u8>> {
        let mut r = stream;
        let mut payload = vec![0u8; len];
        r.read_exact(&mut payload)?;
        Ok(payload)
    }

    /// Read one frame, requiring `kind` and `seq` to match what the SPMD
    /// call order predicts.
    pub fn read(stream: &UnixStream, kind: u8, seq: u64) -> io::Result<Vec<u8>> {
        let (got_kind, got_seq, len) = read_header(stream)?;
        if got_kind != kind || got_seq != seq {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "frame desync: got (kind {got_kind}, seq {got_seq}), \
                     expected (kind {kind}, seq {seq})"
                ),
            ));
        }
        read_payload(stream, len)
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
    /// Worker-side rendezvous: bind own listener, dial every lower rank,
    /// accept every higher rank, handshake with `HELLO{rank}` frames
    /// carrying the job token.
    fn connect(dir: &Path, rank: usize, size: usize, job: u64) -> io::Result<ProcComm> {
        let deadline = Instant::now() + Duration::from_secs_f64(RENDEZVOUS_TIMEOUT_SECS);
        let sock = |r: usize| dir.join(format!("r{r}.sock"));
        let mut peers: Vec<Option<Peer>> = (0..size).map(|_| None).collect();
        let listener = UnixListener::bind(sock(rank))?;
        listener.set_nonblocking(true)?;
        // Dial lower ranks, retrying until the peer has bound its path.
        #[allow(clippy::needless_range_loop)] // `s` is a rank id, not just an index
        for s in 0..rank {
            let stream = loop {
                match UnixStream::connect(sock(s)) {
                    Ok(st) => break st,
                    Err(e) => {
                        if Instant::now() >= deadline {
                            return Err(io::Error::new(
                                e.kind(),
                                format!("rank {rank}: rendezvous with rank {s} timed out: {e}"),
                            ));
                        }
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
            };
            frame::write(&stream, kind::HELLO, job, &to_wire(&(rank as u64)))?;
            peers[s] = Some(Peer::new(stream));
        }
        // Accept higher ranks; the hello tells us which one dialed in.
        for _ in rank + 1..size {
            let stream = loop {
                match listener.accept() {
                    Ok((st, _)) => break st,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        if Instant::now() >= deadline {
                            return Err(io::Error::new(
                                io::ErrorKind::TimedOut,
                                format!("rank {rank}: rendezvous accept timed out"),
                            ));
                        }
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    Err(e) => return Err(e),
                }
            };
            stream.set_nonblocking(false)?;
            stream.set_read_timeout(Some(deadline.saturating_duration_since(Instant::now())))?;
            let hello = frame::read(&stream, kind::HELLO, job)?;
            let s = from_wire::<u64>(&hello) as usize;
            if s <= rank || s >= size || peers[s].is_some() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("rank {rank}: bogus hello from rank {s}"),
                ));
            }
            stream.set_read_timeout(None)?;
            peers[s] = Some(Peer::new(stream));
        }
        Ok(ProcComm { rank, size, peers, stats: StatsCell::default() })
    }

    fn peer(&self, r: usize) -> &Peer {
        // Infallible — the mesh is full except s == rank, and no collective addresses self.
        self.peers[r].as_ref().unwrap_or_else(|| panic!("rank {} has no stream to {r}", self.rank))
    }

    fn send_frame(&self, to: usize, k: u8, payload: &[u8]) {
        let peer = self.peer(to);
        let seq = bump(&peer.sent);
        frame::write(&peer.stream, k, seq, payload).unwrap_or_else(|e| {
            // Deliberate fail-loud abort — a wire fault means a peer died; the parent reports a ProcError (DESIGN.md §10).
            panic!("rank {}: send to rank {to} failed (kind {k}, seq {seq}): {e}", self.rank)
        });
    }

    fn recv_frame(&self, from: usize, k: u8) -> Vec<u8> {
        let peer = self.peer(from);
        let seq = bump(&peer.received);
        frame::read(&peer.stream, k, seq).unwrap_or_else(|e| {
            let why = if e.kind() == io::ErrorKind::UnexpectedEof {
                "peer hung up mid-collective (rank died?)".to_string()
            } else {
                e.to_string()
            };
            // Deliberate fail-loud abort — EOF here is the designed dead-peer signal; the parent reports a ProcError (DESIGN.md §10).
            panic!("rank {}: recv from rank {from} failed (kind {k}, seq {seq}): {why}", self.rank)
        })
    }

    /// Send `payload` to `to` while receiving a same-kind frame from
    /// `from`, without ever blocking forever against a full socket buffer:
    /// eager for small payloads; for large ones a pairwise exchange
    /// (`to == from`) is a rank-ordered rendezvous — the lower rank writes
    /// while the higher drains — and a ring step (`to != from`) overlaps
    /// the write on a scoped thread, because a ring of blocking writes can
    /// cycle.
    fn sendrecv_frames(&self, to: usize, k: u8, payload: &[u8], from: usize) -> Vec<u8> {
        if payload.len() <= EAGER_MAX || (to == from && self.rank < to) {
            self.send_frame(to, k, payload);
            self.recv_frame(from, k)
        } else if to == from {
            let got = self.recv_frame(from, k);
            self.send_frame(to, k, payload);
            got
        } else {
            let peer = self.peer(to);
            let (stream, seq, me) = (&peer.stream, bump(&peer.sent), self.rank);
            std::thread::scope(|sc| {
                sc.spawn(move || {
                    frame::write(stream, k, seq, payload).unwrap_or_else(|e| {
                        // Deliberate fail-loud abort — same dead-peer policy as send_frame() (DESIGN.md §10).
                        panic!("rank {me}: send to rank {to} failed (kind {k}, seq {seq}): {e}")
                    });
                });
                self.recv_frame(from, k)
            })
        }
    }

    /// Raw pairwise exchange with rank `rank ^ 1`, outside the collective
    /// bookkeeping: the calibration probe [`measure_alpha_beta`] uses this
    /// to time exactly one frame each way with no serialization overhead.
    pub fn probe_exchange(&self, payload: &[u8]) -> Vec<u8> {
        assert!(self.size >= 2, "probe needs a partner rank");
        let partner = self.rank ^ 1;
        self.sendrecv_frames(partner, kind::PROBE, payload, partner)
    }
}

/// The frame kind a message of `tag` travels under.
fn kind_of(tag: Tag) -> u8 {
    match tag {
        Tag::Barrier => kind::BARRIER,
        Tag::Op(Collective::Allgather) => kind::ALLGATHER,
        Tag::Op(Collective::Allreduce) => kind::ALLREDUCE,
        Tag::Op(Collective::Broadcast) => kind::BROADCAST,
        Tag::Op(Collective::Exscan) => kind::EXSCAN,
        Tag::Op(Collective::Alltoallv) => kind::ALLTOALLV,
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
        self.send_frame(to, kind_of(tag), &to_wire(&value));
    }

    fn recv<T: Wire>(&self, tag: Tag, from: usize) -> T {
        from_wire(&self.recv_frame(from, kind_of(tag)))
    }

    fn sendrecv<T: Wire>(&self, tag: Tag, to: usize, value: T, from: usize) -> T {
        from_wire(&self.sendrecv_frames(to, kind_of(tag), &to_wire(&value), from))
    }

    fn with_stats<R>(&self, f: impl FnOnce(&StatsCell) -> R) -> R {
        f(&self.stats)
    }
}

/// Monotone job counter, so concurrent/nested jobs in one process get
/// distinct rendezvous directories.
static JOB_COUNTER: AtomicU64 = AtomicU64::new(0);

fn job_timeout() -> f64 {
    std::env::var("GEO_PROC_TIMEOUT_SECS")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|s| *s > 0.0)
        .unwrap_or(DEFAULT_TIMEOUT_SECS)
}

/// Worker body after the fork: rendezvous, run `f`, report the result (or
/// the panic message) over the control socket, and exit without returning
/// into the caller's stack.
fn child_main<R, F>(ctrl: UnixStream, dir: PathBuf, rank: usize, size: usize, job: u64, f: F) -> !
where
    R: Wire,
    F: Fn(ProcComm) -> R,
{
    let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
        let comm = ProcComm::connect(&dir, rank, size, job)
            // Deliberate fail-loud abort — caught by this catch_unwind and reported to the parent as a PANIC frame.
            .unwrap_or_else(|e| panic!("rank {rank}: rendezvous failed: {e}"));
        f(comm)
    }));
    let code = match outcome {
        Ok(v) => {
            let _ = frame::write(&ctrl, kind::RESULT, job, &to_wire(&v));
            0
        }
        Err(payload) => {
            // A CheckedComm lockstep report crosses the control socket
            // typed, not flattened to a panic string.
            if let Some(pe) = payload.downcast_ref::<crate::checked::ProtocolError>() {
                let _ = frame::write(&ctrl, kind::PROTOCOL, job, &to_wire(pe));
                102
            } else {
                let msg: &str = if let Some(s) = payload.downcast_ref::<&str>() {
                    s
                } else if let Some(s) = payload.downcast_ref::<String>() {
                    s
                } else {
                    "worker panicked (non-string payload)"
                };
                let _ = frame::write(&ctrl, kind::PANIC, job, msg.as_bytes());
                101
            }
        }
    };
    std::process::exit(code)
}

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
pub fn run_spmd_proc<R, F>(p: usize, f: F) -> Result<Vec<R>, ProcError>
where
    R: Wire,
    F: Fn(ProcComm) -> R,
{
    assert!(p > 0, "communicator needs at least one rank");
    let job = JOB_COUNTER.fetch_add(1, Ordering::Relaxed);
    let token = {
        let nanos = SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .map(|d| d.subsec_nanos() as u64)
            .unwrap_or(0);
        (std::process::id() as u64) << 32 ^ job << 8 ^ nanos
    };
    let dir = std::env::temp_dir().join(format!("geo-spmd-{}-{job}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(ProcError::Spawn)?;

    let mut parents: Vec<UnixStream> = Vec::with_capacity(p);
    let mut pids: Vec<i32> = Vec::with_capacity(p);
    let kill_all = |pids: &[i32]| {
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
    };
    for rank in 0..p {
        let (pa, ch) = match UnixStream::pair() {
            Ok(pair) => pair,
            Err(e) => {
                kill_all(&pids);
                let _ = std::fs::remove_dir_all(&dir);
                return Err(ProcError::Spawn(e));
            }
        };
        // SAFETY: direct fork(2). The child never returns into the
        // caller's stack: it drops the inherited parent-side endpoints
        // and diverges into `child_main`, which ends in process::exit —
        // so no foreign Drop impls or locks from the parent run in the
        // child, and the parent side only inspects the returned pid.
        let pid = unsafe { sys::fork() };
        if pid < 0 {
            kill_all(&pids);
            let _ = std::fs::remove_dir_all(&dir);
            return Err(ProcError::Spawn(io::Error::last_os_error()));
        }
        if pid == 0 {
            // Worker: close the inherited parent-side endpoints of ranks
            // forked before us, keep only our child end, and never return.
            drop(std::mem::take(&mut parents));
            drop(pa);
            child_main(ch, dir, rank, p, token, f)
        }
        parents.push(pa);
        drop(ch);
        pids.push(pid);
    }

    // Collect one result or panic frame per rank, under a job deadline.
    let timeout = job_timeout();
    let deadline = Instant::now() + Duration::from_secs_f64(timeout);
    let mut failure: Option<ProcError> = None;
    let mut payloads: Vec<Option<Vec<u8>>> = (0..p).map(|_| None).collect();
    for (rank, ctrl) in parents.iter().enumerate() {
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            failure.get_or_insert(ProcError::Timeout { rank, seconds: timeout });
            continue;
        }
        // `set_read_timeout` rejects a zero duration; remaining > 0 here.
        if ctrl.set_read_timeout(Some(remaining)).is_err() {
            failure.get_or_insert(ProcError::RankFailed {
                rank,
                detail: "control socket unusable".into(),
            });
            continue;
        }
        let outcome = frame::read_header(ctrl)
            .and_then(|(k, _, len)| Ok((k, frame::read_payload(ctrl, len)?)));
        match outcome {
            Ok((k, payload)) if k == kind::RESULT => payloads[rank] = Some(payload),
            Ok((k, payload)) if k == kind::PANIC => {
                failure.get_or_insert(ProcError::RankFailed {
                    rank,
                    detail: String::from_utf8_lossy(&payload).into_owned(),
                });
            }
            Ok((k, payload)) if k == kind::PROTOCOL => {
                failure.get_or_insert(ProcError::Protocol { rank, error: from_wire(&payload) });
            }
            Ok((k, _)) => {
                failure.get_or_insert(ProcError::RankFailed {
                    rank,
                    detail: format!("protocol violation: unexpected frame kind {k}"),
                });
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut =>
            {
                failure.get_or_insert(ProcError::Timeout { rank, seconds: timeout });
            }
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => {
                failure.get_or_insert(ProcError::RankFailed {
                    rank,
                    detail: "worker process died without reporting a result".into(),
                });
            }
            Err(e) => {
                failure.get_or_insert(ProcError::RankFailed { rank, detail: e.to_string() });
            }
        }
    }

    if failure.is_some() {
        // Stragglers may be blocked on a dead peer; put the job down hard.
        kill_all(&pids);
    } else {
        for (rank, &pid) in pids.iter().enumerate() {
            let mut status = 0i32;
            // SAFETY: waitpid(2) on a child this parent forked and has
            // not reaped; the status out-pointer is a live stack i32.
            let r = unsafe { sys::waitpid(pid, &mut status, 0) };
            if r == pid {
                if let Some(detail) = sys::failure_of(status) {
                    failure.get_or_insert(ProcError::RankFailed { rank, detail });
                }
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    if let Some(e) = failure {
        return Err(e);
    }
    Ok(payloads
        .into_iter()
        // Infallible — reached only when `failure` is None, which requires a RESULT frame from every rank.
        .map(|b| from_wire::<R>(&b.expect("result frame present for every rank")))
        .collect())
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
            head[4] = kind::RESULT;
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
            let err = frame::read(&b, kind::RESULT, 0).expect_err(what);
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}: {err}");
        }
        // A well-formed frame still round-trips through the same reader.
        let (a, b) = UnixStream::pair().expect("socketpair");
        frame::write(&a, kind::RESULT, 7, b"ok").expect("write");
        assert_eq!(frame::read(&b, kind::RESULT, 7).expect("read"), b"ok");
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

    /// Every collective of [`Comm`] plus the barrier, once each (twice
    /// where a payload above `EAGER_MAX` takes another wire path): the
    /// results' bits and this rank's counters for the lot.
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
        let (mut max, mut min) = ([f(0), -f(1)], [f(2), -f(3)]);
        c.allreduce_max_f64(&mut max);
        c.allreduce_min_f64(&mut min);
        out.extend(bits(&max));
        out.extend(bits(&min));
        let mut count = [r as u64 + 1, 7];
        c.allreduce_sum_u64(&mut count);
        out.extend(count);
        let (lo, total) = c.allreduce((f(0), f(1)), |a, b| (a.0.min(b.0), a.1 + b.1));
        out.extend(bits(&[lo, total]));
        out.push(c.exscan_sum_u64(r as u64 + 3));
        out.extend(bits(&c.broadcast(p - 1, (r == p - 1).then(|| vec![f(4), f(5)]))));
        for row in c.allgather(vec![f(6); r + 1]) {
            out.extend(bits(&row));
        }
        for row in c.allgather(vec![r as u64; EAGER_MAX / 8 + 1]) {
            out.extend([row.len() as u64, row[0]]);
        }
        for row in c.alltoallv((0..p).map(|d| vec![(100 * r + d) as u64; d + 1]).collect()) {
            out.extend(row);
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
                assert_eq!(t.1.collectives(), 11, "p={p} rank {r}");
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
    fn proc_broadcast_and_barrier() {
        let results = run_spmd_proc(3, |c| {
            c.barrier();
            let v = c.broadcast(1, (c.rank() == 1).then(|| vec![5u32, 6]));
            c.barrier();
            v
        })
        .expect("job runs");
        for r in results {
            assert_eq!(r, vec![5, 6]);
        }
    }

    #[test]
    fn proc_single_rank_works() {
        let results = run_spmd_proc(1, |c| {
            let mut buf = vec![3.0];
            c.allreduce_sum_f64(&mut buf);
            (buf[0], c.exscan_sum_u64(9), c.broadcast(0, Some(4u32)))
        })
        .expect("job runs");
        assert_eq!(results, vec![(3.0, 0, 4)]);
    }

    #[test]
    fn proc_large_payload_exchange() {
        // Above EAGER_MAX: exercises the rank-ordered rendezvous and the
        // scoped-thread ring path.
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
        // A worker that dies without unwinding (exit ≈ kill -9 as far as
        // peers can tell: sockets close, no panic report).
        let err = run_spmd_proc(3, |c| {
            if c.rank() == 2 {
                std::process::exit(7);
            }
            let mut buf = vec![1.0];
            c.allreduce_sum_f64(&mut buf);
            buf[0]
        })
        .expect_err("job must fail");
        match err {
            ProcError::RankFailed { .. } | ProcError::Timeout { .. } => {}
            other => panic!("unexpected error shape: {other}"),
        }
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
