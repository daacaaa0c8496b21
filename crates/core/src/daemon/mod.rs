//! Network-facing flow daemon: a long-lived, fault-contained front end
//! over the transport-free flow engine.
//!
//! The batch [`FlowServer`](crate::server::FlowServer) runs a fixed batch
//! to completion; the daemon is its streaming counterpart for clients that
//! arrive over a socket. It speaks the line-delimited JSON protocol of
//! [`protocol`] on a Unix socket (and optionally TCP), runs on the engine
//! the server runs on (`engine.rs`: its queue, worker loop, thread-budget
//! split and shared-store open) and the same
//! [`run_flow_observed`](crate::flow::run_flow_observed) core, and adds the
//! concerns a network boundary forces:
//!
//! - **Admission control.** The engine's queue is bounded: past
//!   [`DaemonConfig::queue_high_water`] a submit gets a typed
//!   `rejected{queue-full}` frame instead of unbounded buffering. Load is
//!   shed loudly, never absorbed silently.
//! - **Deadlines.** A submit may carry `deadline_ms`, measured from
//!   admission. The remaining allowance is handed to the supervisor as
//!   [`FlowConfig::deadline_s`](crate::config::FlowConfig::deadline_s), so
//!   an overrun surfaces as a typed
//!   [`FlowError::DeadlineExceeded`](crate::flow::FlowError::DeadlineExceeded)
//!   at a stage boundary — a worker is never killed mid-attempt, and never
//!   hangs.
//! - **Fault containment.** Every connection gets its own reader thread
//!   and write lock. A malformed frame, an oversized frame, or a mid-run
//!   disconnect kills *that* connection and lazily cancels *its* queued
//!   requests; every other client's requests run to completion with
//!   bit-identical QoR (the determinism contract is end-to-end:
//!   `qor_fp` over the wire equals a solo rerun's).
//! - **Graceful drain.** A `shutdown` frame or SIGTERM (opt-in,
//!   [`DaemonConfig::handle_sigterm`]) closes the engine: *accepting →
//!   closed → workers joined*. Listeners stop accepting, new submits get
//!   `rejected{draining}`, admitted requests finish and the workers return;
//!   then the readers stop, the daemon acknowledges with its final stats,
//!   cleans up its socket, and [`Daemon::run`] returns those same stats —
//!   the CLI exits 0.

pub mod client;
pub mod protocol;
pub mod wire;

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use eda_netlist::Netlist;

use crate::config::FlowConfig;
use crate::engine::{Engine, Popped, Refused};
use crate::store::{QorQuery, StoreConfig};

use protocol::{
    flow_config_for, parse_client_frame, ClientFrame, DaemonStats, DesignSpec, QuerySpec,
    RejectReason, ServerFrame, SubmitSpec,
};

/// Hard cap on one frame's length; longer input is a protocol error and
/// closes the connection, so a hostile client cannot balloon daemon memory.
const FRAME_CAP: usize = 1 << 20;

/// How often readers, listeners and the SIGTERM poll wake to check their
/// flags. Workers never poll: they block on the engine's queue.
const TICK: Duration = Duration::from_millis(100);

/// How long a frame write to a stalled client may block before the
/// connection is declared dead (slow-loris containment on the write side).
const WRITE_TIMEOUT: Duration = Duration::from_secs(2);

/// Set by the SIGTERM handler; polled by [`Daemon::run`]. Global
/// because signal dispositions are process-wide.
static SIGTERM_FLAG: AtomicBool = AtomicBool::new(false);

extern "C" fn on_sigterm(_sig: libc::c_int) {
    // Async-signal-safe by construction: one atomic store, nothing else.
    SIGTERM_FLAG.store(true, Ordering::SeqCst);
}

/// Configuration of one daemon instance.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Path of the Unix listening socket; created at bind, removed at exit.
    pub socket: PathBuf,
    /// Optional TCP listen address (e.g. `127.0.0.1:0`).
    pub tcp: Option<String>,
    /// Flow worker threads (`0` = auto: half the resolved thread budget).
    pub workers: usize,
    /// Global kernel thread budget shared by the workers (`0` = all cores);
    /// each request's kernels get `max(1, threads / workers)` of it.
    pub threads: usize,
    /// Admission high-water mark: submits arriving while this many requests
    /// are already queued (not yet running) are rejected with `queue-full`.
    /// At least 1: [`Daemon::bind`] refuses 0, which would reject every submit.
    pub queue_high_water: usize,
    /// Shared flow store handed to every request: stage + sub-stage cache
    /// plus the QoR provenance tables the `query` frame reads.
    pub store: Option<StoreConfig>,
    /// Install a SIGTERM handler that triggers graceful drain. Opt-in
    /// because signal dispositions are process-wide: the CLI enables it,
    /// in-process tests leave it off.
    pub handle_sigterm: bool,
}

impl DaemonConfig {
    /// A daemon on `socket` with 2 workers, an all-cores kernel budget, a
    /// high-water mark of 8, no TCP endpoint, and no SIGTERM handler.
    pub fn new(socket: impl Into<PathBuf>) -> DaemonConfig {
        DaemonConfig {
            socket: socket.into(),
            tcp: None,
            workers: 2,
            threads: 0,
            queue_high_water: 8,
            store: None,
            handle_sigterm: false,
        }
    }
}

/// Either transport the daemon serves.
#[derive(Debug)]
pub(crate) enum Stream {
    /// A Unix-domain connection.
    Unix(UnixStream),
    /// A TCP connection.
    Tcp(TcpStream),
}

impl Stream {
    pub(crate) fn try_clone(&self) -> io::Result<Stream> {
        match self {
            Stream::Unix(s) => s.try_clone().map(Stream::Unix),
            Stream::Tcp(s) => s.try_clone().map(Stream::Tcp),
        }
    }

    pub(crate) fn set_read_timeout(&self, d: Option<Duration>) -> io::Result<()> {
        match self {
            Stream::Unix(s) => s.set_read_timeout(d),
            Stream::Tcp(s) => s.set_read_timeout(d),
        }
    }

    pub(crate) fn set_write_timeout(&self, d: Option<Duration>) -> io::Result<()> {
        match self {
            Stream::Unix(s) => s.set_write_timeout(d),
            Stream::Tcp(s) => s.set_write_timeout(d),
        }
    }

    pub(crate) fn shutdown(&self) {
        let _ = match self {
            Stream::Unix(s) => s.shutdown(Shutdown::Both),
            Stream::Tcp(s) => s.shutdown(Shutdown::Both),
        };
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Unix(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Unix(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Unix(s) => s.flush(),
            Stream::Tcp(s) => s.flush(),
        }
    }
}

/// The write half of one connection: a line-atomic, poison-proof writer
/// that turns dead the first time a write fails, after which every send is
/// a silent no-op. Workers and the reader share it through an `Arc`.
pub(crate) struct ConnWriter {
    stream: Mutex<Stream>,
    dead: AtomicBool,
}

impl ConnWriter {
    fn new(stream: Stream) -> ConnWriter {
        ConnWriter { stream: Mutex::new(stream), dead: AtomicBool::new(false) }
    }

    fn is_dead(&self) -> bool {
        self.dead.load(Ordering::SeqCst)
    }

    /// Marks the connection dead and unblocks any reader on it.
    fn kill(&self) {
        self.dead.store(true, Ordering::SeqCst);
        lock_clean(&self.stream).shutdown();
    }

    /// Sends one frame; a failed or timed-out write kills the connection.
    fn send(&self, frame: &ServerFrame) {
        self.write(&mut lock_clean(&self.stream), frame);
    }

    /// Sends the frame `act` returns, holding the write lock across `act`:
    /// no frame another thread sends because of what `act` did can overtake
    /// this one on the wire.
    fn send_after(&self, act: impl FnOnce() -> ServerFrame) {
        let mut s = lock_clean(&self.stream);
        let frame = act();
        self.write(&mut s, &frame);
    }

    /// The write behind both sends; `s` is this connection's locked stream.
    fn write(&self, s: &mut Stream, frame: &ServerFrame) {
        if self.is_dead() {
            return;
        }
        let mut line = frame.to_line();
        line.push('\n');
        if s.write_all(line.as_bytes()).and_then(|()| s.flush()).is_err() {
            self.dead.store(true, Ordering::SeqCst);
            s.shutdown();
        }
    }
}

/// Locks a mutex, surviving poisoning: a panicking peer must not take the
/// whole daemon down with it.
fn lock_clean<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// One admitted request waiting for (or holding) a worker.
struct Job {
    id: u64,
    netlist: Netlist,
    config: FlowConfig,
    conn: Arc<ConnWriter>,
    deadline: Option<Duration>,
}

#[derive(Default)]
struct StatCounters {
    accepted: AtomicU64,
    rejected_full: AtomicU64,
    rejected_draining: AtomicU64,
    rejected_bad: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    protocol_errors: AtomicU64,
    disconnects: AtomicU64,
}

impl StatCounters {
    fn snapshot(&self) -> DaemonStats {
        DaemonStats {
            accepted: self.accepted.load(Ordering::SeqCst),
            rejected_full: self.rejected_full.load(Ordering::SeqCst),
            rejected_draining: self.rejected_draining.load(Ordering::SeqCst),
            rejected_bad: self.rejected_bad.load(Ordering::SeqCst),
            completed: self.completed.load(Ordering::SeqCst),
            failed: self.failed.load(Ordering::SeqCst),
            protocol_errors: self.protocol_errors.load(Ordering::SeqCst),
            disconnects: self.disconnects.load(Ordering::SeqCst),
        }
    }
}

struct Shared {
    cfg: DaemonConfig,
    /// Admission, ordering, workers, drain, and the store the workers
    /// (cache) and reader threads (queries) share: open while accepting,
    /// closed by a `shutdown` frame or SIGTERM.
    engine: Arc<Engine>,
    /// Set once the workers have been joined; ends readers and listeners.
    stop: AtomicBool,
    stats: StatCounters,
    /// The connection that asked for shutdown, owed a `shutdown-ack`.
    shutdown_conn: Mutex<Option<Arc<ConnWriter>>>,
    readers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

/// A bound, not-yet-running daemon. [`Daemon::run`] blocks the calling
/// thread until graceful drain completes.
pub struct Daemon {
    cfg: DaemonConfig,
    unix: UnixListener,
    tcp: Option<TcpListener>,
    tcp_addr: Option<SocketAddr>,
}

impl Daemon {
    /// Binds the listening sockets. A stale Unix socket file from a
    /// previous crash is removed first.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidInput`] when
    /// [`queue_high_water`](DaemonConfig::queue_high_water) is 0, else
    /// whatever binding a listener fails with.
    pub fn bind(cfg: DaemonConfig) -> io::Result<Daemon> {
        if cfg.queue_high_water == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "queue_high_water must be at least 1: a daemon with no queue slot rejects every submit",
            ));
        }
        let _ = std::fs::remove_file(&cfg.socket);
        let unix = UnixListener::bind(&cfg.socket)?;
        unix.set_nonblocking(true)?;
        let (tcp, tcp_addr) = match &cfg.tcp {
            None => (None, None),
            Some(addr) => {
                let l = TcpListener::bind(addr)?;
                l.set_nonblocking(true)?;
                let a = l.local_addr()?;
                (Some(l), Some(a))
            }
        };
        Ok(Daemon { cfg, unix, tcp, tcp_addr })
    }

    /// The bound TCP address, when a TCP endpoint was configured (useful
    /// with port 0).
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// Serves until graceful drain completes, then returns the lifetime
    /// stats. Never panics on client behavior; a hostile client costs at
    /// most its own connection.
    pub fn run(self) -> io::Result<DaemonStats> {
        let cfg = self.cfg;
        let engine =
            Engine::new(cfg.threads, cfg.workers, usize::MAX, cfg.queue_high_water, cfg.store.clone());
        let shared = Arc::new(Shared {
            cfg,
            engine,
            stop: AtomicBool::new(false),
            stats: StatCounters::default(),
            shutdown_conn: Mutex::new(None),
            readers: Mutex::new(Vec::new()),
        });
        if shared.cfg.handle_sigterm {
            // SAFETY: installs an async-signal-safe handler (single atomic
            // store) for SIGTERM; process-wide by nature, opt-in by config.
            unsafe {
                libc::signal(
                    libc::SIGTERM,
                    on_sigterm as extern "C" fn(libc::c_int) as *const () as libc::sighandler_t,
                );
            }
        }

        let workers = shared.engine.start()?;
        let mut listeners = Vec::new();
        for (name, listener) in [
            ("flowd-accept-unix", Some(AnyListener::Unix(self.unix))),
            ("flowd-accept-tcp", self.tcp.map(AnyListener::Tcp)),
        ] {
            let Some(listener) = listener else { continue };
            let sh = Arc::clone(&shared);
            let accept = move || accept_loop(&sh, listener);
            listeners.push(std::thread::Builder::new().name(name.to_string()).spawn(accept)?);
        }

        // accepting → closed. A `shutdown` frame closes the engine from its
        // reader thread; only the signal has to be polled for.
        while shared.cfg.handle_sigterm && !shared.engine.is_closed() {
            if SIGTERM_FLAG.load(Ordering::SeqCst) {
                shared.engine.close();
            } else {
                std::thread::sleep(TICK);
            }
        }
        // closed → workers joined: each worker returns once the queue is
        // closed and empty, so every admitted request has finished when the
        // joins do. A worker lost to a panicking job is joined like any
        // other; it cannot hold the drain open.
        for t in workers {
            let _ = t.join();
        }

        // Quiesced. Stop the readers before counting: a submit they are
        // still answering `rejected{draining}` belongs in the final stats,
        // and the ack must equal what `run` returns.
        shared.stop.store(true, Ordering::SeqCst);
        for t in listeners {
            let _ = t.join();
        }
        let readers = std::mem::take(&mut *lock_clean(&shared.readers));
        for t in readers {
            let _ = t.join();
        }
        let stats = shared.stats.snapshot();
        if let Some(conn) = lock_clean(&shared.shutdown_conn).take() {
            conn.send(&ServerFrame::ShutdownAck(stats));
        }
        let _ = std::fs::remove_file(&shared.cfg.socket);
        Ok(stats)
    }
}

enum AnyListener {
    Unix(UnixListener),
    Tcp(TcpListener),
}

impl AnyListener {
    fn accept(&self) -> io::Result<Stream> {
        match self {
            AnyListener::Unix(l) => l.accept().map(|(s, _)| Stream::Unix(s)),
            AnyListener::Tcp(l) => l.accept().map(|(s, _)| Stream::Tcp(s)),
        }
    }
}

fn accept_loop(shared: &Arc<Shared>, listener: AnyListener) {
    loop {
        if shared.engine.is_closed() {
            break;
        }
        match listener.accept() {
            Ok(stream) => {
                if let Err(e) = spawn_reader(shared, stream) {
                    // Connection setup failed (clone/timeout/thread spawn):
                    // drop this client, keep serving others.
                    let _ = e;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::sleep(TICK / 2),
            Err(_) => std::thread::sleep(TICK / 2),
        }
    }
}

fn spawn_reader(shared: &Arc<Shared>, stream: Stream) -> io::Result<()> {
    stream.set_read_timeout(Some(TICK))?;
    stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
    let writer = stream.try_clone()?;
    let conn = Arc::new(ConnWriter::new(writer));
    let sh = Arc::clone(shared);
    let handle = std::thread::Builder::new()
        .name("flowd-conn".to_string())
        .spawn(move || reader_loop(&sh, stream, &conn))?;
    lock_clean(&shared.readers).push(handle);
    Ok(())
}

enum FrameRead {
    /// A complete line is in the buffer (newline stripped).
    Line,
    /// Timeout tick; the partial line stays buffered.
    Pending,
    /// Peer closed (a truncated final line is discarded).
    Eof,
    /// The line exceeded [`FRAME_CAP`].
    TooLong,
}

fn read_frame(r: &mut BufReader<Stream>, buf: &mut Vec<u8>) -> FrameRead {
    // Never buffer past the cap plus a CRLF: a peer that sends no newline is
    // cut off there, however long it keeps writing.
    let room = (FRAME_CAP + 2).saturating_sub(buf.len()) as u64;
    match r.by_ref().take(room).read_until(b'\n', buf) {
        Ok(0) => FrameRead::Eof,
        Ok(_) => {
            if buf.last() == Some(&b'\n') {
                buf.pop();
                if buf.last() == Some(&b'\r') {
                    buf.pop();
                }
                if buf.len() > FRAME_CAP {
                    FrameRead::TooLong
                } else {
                    FrameRead::Line
                }
            } else if buf.len() >= FRAME_CAP + 2 {
                FrameRead::TooLong
            } else {
                // Data without a newline short of the cap only happens at EOF.
                FrameRead::Eof
            }
        }
        Err(e)
            if matches!(
                e.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut | io::ErrorKind::Interrupted
            ) =>
        {
            FrameRead::Pending
        }
        Err(_) => FrameRead::Eof,
    }
}

fn reader_loop(shared: &Arc<Shared>, stream: Stream, conn: &Arc<ConnWriter>) {
    let mut reader = BufReader::new(stream);
    let mut buf: Vec<u8> = Vec::new();
    loop {
        if shared.stop.load(Ordering::SeqCst) || conn.is_dead() {
            break;
        }
        match read_frame(&mut reader, &mut buf) {
            FrameRead::Pending => continue,
            FrameRead::Eof => {
                // Mid-run disconnect: this client's queued requests are
                // lazily cancelled at dequeue; nobody else is affected.
                conn.kill();
                break;
            }
            FrameRead::TooLong => {
                protocol_error(shared, conn, format!("frame exceeds {FRAME_CAP} bytes"));
                break;
            }
            FrameRead::Line => {
                let line = match std::str::from_utf8(&buf) {
                    Ok(s) => s.to_string(),
                    Err(_) => {
                        protocol_error(shared, conn, "frame is not UTF-8".to_string());
                        break;
                    }
                };
                buf.clear();
                if line.trim().is_empty() {
                    continue;
                }
                match parse_client_frame(&line) {
                    Err(e) => {
                        protocol_error(shared, conn, e.to_string());
                        break;
                    }
                    Ok(ClientFrame::Ping) => {
                        conn.send(&ServerFrame::Pong(shared.stats.snapshot()));
                    }
                    Ok(ClientFrame::Shutdown) => {
                        *lock_clean(&shared.shutdown_conn) = Some(Arc::clone(conn));
                        shared.engine.close();
                    }
                    Ok(ClientFrame::Submit(spec)) => {
                        handle_submit(shared, conn, spec);
                    }
                    Ok(ClientFrame::Query(spec)) => {
                        // Answered right here on the reader thread — a
                        // provenance read never waits behind flow work.
                        handle_query(shared, conn, &spec);
                    }
                }
            }
        }
    }
}

fn protocol_error(shared: &Arc<Shared>, conn: &Arc<ConnWriter>, detail: String) {
    shared.stats.protocol_errors.fetch_add(1, Ordering::SeqCst);
    conn.send(&ServerFrame::ProtocolError { detail });
    conn.kill();
}

/// Counts one refused submit and builds its `rejected` frame.
fn rejection(shared: &Shared, id: u64, reason: RejectReason, detail: String) -> ServerFrame {
    let counter = match reason {
        RejectReason::QueueFull => &shared.stats.rejected_full,
        RejectReason::Draining => &shared.stats.rejected_draining,
        RejectReason::BadRequest => &shared.stats.rejected_bad,
    };
    counter.fetch_add(1, Ordering::SeqCst);
    ServerFrame::Rejected { id, reason, detail }
}

fn handle_query(shared: &Arc<Shared>, conn: &Arc<ConnWriter>, spec: &QuerySpec) {
    let rows = match shared.engine.store() {
        None => Vec::new(),
        Some(store) => store
            .qor_history(&QorQuery {
                design: spec.design.clone(),
                stage: None,
                last: spec.last as usize,
            })
            .unwrap_or_default(),
    };
    conn.send(&ServerFrame::QueryResult { rows });
}

fn handle_submit(shared: &Arc<Shared>, conn: &Arc<ConnWriter>, spec: SubmitSpec) {
    // Validate before admission so a bad request never occupies a queue
    // slot. Generation cost is bounded by the design-spec size cap.
    let design = match DesignSpec::from_str(&spec.design) {
        Ok(d) => d,
        Err(e) => return conn.send(&rejection(shared, spec.id, RejectReason::BadRequest, e.0)),
    };
    // Threads and the store are the engine's to set when the job runs.
    let config = match flow_config_for(&spec, 1, None, None) {
        Ok(c) => c,
        Err(e) => return conn.send(&rejection(shared, spec.id, RejectReason::BadRequest, e.0)),
    };
    let netlist = match design.build() {
        Ok(n) => n,
        Err(e) => {
            let why = e.to_string();
            return conn.send(&rejection(shared, spec.id, RejectReason::BadRequest, why));
        }
    };
    let job = Job {
        id: spec.id,
        netlist,
        config,
        conn: Arc::clone(conn),
        deadline: spec.deadline_ms.map(Duration::from_millis),
    };
    let sh = Arc::clone(shared);
    let run = move |engine: &Engine, popped: Popped| run_job(&sh, engine, &popped, job);

    // An idle worker pops the job the instant it is pushed, so the answer
    // goes out under the connection's write lock: `accepted` is on the wire
    // before any `stage` or `done` frame of the request it admits.
    conn.send_after(|| match shared.engine.submit(spec.priority, run) {
        Ok(queued) => {
            shared.stats.accepted.fetch_add(1, Ordering::SeqCst);
            ServerFrame::Accepted { id: spec.id, queued }
        }
        Err(Refused::Closed) => {
            let why = "daemon is draining; resubmit elsewhere".to_string();
            rejection(shared, spec.id, RejectReason::Draining, why)
        }
        Err(Refused::Full) => {
            let why = format!("queue at high water ({})", shared.cfg.queue_high_water);
            rejection(shared, spec.id, RejectReason::QueueFull, why)
        }
    });
}

fn run_job(shared: &Shared, engine: &Engine, popped: &Popped, job: Job) {
    if job.conn.is_dead() {
        // The client vanished while this was queued: cancel without
        // spending a worker on it.
        shared.stats.disconnects.fetch_add(1, Ordering::SeqCst);
        return;
    }
    let conn = Arc::clone(&job.conn);
    let id = job.id;
    let observer: crate::telemetry::ProgressFn = Box::new(move |stage, outcome, attempts| {
        conn.send(&ServerFrame::Stage {
            id,
            stage: stage.to_string(),
            outcome: outcome.to_string(),
            attempts,
        });
    });
    let result = engine.run_flow(popped, &job.netlist, job.config, Some(observer), job.deadline);
    let wall_s = popped.admitted.elapsed().as_secs_f64();
    let frame = match result {
        Ok(report) => {
            shared.stats.completed.fetch_add(1, Ordering::SeqCst);
            ServerFrame::Done {
                id: job.id,
                ok: true,
                qor_fp: Some(report.qor_fingerprint()),
                wall_s,
                stages: report.stage_status.len(),
                error: None,
            }
        }
        Err(e) => {
            shared.stats.failed.fetch_add(1, Ordering::SeqCst);
            ServerFrame::Done {
                id: job.id,
                ok: false,
                qor_fp: None,
                wall_s,
                stages: e.partial().statuses.len(),
                error: Some(e.to_string()),
            }
        }
    };
    job.conn.send(&frame);
}
