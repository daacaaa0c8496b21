//! Daemon client helper: typed requests over the wire, capped-exponential
//! retry, and a deterministic hostile mode for transport-fault testing.

use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use super::protocol::{
    parse_server_frame, ClientFrame, DaemonStats, FrameError, QuerySpec, RejectReason,
    ServerFrame, SubmitSpec, TransportFault, TransportFaultPlan,
};
use super::Stream;
use crate::store::QorRow;

/// How long a client waits for one server frame before giving up. Bounds
/// every test and script against a wedged daemon.
const RECV_TIMEOUT: Duration = Duration::from_secs(60);

/// Capped exponential backoff for client-side retries: attempt `n` sleeps
/// `min(base_ms << n, cap_ms)` milliseconds. Deterministic — no jitter —
/// so retry schedules are replayable in tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts (first try included).
    pub attempts: u32,
    /// Backoff before the second attempt, in milliseconds.
    pub base_ms: u64,
    /// Backoff ceiling, in milliseconds.
    pub cap_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy { attempts: 5, base_ms: 10, cap_ms: 500 }
    }
}

impl RetryPolicy {
    /// Backoff before attempt `attempt + 1` (0-based), in milliseconds.
    pub fn backoff_ms(&self, attempt: u32) -> u64 {
        if attempt >= self.base_ms.leading_zeros() {
            return self.cap_ms;
        }
        (self.base_ms << attempt).min(self.cap_ms)
    }
}

/// Where the daemon listens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A Unix socket path.
    Unix(PathBuf),
    /// A TCP address, e.g. `127.0.0.1:7433`.
    Tcp(String),
}

impl Endpoint {
    fn connect(&self) -> io::Result<Stream> {
        match self {
            Endpoint::Unix(path) => UnixStream::connect(path).map(Stream::Unix),
            Endpoint::Tcp(addr) => TcpStream::connect(addr.as_str()).map(Stream::Tcp),
        }
    }
}

/// A client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (connect, read, write, or timeout).
    Io(io::Error),
    /// The server sent a frame the client cannot parse.
    Frame(FrameError),
    /// The server closed the connection (or answered `protocol-error`)
    /// while a request was outstanding.
    ServerClosed(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Frame(e) => write!(f, "unparseable server frame: {e}"),
            ClientError::ServerClosed(why) => write!(f, "server closed the connection: {why}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

/// One streamed per-stage progress event.
#[derive(Debug, Clone, PartialEq)]
pub struct StageEvent {
    /// Stage name, e.g. `4_place`.
    pub stage: String,
    /// Outcome text, e.g. `done`.
    pub outcome: String,
    /// Attempts the stage took.
    pub attempts: usize,
}

/// How a request ended.
#[derive(Debug, Clone, PartialEq)]
pub enum Terminal {
    /// The flow ran; `ok` distinguishes a report from a typed flow error.
    Done {
        /// Whether a report was produced.
        ok: bool,
        /// QoR fingerprint of the report (present when `ok`).
        qor_fp: Option<u64>,
        /// Server-side wall seconds from admission to completion.
        wall_s: f64,
        /// Stages that recorded a status.
        stages: usize,
        /// Typed flow-error text (present when `!ok`).
        error: Option<String>,
    },
    /// Admission refused the request; nothing ran.
    Rejected {
        /// Why.
        reason: RejectReason,
        /// Human-readable detail.
        detail: String,
    },
}

/// Everything the client observed about one request.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestOutcome {
    /// The request id.
    pub id: u64,
    /// Whether an `accepted` frame arrived.
    pub accepted: bool,
    /// Streamed stage events, in arrival order.
    pub stages: Vec<StageEvent>,
    /// The terminal frame.
    pub terminal: Terminal,
    /// Client-measured seconds from submit to the terminal frame.
    pub latency_s: f64,
}

impl RequestOutcome {
    /// The QoR fingerprint, when the request completed with a report.
    pub fn qor_fp(&self) -> Option<u64> {
        match &self.terminal {
            Terminal::Done { ok: true, qor_fp, .. } => *qor_fp,
            _ => None,
        }
    }

    /// Whether the request was shed with the given reason.
    pub fn rejected_with(&self, reason: RejectReason) -> bool {
        matches!(&self.terminal, Terminal::Rejected { reason: r, .. } if *r == reason)
    }
}

/// A connection to the daemon. Also doubles as the deterministic hostile
/// client: with a [`TransportFaultPlan`] installed, outgoing frames are
/// sabotaged exactly as the plan dictates.
pub struct DaemonClient {
    reader: BufReader<Stream>,
    writer: Stream,
    faults: TransportFaultPlan,
    frames_sent: u64,
}

impl DaemonClient {
    /// Connects once.
    pub fn connect(endpoint: &Endpoint) -> io::Result<DaemonClient> {
        let stream = endpoint.connect()?;
        stream.set_read_timeout(Some(RECV_TIMEOUT))?;
        let writer = stream.try_clone()?;
        Ok(DaemonClient {
            reader: BufReader::new(stream),
            writer,
            faults: TransportFaultPlan::default(),
            frames_sent: 0,
        })
    }

    /// Connects with capped-exponential-backoff retry — the standard way
    /// to reach a daemon that may still be binding its socket.
    pub fn connect_retry(endpoint: &Endpoint, policy: &RetryPolicy) -> io::Result<DaemonClient> {
        let mut attempt = 0;
        loop {
            match DaemonClient::connect(endpoint) {
                Ok(c) => return Ok(c),
                Err(e) => {
                    attempt += 1;
                    if attempt >= policy.attempts.max(1) {
                        return Err(e);
                    }
                    std::thread::sleep(Duration::from_millis(policy.backoff_ms(attempt - 1)));
                }
            }
        }
    }

    /// Installs a deterministic transport-fault plan; frame indices count
    /// every frame this client sends, starting at 0.
    pub fn with_faults(mut self, faults: TransportFaultPlan) -> DaemonClient {
        self.faults = faults;
        self
    }

    /// Sends one frame, applying any transport fault scheduled for it.
    pub fn send(&mut self, frame: &ClientFrame) -> io::Result<()> {
        let index = self.frames_sent;
        self.frames_sent += 1;
        let mut line = frame.to_line();
        line.push('\n');
        match self.faults.fault_for(index) {
            None => self.writer.write_all(line.as_bytes())?,
            Some(TransportFault::FrameGarbage) => {
                self.writer.write_all(b"\x01{{{ not json at all\n")?;
            }
            Some(TransportFault::Stall) => {
                // Slow-loris: half a frame, a pause, then the rest. The
                // daemon must keep every other client flowing meanwhile.
                let mid = line.len() / 2;
                self.writer.write_all(&line.as_bytes()[..mid])?;
                self.writer.flush()?;
                std::thread::sleep(Duration::from_millis(300));
                self.writer.write_all(&line.as_bytes()[mid..])?;
            }
            Some(TransportFault::ConnDrop) => {
                self.writer.shutdown();
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionAborted,
                    format!("injected conn-drop at frame {index}"),
                ));
            }
        }
        self.writer.flush()
    }

    /// Reads the next server frame.
    pub fn recv(&mut self) -> Result<ServerFrame, ClientError> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(ClientError::ServerClosed("EOF".to_string()));
        }
        parse_server_frame(line.trim_end()).map_err(ClientError::Frame)
    }

    /// Pings the daemon and returns its lifetime stats.
    pub fn ping(&mut self) -> Result<DaemonStats, ClientError> {
        self.send(&ClientFrame::Ping)?;
        loop {
            match self.recv()? {
                ServerFrame::Pong(stats) => return Ok(stats),
                ServerFrame::ProtocolError { detail } => {
                    return Err(ClientError::ServerClosed(detail))
                }
                _ => continue,
            }
        }
    }

    /// Reads QoR provenance history from the daemon's flow store, newest
    /// first. A daemon without a store answers with zero rows; the read is
    /// served on the connection's reader thread, so it returns promptly
    /// even while every flow worker is busy.
    pub fn query(&mut self, spec: &QuerySpec) -> Result<Vec<QorRow>, ClientError> {
        self.send(&ClientFrame::Query(spec.clone()))?;
        loop {
            match self.recv()? {
                ServerFrame::QueryResult { rows } => return Ok(rows),
                ServerFrame::ProtocolError { detail } => {
                    return Err(ClientError::ServerClosed(detail))
                }
                _ => continue,
            }
        }
    }

    /// Asks the daemon to drain and waits for the acknowledgement, which
    /// only arrives once every in-flight request has finished.
    pub fn shutdown(&mut self) -> Result<DaemonStats, ClientError> {
        self.send(&ClientFrame::Shutdown)?;
        loop {
            match self.recv()? {
                ServerFrame::ShutdownAck(stats) => return Ok(stats),
                ServerFrame::ProtocolError { detail } => {
                    return Err(ClientError::ServerClosed(detail))
                }
                _ => continue,
            }
        }
    }

    /// Submits one request and follows it to its terminal frame.
    pub fn request(&mut self, spec: &SubmitSpec) -> Result<RequestOutcome, ClientError> {
        let outcomes = self.drive(std::slice::from_ref(spec))?;
        outcomes
            .into_iter()
            .next()
            .ok_or_else(|| ClientError::ServerClosed("no outcome".to_string()))
    }

    /// Submits a batch on this one connection and collects every request's
    /// outcome (in `specs` order), demultiplexing interleaved frames by id.
    /// Ids must be unique within the batch.
    pub fn drive(&mut self, specs: &[SubmitSpec]) -> Result<Vec<RequestOutcome>, ClientError> {
        let started = Instant::now();
        let mut pending: Vec<(u64, usize)> = Vec::with_capacity(specs.len());
        let mut outcomes: Vec<Option<RequestOutcome>> = (0..specs.len()).map(|_| None).collect();
        let mut accepted: Vec<bool> = vec![false; specs.len()];
        let mut stages: Vec<Vec<StageEvent>> = (0..specs.len()).map(|_| Vec::new()).collect();
        for (slot, spec) in specs.iter().enumerate() {
            self.send(&ClientFrame::Submit(spec.clone()))?;
            pending.push((spec.id, slot));
        }
        while outcomes.iter().any(Option::is_none) {
            let frame = self.recv()?;
            let slot_of = |id: u64| pending.iter().find(|(i, _)| *i == id).map(|&(_, s)| s);
            match frame {
                ServerFrame::Accepted { id, .. } => {
                    if let Some(slot) = slot_of(id) {
                        accepted[slot] = true;
                    }
                }
                ServerFrame::Stage { id, stage, outcome, attempts } => {
                    if let Some(slot) = slot_of(id) {
                        stages[slot].push(StageEvent { stage, outcome, attempts });
                    }
                }
                ServerFrame::Rejected { id, reason, detail } => {
                    if let Some(slot) = slot_of(id) {
                        outcomes[slot] = Some(RequestOutcome {
                            id,
                            accepted: accepted[slot],
                            stages: std::mem::take(&mut stages[slot]),
                            terminal: Terminal::Rejected { reason, detail },
                            latency_s: started.elapsed().as_secs_f64(),
                        });
                    }
                }
                ServerFrame::Done { id, ok, qor_fp, wall_s, stages: n, error } => {
                    if let Some(slot) = slot_of(id) {
                        outcomes[slot] = Some(RequestOutcome {
                            id,
                            accepted: accepted[slot],
                            stages: std::mem::take(&mut stages[slot]),
                            terminal: Terminal::Done { ok, qor_fp, wall_s, stages: n, error },
                            latency_s: started.elapsed().as_secs_f64(),
                        });
                    }
                }
                ServerFrame::ProtocolError { detail } => {
                    return Err(ClientError::ServerClosed(detail));
                }
                ServerFrame::QueryResult { .. }
                | ServerFrame::Pong(_)
                | ServerFrame::ShutdownAck(_) => {}
            }
        }
        Ok(outcomes.into_iter().flatten().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_capped_exponential() {
        let p = RetryPolicy::default();
        assert_eq!(p.backoff_ms(0), 10);
        assert_eq!(p.backoff_ms(1), 20);
        assert_eq!(p.backoff_ms(2), 40);
        assert_eq!(p.backoff_ms(5), 320);
        assert_eq!(p.backoff_ms(6), 500, "hits the cap");
        assert_eq!(p.backoff_ms(63), 500);
        assert_eq!(p.backoff_ms(64), 500, "shift overflow saturates at the cap");
    }

    #[test]
    fn connect_retry_gives_up_with_the_original_error() {
        let gone = Endpoint::Unix(PathBuf::from("/nonexistent/daemon.sock"));
        let policy = RetryPolicy { attempts: 2, base_ms: 1, cap_ms: 1 };
        let start = Instant::now();
        assert!(DaemonClient::connect_retry(&gone, &policy).is_err());
        // One backoff sleep happened (attempts=2), bounded well under a second.
        assert!(start.elapsed() < Duration::from_secs(5));
    }
}
