//! Daemon contract: the network front end never weakens the engine's
//! guarantees. Every completed request's QoR fingerprint over the wire is
//! bit-identical to a solo `run_flow` of the same spec; overload is shed
//! only through typed `rejected` frames; deadlines surface as typed errors,
//! never hangs; a hostile or vanished client costs at most its own
//! connection; and shutdown drains every admitted request before the ack.
//!
//! Each test binds its own daemon on a unique socket in the temp dir and
//! runs it on a plain thread — `Daemon::bind` happens on the test thread so
//! the socket exists before any client connects.

use eda_core::daemon::protocol::{parse_server_frame, ClientFrame, ServerFrame};
use eda_core::{
    run_flow, Daemon, DaemonClient, DaemonConfig, DaemonStats, DesignSpec, Endpoint, RejectReason,
    RetryPolicy, SubmitSpec, Terminal, TransportFaultPlan,
};
use proptest::prelude::*;
use std::collections::HashMap;
use std::io::{BufRead, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::thread::JoinHandle;

/// A unique socket path per test and per process.
fn sock(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("eda_flowd_{}_{tag}_{n}.sock", std::process::id()))
}

/// A daemon running on its own thread, plus everything needed to reach it.
struct Flowd {
    endpoint: Endpoint,
    socket: PathBuf,
    handle: JoinHandle<std::io::Result<DaemonStats>>,
}

impl Flowd {
    /// Binds on the test thread (so the socket exists before any client
    /// connects), then serves on a background thread.
    fn spawn(cfg: DaemonConfig) -> Flowd {
        let socket = cfg.socket.clone();
        let daemon = Daemon::bind(cfg).expect("bind daemon");
        let endpoint = Endpoint::Unix(socket.clone());
        let handle = std::thread::spawn(move || daemon.run());
        Flowd { endpoint, socket, handle }
    }

    fn client(&self) -> DaemonClient {
        DaemonClient::connect_retry(&self.endpoint, &RetryPolicy::default())
            .expect("connect to daemon")
    }

    /// Asks for drain via a fresh connection and joins the daemon thread;
    /// the ack stats and the exit stats must agree.
    fn finish(self) -> DaemonStats {
        let ack = self.client().shutdown().expect("shutdown ack");
        let exit = self.handle.join().expect("daemon thread").expect("daemon exit");
        assert_eq!(ack, exit, "ack and exit stats describe the same lifetime");
        assert!(!self.socket.exists(), "the daemon removes its socket on exit");
        exit
    }
}

/// The ground truth a daemon answer must match: the same spec run solo,
/// in-process, single-threaded. Memoized — several tests share designs.
fn solo_fp(design: &str) -> u64 {
    static CACHE: Mutex<Option<HashMap<String, u64>>> = Mutex::new(None);
    if let Some(fp) = CACHE
        .lock()
        .unwrap()
        .get_or_insert_with(HashMap::new)
        .get(design)
        .copied()
    {
        return fp;
    }
    let spec = SubmitSpec::new(0, design);
    let parsed: DesignSpec = design.parse().expect("design spec");
    let netlist = parsed.build().expect("build design");
    let cfg = eda_core::flow_config_for(&spec, 1, None, None).expect("flow config");
    let fp = run_flow(&netlist, &cfg).expect("solo run").qor_fingerprint();
    CACHE
        .lock()
        .unwrap()
        .get_or_insert_with(HashMap::new)
        .insert(design.to_string(), fp);
    fp
}

fn fp_of(outcome: &eda_core::RequestOutcome) -> u64 {
    match &outcome.terminal {
        Terminal::Done { ok: true, qor_fp: Some(fp), .. } => *fp,
        other => panic!("request {} did not complete: {other:?}", outcome.id),
    }
}

#[test]
fn round_trip_matches_solo_runs_and_streams_progress() {
    let daemon = Flowd::spawn(DaemonConfig::new(sock("roundtrip")));
    let designs = ["fabric:3x3", "parity:16", "adder:8"];
    let specs: Vec<SubmitSpec> = designs
        .iter()
        .enumerate()
        .map(|(i, d)| SubmitSpec::new(i as u64 + 1, *d))
        .collect();
    let outcomes = daemon.client().drive(&specs).expect("drive batch");

    assert_eq!(outcomes.len(), designs.len());
    for (outcome, design) in outcomes.iter().zip(designs) {
        assert!(outcome.accepted, "{design} gets an accepted frame");
        assert!(
            !outcome.stages.is_empty(),
            "{design} streams per-stage progress before its terminal frame"
        );
        assert_eq!(
            fp_of(outcome),
            solo_fp(design),
            "{design} over the wire must be bit-identical to a solo run"
        );
    }

    let stats = daemon.finish();
    assert_eq!(stats.accepted, 3);
    assert_eq!(stats.completed, 3);
    assert_eq!(stats.rejected(), 0);
    assert_eq!(stats.failed, 0);
}

#[test]
fn bad_requests_are_rejected_without_occupying_the_queue() {
    let daemon = Flowd::spawn(DaemonConfig::new(sock("badreq")));
    let mut client = daemon.client();
    // The last three parse but sit below their generator's minimum, which
    // asserts: they must be shed, not kill the connection's reader thread.
    let designs = ["bogus:9", "fabric:0x0", "rand:no:seed", "parity:1", "mult:1", "fabric:1x8"];
    for (id, design) in (1u64..).zip(designs) {
        let outcome = client.request(&SubmitSpec::new(id, design)).expect("terminal frame");
        assert!(
            outcome.rejected_with(RejectReason::BadRequest),
            "`{design}` must be shed as bad-request, got {:?}",
            outcome.terminal
        );
        assert!(!outcome.accepted, "a bad request is never admitted");
    }
    let stats = daemon.finish();
    assert_eq!(stats.rejected_bad, 6);
    assert_eq!(stats.accepted, 0);
}

#[test]
fn overload_is_shed_with_typed_queue_full_rejections() {
    let mut cfg = DaemonConfig::new(sock("overload"));
    cfg.workers = 1;
    cfg.queue_high_water = 1;
    let daemon = Flowd::spawn(cfg);

    // Six instant submits against one worker and one queue slot: the first
    // occupies the worker, the second the queue, the rest are shed. (The
    // exact split can shift by one if the worker dequeues between sends,
    // so only the conservation law and the shedding are pinned.)
    let specs: Vec<SubmitSpec> =
        (1..=6).map(|i| SubmitSpec::new(i, "fabric:3x3")).collect();
    let outcomes = daemon.client().drive(&specs).expect("drive batch");

    let shed: Vec<&eda_core::RequestOutcome> =
        outcomes.iter().filter(|o| o.rejected_with(RejectReason::QueueFull)).collect();
    assert!(!shed.is_empty(), "past high water the daemon must shed load");
    for o in &shed {
        assert!(!o.accepted, "a shed request never got an accepted frame");
    }
    let expect = solo_fp("fabric:3x3");
    let completed = outcomes
        .iter()
        .filter(|o| matches!(o.terminal, Terminal::Done { ok: true, .. }))
        .inspect(|o| assert_eq!(fp_of(o), expect, "survivors keep bit-identical QoR"))
        .count();
    assert!(completed >= 1);

    let stats = daemon.finish();
    assert_eq!(stats.accepted + stats.rejected(), 6, "every submit got a typed answer");
    assert_eq!(stats.rejected_full, shed.len() as u64);
    assert_eq!(stats.completed, completed as u64);
}

#[test]
fn a_queue_without_a_slot_is_refused_at_bind() {
    // A high-water mark of 0 would answer every submit `rejected{queue-full}`
    // forever: refuse it before any socket exists.
    let mut cfg = DaemonConfig::new(sock("noslot"));
    cfg.queue_high_water = 0;
    let socket = cfg.socket.clone();
    let err = Daemon::bind(cfg).err().expect("a zero high-water mark is refused");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    assert!(err.to_string().contains("queue_high_water"), "the error names the knob: {err}");
    assert!(!socket.exists(), "nothing is bound");
}

#[test]
fn deadline_overrun_is_a_typed_error_and_the_daemon_stays_healthy() {
    let daemon = Flowd::spawn(DaemonConfig::new(sock("deadline")));
    let mut client = daemon.client();

    let mut doomed = SubmitSpec::new(1, "fabric:3x3");
    doomed.deadline_ms = Some(1);
    let outcome = client.request(&doomed).expect("terminal frame");
    assert!(outcome.accepted, "the deadline trips after admission, not at it");
    match &outcome.terminal {
        Terminal::Done { ok: false, error: Some(err), .. } => {
            assert!(
                err.contains("deadline"),
                "the error names the deadline, got: {err}"
            );
        }
        other => panic!("expected a typed deadline failure, got {other:?}"),
    }

    // The worker survived: the same connection immediately serves a
    // deadline-free request with correct QoR.
    let ok = client.request(&SubmitSpec::new(2, "parity:16")).expect("terminal frame");
    assert_eq!(fp_of(&ok), solo_fp("parity:16"));

    let stats = daemon.finish();
    assert_eq!(stats.failed, 1);
    assert_eq!(stats.completed, 1);
}

/// `rand:1:2` maps to no instances. `4_place` answers that with a typed
/// error instead of a panic that would end the only flow worker.
#[test]
fn a_design_with_no_instances_is_a_typed_error_and_the_worker_survives() {
    let mut cfg = DaemonConfig::new(sock("noinst"));
    cfg.workers = 1;
    let daemon = Flowd::spawn(cfg);
    let mut client = daemon.client();

    let outcome = client.request(&SubmitSpec::new(1, "rand:1:2")).expect("terminal frame");
    assert!(outcome.accepted, "the spec is valid; placement finds it empty");
    match &outcome.terminal {
        Terminal::Done { ok: false, error: Some(err), .. } => {
            assert!(err.contains("4_place"), "the error names the stage, got: {err}");
        }
        other => panic!("expected a typed 4_place failure, got {other:?}"),
    }

    // The one worker survived: the same connection is served next.
    let ok = client.request(&SubmitSpec::new(2, "parity:16")).expect("terminal frame");
    assert_eq!(fp_of(&ok), solo_fp("parity:16"));

    let stats = daemon.finish();
    assert_eq!(stats.failed, 1);
    assert_eq!(stats.completed, 1);
}

#[test]
fn malformed_frames_cost_only_the_offending_connection() {
    let daemon = Flowd::spawn(DaemonConfig::new(sock("hostile")));

    // A well-formed request in flight on connection A...
    let mut well_formed = daemon.client();
    let runner = std::thread::spawn(move || {
        well_formed.request(&SubmitSpec::new(1, "fabric:3x3")).expect("terminal frame")
    });

    // ...while connection B talks garbage and connection C sends an
    // oversized frame. Both die; A must not notice.
    let Endpoint::Unix(path) = &daemon.endpoint else { unreachable!() };
    let mut garbage = UnixStream::connect(path).expect("connect raw");
    garbage
        .write_all(b"\x02this is not a frame at all\n")
        .expect("write garbage");
    let mut oversized = UnixStream::connect(path).expect("connect raw");
    let huge = vec![b'x'; (1 << 20) + 64];
    // The daemon may kill the connection mid-write once the cap trips;
    // either way the bytes must not take the daemon down.
    let _ = oversized.write_all(&huge);
    let _ = oversized.write_all(b"\n");

    let outcome = runner.join().expect("well-formed client");
    assert_eq!(
        fp_of(&outcome),
        solo_fp("fabric:3x3"),
        "a concurrent well-formed request keeps bit-identical QoR"
    );

    let stats = daemon.finish();
    assert!(
        stats.protocol_errors >= 1,
        "the garbage frame is counted, got {stats:?}"
    );
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.failed, 0);
}

#[test]
fn a_frame_without_a_newline_is_cut_off_at_the_cap() {
    // The frame cap bounds what the daemon buffers, not only what it
    // parses: a peer streaming bytes with no newline loses its connection
    // once the cap trips, long before it has sent 8 MiB.
    let daemon = Flowd::spawn(DaemonConfig::new(sock("endless")));
    let Endpoint::Unix(path) = &daemon.endpoint else { unreachable!() };

    // A frame of exactly the cap, CRLF-terminated, is still served.
    let mut at_cap = br#"{"type":"ping"}"#.to_vec();
    at_cap.resize(1 << 20, b' ');
    at_cap.extend_from_slice(b"\r\n");
    let mut edge = UnixStream::connect(path).expect("connect raw");
    edge.write_all(&at_cap).expect("write an at-cap frame");
    let mut reply = String::new();
    std::io::BufReader::new(&edge).read_line(&mut reply).expect("read the reply");
    assert!(
        matches!(parse_server_frame(reply.trim_end()), Ok(ServerFrame::Pong(_))),
        "an at-cap frame is answered, got {reply:?}"
    );

    let mut raw = UnixStream::connect(path).expect("connect raw");
    raw.set_write_timeout(Some(std::time::Duration::from_secs(10))).expect("write timeout");
    let chunk = vec![b'x'; 64 << 10];
    let mut sent = 0usize;
    while sent < 64 << 20 && raw.write_all(&chunk).is_ok() {
        sent += chunk.len();
    }
    assert!(sent < 8 << 20, "the daemon kept reading: {sent} bytes went through");
    drop(raw);

    let stats = daemon.finish();
    assert!(stats.protocol_errors >= 1, "the endless frame is counted, got {stats:?}");
}

#[test]
fn mid_run_disconnect_cancels_only_that_clients_queue() {
    let mut cfg = DaemonConfig::new(sock("disconnect"));
    cfg.workers = 1;
    let daemon = Flowd::spawn(cfg);

    // The hostile client gets two requests admitted — each `accepted` frame
    // is read back before the next send, so admission is not racing the
    // drop — then its third frame is the injected disconnect. With one
    // worker, request 1 is running and request 2 still queued when the drop
    // lands: the queued one must be lazily cancelled at dequeue, not run
    // for a dead peer.
    let mut hostile = daemon
        .client()
        .with_faults(TransportFaultPlan::parse("conn-drop@2").expect("fault plan"));
    for id in 1..=2u64 {
        hostile.send(&ClientFrame::Submit(SubmitSpec::new(id, "fabric:3x3"))).expect("send");
        loop {
            // Stage frames from request 1 may interleave; wait for the ack.
            match hostile.recv().expect("server frame") {
                ServerFrame::Accepted { id: got, .. } => {
                    assert_eq!(got, id);
                    break;
                }
                _ => continue,
            }
        }
    }
    let err = hostile.send(&ClientFrame::Ping).expect_err("the injected drop fires");
    assert!(
        err.to_string().contains("injected conn-drop"),
        "the client error names the injected fault, got: {err}"
    );

    // A well-formed sibling submitted after the drop still completes.
    let outcome = daemon
        .client()
        .request(&SubmitSpec::new(9, "parity:16"))
        .expect("terminal frame");
    assert_eq!(fp_of(&outcome), solo_fp("parity:16"));

    let stats = daemon.finish();
    assert!(
        stats.disconnects >= 1,
        "the dead client's queued request was cancelled at dequeue, got {stats:?}"
    );
    assert_eq!(stats.accepted, 3, "two hostile submits landed plus the sibling");
    assert_eq!(
        stats.completed + stats.disconnects,
        stats.accepted,
        "every admitted request either ran or was cancelled for a dead peer"
    );
}

/// Reads `conn`'s frames until `done` says one is the frame waited for.
fn recv_until(conn: &mut DaemonClient, mut done: impl FnMut(&ServerFrame) -> bool) {
    while !done(&conn.recv().expect("server frame")) {}
}

#[test]
fn shutdown_drains_every_admitted_request_before_acking() {
    let mut cfg = DaemonConfig::new(sock("drain"));
    cfg.workers = 1;
    let daemon = Flowd::spawn(cfg);

    // Three requests deep on one worker. Once the third `accepted` frame is
    // back all three are admitted (a flow takes a thousand times longer than
    // an admission, so the queue is still deep); only then does a second
    // connection ask for the drain.
    let mut submitter = daemon.client();
    for id in 1..=3 {
        submitter.send(&ClientFrame::Submit(SubmitSpec::new(id, "fabric:3x3"))).expect("send");
    }
    let mut admitted = 0;
    recv_until(&mut submitter, |f| {
        admitted += usize::from(matches!(f, ServerFrame::Accepted { .. }));
        admitted == 3
    });

    let ack = daemon.client().shutdown().expect("shutdown ack");
    assert_eq!(ack.accepted, 3);
    assert_eq!(
        ack.completed, 3,
        "the ack only arrives once every in-flight request finished"
    );

    // The in-flight client saw all three complete, not a dropped line: the
    // terminal frames were written before the ack, so they are all readable.
    let expect = solo_fp("fabric:3x3");
    let mut finished = Vec::new();
    recv_until(&mut submitter, |f| {
        if let ServerFrame::Done { id, ok, qor_fp, .. } = f {
            assert!(*ok, "request {id} failed during the drain");
            assert_eq!(*qor_fp, Some(expect), "drained requests keep bit-identical QoR");
            finished.push(*id);
        }
        finished.len() == 3
    });
    assert_eq!(finished, [1, 2, 3], "one worker, one priority class: admission order");

    // After the ack the daemon is gone: new connects fail fast.
    let exit = daemon.handle.join().expect("daemon thread").expect("daemon exit");
    assert_eq!(exit, ack);
    assert!(!daemon.socket.exists());
    let policy = RetryPolicy { attempts: 1, base_ms: 1, cap_ms: 1 };
    assert!(DaemonClient::connect_retry(&daemon.endpoint, &policy).is_err());
}

#[test]
fn submits_during_drain_get_typed_draining_rejections() {
    let mut cfg = DaemonConfig::new(sock("draining"));
    cfg.workers = 1;
    let daemon = Flowd::spawn(cfg);

    // Occupy the worker so drain has something to wait on: the first
    // `stage` frame proves request 1 is past the queue and mid-flow.
    let mut busy = daemon.client();
    busy.send(&ClientFrame::Submit(SubmitSpec::new(1, "fabric:3x3"))).expect("send");
    recv_until(&mut busy, |f| matches!(f, ServerFrame::Stage { .. }));

    // Begin the drain and submit late, back to back on ONE connection: its
    // reader handles frames in order, so the submit is answered after the
    // drain began no matter how soon request 1 finishes — and before the
    // reader can stop, so the ack (which waits for the readers) counts it.
    let mut late = daemon.client();
    late.send(&ClientFrame::Shutdown).expect("send shutdown");
    late.send(&ClientFrame::Submit(SubmitSpec::new(2, "parity:16"))).expect("send late submit");
    let mut rejection = None;
    let mut ack = None;
    recv_until(&mut late, |f| {
        match f {
            ServerFrame::Rejected { id: 2, reason, .. } => rejection = Some(*reason),
            ServerFrame::ShutdownAck(stats) => ack = Some(*stats),
            other => panic!("unexpected frame on the draining connection: {other:?}"),
        }
        ack.is_some()
    });
    assert_eq!(
        rejection,
        Some(RejectReason::Draining),
        "a submit during drain is shed with `draining` before the ack"
    );
    let stats = ack.expect("shutdown ack");
    assert_eq!(stats.rejected_draining, 1, "the ack counts the late rejection");
    assert_eq!(stats.accepted, 1);
    assert_eq!(stats.completed, 1, "the busy request finished before the ack");

    let mut done = None;
    recv_until(&mut busy, |f| {
        if let ServerFrame::Done { id: 1, ok, qor_fp, .. } = f {
            done = Some((*ok, *qor_fp));
        }
        done.is_some()
    });
    assert_eq!(done, Some((true, Some(solo_fp("fabric:3x3")))));
    let exit = daemon.handle.join().expect("daemon thread").expect("daemon exit");
    assert_eq!(exit, stats);
}

#[test]
fn every_rejection_sent_at_the_tail_of_a_drain_is_in_the_ack() {
    // An idle daemon quiesces the instant it is asked to, so submits right
    // behind the shutdown frame are answered — if at all — while `run` is
    // already tearing down. Whatever the interleaving, a `rejected` frame
    // that reached the wire must be in the ack, and the ack is the exit.
    let daemon = Flowd::spawn(DaemonConfig::new(sock("tail")));
    let mut conn = daemon.client();
    conn.send(&ClientFrame::Shutdown).expect("send shutdown");
    for id in 1..=8 {
        // The daemon may already have hung up; an unsent submit is fine.
        let _ = conn.send(&ClientFrame::Submit(SubmitSpec::new(id, "parity:16")));
    }
    let mut rejected = 0;
    let mut ack = None;
    while let Ok(frame) = conn.recv() {
        match frame {
            ServerFrame::Rejected { reason: RejectReason::Draining, .. } => {
                assert!(ack.is_none(), "no frame is handled after the ack");
                rejected += 1;
            }
            ServerFrame::ShutdownAck(stats) => ack = Some(stats),
            other => panic!("unexpected frame on the draining connection: {other:?}"),
        }
    }
    let ack = ack.expect("shutdown ack");
    assert_eq!(ack.rejected_draining, rejected, "every rejection sent is counted");
    assert_eq!(ack.accepted, 0);
    let exit = daemon.handle.join().expect("daemon thread").expect("daemon exit");
    assert_eq!(exit, ack);
}

#[test]
fn tcp_endpoint_serves_the_same_protocol() {
    let mut cfg = DaemonConfig::new(sock("tcp"));
    cfg.tcp = Some("127.0.0.1:0".to_string());
    let socket = cfg.socket.clone();
    let daemon = Daemon::bind(cfg).expect("bind daemon");
    let addr = daemon.tcp_addr().expect("bound tcp address");
    let handle = std::thread::spawn(move || daemon.run());

    let endpoint = Endpoint::Tcp(addr.to_string());
    let mut client =
        DaemonClient::connect_retry(&endpoint, &RetryPolicy::default()).expect("tcp connect");
    let outcome = client.request(&SubmitSpec::new(1, "parity:16")).expect("terminal frame");
    assert_eq!(
        fp_of(&outcome),
        solo_fp("parity:16"),
        "the TCP transport carries the same bit-identical QoR"
    );
    let ack = client.shutdown().expect("shutdown ack");
    assert_eq!(ack.completed, 1);
    let exit = handle.join().expect("daemon thread").expect("daemon exit");
    assert_eq!(exit, ack);
    assert!(!socket.exists());
}

#[test]
fn sigterm_triggers_graceful_drain() {
    let mut cfg = DaemonConfig::new(sock("sigterm"));
    cfg.handle_sigterm = true;
    let daemon = Flowd::spawn(cfg);

    // A successful ping proves the accept loop is up, which in turn proves
    // `run` installed the handler (it does so before spawning listeners) —
    // only then is raising SIGTERM at this process safe.
    let mut client = daemon.client();
    client.ping().expect("daemon is live");
    let outcome = client.request(&SubmitSpec::new(1, "parity:16")).expect("terminal frame");
    assert_eq!(fp_of(&outcome), solo_fp("parity:16"));

    // SAFETY: the daemon's handler is installed (single atomic store,
    // async-signal-safe); `raise` delivers SIGTERM to this process only.
    let rc = unsafe { libc::raise(libc::SIGTERM) };
    assert_eq!(rc, 0);

    // No shutdown frame, no ack owed: the daemon notices the flag, drains,
    // and exits cleanly on its own.
    let exit = daemon.handle.join().expect("daemon thread").expect("daemon exit");
    assert_eq!(exit.completed, 1);
    assert_eq!(exit.accepted, 1);
    assert!(!daemon.socket.exists(), "the daemon removes its socket on SIGTERM drain");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Hostile storms: arbitrary byte salvos and truncated frames on
    /// sacrificial connections never panic the daemon and never perturb the
    /// QoR of a concurrent well-formed request.
    #[test]
    fn hostile_byte_storms_never_perturb_well_formed_requests(
        salvos in collection::vec(collection::vec(any::<u8>(), 1..200), 1..6),
        truncate_at in 1usize..20,
    ) {
        let daemon = Flowd::spawn(DaemonConfig::new(sock("storm")));

        let mut well_formed = daemon.client();
        let runner = std::thread::spawn(move || {
            well_formed.request(&SubmitSpec::new(1, "fabric:3x3")).expect("terminal frame")
        });

        let Endpoint::Unix(path) = &daemon.endpoint else { unreachable!() };
        for salvo in &salvos {
            // Raw bytes, newline-terminated so the daemon sees a full frame.
            let mut s = UnixStream::connect(path).expect("connect raw");
            let _ = s.write_all(salvo);
            let _ = s.write_all(b"\n");
            // Dropping `s` here is also a mid-stream disconnect.
        }
        // A truncated valid frame: cut a real submit line short, then hang up.
        let line = {
            let spec = SubmitSpec::new(7, "parity:16");
            let mut l = eda_core::daemon::protocol::ClientFrame::Submit(spec).to_line();
            l.truncate(truncate_at.min(l.len() - 1));
            l
        };
        let mut s = UnixStream::connect(path).expect("connect raw");
        let _ = s.write_all(line.as_bytes());
        drop(s);

        let outcome = runner.join().expect("well-formed client");
        prop_assert_eq!(
            fp_of(&outcome),
            solo_fp("fabric:3x3"),
            "the well-formed request must be bit-identical despite the storm"
        );
        let stats = daemon.finish();
        prop_assert_eq!(stats.completed, 1);
        prop_assert_eq!(stats.failed, 0);
    }
}
