//! Integration tests for the multi-tenant solver service (`cenn-serve`).
//!
//! Everything here drives a real [`Server`] through the binary frame
//! protocol — over in-memory loopback transports, so the full stack
//! (framing, typed messages, session manager, worker pool, checkpoint
//! spool) is exercised without sockets. The contracts pinned:
//!
//! 1. **Lifecycle** — submit → step → stream → suspend → resume → close,
//!    with the suspended session living as a `CENNCKPT` file in the
//!    spool and every error typed.
//! 2. **Load-level determinism** — an 8-session client fleet (one
//!    session suspending/resuming mid-run) produces byte-identical
//!    per-session digests across worker counts and independent reruns.
//! 3. **Suspend/resume transparency** — an interrupted run converges
//!    bit-identically to an uninterrupted one, layer bits included.
//! 4. **Codec robustness** — property tests: frames round-trip arbitrary
//!    payloads; truncation, oversized prefixes, and bit flips yield
//!    typed errors, never panics.
//! 5. **Session event stream** — the canonical `session` JSONL stream
//!    for a scripted run matches its golden fixture
//!    (`tests/fixtures/session_events.jsonl`; re-bless with
//!    `CENN_BLESS=1 cargo test --test serve`).

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use cenn::equations::{DynamicalSystem, Fisher, FixedRunner, GrayScott};
use cenn::obs::{validate_jsonl_line, MetricsHub, RecorderHandle};
use cenn::serve::{
    loopback, read_frame, run_chaos_fleet, run_fleet, write_frame, ChaosDirector, ChaosPlan,
    ChaosTransport, Client, ClientError, ErrorCode, FleetConfig, FrameError, Request, RetryClient,
    RetryPolicy, Rpc, Server, ServerConfig, MAX_FRAME_LEN,
};
use proptest::prelude::*;

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures")
        .join(name)
}

/// Compares `got` against the committed fixture, or rewrites the fixture
/// when `CENN_BLESS=1` is set.
fn assert_matches_fixture(got: &str, name: &str) {
    let path = fixture_path(name);
    if std::env::var_os("CENN_BLESS").is_some() {
        std::fs::write(&path, got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {}: {e}; run with CENN_BLESS=1",
            path.display()
        )
    });
    assert_eq!(
        got, want,
        "{name} deviates from the golden fixture; if the change is \
         intentional, re-bless with CENN_BLESS=1"
    );
}

/// A scratch directory unique to this test run.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cenn-serve-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Opens a loopback connection to `server`, serving it on a background
/// thread (which exits when the client drops).
fn connect(server: &std::sync::Arc<Server>) -> Client<loopback::Loopback> {
    let (ours, theirs) = loopback::pair();
    let srv = server.clone();
    std::thread::spawn(move || {
        srv.handle_conn(theirs);
    });
    Client::new(ours)
}

#[test]
fn full_session_lifecycle_over_loopback() {
    let spool = scratch("lifecycle");
    let server = Server::start(ServerConfig::new(2, &spool)).unwrap();
    let mut client = connect(&server);

    client.ping().unwrap();
    let session = client.submit("fisher", 8, 8).unwrap();
    let (steps, _) = client.step(session, 25).unwrap();
    assert_eq!(steps, 25);

    // The served trajectory is bit-identical to a direct in-process run.
    let (rows, cols, bits) = client.stream_state(session, 0).unwrap();
    assert_eq!((rows, cols), (8, 8));
    let mut reference = FixedRunner::new(Fisher::default().build(8, 8).unwrap()).unwrap();
    reference.run(25);
    assert_eq!(bits, reference.sim().snapshot().states[0]);

    // Suspend spools a real CENNCKPT file and frees the session.
    assert_eq!(client.suspend(session).unwrap(), 25);
    let ckpt = spool.join(format!("session_{session}.ckpt"));
    let header = std::fs::read(&ckpt).unwrap();
    assert_eq!(&header[..8], b"CENNCKPT", "spool file is a checkpoint");
    match client.step(session, 1).unwrap_err() {
        ClientError::Server { code, .. } => assert_eq!(code, ErrorCode::SessionSuspended),
        other => panic!("expected typed server error, got {other}"),
    }

    // Resume restores the exact step counter and the run continues. The
    // spooled checkpoint stays on disk as the crash-recovery point until
    // the session's next suspend or close.
    assert_eq!(client.resume(session).unwrap(), 25);
    assert!(ckpt.exists(), "checkpoint persists as the recovery point");
    let (steps, _) = client.step(session, 25).unwrap();
    assert_eq!(steps, 50);
    let (_, digest) = client.digest(session).unwrap();
    assert_ne!(digest, 0);

    client.close(session).unwrap();
    assert!(!ckpt.exists(), "close reclaims the spooled checkpoint");
    match client.digest(session).unwrap_err() {
        ClientError::Server { code, .. } => assert_eq!(code, ErrorCode::NoSuchSession),
        other => panic!("expected typed server error, got {other}"),
    }

    // Typed errors for bad submissions.
    match client.submit("not-a-system", 4, 4).unwrap_err() {
        ClientError::Server { code, .. } => assert_eq!(code, ErrorCode::UnknownSystem),
        other => panic!("expected typed server error, got {other}"),
    }

    server.shutdown();
    let _ = std::fs::remove_dir_all(&spool);
}

#[test]
fn fleet_digests_are_invariant_to_workers_and_reruns() {
    let cfg = FleetConfig {
        sessions: 8,
        base_steps: 60,
        chunk: 20,
        seed: 7,
        suspend_mid_run: true,
    };
    let run_with = |workers: usize, tag: &str| {
        let spool = scratch(tag);
        let server = Server::start(ServerConfig::new(workers, &spool)).unwrap();
        let report = run_fleet(&cfg, |_| {
            let (ours, theirs) = loopback::pair();
            let srv = server.clone();
            std::thread::spawn(move || {
                srv.handle_conn(theirs);
            });
            Ok(ours)
        })
        .unwrap();
        server.shutdown();
        let _ = std::fs::remove_dir_all(&spool);
        report
    };

    let one = run_with(1, "fleet-w1");
    let four = run_with(4, "fleet-w4");
    let again = run_with(4, "fleet-w4-rerun");

    assert_eq!(one.entries.len(), 8);
    assert_eq!(
        one.entries.iter().filter(|e| e.suspended).count(),
        1,
        "exactly one session takes the suspend/resume detour"
    );
    assert_eq!(
        one.text(),
        four.text(),
        "fleet report must be byte-identical across worker counts"
    );
    assert_eq!(
        four.text(),
        again.text(),
        "fleet report must be byte-identical across independent runs"
    );
    assert_eq!(one.combined_digest(), four.combined_digest());
}

#[test]
fn mid_run_suspend_resume_converges_byte_identically() {
    let spool = scratch("converge");
    let server = Server::start(ServerConfig::new(2, &spool)).unwrap();
    let mut client = connect(&server);

    let control = client.submit("gray-scott", 10, 10).unwrap();
    client.step(control, 60).unwrap();

    let interrupted = client.submit("gray-scott", 10, 10).unwrap();
    client.step(interrupted, 30).unwrap();
    client.suspend(interrupted).unwrap();
    client.resume(interrupted).unwrap();
    client.step(interrupted, 30).unwrap();

    let (_, want) = client.digest(control).unwrap();
    let (_, got) = client.digest(interrupted).unwrap();
    assert_eq!(got, want, "digest must not see the interruption");

    // Belt and braces: every layer's raw bits agree, not just the hash.
    let n_layers = GrayScott::default().build(4, 4).unwrap().model.n_layers();
    for layer in 0..n_layers as u32 {
        let (_, _, a) = client.stream_state(control, layer).unwrap();
        let (_, _, b) = client.stream_state(interrupted, layer).unwrap();
        assert_eq!(a, b, "layer {layer} bits diverged");
    }

    client.close(control).unwrap();
    client.close(interrupted).unwrap();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&spool);
}

#[test]
fn session_event_stream_matches_golden_fixture() {
    let spool = scratch("events");
    let logs = scratch("events-logs");
    let (handle, reader) = RecorderHandle::in_memory(true);
    let mut cfg = ServerConfig::new(1, &spool);
    cfg.manager.recorder = Some(handle);
    cfg.manager.session_log_dir = Some(logs.clone());
    cfg.manager.canonical_logs = true;
    let server = Server::start(cfg).unwrap();
    let mut client = connect(&server);

    // A fixed scripted session: the canonical event stream for this
    // sequence is a stable, committed artifact.
    let session = client.submit("fisher", 8, 8).unwrap();
    client.step(session, 20).unwrap();
    client.suspend(session).unwrap();
    client.resume(session).unwrap();
    client.step(session, 12).unwrap();
    client.digest(session).unwrap();
    client.close(session).unwrap();
    server.shutdown();

    let stream = reader.lock().unwrap().to_jsonl();
    for line in stream.lines() {
        validate_jsonl_line(line).unwrap();
    }
    let kinds: Vec<&str> = stream
        .lines()
        .map(|l| {
            let key = "\"kind\":\"";
            let start = l.find(key).unwrap() + key.len();
            &l[start..start + l[start..].find('"').unwrap()]
        })
        .collect();
    assert_eq!(
        kinds,
        [
            "submitted",
            "stepped",
            "suspended",
            "resumed",
            "stepped",
            "digest",
            "closed"
        ]
    );
    assert_matches_fixture(&stream, "session_events.jsonl");

    // The per-session JSONL file carries the same canonical stream.
    let per_session =
        std::fs::read_to_string(logs.join(format!("session_{session}.jsonl"))).unwrap();
    assert_eq!(per_session, stream);

    let _ = std::fs::remove_dir_all(&spool);
    let _ = std::fs::remove_dir_all(&logs);
}

/// The headline crash test: an 8-session fleet disturbed by connection
/// drops (both halves), a corrupted frame, a worker stall, and one hard
/// server kill mid-run recovers — through the retry layer and spool
/// restart recovery alone — to per-session digests bit-identical to a
/// completely undisturbed fleet.
#[test]
fn chaos_fleet_survives_kill_restart_with_identical_digests() {
    let cfg = FleetConfig {
        sessions: 8,
        base_steps: 60,
        chunk: 20,
        seed: 7,
        suspend_mid_run: true,
    };

    // The undisturbed control, single worker, plain clients.
    let control_spool = scratch("chaos-control");
    let control_server = Server::start(ServerConfig::new(1, &control_spool)).unwrap();
    let control = run_fleet(&cfg, |_| {
        let (ours, theirs) = loopback::pair();
        let srv = control_server.clone();
        std::thread::spawn(move || {
            srv.handle_conn(theirs);
        });
        Ok(ours)
    })
    .unwrap();
    control_server.shutdown();
    let _ = std::fs::remove_dir_all(&control_spool);

    // The disturbed run: every service-fault kind in one plan. `op` is a
    // session's outbound-frame index; the durable driver's sequence is
    // submit(0), suspend(1), resume(2), then step/suspend/resume per
    // chunk, so ops up to ~9 exist for every workload in the fleet.
    let plan = ChaosPlan::parse(
        "conn-drop@3:session=1; conn-drop@5:session=4,when=recv; \
         frame-corrupt@2:session=2,byte=0; worker-stall@6:ms=20; \
         crash-restart@4:session=0",
    )
    .unwrap();
    let chaos_spool = scratch("chaos-run");
    let hub = MetricsHub::default();
    let mut chaos_cfg = ServerConfig::new(2, &chaos_spool);
    chaos_cfg.manager.metrics = hub.clone();
    let (report, stats) = run_chaos_fleet(
        &cfg,
        chaos_cfg,
        &plan,
        RetryPolicy::crash_tolerant(cfg.seed),
        Some(Duration::from_secs(10)),
    )
    .unwrap();
    let _ = std::fs::remove_dir_all(&chaos_spool);

    assert_eq!(stats.crashes, 1, "the crash-restart fault fired once");

    // The director mirrors every injected fault into the server's own
    // metrics registry, so one Stats snapshot shows the fault injection
    // and the service's reaction side by side. The plan above carries
    // two conn-drops and one of each other kind.
    let snap = hub.snapshot();
    for (metric, want) in [
        ("chaos.conn_drop_total", 2),
        ("chaos.frame_corrupt_total", 1),
        ("chaos.worker_stall_total", 1),
        ("chaos.crash_restart_total", 1),
    ] {
        assert_eq!(
            snap.counter(metric),
            Some(want),
            "{metric} must count the plan's injected faults"
        );
    }
    assert!(
        stats.remaining.is_empty(),
        "every planned fault fired: {:?} never did",
        stats.remaining
    );
    assert!(
        stats.recovered_sessions > 0,
        "the restarted server rehydrated sessions from the spool"
    );

    assert_eq!(report.entries.len(), control.entries.len());
    for (got, want) in report.entries.iter().zip(&control.entries) {
        assert_eq!(
            (got.index, got.system, got.steps, got.digest),
            (want.index, want.system, want.steps, want.digest),
            "session {} digest must not see the chaos",
            want.index
        );
    }
    assert_eq!(report.combined_digest(), control.combined_digest());
}

/// The restart windows of `run_durable_session`, one plan each, on a
/// one-session fleet with one worker. Its session runs 4 chunks, so the
/// durable client sends submit(0), suspend(1), resume(2), then
/// step/suspend/resume for the first three chunks (3-11), the last step
/// (12), digest(13) and close(14). Each plan must still end in the
/// undisturbed control's digest.
fn restart_window_matches_control(tag: &str, spec: &str) {
    let cfg = FleetConfig {
        sessions: 1,
        base_steps: 60,
        chunk: 20,
        seed: 7,
        suspend_mid_run: false,
    };
    let steps = cenn::serve::fleet::workload(&cfg, 0).steps;
    assert_eq!(steps.div_ceil(cfg.chunk), 4, "op indices assume 4 chunks");

    let control_spool = scratch(&format!("{tag}-control"));
    let control_server = Server::start(ServerConfig::new(1, &control_spool)).unwrap();
    let control = run_fleet(&cfg, |_| {
        let (ours, theirs) = loopback::pair();
        let srv = control_server.clone();
        std::thread::spawn(move || {
            srv.handle_conn(theirs);
        });
        Ok(ours)
    })
    .unwrap();
    control_server.shutdown();
    let _ = std::fs::remove_dir_all(&control_spool);

    let chaos_spool = scratch(tag);
    let plan = ChaosPlan::parse(spec).unwrap();
    let (report, stats) = run_chaos_fleet(
        &cfg,
        ServerConfig::new(1, &chaos_spool),
        &plan,
        RetryPolicy::crash_tolerant(cfg.seed),
        Some(Duration::from_secs(10)),
    )
    .unwrap_or_else(|e| panic!("{spec}: {e:?}"));
    let _ = std::fs::remove_dir_all(&chaos_spool);
    assert!(stats.remaining.is_empty(), "{spec}: every fault fired");
    assert_eq!(stats.crashes, 1, "{spec}");
    assert_eq!(report.entries.len(), 1);
    let (got, want) = (&report.entries[0], &control.entries[0]);
    assert_eq!(
        (got.system, got.steps, got.digest),
        (want.system, want.steps, want.digest),
        "{spec}: the digest must not see the restart"
    );
}

/// A crash before the first checkpoint: the session was never durable,
/// so the restarted server does not know it and the client submits it
/// again.
#[test]
fn chaos_crash_before_the_first_checkpoint_resubmits() {
    restart_window_matches_control("window-submit", "crash-restart@1:session=0");
}

/// A crash just before the digest: the restarted server brought the
/// session back suspended at the 60-step checkpoint, so the client
/// resumes and replays the last chunk before asking again.
#[test]
fn chaos_crash_before_the_digest_replays_to_the_plan() {
    restart_window_matches_control("window-digest", "crash-restart@13:session=0");
}

/// A Close that ran but lost its reply, then a crash that loses the
/// dedup record: the retried Close finds no session, which after the
/// verified digest means it is closed.
#[test]
fn chaos_close_lost_to_a_crash_counts_as_closed() {
    restart_window_matches_control(
        "window-close",
        "conn-drop@14:session=0,when=recv; crash-restart@15:session=0",
    );
}

/// Restart recovery: a suspended session survives a full server
/// teardown bit-exactly, while a truncated checkpoint is quarantined
/// with a typed reason instead of poisoning the restart.
#[test]
fn recover_quarantines_truncated_checkpoint_and_restores_the_rest() {
    let spool = scratch("recover");
    let cfg = ServerConfig::new(1, &spool);
    let server = Server::start(cfg.clone()).unwrap();
    let mut client = connect(&server);

    // The control runs to completion uninterrupted for the target digest.
    let control = client.submit("fisher", 8, 8).unwrap();
    client.step(control, 40).unwrap();
    let (_, want_digest) = client.digest(control).unwrap();

    let survivor = client.submit("fisher", 8, 8).unwrap();
    client.step(survivor, 25).unwrap();
    assert_eq!(client.suspend(survivor).unwrap(), 25);

    let victim = client.submit("gray-scott", 6, 6).unwrap();
    client.step(victim, 10).unwrap();
    assert_eq!(client.suspend(victim).unwrap(), 10);
    server.shutdown();

    // Truncate the victim's checkpoint: half the file, digest now wrong.
    let victim_ckpt = spool.join(format!("session_{victim}.ckpt"));
    let bytes = std::fs::read(&victim_ckpt).unwrap();
    std::fs::write(&victim_ckpt, &bytes[..bytes.len() / 2]).unwrap();

    let (server, report) = Server::recover(cfg).unwrap();
    assert_eq!(report.recovered, vec![survivor]);
    assert_eq!(report.quarantined.len(), 1);
    let (id, reason) = &report.quarantined[0];
    assert_eq!(*id, victim);
    assert!(
        reason.starts_with("digest-mismatch"),
        "typed quarantine reason, got: {reason}"
    );
    assert!(
        !victim_ckpt.exists(),
        "damaged checkpoint left the live spool"
    );
    assert!(
        spool
            .join("quarantine")
            .join(format!("session_{victim}.ckpt"))
            .exists(),
        "damaged checkpoint moved into spool/quarantine/"
    );

    // The survivor resumes exactly where it suspended and converges to
    // the uninterrupted digest; the victim is typed away.
    let mut client = connect(&server);
    assert_eq!(client.resume(survivor).unwrap(), 25);
    let (steps, _) = client.step(survivor, 15).unwrap();
    assert_eq!(steps, 40);
    let (_, got_digest) = client.digest(survivor).unwrap();
    assert_eq!(got_digest, want_digest, "recovery must be bit-exact");
    match client.resume(victim).unwrap_err() {
        ClientError::Server { code, .. } => assert_eq!(code, ErrorCode::NoSuchSession),
        other => panic!("expected typed server error, got {other}"),
    }

    server.shutdown();
    let _ = std::fs::remove_dir_all(&spool);
}

/// Every spool-damage and lifecycle misuse path answers with a typed
/// error: missing checkpoint file, bit-flipped checkpoint, double close,
/// step after close, and load shedding past the configured ceilings.
#[test]
fn spool_damage_and_misuse_answer_typed_errors() {
    let spool = scratch("typed-errors");
    let server = Server::start(ServerConfig::new(1, &spool)).unwrap();
    let mut client = connect(&server);
    let typed = |e: ClientError| match e {
        ClientError::Server { code, .. } => code,
        other => panic!("expected typed server error, got {other}"),
    };

    // Resume with the spool file deleted out from under the manager.
    let gone = client.submit("fisher", 8, 8).unwrap();
    client.step(gone, 5).unwrap();
    client.suspend(gone).unwrap();
    std::fs::remove_file(spool.join(format!("session_{gone}.ckpt"))).unwrap();
    assert_eq!(
        typed(client.resume(gone).unwrap_err()),
        ErrorCode::CorruptCheckpoint
    );

    // Resume after a single flipped bit: the manifest digest catches it.
    let flipped = client.submit("fisher", 8, 8).unwrap();
    client.step(flipped, 5).unwrap();
    client.suspend(flipped).unwrap();
    let path = spool.join(format!("session_{flipped}.ckpt"));
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&path, &bytes).unwrap();
    assert_eq!(
        typed(client.resume(flipped).unwrap_err()),
        ErrorCode::CorruptCheckpoint
    );

    // Double close and step-after-close.
    let closed = client.submit("fisher", 8, 8).unwrap();
    client.close(closed).unwrap();
    assert_eq!(
        typed(client.close(closed).unwrap_err()),
        ErrorCode::NoSuchSession
    );
    assert_eq!(
        typed(client.step(closed, 1).unwrap_err()),
        ErrorCode::NoSuchSession
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&spool);

    // Load shedding: past max_sessions the server answers `overloaded`
    // (retryable) instead of accepting, and recovers once a slot frees.
    let spool = scratch("shed");
    let server = Server::start(ServerConfig::new(1, &spool).with_limits(1, 1_000_000)).unwrap();
    let mut client = connect(&server);
    let only = client.submit("fisher", 8, 8).unwrap();
    assert_eq!(
        typed(client.submit("fisher", 8, 8).unwrap_err()),
        ErrorCode::Overloaded
    );
    client.close(only).unwrap();
    let next = client.submit("fisher", 8, 8).unwrap();
    client.close(next).unwrap();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&spool);
}

/// A connection that goes silent past the idle deadline is closed by the
/// server, but its sessions are suspended first — a later connection
/// resumes them with nothing lost.
#[test]
fn idle_timeout_suspends_sessions_before_closing_the_connection() {
    let spool = scratch("idle");
    let server =
        Server::start(ServerConfig::new(1, &spool).with_idle_timeout(Duration::from_millis(40)))
            .unwrap();

    // serve_tcp arms the deadline on accept; over loopback we arm the
    // server's half by hand.
    let (ours, mut theirs) = loopback::pair();
    theirs.set_read_timeout(Some(Duration::from_millis(40)));
    let srv = server.clone();
    let conn = std::thread::spawn(move || srv.handle_conn(theirs));
    let mut client = Client::new(ours);

    let session = client.submit("fisher", 8, 8).unwrap();
    let (steps, _) = client.step(session, 12).unwrap();
    assert_eq!(steps, 12);

    // Go silent. The server times out the read, suspends our session,
    // and hangs up (handle_conn returns false: not a shutdown).
    std::thread::sleep(Duration::from_millis(250));
    assert!(!conn.join().unwrap());
    match client.ping().unwrap_err() {
        ClientError::Disconnected | ClientError::Frame(_) => {}
        other => panic!("expected a dead connection, got {other}"),
    }
    assert!(
        spool.join(format!("session_{session}.ckpt")).exists(),
        "idle shutdown spooled the session"
    );

    let mut client = connect(&server);
    assert_eq!(client.resume(session).unwrap(), 12);
    let (steps, _) = client.step(session, 12).unwrap();
    assert_eq!(steps, 24);
    client.close(session).unwrap();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&spool);
}

/// Idempotency: when the ACK of a `Step` is lost (response dropped, not
/// the request), the retry carries the same request id and the server
/// answers from its dedup cache instead of stepping the solver twice.
#[test]
fn retried_step_after_dropped_ack_does_not_double_step() {
    let spool = scratch("dedup");
    let server = Server::start(ServerConfig::new(1, &spool)).unwrap();

    // Control: the same workload straight through, no faults.
    let mut plain = connect(&server);
    let control = plain.submit("fisher", 8, 8).unwrap();
    plain.step(control, 10).unwrap();
    let (_, want_digest) = plain.digest(control).unwrap();

    // Fault plan: drop the *response* to this client's third outbound
    // frame — submit(0), step(1), step(2) — so the second step's ACK
    // vanishes after the server has executed it.
    let plan = ChaosPlan::parse("conn-drop@2:session=0,when=recv").unwrap();
    let director = Arc::new(ChaosDirector::new(&plan));
    let dir = director.clone();
    let srv = server.clone();
    let mut client = RetryClient::new(
        move || {
            let (ours, theirs) = loopback::pair();
            let s = srv.clone();
            std::thread::spawn(move || {
                s.handle_conn(theirs);
            });
            Ok(ChaosTransport::new(ours, 0, dir.clone()))
        },
        RetryPolicy::default(),
        7,
    )
    .with_deadline(Duration::from_secs(5));

    let session = client.submit("fisher", 8, 8).unwrap();
    let (steps, _) = client.step(session, 5).unwrap();
    assert_eq!(steps, 5);
    // This step's ACK is dropped; the retry must be answered from the
    // dedup cache. A double-step would report 15 here.
    let (steps, _) = client.step(session, 5).unwrap();
    assert_eq!(steps, 10, "retried step must not execute twice");
    let (steps, got_digest) = client.digest(session).unwrap();
    assert_eq!(steps, 10);
    assert_eq!(got_digest, want_digest, "state identical to control");

    let stats = director.stats();
    assert_eq!(stats.injected.len(), 1, "the drop actually fired");
    client.close(session).unwrap();
    plain.close(control).unwrap();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&spool);
}

/// Session ids never repeat across restarts: an id issued but never
/// checkpointed before a crash is not handed out again, so a client
/// still holding it cannot drive another client's session.
#[test]
fn restarted_server_never_reissues_a_session_id() {
    let spool = scratch("ids");
    let cfg = ServerConfig::new(1, &spool);
    let server = Server::start(cfg.clone()).unwrap();
    let mut client = connect(&server);
    let durable = client.submit("fisher", 8, 8).unwrap();
    client.suspend(durable).unwrap();
    let lost = client.submit("heat", 8, 8).unwrap();
    assert_eq!((durable, lost), (1, 2), "a fresh spool issues ids from 1");
    server.crash();

    let (server, report) = Server::recover(cfg.clone()).unwrap();
    assert_eq!(report.recovered, vec![durable]);
    let mut client = connect(&server);
    let fresh = client.submit("heat", 8, 8).unwrap();
    assert!(
        fresh != durable && fresh != lost,
        "the restarted server issued id {fresh} a second time"
    );
    match client.step(lost, 1).unwrap_err() {
        ClientError::Server { code, .. } => assert_eq!(code, ErrorCode::NoSuchSession),
        other => panic!("expected typed server error, got {other}"),
    }

    // A second restart moves on again.
    server.crash();
    let (server, _) = Server::recover(cfg).unwrap();
    let again = connect(&server).submit("heat", 8, 8).unwrap();
    assert!(
        ![durable, lost, fresh].contains(&again),
        "id {again} reissued"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&spool);
}

/// A retry that arrives while its original is still running waits for
/// the original and replays its reply instead of running a second time.
#[test]
fn duplicate_arriving_mid_flight_replays_the_original() {
    let spool = scratch("in-flight");
    let mut cfg = ServerConfig::new(1, &spool);
    // Quantum 0 runs the original's steps; the stall holds it in flight.
    cfg.manager.stalls = vec![(0, 300)];
    let server = Server::start(cfg).unwrap();
    let mut first = connect(&server);
    let mut second = connect(&server);
    let session = first.submit("fisher", 8, 8).unwrap();
    let step = Request::Step { session, n: 5 };

    let original = {
        let step = step.clone();
        std::thread::spawn(move || first.call_with_id(77, &step).unwrap())
    };
    // The duplicate goes out once the original's steps are queued.
    while server.manager().stats_sessions()[0].pending == 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    let duplicate = second.call_with_id(77, &step).unwrap();
    let original = original.join().unwrap();
    assert_eq!(duplicate, original, "the duplicate replays the original");
    let (steps, _) = second.digest(session).unwrap();
    assert_eq!(steps, 5, "the step ran once");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&spool);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The retry backoff schedule is a pure function of the policy: same
    /// fields, same schedule (no clock, no RNG state), every delay
    /// within the documented exponential envelope and capped.
    #[test]
    fn retry_backoff_is_deterministic_and_bounded(
        attempts in 1u32..16,
        base_ms in 1u64..500,
        cap_ms in 1u64..5000,
        seed in any::<u64>(),
    ) {
        let policy = RetryPolicy { attempts, base_ms, cap_ms, seed };
        let schedule = policy.schedule();
        prop_assert_eq!(&schedule, &policy.schedule(), "schedule is a constant");
        prop_assert_eq!(schedule.len(), attempts.max(1) as usize - 1);
        for (i, &delay) in schedule.iter().enumerate() {
            let retry = i as u32 + 1;
            let exp = base_ms
                .saturating_mul(1u64 << (retry - 1).min(20))
                .min(cap_ms.max(base_ms));
            prop_assert!(
                delay >= exp / 2 && delay <= exp,
                "retry {} delay {} outside [{}, {}]",
                retry, delay, exp / 2, exp
            );
            prop_assert_eq!(delay, policy.backoff_ms(retry), "per-retry hash is stable");
        }
        prop_assert_eq!(policy.backoff_ms(0), 0, "first attempt is immediate");
    }

    /// Any payload survives a frame round trip, including empty ones.
    #[test]
    fn frames_round_trip_arbitrary_payloads(
        payload in prop::collection::vec(any::<u8>(), 0..2048usize),
    ) {
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        let mut cursor = &buf[..];
        prop_assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), payload);
        prop_assert!(read_frame(&mut cursor).unwrap().is_none(), "clean EOF after");
    }

    /// Cutting a frame anywhere yields a typed result — clean EOF at a
    /// frame boundary, `Truncated` mid-frame — never a panic or a hang.
    #[test]
    fn truncated_frames_are_typed(
        payload in prop::collection::vec(any::<u8>(), 0..256usize),
        cut_seed in any::<u64>(),
    ) {
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        let cut = (cut_seed as usize) % buf.len();
        let mut cursor = &buf[..cut];
        match read_frame(&mut cursor) {
            Ok(None) => prop_assert_eq!(cut, 0, "EOF only at the frame boundary"),
            Err(FrameError::Truncated { .. }) => prop_assert!(cut > 0),
            _ => prop_assert!(false, "cut at {} gave an untyped result", cut),
        }
    }

    /// A corrupted length prefix is rejected before allocation when it
    /// exceeds the cap, and decoding bit-flipped request payloads never
    /// panics — every outcome is `Ok` or a typed `Malformed`.
    #[test]
    fn bit_flips_never_panic(
        session in any::<u64>(),
        n in any::<u64>(),
        flip_byte in any::<u64>(),
        flip_bit in 0u8..8,
    ) {
        // Flip one bit somewhere in a valid encoded request.
        let mut payload = Request::Step { session, n }.encode_with_id(0);
        let idx = (flip_byte as usize) % payload.len();
        payload[idx] ^= 1 << flip_bit;
        match Request::decode_with_id(&payload) {
            Ok(_) | Err(FrameError::Malformed(_)) => {}
            Err(other) => prop_assert!(false, "unexpected error class: {}", other),
        }

        // A bare length prefix with no payload: every outcome is typed.
        let len = session as u32;
        let framed = len.to_le_bytes();
        let mut cursor = &framed[..];
        match read_frame(&mut cursor) {
            Ok(Some(p)) => prop_assert_eq!((len as usize, p.len()), (0, 0)),
            Ok(None) => prop_assert!(false, "header was complete, not EOF"),
            Err(FrameError::Oversized { .. }) => {
                prop_assert!(len as usize > MAX_FRAME_LEN)
            }
            Err(FrameError::Truncated { .. }) => {
                prop_assert!(len > 0 && len as usize <= MAX_FRAME_LEN)
            }
            Err(e) => prop_assert!(false, "unexpected error class: {}", e),
        }
    }
}
