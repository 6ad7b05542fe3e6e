//! Integration tests for the live-telemetry surface (PR 10).
//!
//! The contracts pinned here:
//!
//! 1. **One registry, two doors** — a running server answers the `Stats`
//!    frame and the Prometheus scrape from the same [`MetricsHub`], so
//!    the workload counters agree between the two.
//! 2. **Canonical snapshot determinism** — for the deterministic fleet
//!    workload, the canonical metrics snapshot (histogram nanos zeroed,
//!    observation counts kept) is byte-identical across worker counts
//!    and matches its golden fixture
//!    (`tests/fixtures/stats_snapshot.jsonl`; re-bless with
//!    `CENN_BLESS=1 cargo test --test telemetry`).
//! 3. **Schema rigidity** — every metric JSONL line validates, and a
//!    line with an unknown field is rejected, not silently accepted.
//! 4. **Merge algebra** — draining worker-local counter deltas into the
//!    hub commutes: any drain order yields the same snapshot (property
//!    test).
//! 5. **Correlation** — a client-chosen request id rides the proto-v2
//!    header onto the matching session events and onto the quantum
//!    marks in the exported Chrome trace (`cenn-corr` category).

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::path::PathBuf;

use cenn::obs::{validate_jsonl_line, MetricsHub, RecorderHandle, TraceHandle};
use cenn::serve::{
    loopback, run_fleet, Client, FleetConfig, Request, Response, Rpc, Server, ServerConfig,
    StatsHttpServer,
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

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "cenn-telemetry-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One bare HTTP GET against the stats endpoint; returns the body.
fn scrape_metrics(addr: std::net::SocketAddr) -> String {
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(b"GET /metrics HTTP/1.1\r\nHost: cenn\r\n\r\n")
        .unwrap();
    let mut raw = String::new();
    s.read_to_string(&mut raw).unwrap();
    let (head, body) = raw.split_once("\r\n\r\n").expect("response has a head");
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
    body.to_string()
}

/// Value of a counter family in Prometheus text exposition format.
fn prom_value(text: &str, family: &str) -> Option<u64> {
    text.lines()
        .find(|l| l.strip_prefix(family).is_some_and(|r| r.starts_with(' ')))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
}

/// Acceptance: the `Stats` frame and the Prometheus scrape are two
/// views of the same registry — workload counters agree exactly.
#[test]
fn stats_frame_and_prometheus_scrape_agree() {
    let spool = scratch("two-doors");
    let server = Server::start(ServerConfig::new(2, &spool)).unwrap();
    let handle = server.serve_tcp("127.0.0.1:0").unwrap();
    let srv = server.clone();
    let http = StatsHttpServer::start("127.0.0.1:0", move || {
        srv.stats_snapshot().metrics.prometheus_text()
    })
    .unwrap();

    let mut client = Client::connect_tcp(handle.local_addr()).unwrap();
    let session = client.submit("fisher", 8, 8).unwrap();
    client.step(session, 96).unwrap();

    let stats = client.stats().unwrap();
    let text = scrape_metrics(http.addr());

    // Compare the counters the workload settled (frame counters keep
    // moving with every stats request itself, so they are not compared).
    for family in [
        ("serve.steps_total", "cenn_serve_steps_total"),
        ("serve.quanta_total", "cenn_serve_quanta_total"),
        (
            "serve.sessions_submitted_total",
            "cenn_serve_sessions_submitted_total",
        ),
    ] {
        let via_frame = stats.metrics.counter(family.0).unwrap();
        let via_scrape = prom_value(&text, family.1)
            .unwrap_or_else(|| panic!("{} missing from scrape:\n{text}", family.1));
        assert_eq!(
            via_frame, via_scrape,
            "{} disagrees between doors",
            family.0
        );
    }
    assert_eq!(stats.metrics.counter("serve.steps_total"), Some(96));
    assert!(
        text.contains("# TYPE cenn_serve_quantum_nanos summary"),
        "histogram family annotated:\n{text}"
    );
    assert_eq!(
        stats.sessions.len(),
        1,
        "the live session shows in the frame's session table"
    );

    client.shutdown().unwrap();
    handle.join();
    http.shutdown();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&spool);
}

/// Runs the deterministic fleet workload against a server with `workers`
/// workers and returns the canonical metrics snapshot as JSONL.
fn fleet_canonical_snapshot(workers: usize, tag: &str) -> String {
    let cfg = FleetConfig {
        sessions: 4,
        base_steps: 40,
        chunk: 20,
        seed: 11,
        suspend_mid_run: true,
    };
    let spool = scratch(tag);
    let hub = MetricsHub::default();
    let mut server_cfg = ServerConfig::new(workers, &spool);
    server_cfg.manager.metrics = hub.clone();
    let server = Server::start(server_cfg).unwrap();
    run_fleet(&cfg, |_| {
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
    hub.snapshot().canonical().to_jsonl()
}

/// Acceptance: the canonical snapshot for the deterministic fleet
/// workload is a stable, committed artifact — byte-identical across
/// worker counts and across reruns (wall-clock fields are zeroed, exact
/// event counts are kept).
#[test]
fn canonical_fleet_snapshot_is_worker_invariant_and_matches_fixture() {
    let one = fleet_canonical_snapshot(1, "fleet-w1");
    let four = fleet_canonical_snapshot(4, "fleet-w4");
    assert_eq!(
        one, four,
        "canonical snapshot must not depend on the worker count"
    );
    for line in one.lines() {
        validate_jsonl_line(line).unwrap();
    }
    assert_matches_fixture(&one, "stats_snapshot.jsonl");
}

/// Schema rigidity: a metric line with a field the schema does not know
/// is rejected — telemetry consumers can trust the field inventory.
#[test]
fn metric_lines_reject_unknown_fields() {
    let hub = MetricsHub::new();
    hub.inc(hub.counter("serve.steps_total"), 7);
    hub.gauge_set(hub.gauge("serve.queue_depth"), 3);
    hub.observe(hub.histogram("serve.quantum_nanos"), 1500);
    let jsonl = hub.snapshot().canonical().to_jsonl();
    let mut lines = jsonl.lines();
    let first = lines.next().expect("snapshot has lines");
    for line in jsonl.lines() {
        validate_jsonl_line(line).unwrap();
    }
    let tampered = first.replacen('{', "{\"surprise\":1,", 1);
    let err = validate_jsonl_line(&tampered).unwrap_err();
    assert!(
        err.to_string().contains("surprise"),
        "the rejection names the unknown field: {err}"
    );
}

/// Correlation acceptance: the client-chosen request id lands on the
/// session events it caused and on the quantum marks in the exported
/// Chrome trace.
#[test]
fn correlation_id_flows_to_session_events_and_trace_marks() {
    let spool = scratch("corr");
    let (recorder, reader) = RecorderHandle::in_memory(true);
    let tracer = TraceHandle::full();
    let mut cfg = ServerConfig::new(1, &spool);
    cfg.manager.recorder = Some(recorder);
    cfg.manager.tracer = Some(tracer.clone());
    let server = Server::start(cfg).unwrap();
    let (ours, theirs) = loopback::pair();
    {
        let srv = server.clone();
        std::thread::spawn(move || {
            srv.handle_conn(theirs);
        });
    }
    let mut client = Client::new(ours);

    // Distinct, recognizable correlation ids per request.
    let submit_corr = 424_201u64;
    let step_corr = 424_202u64;
    let session = match client
        .call_with_id(
            submit_corr,
            &Request::SubmitSystem {
                system: "fisher".into(),
                rows: 8,
                cols: 8,
            },
        )
        .unwrap()
    {
        Response::Submitted { session } => session,
        other => panic!("unexpected response {other:?}"),
    };
    match client
        .call_with_id(step_corr, &Request::Step { session, n: 24 })
        .unwrap()
    {
        Response::Stepped { .. } => {}
        other => panic!("unexpected response {other:?}"),
    }
    client.close(session).unwrap();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&spool);

    let events = reader.lock().unwrap().to_jsonl();
    let line_with = |kind: &str| {
        events
            .lines()
            .find(|l| l.contains(&format!("\"kind\":\"{kind}\"")))
            .unwrap_or_else(|| panic!("no {kind} event in:\n{events}"))
            .to_string()
    };
    assert!(
        line_with("submitted").contains(&format!("\"corr\":{submit_corr}")),
        "submit event carries the submit request id"
    );
    assert!(
        line_with("stepped").contains(&format!("\"corr\":{step_corr}")),
        "stepped event carries the step request id"
    );

    let trace = tracer.chrome_trace_json();
    assert!(
        trace.contains("\"cat\":\"cenn-corr\""),
        "quantum marks export under the cenn-corr category:\n{trace}"
    );
    assert!(
        trace.contains(&format!("\"corr\":{step_corr}")),
        "the mark is tagged with the step request id:\n{trace}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Draining worker-local counter deltas commutes: applying the same
    /// per-worker increments in any drain order produces an identical
    /// snapshot, which is what makes the registry safe to populate from
    /// a worker pool without ordering guarantees.
    #[test]
    fn counter_merges_are_order_independent(
        ops in prop::collection::vec((0usize..4, 0u64..1000), 0..48),
        flip in any::<bool>(),
    ) {
        let run = |reverse: bool| {
            let hub = MetricsHub::new();
            let ids: Vec<_> = (0..4).map(|i| hub.counter(&format!("c{i}"))).collect();
            let mut locals = [
                hub.local_counters(),
                hub.local_counters(),
                hub.local_counters(),
            ];
            for (i, &(which, n)) in ops.iter().enumerate() {
                locals[i % locals.len()].inc(ids[which], n);
            }
            if reverse {
                for l in locals.iter_mut().rev() {
                    hub.drain_local(l);
                }
            } else {
                for l in locals.iter_mut() {
                    hub.drain_local(l);
                }
            }
            hub.snapshot().to_jsonl()
        };
        prop_assert_eq!(run(flip), run(!flip), "drain order must not matter");
    }
}
