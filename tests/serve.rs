//! Integration tests for `napel-serve`: the robustness contract,
//! exercised over real TCP against real trained bundles.
//!
//! Every test speaks the wire protocol through [`ServeClient`] — nothing
//! reaches into server internals except the counters the `stats` request
//! already exposes to any client. The invariant under test throughout:
//! **every admitted request gets exactly one typed response**, whatever
//! the workers, the queues, or the other clients are doing.

use std::collections::HashMap;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::Duration;

use napel::core::campaign::AnyExecutor;
use napel::core::collect::{collect, CollectionPlan};
use napel::core::fault::CampaignOptions;
use napel::core::model::{Napel, NapelConfig};
use napel::serve::protocol::payload_field;
use napel::serve::stats::ServeStats;
use napel::serve::{ErrorKind, Response, ServeClient, Server, ServerConfig};
use napel::workloads::{Scale, Workload};

const TIMEOUT: Duration = Duration::from_secs(10);

/// A directory of trained bundles (`atax.napel`, `gemv.napel`) plus the
/// feature-row arity, built once for the whole suite.
fn model_dir() -> &'static (PathBuf, usize) {
    static DIR: OnceLock<(PathBuf, usize)> = OnceLock::new();
    DIR.get_or_init(|| {
        let plan = CollectionPlan {
            workloads: vec![Workload::Atax, Workload::Gemv],
            scale: Scale::tiny(),
            ..Default::default()
        };
        let (set, _) = collect(&plan, &AnyExecutor::from_env(), &CampaignOptions::default())
            .expect("clean campaign");
        let trained = Napel::new(NapelConfig::untuned())
            .train(&set)
            .expect("train");
        let dir = std::env::temp_dir().join(format!("napel-serve-models-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("model dir");
        trained.save(dir.join("atax.napel")).expect("save atax");
        trained.save(dir.join("gemv.napel")).expect("save gemv");
        (dir, set.feature_names.len())
    })
}

fn base_config() -> ServerConfig {
    let (dir, _) = model_dir();
    ServerConfig {
        model_dir: dir.clone(),
        ..ServerConfig::default()
    }
}

fn connect(server: &Server) -> ServeClient {
    ServeClient::connect(server.addr(), TIMEOUT).expect("connect")
}

fn predict_line(id: &str, key: &str) -> String {
    let (_, nfeat) = model_dir();
    let row = " 1.5".repeat(*nfeat);
    format!("predict {id} {key}{row}")
}

/// Reads responses until every id in `expect` is answered; panics on EOF
/// or timeout first — the lost-request detector.
fn collect_responses(client: &mut ServeClient, expect: &[String]) -> HashMap<String, Response> {
    let mut got = HashMap::new();
    while got.len() < expect.len() {
        let response = client
            .read_response()
            .expect("response read")
            .expect("connection closed with requests still unanswered");
        got.insert(response.id().to_string(), response);
    }
    for id in expect {
        assert!(got.contains_key(id), "no response for `{id}`");
    }
    got
}

#[test]
fn predictions_round_trip_with_out_of_order_ids() {
    let server = Server::start(base_config()).expect("start");
    let mut client = connect(&server);

    let pong = client.request("ping p0").expect("ping");
    assert_eq!(pong, Response::ok("p0", "pong"));

    // Pipeline across both models; ids account for every response.
    let ids: Vec<String> = (0..6).map(|i| format!("r{i}")).collect();
    for (i, id) in ids.iter().enumerate() {
        let key = if i % 2 == 0 { "atax" } else { "gemv" };
        client.send_line(&predict_line(id, key)).expect("send");
    }
    let got = collect_responses(&mut client, &ids);
    for (id, response) in &got {
        let Response::Ok { payload, .. } = response else {
            panic!("{id} failed: {}", response.render());
        };
        let ipc = payload_field(payload, "ipc").expect("ipc field");
        let spread = payload_field(payload, "spread").expect("spread field");
        assert!(ipc.is_finite() && ipc > 0.0, "{id}: ipc {ipc}");
        assert!(spread >= 1.0, "{id}: spread {spread}");
    }

    // Same row, same model → bit-identical payloads (deterministic serving).
    let a = client.request(&predict_line("d1", "atax")).expect("d1");
    let b = client.request(&predict_line("d2", "atax")).expect("d2");
    if let (Response::Ok { payload: pa, .. }, Response::Ok { payload: pb, .. }) = (&a, &b) {
        assert_eq!(pa, pb, "serving must be deterministic");
    } else {
        panic!(
            "deterministic probe failed: {} / {}",
            a.render(),
            b.render()
        );
    }

    let stats = server.drain();
    assert!(stats
        .snapshot()
        .iter()
        .any(|&(n, v)| n == "completed" && v >= 8));
}

#[test]
fn hostile_lines_get_typed_errors_and_a_closed_connection() {
    let mut cfg = base_config();
    cfg.workers = 1;
    let server = Server::start(cfg).expect("start");

    // Each hostile case on a fresh connection: (what to send, expected detail).
    let cases: Vec<(Vec<u8>, &str)> = vec![
        (b"frobnicate x\n".to_vec(), "unknown command"),
        (b"predict h1 ../../etc/passwd 1.0\n".to_vec(), "outside"),
        (b"predict h2 atax 1.0 NaN\n".to_vec(), "not a finite"),
        (b"predict\n".to_vec(), "needs an id"),
        (b"\xff\xfe\x00 binary junk\n".to_vec(), "not UTF-8"),
        (b"panic h3\n".to_vec(), "--chaos"),
        // An oversized line: 80 KiB with no newline breaches the 64 KiB
        // cap while still being read.
        (vec![b'x'; 80 * 1024], "byte cap"),
    ];
    for (bytes, needle) in cases {
        let mut client = connect(&server);
        let mut raw = client.stream().try_clone().expect("clone");
        raw.write_all(&bytes).expect("send hostile bytes");
        let response = client
            .read_response()
            .expect("typed response before close")
            .expect("a response, not a bare close");
        match &response {
            Response::Err { kind, detail, .. } => {
                assert_eq!(*kind, ErrorKind::Protocol, "{}", response.render());
                assert!(detail.contains(needle), "`{needle}` not in `{detail}`");
            }
            Response::Ok { .. } => panic!("hostile line accepted: {}", response.render()),
        }
        // And the connection is closed, not left dangling.
        assert!(client.read_response().expect("post-error read").is_none());
    }

    // A wrong header is refused at the door (raw socket, no handshake).
    {
        let mut raw = std::net::TcpStream::connect(server.addr()).expect("connect");
        raw.set_read_timeout(Some(TIMEOUT)).unwrap();
        raw.write_all(b"some-other-protocol v9\n").unwrap();
        let mut reader = napel::serve::protocol::LineReader::new(raw.try_clone().unwrap());
        match reader.next_line() {
            napel::serve::protocol::ReadEvent::Line(line) => {
                let line = String::from_utf8(line).unwrap();
                let response = Response::parse(&line).expect("parsable refusal");
                assert!(!response.is_ok(), "bad header accepted: {line}");
                assert!(line.contains("header"), "{line}");
            }
            other => panic!("expected a refusal line, got {other:?}"),
        }
    }

    // The workers never saw any of it: a normal request still works.
    let mut client = connect(&server);
    let ok = client
        .request(&predict_line("after", "atax"))
        .expect("after");
    assert!(ok.is_ok(), "{}", ok.render());

    let stats = server.drain();
    let rendered = stats.render();
    let protocol_errors = ServeStats::parse_field(&rendered, "protocol_errors").unwrap();
    assert!(
        protocol_errors >= 8,
        "expected >=8 protocol errors: {rendered}"
    );
}

#[test]
fn slow_clients_are_cut_off_at_the_read_deadline() {
    let mut cfg = base_config();
    cfg.read_deadline = Duration::from_millis(200);
    let server = Server::start(cfg).expect("start");

    // A slow-loris peer: handshake, then a partial line and silence.
    let mut client = connect(&server);
    let mut raw = client.stream().try_clone().expect("clone");
    raw.write_all(b"predict slow1 atax 1.0 2.0")
        .expect("dribble");
    let response = client
        .read_response()
        .expect("deadline notice")
        .expect("a typed notice, not a bare close");
    match &response {
        Response::Err { kind, detail, .. } => {
            assert_eq!(*kind, ErrorKind::Deadline, "{}", response.render());
            assert!(detail.contains("read deadline"), "{detail}");
        }
        Response::Ok { .. } => panic!("slow client got {}", response.render()),
    }
    assert!(client.read_response().expect("after notice").is_none());

    // A peer that never even sends the header is cut off the same way.
    let raw = std::net::TcpStream::connect(server.addr()).expect("connect");
    raw.set_read_timeout(Some(TIMEOUT)).unwrap();
    let mut reader = napel::serve::protocol::LineReader::new(raw.try_clone().unwrap());
    match reader.next_line() {
        napel::serve::protocol::ReadEvent::Line(line) => {
            let line = String::from_utf8(line).unwrap();
            assert!(line.contains("deadline"), "{line}");
        }
        other => panic!("expected a deadline notice, got {other:?}"),
    }

    // Meanwhile the server still serves fast clients.
    let mut client = connect(&server);
    let ok = client.request(&predict_line("fast", "gemv")).expect("fast");
    assert!(ok.is_ok(), "{}", ok.render());
    server.drain();
}

#[test]
fn worker_panics_are_isolated_and_answered() {
    let mut cfg = base_config();
    cfg.chaos = true;
    cfg.workers = 1; // deterministic shard targeting
    cfg.worker.backoff =
        napel::core::fault::Backoff::new(Duration::from_millis(1), Duration::from_millis(10));
    let server = Server::start(cfg).expect("start");
    let mut client = connect(&server);

    // A panic sandwiched between predicts, pipelined: every id must be
    // answered — `ok` for work the incarnation finished, `err internal`
    // for work stranded in flight by the panic.
    let ids = vec!["a".to_string(), "boom".to_string(), "c".to_string()];
    client.send_line(&predict_line("a", "atax")).unwrap();
    client.send_line("panic boom").unwrap();
    client.send_line(&predict_line("c", "atax")).unwrap();
    let got = collect_responses(&mut client, &ids);
    assert!(
        got["a"].is_ok(),
        "pre-panic work lost: {}",
        got["a"].render()
    );
    match &got["boom"] {
        Response::Err { kind, detail, .. } => {
            assert_eq!(*kind, ErrorKind::Internal);
            assert!(detail.contains("panic"), "{detail}");
        }
        other => panic!("panic request got {}", other.render()),
    }

    // The shard restarted: fresh work on the same connection succeeds.
    let after = client
        .request(&predict_line("after", "atax"))
        .expect("after");
    assert!(after.is_ok(), "restart failed: {}", after.render());

    // And a second client never noticed any of it.
    let mut other = connect(&server);
    let fine = other
        .request(&predict_line("other", "gemv"))
        .expect("other");
    assert!(fine.is_ok(), "{}", fine.render());

    let stats = server.drain();
    let rendered = stats.render();
    assert!(
        ServeStats::parse_field(&rendered, "worker_restarts").unwrap() >= 1,
        "{rendered}"
    );
    assert!(
        ServeStats::parse_field(&rendered, "internal_errors").unwrap() >= 1,
        "{rendered}"
    );
    assert_eq!(
        ServeStats::parse_field(&rendered, "breaker_trips"),
        Some(0),
        "{rendered}"
    );
}

#[test]
fn a_restart_storm_trips_the_circuit_breaker() {
    let mut cfg = base_config();
    cfg.chaos = true;
    cfg.workers = 1;
    cfg.worker.breaker_max_restarts = 2;
    cfg.worker.backoff =
        napel::core::fault::Backoff::new(Duration::from_millis(1), Duration::from_millis(5));
    let server = Server::start(cfg).expect("start");
    let mut client = connect(&server);

    // Lockstep panics: each lands in its own batch, so restarts are
    // consecutive with no successful batch in between.
    let mut saw_internal = 0;
    for i in 0..6 {
        let response = client.request(&format!("panic p{i}")).expect("panic ack");
        match response {
            Response::Err { kind, .. } => {
                assert_eq!(kind, ErrorKind::Internal);
                saw_internal += 1;
            }
            other => panic!("panic acked with {}", other.render()),
        }
    }
    assert_eq!(
        saw_internal, 6,
        "every panic request must still be answered"
    );

    // The breaker is open: work for the dead shard is refused with a
    // typed internal error, immediately, not queued into a void.
    let refused = client
        .request(&predict_line("rx", "atax"))
        .expect("refusal");
    match &refused {
        Response::Err { kind, detail, .. } => {
            assert_eq!(*kind, ErrorKind::Internal, "{}", refused.render());
            assert!(detail.contains("breaker"), "{detail}");
        }
        other => panic!("breaker-open predict got {}", other.render()),
    }

    let stats = server.drain();
    let rendered = stats.render();
    assert_eq!(
        ServeStats::parse_field(&rendered, "breaker_trips"),
        Some(1),
        "{rendered}"
    );
    assert!(
        ServeStats::parse_field(&rendered, "worker_restarts").unwrap() >= 3,
        "{rendered}"
    );
}

#[test]
fn overload_sheds_and_expires_instead_of_queuing_forever() {
    let mut cfg = base_config();
    cfg.chaos = true;
    cfg.workers = 1;
    cfg.queue_capacity = 4;
    cfg.worker.compute_deadline = Duration::from_millis(200);
    let server = Server::start(cfg).expect("start");
    let mut client = connect(&server);

    // Wedge the only worker, then flood well past the queue bound.
    client.send_line("stall s0 600").unwrap();
    std::thread::sleep(Duration::from_millis(100)); // let the worker claim it
    let mut ids = vec!["s0".to_string()];
    for i in 0..20 {
        let id = format!("f{i}");
        client.send_line(&predict_line(&id, "atax")).unwrap();
        ids.push(id);
    }
    let got = collect_responses(&mut client, &ids);
    assert!(got["s0"].is_ok(), "stall lost: {}", got["s0"].render());
    let mut shed = 0;
    let mut expired = 0;
    let mut ok = 0;
    for (id, response) in &got {
        if id == "s0" {
            continue;
        }
        match response {
            Response::Ok { .. } => ok += 1,
            Response::Err {
                kind: ErrorKind::Shed,
                ..
            } => shed += 1,
            Response::Err {
                kind: ErrorKind::Deadline,
                ..
            } => expired += 1,
            other => panic!("{id}: unexpected {}", other.render()),
        }
    }
    assert_eq!(ok + shed + expired, 20, "every flood request answered");
    assert!(shed >= 1, "a 4-deep queue never shed under a 20-deep flood");
    assert!(
        expired >= 1,
        "requests queued behind a 600ms stall outlived a 200ms deadline"
    );

    let stats = server.drain();
    let rendered = stats.render();
    assert!(
        ServeStats::parse_field(&rendered, "shed").unwrap() >= 1,
        "{rendered}"
    );
    assert!(
        ServeStats::parse_field(&rendered, "deadline_drops").unwrap() >= 1,
        "{rendered}"
    );
}

#[test]
fn drain_answers_everything_already_admitted() {
    let mut cfg = base_config();
    cfg.chaos = true;
    cfg.workers = 1;
    let server = Server::start(cfg).expect("start");
    let mut client = connect(&server);

    // Admit slow work, then drain while it is still queued/in flight.
    let addr = server.addr();
    client.send_line("stall d0 300").unwrap();
    let mut ids = vec!["d0".to_string()];
    for i in 0..5 {
        let id = format!("d{}", i + 1);
        client.send_line(&predict_line(&id, "gemv")).unwrap();
        ids.push(id);
    }
    std::thread::sleep(Duration::from_millis(50)); // let admissions land
    let stats = server.drain();

    // Every admitted request was answered and flushed before drain
    // returned; the subsequent EOF proves the connection closed cleanly.
    let got = collect_responses(&mut client, &ids);
    for (id, response) in &got {
        assert!(
            response.is_ok(),
            "{id} admitted but not completed: {}",
            response.render()
        );
    }
    assert!(client.read_response().expect("post-drain read").is_none());

    let rendered = stats.render();
    assert_eq!(
        ServeStats::parse_field(&rendered, "completed"),
        Some(6),
        "{rendered}"
    );

    // The listener is gone with the drain: new connections are refused.
    assert!(ServeClient::connect(addr, Duration::from_secs(1)).is_err());
}

#[test]
fn shutdown_request_flips_the_flag_for_the_hosting_binary() {
    let server = Server::start(base_config()).expect("start");
    assert!(!server.shutdown_requested());
    let mut client = connect(&server);
    let ack = client.request("shutdown sd").expect("shutdown");
    assert_eq!(ack, Response::ok("sd", "draining"));
    assert!(server.shutdown_requested());
    server.drain();
}

#[test]
fn metrics_request_serves_live_prometheus_exposition() {
    let server = Server::start(base_config()).expect("start");
    let mut client = connect(&server);

    let ids: Vec<String> = (0..8).map(|i| format!("p{i}")).collect();
    for id in &ids {
        client.send_line(&predict_line(id, "atax")).unwrap();
    }
    collect_responses(&mut client, &ids);

    let text = client.fetch_metrics("m1").expect("metrics");
    // Counters come through with dots flattened to underscores and a
    // matching # TYPE line; latency and per-stage quantile summaries are
    // present because requests have actually completed.
    assert!(
        text.contains("# TYPE serve_requests_accepted counter"),
        "{text}"
    );
    assert!(text.contains("serve_requests_accepted 8"), "{text}");
    assert!(text.contains("serve_queue_depth "), "{text}");
    assert!(
        text.contains("serve_latency_seconds{quantile=\"0.99\"}"),
        "{text}"
    );
    assert!(
        text.contains("serve_stage_seconds_predict{quantile=\"0.5\"}"),
        "{text}"
    );
    assert!(text.contains("serve_latency_seconds_count 8"), "{text}");
    // Exposition text is line-oriented: every line is a comment or a
    // `name[{labels}] value` sample — nothing the block framing mangled.
    for line in text.lines() {
        assert!(
            line.starts_with('#') || line.split_whitespace().count() == 2,
            "malformed exposition line: {line:?}"
        );
    }

    // The protocol still works after a block-framed response.
    let pong = client.request("ping z").expect("ping");
    assert_eq!(pong, Response::ok("z", "pong"));
    server.drain();
}

#[test]
fn trace_request_drains_sampled_request_traces() {
    let mut cfg = base_config();
    cfg.trace_sample = 1; // sample everything
    let server = Server::start(cfg).expect("start");
    let mut client = connect(&server);

    let ids: Vec<String> = (0..4).map(|i| format!("t{i}")).collect();
    for id in &ids {
        client.send_line(&predict_line(id, "gemv")).unwrap();
    }
    collect_responses(&mut client, &ids);

    let reply = client.request("trace tr1").expect("trace");
    let payload = match &reply {
        Response::Ok { payload, .. } => payload.clone(),
        other => panic!("trace failed: {}", other.render()),
    };
    assert!(payload.starts_with("{\"dropped\":"), "{payload}");
    assert!(payload.contains("\"traces\":[{"), "{payload}");
    // Every sampled trace carries the full stage breakdown and outcome.
    for stage in [
        "read_parse",
        "admission",
        "queue_wait",
        "batch_assembly",
        "predict",
        "respond_flush",
    ] {
        assert!(payload.contains(&format!("\"{stage}\":")), "{payload}");
    }
    assert!(payload.contains("\"outcome\":\"ok\""), "{payload}");
    assert!(payload.contains("\"model\":\"gemv\""), "{payload}");
    assert_eq!(payload.matches("\"trace_id\":").count(), 4, "{payload}");

    // Draining is destructive: a second request finds an empty ring.
    let again = client.request("trace tr2").expect("trace again");
    let payload = match &again {
        Response::Ok { payload, .. } => payload.clone(),
        other => panic!("trace failed: {}", other.render()),
    };
    assert!(payload.ends_with("\"traces\":[]}"), "{payload}");
    server.drain();
}
