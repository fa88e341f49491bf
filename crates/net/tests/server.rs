//! Integration suite for the network tier: routes, solve correctness
//! (byte-identity with a fresh session), batch coalescing, structured
//! rejection of malformed input, load shedding, quotas, slow-loris
//! cutoff, graceful drain ordering, and fault-injection accounting.

use decss_net::client::{raw_exchange, Client};
use decss_net::jobs::{self, FileAccess};
use decss_net::server::{NetConfig, NetHandle, NetServer};
use decss_net::{FaultPlan, QuotaConfig};
use decss_service::{JobId, JobOutcome, ServiceConfig};
use decss_solver::json::strip_nondeterministic;
use decss_solver::SolverSession;
use std::net::{Ipv4Addr, SocketAddr};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn start(net: NetConfig, service: ServiceConfig) -> NetHandle {
    NetServer::start("127.0.0.1:0", net, service).expect("server starts")
}

fn small_service() -> ServiceConfig {
    ServiceConfig::default()
        .workers(2)
        .queue_capacity(8)
        .cache_capacity(32)
}

#[test]
fn routes_and_probes_answer_structurally() {
    let handle = start(NetConfig::default(), small_service());
    let client = Client::new(handle.addr());

    let health = client.get("/healthz").unwrap();
    assert_eq!(health.status, 200);
    assert!(health.text().contains("\"ok\": true"));

    let ready = client.get("/ready").unwrap();
    assert_eq!(ready.status, 200);
    assert!(ready.text().contains("\"ready\": true"));

    let stats = client.get("/stats").unwrap();
    assert_eq!(stats.status, 200);
    let text = stats.text();
    assert!(text.contains("\"service\""), "{text}");
    assert!(text.contains("\"net\""), "{text}");
    assert!(text.contains("\"clients\""), "{text}");
    assert_eq!(stats.header("content-type"), Some("application/json"));

    assert_eq!(client.get("/nope").unwrap().status, 404);
    assert_eq!(client.get("/solve").unwrap().status, 405);
    assert_eq!(client.post("/healthz", "{}").unwrap().status, 405);

    let summary = handle.drain(Duration::ZERO);
    assert_eq!(summary.slot_leaks(), 0, "{summary:?}");
    assert!(summary.service.audit.is_ok(), "{summary:?}");
}

#[test]
fn solve_over_http_is_byte_identical_to_a_fresh_session() {
    let handle = start(NetConfig::default(), small_service());
    let client = Client::new(handle.addr()).with_client_id("ci");
    let line = r#"{"algorithm": "improved", "family": "grid", "n": 36, "seed": 3}"#;

    let resp = client.post("/solve", line).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.text());

    let spec = jobs::parse_job_specs(&format!("[\n{line}\n]"), FileAccess::Denied)
        .unwrap()
        .remove(0);
    let fresh = SolverSession::new().solve(&spec.graph, &spec.req).unwrap();
    let outcome = JobOutcome { job: JobId(0), report: fresh, cache_hit: false };
    let fresh_row = strip_nondeterministic(jobs::job_row(0, &spec, &Ok(outcome)).trim());
    assert_eq!(
        strip_nondeterministic(resp.text().trim()),
        fresh_row,
        "served report must match a fresh solve"
    );

    let summary = handle.drain(Duration::ZERO);
    assert_eq!(summary.clients, vec![("ci".to_string(), 1)]);
    assert_eq!(summary.service.audit.as_ref().copied(), Ok(1), "{summary:?}");
}

#[test]
fn batches_share_the_cache_and_report_whole() {
    let handle = start(NetConfig::default(), small_service().workers(1));
    let client = Client::new(handle.addr());
    let doc = concat!(
        "[\n",
        r#"{"algorithm": "greedy", "family": "grid", "n": 25, "seed": 1},"#,
        "\n",
        r#"{"algorithm": "greedy", "family": "grid", "n": 25, "seed": 1},"#,
        "\n",
        r#"{"algorithm": "improved", "family": "grid", "n": 25, "seed": 1}"#,
        "\n]"
    );
    let resp = client.post("/jobs", doc).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.text());
    let text = resp.text();
    assert_eq!(text.matches("\"job\":").count(), 3, "{text}");
    assert!(
        text.contains("\"cache_hit\": true"),
        "duplicate must coalesce: {text}"
    );
    assert!(text.contains("\"service\""), "{text}");

    // A batch with a bad row is rejected whole, before any solve runs.
    let bad = "[\n{\"algorithm\": \"greedy\", \"family\": \"grid\", \"n\": \"lots\"}\n]";
    let resp = client.post("/jobs", bad).unwrap();
    assert_eq!(resp.status, 400);
    assert!(resp.text().contains("bad_jobs"), "{}", resp.text());

    let summary = handle.drain(Duration::ZERO);
    assert_eq!(summary.service.audit.as_ref().copied(), Ok(3), "{summary:?}");
}

#[test]
fn malformed_input_gets_structured_4xx() {
    let handle = start(NetConfig::default(), small_service());
    let addr = handle.addr();
    let client = Client::new(addr);

    // Bad JSON job → 400 with a machine-readable code.
    let resp = client.post("/solve", "this is not a job").unwrap();
    assert_eq!(resp.status, 400);
    assert!(resp.text().contains("\"error\": \"bad_job\""), "{}", resp.text());

    // /solve takes exactly one job.
    let two = "[\n{\"algorithm\": \"greedy\", \"family\": \"grid\", \"n\": 16},\n{\"algorithm\": \"greedy\", \"family\": \"grid\", \"n\": 16}\n]";
    let resp = client.post("/solve", two).unwrap();
    assert_eq!(resp.status, 400);

    // Remote clients cannot name server files.
    let probe = r#"{"algorithm": "greedy", "input": "/etc/hostname"}"#;
    let resp = client.post("/solve", probe).unwrap();
    assert_eq!(resp.status, 400);
    assert!(resp.text().contains("not served over the network"), "{}", resp.text());

    // Oversized declared body (over the 1 MiB cap) → 413 from the head
    // alone; no body byte is sent.
    let reply = raw_exchange(
        addr,
        b"POST /solve HTTP/1.1\r\ncontent-length: 1048577\r\n\r\n",
        Duration::from_secs(2),
    )
    .unwrap();
    let reply = String::from_utf8_lossy(&reply).into_owned();
    assert!(reply.starts_with("HTTP/1.1 413"), "{reply}");
    assert!(reply.contains("body_too_large"), "{reply}");

    // Transfer-Encoding is refused, not mis-framed.
    let reply = raw_exchange(
        addr,
        b"POST /solve HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n",
        Duration::from_secs(2),
    )
    .unwrap();
    let reply = String::from_utf8_lossy(&reply).into_owned();
    assert!(reply.starts_with("HTTP/1.1 501"), "{reply}");

    // Bare-LF framing is rejected (smuggling guard).
    let reply = raw_exchange(
        addr,
        b"GET /healthz HTTP/1.1\nhost: x\n\r\n\r\n",
        Duration::from_secs(2),
    )
    .unwrap();
    let reply = String::from_utf8_lossy(&reply).into_owned();
    assert!(reply.starts_with("HTTP/1.1 400"), "{reply}");

    let summary = handle.drain(Duration::ZERO);
    assert_eq!(summary.slot_leaks(), 0, "{summary:?}");
    assert!(summary.net.parse_errors >= 2, "{summary:?}");
    assert_eq!(summary.service.audit.as_ref().copied(), Ok(0), "{summary:?}");
}

#[test]
fn slow_loris_is_cut_off_with_408() {
    let net = NetConfig::default().read_timeout(Duration::from_millis(200));
    let handle = start(net, small_service());
    let reply = raw_exchange(handle.addr(), b"POST /solve HTT", Duration::from_secs(2)).unwrap();
    let reply = String::from_utf8_lossy(&reply).into_owned();
    assert!(reply.starts_with("HTTP/1.1 408"), "{reply}");
    let summary = handle.drain(Duration::ZERO);
    assert_eq!(summary.net.timeouts, 1, "{summary:?}");
    assert_eq!(summary.slot_leaks(), 0, "{summary:?}");
}

#[test]
fn full_queue_sheds_with_retry_hint() {
    // One worker, queue of one: occupy both slots with slow direct
    // submissions, then the HTTP solve must shed instantly.
    let handle = start(
        NetConfig::default(),
        ServiceConfig::default().workers(1).queue_capacity(1),
    );
    let service = handle.server().service();
    let g = Arc::new(decss_graphs::gen::grid(45, 45, 32, 0));
    let running = service.submit(Arc::clone(&g), decss_solver::SolveRequest::new("greedy"));
    // Wait until the worker picked the first job up, then occupy the
    // queue slot with a second.
    while service.stats().queue_depth > 0 {
        std::thread::sleep(Duration::from_millis(2));
    }
    let queued =
        service.submit(Arc::clone(&g), decss_solver::SolveRequest::new("greedy").epsilon(0.5));

    let client = Client::new(handle.addr());
    let resp = client
        .post("/solve", r#"{"algorithm": "greedy", "family": "grid", "n": 16}"#)
        .unwrap();
    assert_eq!(resp.status, 429, "{}", resp.text());
    let text = resp.text();
    assert!(text.contains("\"error\": \"overloaded\""), "{text}");
    assert!(text.contains("retry_after_ms"), "{text}");

    service.join(running).unwrap();
    service.join(queued).unwrap();
    let summary = handle.drain(Duration::ZERO);
    assert_eq!(summary.net.shed, 1, "{summary:?}");
    assert_eq!(summary.service.audit.as_ref().copied(), Ok(2), "{summary:?}");
}

#[test]
fn quotas_meter_per_client() {
    let net = NetConfig::default().quota(QuotaConfig { refill_per_sec: 0.1, burst: 2.0 });
    let handle = start(net, small_service());
    let alice = Client::new(handle.addr()).with_client_id("alice");
    let bob = Client::new(handle.addr()).with_client_id("bob");
    let line = r#"{"algorithm": "greedy", "family": "grid", "n": 16}"#;

    assert_eq!(alice.post("/solve", line).unwrap().status, 200);
    assert_eq!(alice.post("/solve", line).unwrap().status, 200);
    let denied = alice.post("/solve", line).unwrap();
    assert_eq!(denied.status, 429, "{}", denied.text());
    let text = denied.text();
    assert!(text.contains("quota_exceeded"), "{text}");
    assert!(text.contains("retry_after_ms"), "{text}");

    // Quotas are per client: bob is unaffected by alice's exhaustion.
    assert_eq!(bob.post("/solve", line).unwrap().status, 200);

    let summary = handle.drain(Duration::ZERO);
    assert_eq!(summary.net.quota_denied, 1, "{summary:?}");
    assert_eq!(
        summary.clients,
        vec![("alice".to_string(), 2), ("bob".to_string(), 1)],
        "{summary:?}"
    );
    assert_eq!(summary.service.audit.as_ref().copied(), Ok(3), "{summary:?}");
}

/// The accept loop blocks in `accept`; shutdown wakes it with one
/// connection to its own port, over loopback when the bind address is
/// unspecified. Either way the drain is prompt, and the wake-up is not
/// counted as a client connection.
#[test]
fn blocking_accept_wakes_for_drain_on_loopback_and_unspecified_binds() {
    for bind in ["127.0.0.1:0", "0.0.0.0:0"] {
        let handle =
            NetServer::start(bind, NetConfig::default(), small_service()).expect("server starts");
        let client = Client::new(SocketAddr::from((Ipv4Addr::LOCALHOST, handle.addr().port())));
        for _ in 0..3 {
            assert_eq!(client.get("/healthz").unwrap().status, 200, "{bind}");
        }
        let started = Instant::now();
        let summary = handle.drain(Duration::ZERO);
        let took = started.elapsed();
        assert!(took < Duration::from_secs(1), "{bind}: drain took {took:?}");
        assert_eq!(summary.slot_leaks(), 0, "{bind}: {summary:?}");
        assert_eq!(summary.net.accepted, 3, "{bind}: {summary:?}");
    }
}

#[test]
fn drain_flips_ready_before_the_listener_closes() {
    let handle = start(NetConfig::default(), small_service());
    let client = Client::new(handle.addr());
    assert_eq!(client.get("/ready").unwrap().status, 200);

    handle.server().begin_drain();
    // Unready is visible while the listener still answers — the window
    // a load balancer needs to stop routing before connections fail.
    let ready = client.get("/ready").unwrap();
    assert_eq!(ready.status, 503, "{}", ready.text());
    assert!(ready.text().contains("draining"), "{}", ready.text());
    assert_eq!(
        client.get("/healthz").unwrap().status,
        200,
        "listener must still answer"
    );
    let resp = client
        .post("/solve", r#"{"algorithm": "greedy", "family": "grid", "n": 16}"#)
        .unwrap();
    assert_eq!(resp.status, 503, "intake refuses during drain: {}", resp.text());

    let summary = handle.drain(Duration::ZERO);
    assert_eq!(summary.slot_leaks(), 0, "{summary:?}");
    assert_eq!(summary.net.conns_open, 0, "{summary:?}");
    assert_eq!(summary.service.audit.as_ref().copied(), Ok(0), "{summary:?}");
    assert_eq!(summary.service.stats.queue_depth, 0, "{summary:?}");
}

#[test]
fn injected_faults_leave_the_accounting_clean() {
    let net =
        NetConfig::default().fault(FaultPlan { accept_errors: vec![0], write_errors: vec![1] });
    let handle = start(net, small_service());
    let client = Client::new(handle.addr());
    let line = r#"{"algorithm": "greedy", "family": "grid", "n": 16}"#;

    // Connection 0 is dropped at accept: the client sees a dead socket.
    assert!(client.post("/solve", line).is_err(), "faulted accept must not answer");
    // The next connections serve; write index 1 is severed mid-response.
    let mut ok = 0u32;
    let mut severed = 0u32;
    for _ in 0..3 {
        match client.post("/solve", line) {
            Ok(resp) if resp.status == 200 => ok += 1,
            Ok(resp) => panic!("unexpected status {}", resp.status),
            Err(_) => severed += 1,
        }
    }
    assert_eq!(ok, 2, "two responses land");
    assert_eq!(severed, 1, "one response is severed by the write fault");

    let summary = handle.drain(Duration::ZERO);
    assert_eq!(summary.net.faulted_accepts, 1, "{summary:?}");
    assert_eq!(summary.net.write_faults, 1, "{summary:?}");
    assert_eq!(summary.slot_leaks(), 0, "faults must not leak slots: {summary:?}");
    // All three accepted jobs ran to completion and audit cleanly —
    // a severed response does not corrupt the service.
    assert_eq!(summary.service.audit.as_ref().copied(), Ok(3), "{summary:?}");
}
