//! Warm-state persistence over the network tier: snapshot on drain,
//! restore at start, interval snapshots, and the cold-start fallback on
//! hostile snapshot files. The determinism contract here is the
//! integration-level one: a restored server answers **byte-identical
//! rows** (modulo the `NONDETERMINISTIC_FIELDS` of `decss_solver::json`)
//! to the ones the pre-drain server sent over the wire.

use decss_net::client::Client;
use decss_net::server::{NetConfig, NetHandle, NetServer};
use decss_service::ServiceConfig;
use decss_solver::json::strip_nondeterministic;
use std::path::PathBuf;
use std::time::Duration;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("decss-net-persist-tests");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = dir.join(name);
    let _ = std::fs::remove_file(&path);
    path
}

fn start(net: NetConfig) -> NetHandle {
    let service = ServiceConfig::default()
        .workers(2)
        .queue_capacity(8)
        .cache_capacity(32);
    NetServer::start("127.0.0.1:0", net, service).expect("server starts")
}

fn job_rows(document: &str) -> Vec<String> {
    document
        .lines()
        .filter(|l| l.contains("\"job\":"))
        .map(strip_nondeterministic)
        .collect()
}

const BATCH: &str = r#"[
{"algorithm": "greedy", "family": "grid", "n": 16, "seed": 5},
{"algorithm": "improved", "family": "torus", "n": 16, "seed": 6},
{"algorithm": "shortcut", "family": "lollipop", "n": 18, "seed": 7, "epsilon": 0.5}
]"#;

#[test]
fn drain_snapshot_restores_to_byte_identical_rows() {
    let path = scratch("drain-restore.snap");

    // Generation 1: serve the batch cold, snapshot on drain.
    let warm = start(NetConfig::default().snapshot_to(&path));
    let first = Client::new(warm.addr()).post("/jobs", BATCH).expect("batch");
    assert_eq!(first.status, 200);
    let first_rows = job_rows(&first.text());
    assert_eq!(first_rows.len(), 3);
    assert!(first_rows.iter().all(|r| !r.contains("\"error\"")), "{first_rows:?}");
    let summary = warm.drain(Duration::ZERO);
    assert!(summary.service.audit.is_ok(), "{summary:?}");
    match &summary.snapshot {
        Some(Ok(bytes)) => assert!(*bytes > 0),
        other => panic!("expected a written snapshot, got {other:?}"),
    }

    // Generation 2: restore, resubmit the same batch — every row must
    // come from the restored cache, byte-identical to generation 1.
    let restored = start(NetConfig::default().restore_from(&path));
    let stats = Client::new(restored.addr()).get("/stats").expect("stats").text();
    assert!(
        stats.contains("\"restored_entries\": 3"),
        "3 distinct keys restored: {stats}"
    );
    let again = Client::new(restored.addr()).post("/jobs", BATCH).expect("rebatch");
    assert_eq!(again.status, 200);
    let again_text = again.text();
    assert_eq!(
        again_text.matches("\"cache_hit\": true").count(),
        3,
        "every replay is a restored-cache hit: {again_text}"
    );
    assert_eq!(job_rows(&again_text), first_rows, "rows must be byte-identical");
    let second = restored.drain(Duration::ZERO);
    assert!(second.service.audit.is_ok(), "{second:?}");
    assert_eq!(second.service.stats.cache_hits, 3);
    assert!(second.snapshot.is_none(), "no snapshot path, no snapshot");
}

#[test]
fn interval_snapshots_land_while_serving() {
    let path = scratch("interval.snap");
    let handle = start(
        NetConfig::default()
            .snapshot_to(&path)
            .snapshot_interval(Duration::from_millis(40)),
    );
    let client = Client::new(handle.addr());
    let solve = client
        .post(
            "/solve",
            r#"[{"algorithm": "greedy", "family": "grid", "n": 16, "seed": 1}]"#,
        )
        .expect("solve");
    assert_eq!(solve.status, 200);
    // Wait out at least one timer tick, then the snapshot must exist
    // and decode to a state holding the solved job.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    let state = loop {
        if let Ok(state) = decss_persist::read_snapshot(&path) {
            if !state.cache.is_empty() {
                break state;
            }
        }
        assert!(std::time::Instant::now() < deadline, "no interval snapshot appeared");
        std::thread::sleep(Duration::from_millis(20));
    };
    assert_eq!(state.cache.len(), 1);
    assert_eq!(state.completed, 1);
    let stats = client.get("/stats").expect("stats").text();
    assert!(stats.contains("\"snapshot\""), "{stats}");
    assert!(stats.contains("\"last_write_ok\": true"), "{stats}");
    let summary = handle.drain(Duration::ZERO);
    assert!(matches!(summary.snapshot, Some(Ok(_))), "{summary:?}");
}

#[test]
fn a_hostile_snapshot_degrades_to_a_clean_cold_start() {
    let path = scratch("hostile.snap");
    std::fs::write(&path, b"DECSSNAPgarbage-after-the-magic").expect("plant garbage");
    let handle = start(NetConfig::default().restore_from(&path));
    let client = Client::new(handle.addr());
    let stats = client.get("/stats").expect("stats").text();
    assert!(
        stats.contains("\"restored_entries\": null"),
        "cold start must be visible: {stats}"
    );
    // The server still serves.
    let solve = client
        .post(
            "/solve",
            r#"[{"algorithm": "greedy", "family": "grid", "n": 16, "seed": 1}]"#,
        )
        .expect("solve");
    assert_eq!(solve.status, 200);
    let summary = handle.drain(Duration::ZERO);
    assert!(summary.service.audit.is_ok(), "{summary:?}");
    assert_eq!(summary.service.stats.completed, 1);
}

#[test]
fn a_missing_restore_file_is_also_a_cold_start() {
    let path = scratch("never-written.snap");
    let handle = start(NetConfig::default().restore_from(&path));
    let solve = Client::new(handle.addr())
        .post(
            "/solve",
            r#"[{"algorithm": "improved", "family": "grid", "n": 16, "seed": 2}]"#,
        )
        .expect("solve");
    assert_eq!(solve.status, 200);
    assert!(handle.drain(Duration::ZERO).service.audit.is_ok());
}
