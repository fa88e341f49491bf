//! The hardened HTTP front-end over a [`SolveService`].
//!
//! Architecture: one blocking accept loop feeds a **bounded**
//! connection pool — a [`JobQueue`] of accepted sockets drained by a
//! fixed set of connection workers. Beyond the bound, connections get
//! an immediate `503 busy` instead of queueing unboundedly (the
//! connection-level load shed; the job-level shed is the service's
//! non-blocking `try_submit` answered with `429 + retry_after_ms`).
//!
//! Robustness contract, pinned by `tests/server.rs` and the chaos
//! harness ([`crate::stress`]):
//!
//! * malformed input is answered with a structured 4xx/5xx and a JSON
//!   error body — never a panic, never a hang;
//! * a connection can hold the server for at most the read deadline
//!   (slow-loris cutoff → 408) plus the write deadline;
//! * every accepted connection is returned exactly once (no slot
//!   leaks — `accepted == conns_closed` after drain);
//! * drain is graceful: `/ready` flips to 503 first, the listener
//!   closes after a grace window (shutdown wakes the blocked accept
//!   with one connection to its own port, which is dropped uncounted),
//!   in-flight requests finish, the service runs its backlog dry, and
//!   the audit verdict comes back in the [`NetSummary`].

use crate::fault::{FaultClock, FaultPlan};
use crate::http::{self, HttpError, Limits, Parse, Request};
use crate::jobs::{self, FileAccess};
use crate::quota::{QuotaConfig, QuotaTable};
use decss_service::{DrainSummary, JobQueue, PushError, ServiceConfig, SolveService, SubmitError};
use decss_solver::json::escape;
use decss_solver::SolveError;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Persistence knobs: where to restore warm state from at startup and
/// where (and how often) to snapshot it. All `None` by default — a
/// server without a snapshot path behaves exactly as before this tier
/// existed.
#[derive(Clone, Debug, Default)]
pub struct PersistConfig {
    /// Snapshot to restore at startup. Any [`decss_persist`] error is a
    /// *clean cold start* (logged to stderr), never a refusal to serve.
    pub restore_path: Option<PathBuf>,
    /// Where to write snapshots: on drain always, plus on the interval
    /// timer when [`snapshot_interval`](Self::snapshot_interval) is set.
    pub snapshot_path: Option<PathBuf>,
    /// Periodic snapshot cadence (requires a snapshot path). Interval
    /// snapshots are audit-consistent: in-flight jobs are excluded by
    /// the warm-state export.
    pub snapshot_interval: Option<Duration>,
}

impl PersistConfig {
    /// Whether any snapshot will ever be written.
    pub fn armed(&self) -> bool {
        self.snapshot_path.is_some()
    }
}

/// Requests served per connection before it is closed.
const KEEP_ALIVE_REQUESTS: u32 = 64;

/// `POST /jobs` retries a full queue this many times before marking the
/// job shed, [`SUBMIT_RETRY_DELAY`] apart: a batch enumerates jobs
/// faster than workers drain them, so a bounded wait keeps batches whole
/// under their own load while `POST /solve` still sheds instantly.
const SUBMIT_RETRIES: u32 = 200;

/// Pause between `POST /jobs` submit retries.
const SUBMIT_RETRY_DELAY: Duration = Duration::from_millis(5);

/// Knobs of the network tier (the solve pool itself is sized by the
/// [`ServiceConfig`] passed to [`NetServer::start`]). Requests are
/// parsed under the default [`Limits`].
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// Connection workers — at most this many connections are served
    /// concurrently; as many more may wait briefly in the pool queue.
    pub max_connections: usize,
    /// Total budget for reading one request (head + body). A client
    /// trickling bytes slower than this is cut off with 408 — the
    /// slow-loris guard.
    pub read_timeout: Duration,
    /// Budget for writing one response to a stalled reader.
    pub write_timeout: Duration,
    /// Per-client token buckets; `None` disables quotas.
    pub quota: Option<QuotaConfig>,
    /// Injected faults (empty in production; the chaos harness's knob).
    pub fault: FaultPlan,
    /// Warm-state persistence (restore at start, snapshot on drain and
    /// on a timer). Default: fully disabled.
    pub persist: PersistConfig,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            max_connections: 8,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            quota: None,
            fault: FaultPlan::none(),
            persist: PersistConfig::default(),
        }
    }
}

impl NetConfig {
    /// Sets the connection-worker count.
    pub fn max_connections(mut self, n: usize) -> Self {
        self.max_connections = n;
        self
    }

    /// Sets the per-request read deadline (slow-loris cutoff).
    pub fn read_timeout(mut self, d: Duration) -> Self {
        self.read_timeout = d;
        self
    }

    /// Sets the per-response write deadline.
    pub fn write_timeout(mut self, d: Duration) -> Self {
        self.write_timeout = d;
        self
    }

    /// Enables per-client quotas.
    pub fn quota(mut self, q: QuotaConfig) -> Self {
        self.quota = Some(q);
        self
    }

    /// Installs a fault-injection plan (tests/chaos only).
    pub fn fault(mut self, plan: FaultPlan) -> Self {
        self.fault = plan;
        self
    }

    /// Restores warm state from `path` at startup (errors = cold start).
    pub fn restore_from(mut self, path: impl Into<PathBuf>) -> Self {
        self.persist.restore_path = Some(path.into());
        self
    }

    /// Snapshots warm state to `path` on drain (and on the interval
    /// timer if one is set).
    pub fn snapshot_to(mut self, path: impl Into<PathBuf>) -> Self {
        self.persist.snapshot_path = Some(path.into());
        self
    }

    /// Also snapshots every `interval` while serving.
    pub fn snapshot_interval(mut self, interval: Duration) -> Self {
        self.persist.snapshot_interval = Some(interval);
        self
    }
}

/// Monotonic counters of the tier, all updated lock-free.
#[derive(Default, Debug)]
pub struct NetCounters {
    /// Connections handed to the pool.
    pub accepted: AtomicU64,
    /// Connections refused with `503 busy` (pool full).
    pub refused_busy: AtomicU64,
    /// Connections dropped by an injected accept fault.
    pub faulted_accepts: AtomicU64,
    /// Requests fully parsed.
    pub requests: AtomicU64,
    /// Responses by status class.
    pub responses_2xx: AtomicU64,
    /// 4xx responses.
    pub responses_4xx: AtomicU64,
    /// 5xx responses.
    pub responses_5xx: AtomicU64,
    /// Jobs shed with `429 overloaded` (queue full).
    pub shed: AtomicU64,
    /// Admissions denied with `429 quota_exceeded`.
    pub quota_denied: AtomicU64,
    /// Requests rejected by the parser.
    pub parse_errors: AtomicU64,
    /// Connections cut off at the read deadline (408).
    pub timeouts: AtomicU64,
    /// Connections the peer abandoned mid-request or mid-response.
    pub hangups: AtomicU64,
    /// Responses severed by an injected write fault.
    pub write_faults: AtomicU64,
    /// Connections currently inside a worker.
    pub conns_open: AtomicU64,
    /// Connections fully finished by a worker.
    pub conns_closed: AtomicU64,
}

/// A point-in-time copy of [`NetCounters`].
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct NetSnapshot {
    /// See [`NetCounters::accepted`].
    pub accepted: u64,
    /// See [`NetCounters::refused_busy`].
    pub refused_busy: u64,
    /// See [`NetCounters::faulted_accepts`].
    pub faulted_accepts: u64,
    /// See [`NetCounters::requests`].
    pub requests: u64,
    /// See [`NetCounters::responses_2xx`].
    pub responses_2xx: u64,
    /// See [`NetCounters::responses_4xx`].
    pub responses_4xx: u64,
    /// See [`NetCounters::responses_5xx`].
    pub responses_5xx: u64,
    /// See [`NetCounters::shed`].
    pub shed: u64,
    /// See [`NetCounters::quota_denied`].
    pub quota_denied: u64,
    /// See [`NetCounters::parse_errors`].
    pub parse_errors: u64,
    /// See [`NetCounters::timeouts`].
    pub timeouts: u64,
    /// See [`NetCounters::hangups`].
    pub hangups: u64,
    /// See [`NetCounters::write_faults`].
    pub write_faults: u64,
    /// See [`NetCounters::conns_open`].
    pub conns_open: u64,
    /// See [`NetCounters::conns_closed`].
    pub conns_closed: u64,
}

impl NetCounters {
    fn snapshot(&self) -> NetSnapshot {
        NetSnapshot {
            accepted: self.accepted.load(Ordering::Relaxed),
            refused_busy: self.refused_busy.load(Ordering::Relaxed),
            faulted_accepts: self.faulted_accepts.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            responses_2xx: self.responses_2xx.load(Ordering::Relaxed),
            responses_4xx: self.responses_4xx.load(Ordering::Relaxed),
            responses_5xx: self.responses_5xx.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            quota_denied: self.quota_denied.load(Ordering::Relaxed),
            parse_errors: self.parse_errors.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            hangups: self.hangups.load(Ordering::Relaxed),
            write_faults: self.write_faults.load(Ordering::Relaxed),
            conns_open: self.conns_open.load(Ordering::Relaxed),
            conns_closed: self.conns_closed.load(Ordering::Relaxed),
        }
    }
}

impl NetSnapshot {
    /// Renders the counters as JSON object fields (no braces).
    pub fn json_fields(&self) -> String {
        format!(
            "\"accepted\": {}, \"refused_busy\": {}, \"faulted_accepts\": {}, \
             \"requests\": {}, \"responses_2xx\": {}, \"responses_4xx\": {}, \
             \"responses_5xx\": {}, \"shed\": {}, \"quota_denied\": {}, \
             \"parse_errors\": {}, \"timeouts\": {}, \"hangups\": {}, \
             \"write_faults\": {}, \"conns_open\": {}, \"conns_closed\": {}",
            self.accepted,
            self.refused_busy,
            self.faulted_accepts,
            self.requests,
            self.responses_2xx,
            self.responses_4xx,
            self.responses_5xx,
            self.shed,
            self.quota_denied,
            self.parse_errors,
            self.timeouts,
            self.hangups,
            self.write_faults,
            self.conns_open,
            self.conns_closed,
        )
    }
}

/// What a completed drain reports.
#[derive(Debug)]
pub struct NetSummary {
    /// Final network counters.
    pub net: NetSnapshot,
    /// The service's own drain verdict (final stats + log audit).
    pub service: DrainSummary,
    /// Jobs accepted per client id, sorted by id.
    pub clients: Vec<(String, u64)>,
    /// Outcome of the final snapshot written after the service drained:
    /// `None` when persistence is not armed, otherwise the snapshot
    /// size in bytes or the error rendered as a string.
    pub snapshot: Option<Result<u64, String>>,
}

impl NetSummary {
    /// Connection slots never returned: `accepted - conns_closed`.
    /// Zero after a clean drain.
    pub fn slot_leaks(&self) -> i64 {
        self.net.accepted as i64 - self.net.conns_closed as i64
    }

    /// Jobs accepted across all clients — must equal the audited job
    /// count (every network admission maps to exactly one audited
    /// service lifecycle).
    pub fn accepted_jobs(&self) -> u64 {
        self.clients.iter().map(|(_, n)| n).sum()
    }
}

/// What the last snapshot write did, for `/stats` metadata.
struct LastSnapshotWrite {
    at: Instant,
    ok: bool,
}

/// Persistence runtime state alongside the static [`PersistConfig`].
#[derive(Default)]
struct PersistState {
    /// `Some(n)` when startup restored `n` cache entries.
    restored_entries: Mutex<Option<usize>>,
    last_write: Mutex<Option<LastSnapshotWrite>>,
}

impl Default for LastSnapshotWrite {
    fn default() -> Self {
        LastSnapshotWrite { at: Instant::now(), ok: false }
    }
}

/// The server state shared by the accept loop and connection workers.
pub struct NetServer {
    service: SolveService,
    config: NetConfig,
    addr: SocketAddr,
    conns: JobQueue<TcpStream>,
    draining: AtomicBool,
    stop_accept: AtomicBool,
    stop_snapshot: AtomicBool,
    counters: NetCounters,
    quota: Option<QuotaTable>,
    fault_clock: FaultClock,
    clients: Mutex<HashMap<String, u64>>,
    persist: PersistState,
}

/// The running server: the accept thread plus connection workers.
/// [`drain`](NetHandle::drain) (or drop) shuts everything down
/// gracefully.
pub struct NetHandle {
    server: Arc<NetServer>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    snapshot_timer: Option<JoinHandle<()>>,
}

impl NetServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port),
    /// spawns the solve service, the connection workers, and the accept
    /// loop, and returns the running handle.
    pub fn start(
        addr: &str,
        config: NetConfig,
        service: ServiceConfig,
    ) -> Result<NetHandle, String> {
        let listener = TcpListener::bind(addr).map_err(|e| format!("binding {addr}: {e}"))?;
        let local = listener.local_addr().map_err(|e| format!("local addr: {e}"))?;
        let quota = config.quota.map(QuotaTable::new);
        let max_conns = config.max_connections.max(1);
        let server = Arc::new(NetServer {
            service: SolveService::new(service),
            conns: JobQueue::new(max_conns),
            draining: AtomicBool::new(false),
            stop_accept: AtomicBool::new(false),
            stop_snapshot: AtomicBool::new(false),
            counters: NetCounters::default(),
            quota,
            fault_clock: FaultClock::default(),
            clients: Mutex::new(HashMap::new()),
            persist: PersistState::default(),
            addr: local,
            config,
        });
        // Restore warm state before the first connection can land a
        // job: any persistence error (missing file, torn write, foreign
        // bytes) degrades to a clean cold start — a snapshot is an
        // optimization, never a liveness dependency.
        if let Some(path) = server.config.persist.restore_path.clone() {
            match decss_persist::read_snapshot(&path)
                .map_err(|e| e.to_string())
                .and_then(|state| server.service.restore_warm_state(state))
            {
                Ok(entries) => {
                    *server.persist.restored_entries.lock().expect("persist lock") = Some(entries);
                }
                Err(e) => {
                    eprintln!(
                        "decss-net: restore from {} failed ({e}); starting cold",
                        path.display()
                    );
                }
            }
        }
        let workers = (0..max_conns)
            .map(|index| {
                let server = Arc::clone(&server);
                std::thread::Builder::new()
                    .name(format!("decss-conn-{index}"))
                    .spawn(move || conn_worker(&server))
                    .map_err(|e| format!("spawning connection worker: {e}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let accept = {
            let server = Arc::clone(&server);
            std::thread::Builder::new()
                .name("decss-accept".into())
                .spawn(move || accept_loop(&server, listener))
                .map_err(|e| format!("spawning accept loop: {e}"))?
        };
        let snapshot_timer = match (
            &server.config.persist.snapshot_path,
            server.config.persist.snapshot_interval,
        ) {
            (Some(_), Some(interval)) => {
                let server = Arc::clone(&server);
                Some(
                    std::thread::Builder::new()
                        .name("decss-snapshot".into())
                        .spawn(move || snapshot_timer_loop(&server, interval))
                        .map_err(|e| format!("spawning snapshot timer: {e}"))?,
                )
            }
            _ => None,
        };
        Ok(NetHandle { server, accept: Some(accept), workers, snapshot_timer })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The solve service behind the tier.
    pub fn service(&self) -> &SolveService {
        &self.service
    }

    /// Current network counters.
    pub fn counters(&self) -> NetSnapshot {
        self.counters.snapshot()
    }

    /// Flips `/ready` to 503 and refuses new jobs, without yet closing
    /// the listener — the first phase of a graceful drain, so load
    /// balancers and probes see "unready" while the socket still
    /// answers.
    pub fn begin_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
    }

    /// Whether a drain has begun.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    fn client_id(req: &Request) -> String {
        req.header("x-decss-client").unwrap_or("anon").to_string()
    }

    fn record_client_job(&self, client: &str) {
        *self
            .clients
            .lock()
            .expect("clients lock")
            .entry(client.to_string())
            .or_default() += 1;
    }

    fn sorted_clients(&self) -> Vec<(String, u64)> {
        let mut out: Vec<(String, u64)> = self
            .clients
            .lock()
            .expect("clients lock")
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect();
        out.sort();
        out
    }

    /// Exports the warm state and writes it to the configured snapshot
    /// path, recording the outcome for `/stats`. Callers arm this only
    /// when a path is configured. The record's lock is held across the
    /// write, so `/stats` never reports an older write than the file a
    /// reader can already see.
    fn write_warm_snapshot(&self) -> Result<u64, String> {
        let path = self
            .config
            .persist
            .snapshot_path
            .as_ref()
            .expect("snapshot path configured");
        let mut last_write = self.persist.last_write.lock().expect("persist lock");
        let result = decss_persist::write_snapshot(path, &self.service.export_warm_state())
            .map_err(|e| e.to_string());
        *last_write = Some(LastSnapshotWrite { at: Instant::now(), ok: result.is_ok() });
        result
    }

    /// The `"snapshot"` metadata object for `/stats`, or `None` when
    /// persistence is not armed and nothing was restored.
    fn snapshot_metadata(&self) -> Option<String> {
        let restored = *self.persist.restored_entries.lock().expect("persist lock");
        let path = self.config.persist.snapshot_path.as_ref().or(self
            .config
            .persist
            .restore_path
            .as_ref())?;
        let (age_ms, last_write_ok) = match &*self.persist.last_write.lock().expect("persist lock")
        {
            Some(write) => (
                write.at.elapsed().as_millis().to_string(),
                if write.ok { "true" } else { "false" }.to_string(),
            ),
            None => ("null".to_string(), "null".to_string()),
        };
        let restored = restored.map_or("null".to_string(), |n| n.to_string());
        Some(format!(
            "\"path\": \"{}\", \"age_ms\": {age_ms}, \"last_write_ok\": {last_write_ok}, \
             \"restored_entries\": {restored}",
            escape(&path.display().to_string()),
        ))
    }

    /// How long a shed client should wait before retrying: roughly the
    /// time for the backlog to drain at the observed per-job latency.
    fn retry_hint_ms(&self) -> u64 {
        retry_hint_from(&self.service.stats())
    }
}

/// Per-job latency assumed before any job has completed: without it a
/// cold-start shed would quote the clamp floor no matter how deep the
/// backlog already is.
const COLD_START_JOB_MS: f64 = 100.0;

/// The `retry_after_ms` estimate from a stats snapshot: backlog divided
/// across workers at the observed mean per-job latency. With zero
/// recorded latencies (cold start under a thundering herd) the estimate
/// is seeded with [`COLD_START_JOB_MS`] so the hint still scales with
/// queue depth instead of collapsing to the floor.
fn retry_hint_from(stats: &decss_service::Stats) -> u64 {
    let samples: u64 = stats.latency.iter().map(|(_, h)| h.count()).sum();
    let per_job_ms = if samples == 0 {
        COLD_START_JOB_MS
    } else {
        stats
            .latency
            .iter()
            .map(|(_, h)| h.mean_ms())
            .fold(0.0f64, f64::max)
            .max(5.0)
    };
    let backlog = stats.queue_depth.max(1) as f64;
    ((per_job_ms * backlog / stats.workers.max(1) as f64) as u64).clamp(10, 2_000)
}

impl NetHandle {
    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.server.addr
    }

    /// The shared server state.
    pub fn server(&self) -> &Arc<NetServer> {
        &self.server
    }

    /// Graceful drain: flip `/ready` to 503, keep answering for
    /// `grace`, then stop accepting, finish in-flight connections, run
    /// the service backlog dry, and return the final accounting.
    pub fn drain(mut self, grace: Duration) -> NetSummary {
        self.shutdown(grace)
    }

    fn shutdown(&mut self, grace: Duration) -> NetSummary {
        self.server.begin_drain();
        if !grace.is_zero() {
            std::thread::sleep(grace);
        }
        self.server.stop_accept.store(true, Ordering::SeqCst);
        self.server.stop_snapshot.store(true, Ordering::SeqCst);
        if let Some(accept) = self.accept.take() {
            wake_accept(self.server.addr);
            let _ = accept.join();
        }
        if let Some(timer) = self.snapshot_timer.take() {
            let _ = timer.join();
        }
        // The accept loop closed the connection queue on exit; workers
        // finish their in-flight connection, drain the short backlog,
        // and stop.
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        let service = self.server.service.drain();
        // The final snapshot comes *after* the drain, so it captures the
        // fully settled state: every lifecycle complete, cache warm.
        let snapshot = self
            .server
            .config
            .persist
            .armed()
            .then(|| self.server.write_warm_snapshot());
        NetSummary {
            net: self.server.counters.snapshot(),
            service,
            clients: self.server.sorted_clients(),
            snapshot,
        }
    }
}

impl Drop for NetHandle {
    fn drop(&mut self) {
        if self.accept.is_some() {
            let _ = self.shutdown(Duration::ZERO);
        }
    }
}

/// Wakes the accept loop, blocked in `accept`, after `stop_accept` is
/// set: one connection to the bound port, over loopback when the bind
/// address is unspecified. The loop drops it without counting it.
fn wake_accept(mut addr: SocketAddr) {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    let _ = TcpStream::connect(addr);
}

fn accept_loop(server: &Arc<NetServer>, listener: TcpListener) {
    loop {
        let accepted = listener.accept();
        // Checked after `accept` returns: shutdown's wake-up connection
        // (and any client racing it) is dropped uncounted.
        if server.stop_accept.load(Ordering::SeqCst) {
            break;
        }
        let Ok((stream, _peer)) = accepted else {
            continue;
        };
        if server.fault_clock.fail_this_accept(&server.config.fault) {
            // Injected accept-time failure: as if the kernel aborted
            // the connection under us.
            server.counters.faulted_accepts.fetch_add(1, Ordering::Relaxed);
            drop(stream);
            continue;
        }
        match server.conns.try_push(stream) {
            Ok(()) => {
                server.counters.accepted.fetch_add(1, Ordering::Relaxed);
            }
            Err(PushError::Full(stream) | PushError::Closed(stream)) => {
                // Connection-level shed: answer fast and close rather
                // than queueing unboundedly.
                server.counters.refused_busy.fetch_add(1, Ordering::Relaxed);
                refuse_busy(server, stream);
            }
        }
    }
    // No more accepts: let the workers run the short backlog dry.
    server.conns.close();
}

/// The interval snapshot thread: sleeps in short slices (so shutdown is
/// prompt), writing a snapshot every `interval`. Write failures are
/// logged and retried next tick — a full disk must not take the server
/// down. The final authoritative snapshot is the post-drain one.
fn snapshot_timer_loop(server: &Arc<NetServer>, interval: Duration) {
    let slice = Duration::from_millis(50).min(interval);
    let mut next = Instant::now() + interval;
    while !server.stop_snapshot.load(Ordering::SeqCst) {
        if Instant::now() < next {
            std::thread::sleep(slice);
            continue;
        }
        if let Err(e) = server.write_warm_snapshot() {
            eprintln!("decss-net: interval snapshot failed: {e}");
        }
        next = Instant::now() + interval;
    }
}

fn refuse_busy(server: &Arc<NetServer>, mut stream: TcpStream) {
    let _ = stream.set_write_timeout(Some(server.config.write_timeout));
    let body = http::error_body(
        "busy",
        "connection pool is full; retry shortly",
        &[("retry_after_ms", server.retry_hint_ms().to_string())],
    );
    let _ = stream.write_all(&http::response(503, &body, true, &[]));
    let _ = stream.shutdown(Shutdown::Both);
}

fn conn_worker(server: &Arc<NetServer>) {
    while let Some(stream) = server.conns.pop() {
        server.counters.conns_open.fetch_add(1, Ordering::Relaxed);
        serve_connection(server, stream);
        server.counters.conns_open.fetch_sub(1, Ordering::Relaxed);
        server.counters.conns_closed.fetch_add(1, Ordering::Relaxed);
    }
}

enum ReadOutcome {
    Request(Request),
    CleanClose,
    Hangup,
    Timeout,
    Bad(HttpError),
    IdleDrain,
}

/// Reads one request off `stream` under the server's read timeout,
/// polling its drain flag so idle keep-alive connections let go during
/// a drain.
fn read_one_request(
    server: &NetServer,
    stream: &mut TcpStream,
    buf: &mut Vec<u8>,
    kept_alive: bool,
) -> ReadOutcome {
    let deadline = Instant::now() + server.config.read_timeout;
    let mut chunk = [0u8; 8192];
    loop {
        if !buf.is_empty() {
            match http::parse_request(buf, &Limits::default()) {
                Ok(Parse::Ready { request, consumed }) => {
                    buf.drain(..consumed);
                    return ReadOutcome::Request(request);
                }
                Ok(Parse::NeedMore) => {}
                Err(e) => return ReadOutcome::Bad(e),
            }
        }
        if Instant::now() >= deadline {
            return ReadOutcome::Timeout;
        }
        if kept_alive && buf.is_empty() && server.is_draining() {
            // An idle keep-alive connection during drain: close now
            // instead of holding the worker for the full deadline. A
            // *partial* request keeps its full budget — in-flight work
            // finishes — and a fresh connection still gets its first
            // request answered (the grace window's whole point).
            return ReadOutcome::IdleDrain;
        }
        // Short poll slices so the total deadline and the drain flag
        // are both checked frequently.
        let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
        match stream.read(&mut chunk) {
            Ok(0) => {
                return if buf.is_empty() {
                    ReadOutcome::CleanClose
                } else {
                    ReadOutcome::Hangup
                }
            }
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) => {}
            Err(_) => {
                return if buf.is_empty() {
                    ReadOutcome::CleanClose
                } else {
                    ReadOutcome::Hangup
                }
            }
        }
    }
}

/// Writes `bytes`, honoring the write deadline and the fault plan.
/// Returns `false` when the connection is gone (the caller must stop
/// using it).
fn write_response(server: &NetServer, stream: &mut TcpStream, status: u16, bytes: &[u8]) -> bool {
    match status / 100 {
        2 => server.counters.responses_2xx.fetch_add(1, Ordering::Relaxed),
        4 => server.counters.responses_4xx.fetch_add(1, Ordering::Relaxed),
        _ => server.counters.responses_5xx.fetch_add(1, Ordering::Relaxed),
    };
    let _ = stream.set_write_timeout(Some(server.config.write_timeout));
    if server.fault_clock.fail_this_write(&server.config.fault) {
        // Injected mid-write failure: half the bytes, then sever.
        server.counters.write_faults.fetch_add(1, Ordering::Relaxed);
        let _ = stream.write_all(&bytes[..bytes.len() / 2]);
        let _ = stream.shutdown(Shutdown::Both);
        return false;
    }
    match stream.write_all(bytes) {
        Ok(()) => true,
        Err(_) => {
            server.counters.hangups.fetch_add(1, Ordering::Relaxed);
            false
        }
    }
}

fn serve_connection(server: &Arc<NetServer>, mut stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let mut buf: Vec<u8> = Vec::new();
    let mut served = 0u32;
    loop {
        match read_one_request(server, &mut stream, &mut buf, served > 0) {
            ReadOutcome::Request(request) => {
                server.counters.requests.fetch_add(1, Ordering::Relaxed);
                served += 1;
                let close =
                    request.wants_close() || served >= KEEP_ALIVE_REQUESTS || server.is_draining();
                let (status, body, extra) = handle_request(server, &request);
                let bytes = http::response(status, &body, close, &extra);
                if !write_response(server, &mut stream, status, &bytes) {
                    return;
                }
                if close {
                    let _ = stream.shutdown(Shutdown::Both);
                    return;
                }
            }
            ReadOutcome::CleanClose | ReadOutcome::IdleDrain => return,
            ReadOutcome::Hangup => {
                server.counters.hangups.fetch_add(1, Ordering::Relaxed);
                return;
            }
            ReadOutcome::Timeout => {
                server.counters.timeouts.fetch_add(1, Ordering::Relaxed);
                let body = http::error_body(
                    "timeout",
                    "request not completed within the read deadline",
                    &[],
                );
                let bytes = http::response(408, &body, true, &[]);
                write_response(server, &mut stream, 408, &bytes);
                let _ = stream.shutdown(Shutdown::Both);
                return;
            }
            ReadOutcome::Bad(err) => {
                server.counters.parse_errors.fetch_add(1, Ordering::Relaxed);
                let code = match err.status {
                    413 => "body_too_large",
                    431 => "head_too_large",
                    501 => "not_implemented",
                    505 => "unsupported_version",
                    _ => "bad_request",
                };
                let bytes = http::error_response(&err, code, true);
                write_response(server, &mut stream, err.status, &bytes);
                let _ = stream.shutdown(Shutdown::Both);
                return;
            }
        }
    }
}

type Reply = (u16, Vec<u8>, Vec<(&'static str, String)>);

fn reply(status: u16, body: Vec<u8>) -> Reply {
    (status, body, Vec::new())
}

fn handle_request(server: &Arc<NetServer>, req: &Request) -> Reply {
    let path = req.target.split('?').next().unwrap_or("");
    match path {
        "/healthz" | "/ready" | "/stats" if req.method != "GET" => reply(
            405,
            http::error_body("method_not_allowed", &format!("{path} takes GET"), &[]),
        ),
        "/solve" | "/jobs" if req.method != "POST" => reply(
            405,
            http::error_body("method_not_allowed", &format!("{path} takes POST"), &[]),
        ),
        "/healthz" => reply(200, b"{\"ok\": true}\n".to_vec()),
        "/ready" => {
            if server.is_draining() {
                reply(
                    503,
                    http::error_body(
                        "draining",
                        "service is draining; no longer ready",
                        &[("ready", "false".into())],
                    ),
                )
            } else {
                reply(200, b"{\"ready\": true}\n".to_vec())
            }
        }
        "/stats" => reply(200, stats_doc(server).into_bytes()),
        "/solve" => solve_one(server, req),
        "/jobs" => solve_batch(server, req),
        _ => reply(404, http::error_body("not_found", &format!("no route {path}"), &[])),
    }
}

fn stats_doc(server: &NetServer) -> String {
    let service = server.service.stats();
    let net = server.counters.snapshot();
    let clients = server
        .sorted_clients()
        .into_iter()
        .map(|(id, jobs)| format!("\"{}\": {jobs}", escape(&id)))
        .collect::<Vec<_>>()
        .join(", ");
    // Servers without persistence emit exactly the pre-persistence
    // document — the key only appears when there is something to say.
    let snapshot = server
        .snapshot_metadata()
        .map(|fields| format!("  \"snapshot\": {{{fields}}},\n"))
        .unwrap_or_default();
    format!(
        "{{\n  \"ready\": {},\n  \"service\": {{{}}},\n  \"net\": {{{}}},\n{snapshot}  \"clients\": {{{clients}}}\n}}\n",
        !server.is_draining(),
        service.json_fields(),
        net.json_fields(),
    )
}

fn solve_one(server: &Arc<NetServer>, req: &Request) -> Reply {
    if server.is_draining() {
        return reply(503, http::error_body("draining", "intake is closed", &[]));
    }
    let client = NetServer::client_id(req);
    if let Some(quota) = &server.quota {
        if let Err(wait_ms) = quota.admit(&client) {
            server.counters.quota_denied.fetch_add(1, Ordering::Relaxed);
            return reply(
                429,
                http::error_body(
                    "quota_exceeded",
                    &format!("client {client:?} exhausted its quota"),
                    &[("retry_after_ms", wait_ms.to_string())],
                ),
            );
        }
    }
    let Ok(body) = std::str::from_utf8(&req.body) else {
        return reply(400, http::error_body("bad_encoding", "body is not valid UTF-8", &[]));
    };
    let specs = match jobs::parse_job_specs(body, FileAccess::Denied) {
        Ok(specs) => specs,
        Err(e) => return reply(400, http::error_body("bad_job", &e, &[])),
    };
    if specs.len() != 1 {
        return reply(
            400,
            http::error_body(
                "bad_job",
                "POST /solve takes exactly one job; POST /jobs runs batches",
                &[],
            ),
        );
    }
    let spec = &specs[0];
    match server.service.try_submit(Arc::clone(&spec.graph), spec.req.clone()) {
        Ok(id) => {
            server.record_client_job(&client);
            let result = server.service.join(id);
            let status = if result.is_ok() { 200 } else { 422 };
            let row = jobs::job_row(0, spec, &result);
            reply(status, format!("{}\n", row.trim_start()).into_bytes())
        }
        Err(SubmitError::QueueFull) => {
            server.counters.shed.fetch_add(1, Ordering::Relaxed);
            reply(
                429,
                http::error_body(
                    "overloaded",
                    "job queue is full; retry shortly",
                    &[("retry_after_ms", server.retry_hint_ms().to_string())],
                ),
            )
        }
        Err(SubmitError::Draining) => {
            reply(503, http::error_body("draining", "intake is closed", &[]))
        }
    }
}

fn solve_batch(server: &Arc<NetServer>, req: &Request) -> Reply {
    if server.is_draining() {
        return reply(503, http::error_body("draining", "intake is closed", &[]));
    }
    let client = NetServer::client_id(req);
    let Ok(body) = std::str::from_utf8(&req.body) else {
        return reply(400, http::error_body("bad_encoding", "body is not valid UTF-8", &[]));
    };
    let specs = match jobs::parse_job_specs(body, FileAccess::Denied) {
        Ok(specs) => specs,
        Err(e) => return reply(400, http::error_body("bad_jobs", &e, &[])),
    };
    // Submit every job (bounded retries on a momentarily full queue),
    // then join in order — rows come back in submission order, shed or
    // quota-denied jobs as error rows.
    let mut submitted: Vec<Result<decss_service::JobId, SolveError>> =
        Vec::with_capacity(specs.len());
    for spec in &specs {
        if let Some(quota) = &server.quota {
            if let Err(wait_ms) = quota.admit(&client) {
                server.counters.quota_denied.fetch_add(1, Ordering::Relaxed);
                submitted.push(Err(SolveError::Rejected(format!(
                    "quota exceeded (retry_after_ms={wait_ms})"
                ))));
                continue;
            }
        }
        let mut attempts = 0u32;
        let outcome = loop {
            match server.service.try_submit(Arc::clone(&spec.graph), spec.req.clone()) {
                Ok(id) => break Ok(id),
                Err(SubmitError::Draining) => {
                    break Err(SolveError::Rejected("service is draining".into()))
                }
                Err(SubmitError::QueueFull) if attempts < SUBMIT_RETRIES => {
                    attempts += 1;
                    std::thread::sleep(SUBMIT_RETRY_DELAY);
                }
                Err(SubmitError::QueueFull) => {
                    server.counters.shed.fetch_add(1, Ordering::Relaxed);
                    break Err(SolveError::Rejected("shed: job queue is full".into()));
                }
            }
        };
        if outcome.is_ok() {
            server.record_client_job(&client);
        }
        submitted.push(outcome);
    }
    let rows: Vec<String> = specs
        .iter()
        .zip(&submitted)
        .enumerate()
        .map(|(index, (spec, job))| match job {
            Ok(id) => jobs::job_row(index, spec, &server.service.join(*id)),
            Err(e) => jobs::job_row(index, spec, &Err(e.clone())),
        })
        .collect();
    let document = jobs::report_document(&server.service.stats(), &rows);
    reply(200, document.into_bytes())
}

#[cfg(test)]
mod tests {
    use super::retry_hint_from;
    use decss_service::{LatencyHistogram, Stats};

    #[test]
    fn cold_start_hint_scales_with_backlog() {
        // Zero completed jobs, but a real backlog: the hint must budget
        // per-job time, not collapse near the clamp floor.
        let stats = Stats { workers: 2, queue_depth: 8, ..Stats::default() };
        assert_eq!(retry_hint_from(&stats), 400, "8 jobs / 2 workers at 100 ms each");
        let deeper = Stats { workers: 2, queue_depth: 16, ..Stats::default() };
        assert!(
            retry_hint_from(&deeper) > retry_hint_from(&stats),
            "a deeper backlog must push the hint up"
        );
    }

    #[test]
    fn observed_latency_overrides_the_cold_start_seed() {
        let mut h = LatencyHistogram::new();
        h.record(10_000); // one 10 ms job
        let stats = Stats {
            workers: 1,
            queue_depth: 4,
            completed: 1,
            latency: vec![("improved".to_string(), h)],
            ..Stats::default()
        };
        assert_eq!(retry_hint_from(&stats), 40, "4 jobs at the observed 10 ms");
    }

    #[test]
    fn hint_stays_clamped() {
        let idle = Stats { workers: 8, queue_depth: 0, ..Stats::default() };
        assert!(retry_hint_from(&idle) >= 10);
        let swamped = Stats { workers: 1, queue_depth: 100_000, ..Stats::default() };
        assert_eq!(retry_hint_from(&swamped), 2_000);
    }
}
