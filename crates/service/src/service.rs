//! [`SolveService`]: the batch front door — a pool of worker threads,
//! each holding a warm [`SolverSession`], fed by the bounded
//! [`JobQueue`] and memoized through the [`InstanceCache`].

use crate::cache::{InstanceCache, Lookup};
use crate::key::JobKey;
use crate::log::{EventKind, LogEvent, ServiceLog};
use crate::queue::{JobQueue, PushError};
use crate::stats::{LatencyHistogram, Stats};
use crate::JobId;
use decss_graphs::Graph;
use decss_solver::{Registry, SolveError, SolveReport, SolveRequest, SolverSession};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Sizing knobs of a [`SolveService`].
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Worker threads (min 1). Each holds its own [`SolverSession`], so
    /// scratch stays warm per worker across jobs.
    pub workers: usize,
    /// Bound of the job queue: `submit` blocks (backpressure) once this
    /// many jobs wait.
    pub queue_capacity: usize,
    /// [`InstanceCache`] capacity in reports; `0` disables caching.
    pub cache_capacity: usize,
    /// When `true` (the default, the service semantics), a request's
    /// relative deadline starts counting at **submit** time — time
    /// spent queued burns the budget and a job that runs out while
    /// still queued is rejected with
    /// [`SolveError::ExpiredInQueue`]. When `false`, the budget starts
    /// only when a worker picks the job up (per-solve semantics — what
    /// a sweep driver wants, where queue position is an artifact of
    /// batching, not a caller-visible delay).
    pub deadline_from_submit: bool,
    /// Factory for the [`Registry`] each worker's session dispatches
    /// through (default [`Registry::standard`]). A plain `fn` pointer
    /// so a config stays `Clone` + `Send`; register custom solvers
    /// inside the factory.
    pub registry: fn() -> Registry,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: std::thread::available_parallelism().map_or(1, |p| p.get()),
            queue_capacity: 256,
            cache_capacity: 128,
            deadline_from_submit: true,
            registry: Registry::standard,
        }
    }
}

impl ServiceConfig {
    /// Sets the worker-thread count.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the queue bound.
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Sets the cache capacity (`0` disables caching).
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// Chooses when request deadlines start counting (see the field
    /// docs): `true` = at submit (queue time burns the budget),
    /// `false` = at solve start.
    pub fn deadline_from_submit(mut self, from_submit: bool) -> Self {
        self.deadline_from_submit = from_submit;
        self
    }

    /// Sets the worker registry factory (to serve custom solvers).
    pub fn registry(mut self, factory: fn() -> Registry) -> Self {
        self.registry = factory;
        self
    }
}

/// A finished job: the report plus where it came from.
#[derive(Clone, Debug)]
pub struct JobOutcome {
    /// The job this outcome belongs to.
    pub job: JobId,
    /// The solve report — byte-identical to a fresh single-threaded
    /// solve of the same `(graph, request)` pair, except for `wall_ms`
    /// (restamped with the serving time on a cache hit).
    pub report: SolveReport,
    /// Whether the report was served from the [`InstanceCache`].
    pub cache_hit: bool,
}

/// What [`SolveService::join`] yields per job.
pub type JobResult = Result<JobOutcome, SolveError>;

/// Why [`SolveService::try_submit`] refused a job without queueing it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SubmitError {
    /// The job queue is at capacity right now — shed the job (answer
    /// "retry later") or back off and retry. Nothing was enqueued,
    /// logged, or counted.
    QueueFull,
    /// The service is draining ([`SolveService::drain`] was called):
    /// intake is closed permanently.
    Draining,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull => write!(f, "job queue is full"),
            SubmitError::Draining => write!(f, "service is draining"),
        }
    }
}

/// What [`SolveService::drain`] returns: the final [`Stats`] snapshot
/// (queue empty, every accepted job finished) plus the audit verdict of
/// the [`ServiceLog`] over the whole service lifetime.
#[derive(Clone, Debug)]
pub struct DrainSummary {
    /// Final counters — `queue_depth` is 0 and `completed + failed ==
    /// submitted` by the time `drain` returns.
    pub stats: Stats,
    /// [`ServiceLog::audit`] over the full log: `Ok(jobs)` when every
    /// accepted job has exactly one submit → start → finish lifecycle.
    pub audit: Result<usize, String>,
}

/// The portable warm state of a [`SolveService`]: everything a restart
/// needs to serve known fingerprints from cache and keep the
/// accountability log continuous. Produced by
/// [`SolveService::export_warm_state`], consumed by
/// [`SolveService::restore_warm_state`]; the `decss-persist` crate
/// serializes it to disk.
///
/// An export is always **audit-consistent**: only jobs whose full
/// submit → start → finish lifecycle had landed in the log at export
/// time are included (counters are derived from that filtered tail), so
/// a snapshot taken mid-flight restores into a service whose log still
/// audits clean.
#[derive(Clone, Debug, Default)]
pub struct WarmState {
    /// The next [`JobId`] the restored service must issue, so new jobs
    /// never collide with ids in the imported log tail.
    pub next_job_id: u64,
    /// Jobs accepted (completed + failed of the exported lifecycle set).
    pub submitted: u64,
    /// Jobs finished with a report.
    pub completed: u64,
    /// Jobs finished with a `SolveError`.
    pub failed: u64,
    /// Cache lookups served from a ready entry.
    pub cache_hits: u64,
    /// Cache lookups that claimed (paid for a solve).
    pub cache_misses: u64,
    /// Ready cache entries, LRU order (coldest first).
    pub cache: Vec<(JobKey, SolveReport)>,
    /// The audited event tail: complete lifecycles only.
    pub log: Vec<LogEvent>,
}

struct Job {
    id: JobId,
    graph: Arc<Graph>,
    req: SolveRequest,
    key: JobKey,
    /// Absolute deadline, rebased from the request's relative budget at
    /// submit time — so time spent *queued* counts against the budget.
    /// `None` when the request has no deadline or the service runs with
    /// [`ServiceConfig::deadline_from_submit`]`(false)` (the request's
    /// own relative budget then arms at solve start, untouched).
    deadline: Option<Instant>,
    cancel: Arc<AtomicBool>,
}

struct Shared {
    queue: JobQueue<Job>,
    cache: InstanceCache,
    log: ServiceLog,
    results: Mutex<HashMap<u64, JobResult>>,
    result_ready: Condvar,
    cancels: Mutex<HashMap<u64, Arc<AtomicBool>>>,
    submitted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    latency: Mutex<Vec<(String, LatencyHistogram)>>,
}

/// A concurrent batch-solve service over the solver [`Registry`].
///
/// * [`submit`](SolveService::submit) enqueues a job (blocking once the
///   bounded queue is full — backpressure, not unbounded buffering);
/// * worker threads, each with a warm [`SolverSession`], drain the
///   queue; duplicate jobs coalesce in the [`InstanceCache`];
/// * [`join`](SolveService::join) blocks for one job's [`JobResult`];
/// * request deadlines are honored *while queued*
///   ([`SolveError::ExpiredInQueue`]) and cancellation propagates into
///   in-flight solves via the request's flag;
/// * every submit/start/finish lands in the append-only [`ServiceLog`],
///   and [`stats`](SolveService::stats) snapshots queue depth, hit
///   rate, and per-algorithm latency histograms.
///
/// Dropping the service closes the queue, lets workers drain the
/// backlog, and joins them.
///
/// ```
/// use decss_service::{ServiceConfig, SolveService};
/// use decss_solver::SolveRequest;
/// use std::sync::Arc;
///
/// let service = SolveService::new(ServiceConfig::default().workers(2));
/// let g = Arc::new(decss_graphs::gen::grid(6, 6, 20, 7));
/// let jobs = service.submit_batch(vec![
///     (Arc::clone(&g), SolveRequest::new("improved")),
///     (Arc::clone(&g), SolveRequest::new("improved")), // duplicate → cache hit
/// ]);
/// for result in service.join_all(&jobs) {
///     assert!(result.unwrap().report.valid);
/// }
/// assert_eq!(service.stats().cache_hits, 1);
/// ```
pub struct SolveService {
    shared: Arc<Shared>,
    /// Worker handles, behind a mutex so [`drain`](SolveService::drain)
    /// can join them through a shared reference (the network tier holds
    /// the service in an `Arc`).
    workers: Mutex<Vec<JoinHandle<()>>>,
    worker_count: usize,
    next_id: AtomicU64,
    config: ServiceConfig,
}

impl SolveService {
    /// Spawns the worker pool per `config`.
    pub fn new(config: ServiceConfig) -> Self {
        let shared = Arc::new(Shared {
            queue: JobQueue::new(config.queue_capacity),
            cache: InstanceCache::new(config.cache_capacity),
            log: ServiceLog::new(),
            results: Mutex::new(HashMap::new()),
            result_ready: Condvar::new(),
            cancels: Mutex::new(HashMap::new()),
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            latency: Mutex::new(Vec::new()),
        });
        let workers = (0..config.workers.max(1))
            .map(|index| {
                let shared = Arc::clone(&shared);
                let registry = config.registry;
                std::thread::Builder::new()
                    .name(format!("decss-worker-{index}"))
                    .spawn(move || worker_loop(&shared, index, registry))
                    .expect("spawn service worker")
            })
            .collect::<Vec<_>>();
        let worker_count = workers.len();
        SolveService {
            shared,
            workers: Mutex::new(workers),
            worker_count,
            next_id: AtomicU64::new(0),
            config,
        }
    }

    /// A service with the default sizing ([`ServiceConfig::default`]).
    pub fn with_defaults() -> Self {
        SolveService::new(ServiceConfig::default())
    }

    /// Submits one job, blocking while the queue is at capacity.
    /// Returns its [`JobId`] — hand it to [`join`](SolveService::join).
    ///
    /// With the default [`ServiceConfig::deadline_from_submit`], the
    /// request's relative deadline starts counting *now*: a job still
    /// queued when it runs out is rejected with
    /// [`SolveError::ExpiredInQueue`] instead of being solved late.
    pub fn submit(&self, graph: Arc<Graph>, req: SolveRequest) -> JobId {
        let (id, job) = self.prepare(graph, req);
        let cancel = Arc::clone(&job.cancel);
        let shared = &self.shared;
        let pushed = shared
            .queue
            .push_with(job, || Self::record_accept(shared, id, cancel));
        if pushed.is_err() {
            // The service started draining: intake is closed for good.
            // The job was never accepted (no log event, no counters), so
            // the audit stays clean; the caller still gets a result.
            self.deposit(id, Err(SolveError::Rejected("service is draining".into())));
        }
        id
    }

    /// Non-blocking submit: enqueues the job if a queue slot is free
    /// *right now*, otherwise rejects in O(1) — one mutex acquisition,
    /// never a wait on the backpressure condvar. This is the
    /// load-shedding entry point: a front-end answering network traffic
    /// turns [`SubmitError::QueueFull`] into a fast 429-style "retry
    /// later" instead of stalling its accept loop.
    ///
    /// A rejected job leaves no trace: no [`JobId`] is consumed, nothing
    /// lands in the [`ServiceLog`], and no counter moves — the audit
    /// invariant covers exactly the accepted jobs.
    pub fn try_submit(&self, graph: Arc<Graph>, req: SolveRequest) -> Result<JobId, SubmitError> {
        let (id, job) = self.prepare(graph, req);
        let cancel = Arc::clone(&job.cancel);
        let shared = &self.shared;
        match shared
            .queue
            .try_push_with(job, || Self::record_accept(shared, id, cancel))
        {
            Ok(()) => Ok(id),
            Err(PushError::Full(_)) => Err(SubmitError::QueueFull),
            Err(PushError::Closed(_)) => Err(SubmitError::Draining),
        }
    }

    /// Builds the queued job (id allocation, key, deadline rebasing) —
    /// shared between the blocking and non-blocking submit paths.
    fn prepare(&self, graph: Arc<Graph>, req: SolveRequest) -> (JobId, Job) {
        let id = JobId(self.next_id.fetch_add(1, Ordering::Relaxed));
        let key = JobKey::new(&graph, &req);
        let deadline = if self.config.deadline_from_submit {
            req.deadline.map(|budget| Instant::now() + budget)
        } else {
            None
        };
        let cancel = req.cancel.clone().unwrap_or_else(|| Arc::new(AtomicBool::new(false)));
        (id, Job { id, graph, req, key, deadline, cancel })
    }

    /// Admission bookkeeping, run under the queue lock by `push_with` /
    /// `try_push_with` so the `Submitted` log event is sequenced before
    /// any worker's `Started` — and never recorded for a rejected job.
    fn record_accept(shared: &Shared, id: JobId, cancel: Arc<AtomicBool>) {
        shared.cancels.lock().expect("cancel lock").insert(id.0, cancel);
        shared.submitted.fetch_add(1, Ordering::Relaxed);
        shared.log.record(id, EventKind::Submitted);
    }

    /// Stores a result for a job that never reached a worker.
    fn deposit(&self, id: JobId, result: JobResult) {
        self.shared.results.lock().expect("results lock").insert(id.0, result);
        self.shared.result_ready.notify_all();
    }

    /// Submits a batch in order; returns the ids in the same order.
    /// Blocks intermittently when the batch outsizes the queue — the
    /// workers drain it while the submission loop refills.
    pub fn submit_batch(
        &self,
        jobs: impl IntoIterator<Item = (Arc<Graph>, SolveRequest)>,
    ) -> Vec<JobId> {
        jobs.into_iter().map(|(g, req)| self.submit(g, req)).collect()
    }

    /// Blocks until `job` finishes and takes its result. Each result is
    /// handed out exactly once; joining an id this service never issued
    /// blocks forever.
    pub fn join(&self, job: JobId) -> JobResult {
        let mut results = self.shared.results.lock().expect("results lock");
        loop {
            if let Some(result) = results.remove(&job.0) {
                return result;
            }
            results = self.shared.result_ready.wait(results).expect("results lock");
        }
    }

    /// [`join`](SolveService::join)s every id, in the given order.
    pub fn join_all(&self, jobs: &[JobId]) -> Vec<JobResult> {
        jobs.iter().map(|&id| self.join(id)).collect()
    }

    /// Requests cancellation of a job: queued jobs are rejected when a
    /// worker picks them up; in-flight solves return
    /// [`SolveError::Cancelled`] at their next phase boundary. Returns
    /// `false` once the job has already finished.
    pub fn cancel(&self, job: JobId) -> bool {
        match self.shared.cancels.lock().expect("cancel lock").get(&job.0) {
            Some(flag) => {
                flag.store(true, Ordering::Relaxed);
                true
            }
            None => false,
        }
    }

    /// A point-in-time snapshot of counters, queue depth, cache hit
    /// rate, and per-algorithm latency histograms.
    pub fn stats(&self) -> Stats {
        Stats {
            workers: self.worker_count,
            queue_capacity: self.shared.queue.capacity(),
            queue_depth: self.shared.queue.depth(),
            cache_capacity: self.config.cache_capacity,
            cache_entries: self.shared.cache.len(),
            cache_bytes: self.shared.cache.approx_resident_bytes(),
            submitted: self.shared.submitted.load(Ordering::Relaxed),
            completed: self.shared.completed.load(Ordering::Relaxed),
            failed: self.shared.failed.load(Ordering::Relaxed),
            cache_hits: self.shared.cache.hits(),
            cache_misses: self.shared.cache.misses(),
            latency: self.shared.latency.lock().expect("latency lock").clone(),
        }
    }

    /// The append-only accountability log (see [`ServiceLog`]).
    pub fn log(&self) -> &ServiceLog {
        &self.shared.log
    }

    /// Snapshots the warm state: ready cache entries, the audited event
    /// tail, and the counters — see [`WarmState`]. Safe at any time
    /// (including mid-flight): jobs without a complete lifecycle are
    /// filtered out and the counters are recomputed from the filtered
    /// tail, so what is exported always audits clean on its own.
    pub fn export_warm_state(&self) -> WarmState {
        let events = self.shared.log.snapshot();
        let mut phases: HashMap<u64, u8> = HashMap::new();
        for e in &events {
            let bit = match e.kind {
                EventKind::Submitted => 1,
                EventKind::Started { .. } => 2,
                EventKind::Finished { .. } => 4,
            };
            *phases.entry(e.job.0).or_insert(0) |= bit;
        }
        let log: Vec<LogEvent> = events
            .into_iter()
            .filter(|e| phases.get(&e.job.0) == Some(&7))
            .collect();
        let mut completed = 0;
        let mut failed = 0;
        for e in &log {
            if let EventKind::Finished { ok, .. } = e.kind {
                if ok {
                    completed += 1;
                } else {
                    failed += 1;
                }
            }
        }
        WarmState {
            next_job_id: self.next_id.load(Ordering::Relaxed),
            submitted: completed + failed,
            completed,
            failed,
            cache_hits: self.shared.cache.hits(),
            cache_misses: self.shared.cache.misses(),
            cache: self.shared.cache.export_entries(),
            log,
        }
    }

    /// Restores a previously exported [`WarmState`] into this service.
    /// Must run before the service accepts its first job: the id
    /// counter, the log, and the counters are rebased onto the imported
    /// history, and the cache is seeded with the exported entries
    /// (evicting coldest-first past this service's own capacity).
    /// Returns the number of cache entries retained.
    ///
    /// # Errors
    ///
    /// When the service has already accepted a job, or the imported log
    /// tail is malformed (see [`ServiceLog::import_events`]).
    pub fn restore_warm_state(&self, state: WarmState) -> Result<usize, String> {
        if self.shared.submitted.load(Ordering::Relaxed) != 0 || !self.shared.log.is_empty() {
            return Err("warm state must be restored before the service serves".into());
        }
        self.shared.log.import_events(state.log)?;
        self.next_id.store(state.next_job_id, Ordering::Relaxed);
        self.shared.submitted.store(state.submitted, Ordering::Relaxed);
        self.shared.completed.store(state.completed, Ordering::Relaxed);
        self.shared.failed.store(state.failed, Ordering::Relaxed);
        self.shared.cache.import_entries(state.cache);
        self.shared
            .cache
            .restore_counters(state.cache_hits, state.cache_misses);
        Ok(self.shared.cache.len())
    }

    /// Graceful drain: close intake, run the backlog dry, join the
    /// workers, and return the final [`Stats`] plus the audit verdict
    /// of the [`ServiceLog`] (see [`DrainSummary`]).
    ///
    /// * New submissions fail from this point on —
    ///   [`try_submit`](SolveService::try_submit) returns
    ///   [`SubmitError::Draining`], blocking
    ///   [`submit`](SolveService::submit) deposits a
    ///   [`SolveError::Rejected`] result.
    /// * Every job already accepted is still solved (or rejected by its
    ///   own deadline/cancellation) and can be
    ///   [`join`](SolveService::join)ed as usual, before or after
    ///   `drain` returns.
    /// * Idempotent, and safe through a shared reference: the CLI's
    ///   file mode and the network tier shut down through this same
    ///   path, so their semantics are identical by construction.
    pub fn drain(&self) -> DrainSummary {
        self.shared.queue.close();
        Self::join_workers(&mut self.workers.lock().expect("workers lock"));
        DrainSummary { stats: self.stats(), audit: self.shared.log.audit() }
    }

    fn join_workers(workers: &mut Vec<JoinHandle<()>>) {
        for worker in workers.drain(..) {
            let joined = worker.join();
            // Re-raise a worker panic on the owner — unless we are
            // already unwinding (double panic would abort).
            if let Err(panic) = joined {
                if !std::thread::panicking() {
                    std::panic::resume_unwind(panic);
                }
            }
        }
    }
}

impl Drop for SolveService {
    fn drop(&mut self) {
        self.shared.queue.close();
        // After an explicit drain the handle list is already empty.
        let mut workers = self.workers.lock().expect("workers lock");
        Self::join_workers(&mut workers);
    }
}

fn worker_loop(shared: &Shared, index: usize, registry: fn() -> Registry) {
    let mut session = SolverSession::with_registry(registry());
    while let Some(job) = shared.queue.pop() {
        shared.log.record(job.id, EventKind::Started { worker: index });
        let started = Instant::now();
        // A panic inside a solver (an internal invariant tripping) must
        // not wedge the batch: catch it, surface it as this job's error,
        // and keep the worker serving. The ClaimGuard in run_job has
        // already released any claimed cache key during unwinding.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_job(shared, &mut session, &job)
        }))
        .unwrap_or_else(|panic| {
            // A panicking solve may leave the session scratch
            // half-written; a fresh session is cheap and provably clean.
            session = SolverSession::with_registry(registry());
            let msg = panic
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".into());
            Err(SolveError::Internal(msg))
        });
        let (result, cache_hit, ok) = match outcome {
            Ok((mut report, cache_hit)) => {
                if cache_hit {
                    // The cached copy carries the original solve's wall
                    // clock; what this caller experienced is the (much
                    // smaller) serving time.
                    report.wall_ms = started.elapsed().as_secs_f64() * 1e3;
                }
                shared.completed.fetch_add(1, Ordering::Relaxed);
                let serving_us = (report.wall_ms * 1e3) as u64;
                let mut latency = shared.latency.lock().expect("latency lock");
                match latency.iter_mut().find(|(name, _)| *name == job.req.algorithm) {
                    Some((_, histogram)) => histogram.record(serving_us),
                    None => {
                        let mut histogram = LatencyHistogram::new();
                        histogram.record(serving_us);
                        latency.push((job.req.algorithm.clone(), histogram));
                    }
                }
                (Ok(JobOutcome { job: job.id, report, cache_hit }), cache_hit, true)
            }
            Err(e) => {
                shared.failed.fetch_add(1, Ordering::Relaxed);
                (Err(e), false, false)
            }
        };
        shared.cancels.lock().expect("cancel lock").remove(&job.id.0);
        shared.log.record(job.id, EventKind::Finished { cache_hit, ok });
        shared.results.lock().expect("results lock").insert(job.id.0, result);
        shared.result_ready.notify_all();
    }
}

/// Releases a claimed cache key on every exit path — error returns
/// *and* solver panics (the drop runs during unwinding) — unless the
/// claim was fulfilled with a `fill`. A leaked `Pending` slot would
/// park duplicates forever.
struct ClaimGuard<'a> {
    cache: &'a InstanceCache,
    key: &'a JobKey,
    armed: bool,
}

impl Drop for ClaimGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.cache.abandon(self.key);
        }
    }
}

/// One job on one worker: queue-expiry and cancellation checks, then
/// cache lookup (parking on an in-flight duplicate), then — if this
/// worker claimed the key — the actual solve with the remaining budget.
fn run_job(
    shared: &Shared,
    session: &mut SolverSession,
    job: &Job,
) -> Result<(SolveReport, bool), SolveError> {
    if job.cancel.load(Ordering::Relaxed) {
        return Err(SolveError::Cancelled);
    }
    if let Some(deadline) = job.deadline {
        if Instant::now() >= deadline {
            return Err(SolveError::ExpiredInQueue);
        }
    }
    match shared.cache.lookup_or_claim(&job.key) {
        Lookup::Hit(report) => {
            // Parking on an in-flight duplicate can outlast this job's
            // own budget or a cancellation: a report in hand does not
            // override what the caller asked for.
            if job.cancel.load(Ordering::Relaxed) {
                return Err(SolveError::Cancelled);
            }
            if let Some(deadline) = job.deadline {
                if Instant::now() >= deadline {
                    return Err(SolveError::DeadlineExceeded);
                }
            }
            Ok((*report, true))
        }
        Lookup::Claimed => {
            let mut guard = ClaimGuard { cache: &shared.cache, key: &job.key, armed: true };
            let mut req = job.req.clone();
            if let Some(deadline) = job.deadline {
                // Rebase the relative budget to what is left of the
                // absolute one (time queued already counted); the
                // solver polls it at phase boundaries. Without an
                // absolute deadline (no budget, or per-solve deadline
                // semantics), the request's own relative budget arms at
                // solve entry untouched.
                let now = Instant::now();
                if now >= deadline {
                    // Expired while parked on a duplicate's solve: the
                    // job did leave the queue, so this is the ordinary
                    // deadline error (the guard releases the claim).
                    return Err(SolveError::DeadlineExceeded);
                }
                req.deadline = Some(deadline - now);
            }
            req.cancel = Some(Arc::clone(&job.cancel));
            let report = session.solve(&job.graph, &req)?;
            shared.cache.fill(&job.key, report.clone());
            guard.armed = false;
            Ok((report, false))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decss_graphs::gen;
    use decss_solver::json::strip_nondeterministic;
    use std::time::Duration;

    fn grid() -> Arc<Graph> {
        Arc::new(gen::grid(6, 6, 20, 7))
    }

    #[test]
    fn submit_join_round_trip_matches_a_fresh_session() {
        let service = SolveService::new(ServiceConfig::default().workers(2));
        let g = grid();
        let id = service.submit(Arc::clone(&g), SolveRequest::new("improved"));
        let outcome = service.join(id).expect("solve succeeds");
        assert_eq!(outcome.job, id);
        assert!(!outcome.cache_hit);
        let fresh = SolverSession::new()
            .solve(&g, &SolveRequest::new("improved"))
            .unwrap();
        assert_eq!(outcome.report.edges, fresh.edges);
        assert_eq!(outcome.report.weight, fresh.weight);
        assert!(outcome.report.valid);
    }

    #[test]
    fn duplicates_hit_the_cache_and_errors_do_not_poison_it() {
        let service = SolveService::new(ServiceConfig::default().workers(2).cache_capacity(8));
        let g = grid();
        let jobs = service.submit_batch(vec![
            (Arc::clone(&g), SolveRequest::new("shortcut").seed(1)),
            (Arc::clone(&g), SolveRequest::new("shortcut").seed(1)),
            (Arc::clone(&g), SolveRequest::new("shortcut").seed(1)),
            // A failing job (unknown algorithm) must not land in the cache.
            (Arc::clone(&g), SolveRequest::new("mystery")),
        ]);
        let results = service.join_all(&jobs);
        assert!(results[0].is_ok() && results[1].is_ok() && results[2].is_ok());
        assert!(matches!(results[3], Err(SolveError::UnknownAlgorithm { .. })));
        let stats = service.stats();
        assert_eq!(stats.cache_hits, 2, "two duplicates of one solved job");
        assert_eq!((stats.completed, stats.failed), (3, 1));
        // The failing job still *looked up* (claimed, then abandoned on
        // the error), so it counts as a miss: 2 hits over 4 lookups.
        assert_eq!(stats.cache_misses, 2);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
        // Hits are byte-identical to the miss, bar the restamped clock.
        let row = |i: usize| strip_nondeterministic(&results[i].as_ref().unwrap().report.to_json());
        assert_eq!(row(0), row(1));
        assert_eq!(row(0), row(2));
        assert_eq!(service.log().audit(), Ok(4));
    }

    #[test]
    fn deadline_expiring_in_the_queue_is_the_distinct_variant() {
        // One worker, and a first job big enough (10^4-vertex grid) to
        // hold it for tens of milliseconds; the second job's 1 ms budget
        // therefore expires while it is still *queued*, and the service
        // must reject it with ExpiredInQueue — not solve it late, and
        // not claim the in-solve DeadlineExceeded.
        let service = SolveService::new(ServiceConfig::default().workers(1));
        let big = Arc::new(gen::grid(100, 100, 32, 3));
        let blocker = service.submit(Arc::clone(&big), SolveRequest::new("shortcut"));
        let starved = service.submit(
            grid(),
            SolveRequest::new("improved").deadline(Duration::from_millis(1)),
        );
        assert!(service.join(blocker).is_ok());
        assert_eq!(service.join(starved).unwrap_err(), SolveError::ExpiredInQueue);
        let stats = service.stats();
        assert_eq!((stats.completed, stats.failed), (1, 1));
        // The starved job never reached a solver: no cache lookup.
        assert_eq!(stats.cache_misses, 1);
    }

    #[test]
    fn a_roomy_deadline_queues_and_still_solves() {
        let service = SolveService::new(ServiceConfig::default().workers(1));
        let id = service.submit(
            grid(),
            SolveRequest::new("improved").deadline(Duration::from_secs(60)),
        );
        assert!(service.join(id).unwrap().report.valid);
    }

    #[test]
    fn per_solve_deadline_mode_ignores_queue_time() {
        // Same starvation setup as the ExpiredInQueue test — a big job
        // holds the single worker far past the second job's budget —
        // but with deadline_from_submit(false) the budget only arms at
        // solve start, so the starved job still solves (the sweep
        // semantics `decss scenario --deadline-ms` relies on).
        let service =
            SolveService::new(ServiceConfig::default().workers(1).deadline_from_submit(false));
        let big = Arc::new(gen::grid(100, 100, 32, 3));
        let blocker = service.submit(Arc::clone(&big), SolveRequest::new("shortcut"));
        let starved = service.submit(
            grid(),
            SolveRequest::new("improved").deadline(Duration::from_millis(250)),
        );
        assert!(service.join(blocker).is_ok());
        assert!(service.join(starved).unwrap().report.valid);
    }

    struct PanickySolver;

    impl decss_solver::Solver for PanickySolver {
        fn name(&self) -> &'static str {
            "panicky"
        }

        fn description(&self) -> &'static str {
            "always panics (worker-containment test double)"
        }

        fn solve(
            &self,
            _g: &Graph,
            _req: &SolveRequest,
            _cx: &mut decss_solver::SolveCx,
        ) -> Result<SolveReport, SolveError> {
            panic!("synthetic solver invariant failure");
        }
    }

    fn panicky_registry() -> Registry {
        let mut r = Registry::standard();
        r.register(|| Box::new(PanickySolver));
        r
    }

    #[test]
    fn a_panicking_solver_fails_its_job_without_wedging_the_batch() {
        // Two workers, cache on, and a *duplicate* of the panicking
        // job: the panic must surface as that job's
        // SolveError::Internal, the claimed cache key must be released
        // (a duplicate parked on the claim wakes and re-claims instead
        // of waiting forever), and the pool must keep serving
        // subsequent jobs on a fresh session.
        let service = SolveService::new(
            ServiceConfig::default()
                .workers(2)
                .cache_capacity(8)
                .registry(panicky_registry),
        );
        let g = grid();
        let jobs = service.submit_batch(vec![
            (Arc::clone(&g), SolveRequest::new("panicky")),
            (Arc::clone(&g), SolveRequest::new("panicky")),
            (Arc::clone(&g), SolveRequest::new("improved")),
        ]);
        let results = service.join_all(&jobs);
        for r in &results[..2] {
            match r {
                Err(SolveError::Internal(msg)) => {
                    assert!(msg.contains("synthetic solver invariant failure"), "{msg}")
                }
                other => panic!("expected Internal, got {other:?}"),
            }
        }
        assert!(results[2].as_ref().unwrap().report.valid, "worker kept serving");
        let stats = service.stats();
        assert_eq!((stats.completed, stats.failed), (1, 2));
        assert_eq!(stats.cache_hits, 0, "a panicked solve fills nothing");
        assert_eq!(
            service.log().audit(),
            Ok(3),
            "panicked jobs still log a clean lifecycle"
        );
    }

    #[test]
    fn service_solves_match_a_fresh_session() {
        // A shortcut job through the queue renders the report a fresh
        // session solve of the same request does, bar the wall clock.
        let service = SolveService::new(ServiceConfig::default().workers(2));
        let g = grid();
        let req = SolveRequest::new("shortcut").seed(5);
        let id = service.submit(Arc::clone(&g), req.clone());
        let outcome = service.join(id).expect("solve succeeds");
        let fresh = SolverSession::new().solve(&g, &req).unwrap();
        assert_eq!(outcome.report.edges, fresh.edges);
        assert_eq!(outcome.report.weight, fresh.weight);
        assert_eq!(outcome.report.params, fresh.params);
    }

    #[test]
    fn cancellation_reaches_queued_jobs() {
        let service = SolveService::new(ServiceConfig::default().workers(1));
        let big = Arc::new(gen::grid(100, 100, 32, 3));
        let blocker = service.submit(Arc::clone(&big), SolveRequest::new("shortcut"));
        let victim = service.submit(grid(), SolveRequest::new("improved"));
        assert!(service.cancel(victim), "job still pending");
        assert!(service.join(blocker).is_ok());
        assert_eq!(service.join(victim).unwrap_err(), SolveError::Cancelled);
        // After the fact there is nothing left to cancel.
        assert!(!service.cancel(victim));
        assert_eq!(service.log().audit(), Ok(2));
    }

    #[test]
    fn external_cancel_flag_propagates_into_the_solve() {
        // The caller's own flag (set before submission) short-circuits
        // the job whether it is queued or already in flight.
        let service = SolveService::new(ServiceConfig::default().workers(1));
        let flag = Arc::new(AtomicBool::new(true));
        let id = service.submit(grid(), SolveRequest::new("improved").cancel_flag(flag));
        assert_eq!(service.join(id).unwrap_err(), SolveError::Cancelled);
    }

    #[test]
    fn backpressure_blocks_submit_but_loses_nothing() {
        // Queue of 1, one worker: submitting 8 jobs from this thread
        // repeatedly fills the queue; every job still completes exactly
        // once.
        let service = SolveService::new(ServiceConfig::default().workers(1).queue_capacity(1));
        let g = grid();
        let jobs: Vec<JobId> = (0..8)
            .map(|seed| service.submit(Arc::clone(&g), SolveRequest::new("greedy").seed(seed)))
            .collect();
        let results = service.join_all(&jobs);
        assert!(results.iter().all(|r| r.as_ref().unwrap().report.valid));
        assert_eq!(service.log().audit(), Ok(8));
        assert_eq!(service.stats().completed, 8);
    }

    #[test]
    fn try_submit_sheds_a_full_queue_without_blocking_or_logging() {
        // One worker held by a big job, a queue of 1 already holding a
        // second job: the third submission finds no slot and must come
        // back immediately with QueueFull — leaving no trace in the
        // log, the counters, or the cancels table.
        let service = SolveService::new(ServiceConfig::default().workers(1).queue_capacity(1));
        let big = Arc::new(gen::grid(100, 100, 32, 3));
        let blocker = service.submit(Arc::clone(&big), SolveRequest::new("shortcut"));
        let queued = service.submit(grid(), SolveRequest::new("improved"));
        // Wait until the queue really holds the second job (the worker
        // may not have dequeued the blocker yet at submit return).
        while service.stats().queue_depth == 0
            && service.shared.completed.load(Ordering::Relaxed) == 0
        {
            std::thread::yield_now();
        }
        let started = Instant::now();
        let shed = service.try_submit(grid(), SolveRequest::new("greedy"));
        // Either the queue was still full (the expected path while the
        // blocker runs) or the worker raced ahead; only the full case
        // pins the contract.
        if let Err(e) = shed {
            assert_eq!(e, SubmitError::QueueFull);
            assert!(
                started.elapsed() < std::time::Duration::from_millis(100),
                "try_submit must not wait on the backpressure condvar"
            );
        }
        assert!(service.join(blocker).is_ok());
        assert!(service.join(queued).is_ok());
        let accepted = 2 + u64::from(shed.is_ok());
        assert_eq!(service.stats().submitted, accepted);
        assert_eq!(
            service.log().audit(),
            Ok(accepted as usize),
            "shed jobs leave no log trace"
        );
    }

    #[test]
    fn drain_runs_the_backlog_dry_and_closes_intake() {
        let service = SolveService::new(ServiceConfig::default().workers(2).cache_capacity(8));
        let g = grid();
        let jobs = service.submit_batch(vec![
            (Arc::clone(&g), SolveRequest::new("improved")),
            (Arc::clone(&g), SolveRequest::new("greedy")),
            (Arc::clone(&g), SolveRequest::new("greedy")),
        ]);
        let summary = service.drain();
        assert_eq!(summary.stats.queue_depth, 0);
        assert_eq!(summary.stats.completed + summary.stats.failed, 3);
        assert_eq!(summary.audit, Ok(3));
        // Joining after the drain still hands out every result.
        for result in service.join_all(&jobs) {
            assert!(result.unwrap().report.valid);
        }
        // Intake is closed for good, on both submit paths.
        assert_eq!(
            service.try_submit(Arc::clone(&g), SolveRequest::new("improved")),
            Err(SubmitError::Draining)
        );
        let late = service.submit(Arc::clone(&g), SolveRequest::new("improved"));
        assert!(matches!(service.join(late), Err(SolveError::Rejected(_))));
        // The rejected submissions never entered the audited lifecycle.
        assert_eq!(service.log().audit(), Ok(3));
        // Draining again is a no-op with the same verdict.
        assert_eq!(service.drain().audit, Ok(3));
    }

    #[test]
    fn warm_state_round_trip_serves_identical_reports_from_cache() {
        let warm = SolveService::new(ServiceConfig::default().workers(2).cache_capacity(8));
        let g = grid();
        let jobs = warm.submit_batch(vec![
            (Arc::clone(&g), SolveRequest::new("improved")),
            (Arc::clone(&g), SolveRequest::new("greedy")),
        ]);
        let originals: Vec<SolveReport> =
            warm.join_all(&jobs).into_iter().map(|r| r.unwrap().report).collect();
        warm.drain();
        let state = warm.export_warm_state();
        assert_eq!(state.cache.len(), 2, "drain leaves the cache intact");
        assert_eq!((state.submitted, state.completed, state.failed), (2, 2, 0));

        let restored = SolveService::new(ServiceConfig::default().workers(2).cache_capacity(8));
        assert_eq!(restored.restore_warm_state(state.clone()), Ok(2));
        // A second restore, or one into a used service, must fail.
        assert!(restored.restore_warm_state(state).is_err());
        let replays = restored.submit_batch(vec![
            (Arc::clone(&g), SolveRequest::new("improved")),
            (Arc::clone(&g), SolveRequest::new("greedy")),
        ]);
        for (replay, original) in restored.join_all(&replays).into_iter().zip(&originals) {
            let outcome = replay.unwrap();
            assert!(outcome.cache_hit, "restored entries serve as hits");
            let (a, b) = (outcome.report.to_json(), original.to_json());
            assert_eq!(strip_nondeterministic(&a), strip_nondeterministic(&b));
        }
        let stats = restored.stats();
        assert_eq!((stats.submitted, stats.cache_hits), (4, 2));
        assert!(stats.cache_bytes > 0);
        // The audit spans the imported tail AND the new generation.
        assert_eq!(restored.drain().audit, Ok(4));
    }

    #[test]
    fn mid_flight_export_stays_audit_consistent() {
        // Hold the single worker with a big job; export while the small
        // job is queued. The incomplete lifecycles must be filtered so
        // the exported tail audits clean on a restored service.
        let service = SolveService::new(ServiceConfig::default().workers(1).cache_capacity(8));
        let g = grid();
        let fast = service.submit(Arc::clone(&g), SolveRequest::new("greedy"));
        assert!(service.join(fast).is_ok());
        let big = Arc::new(gen::grid(100, 100, 32, 3));
        let blocker = service.submit(Arc::clone(&big), SolveRequest::new("shortcut"));
        let queued = service.submit(Arc::clone(&g), SolveRequest::new("improved"));
        let state = service.export_warm_state();
        assert_eq!(state.submitted, state.completed + state.failed);
        assert!(state.submitted >= 1, "the finished job is in the export");
        let restored = SolveService::new(ServiceConfig::default().workers(1).cache_capacity(8));
        restored.restore_warm_state(state).expect("restore");
        assert!(restored.drain().audit.is_ok(), "filtered tail audits clean");
        assert!(service.join(blocker).is_ok());
        assert!(service.join(queued).is_ok());
        assert_eq!(service.drain().audit, Ok(3));
    }

    #[test]
    fn dropping_the_service_drains_the_backlog_without_deadlock() {
        // Jobs are deliberately left unjoined: drop must close the
        // queue, let the workers finish the backlog, and join them —
        // completing at all is the assertion.
        let g = grid();
        let service = SolveService::new(ServiceConfig::default().workers(2));
        service.submit_batch(vec![
            (Arc::clone(&g), SolveRequest::new("improved")),
            (Arc::clone(&g), SolveRequest::new("greedy")),
        ]);
        drop(service);
    }
}
