#![warn(missing_docs)]
#![warn(rustdoc::broken_intra_doc_links)]
//! `decss-service` — the batch solve service on top of the unified
//! [`decss_solver`] API: a [`SolveService`] owning a pool of worker
//! threads (each with a warm, reusable
//! [`SolverSession`](decss_solver::SolverSession)), fed by a bounded
//! [`JobQueue`] with blocking backpressure, memoized through an
//! [`InstanceCache`] keyed by (graph fingerprint, normalized request),
//! and audited by an append-only [`ServiceLog`] of
//! submit/start/finish events.
//!
//! This is the layer PR 4's registry/session work was built for: a
//! consumer that needs *many* solves — the CLI's `decss serve` batch
//! runner and the `decss scenario` sweep grid both ride on it — gets
//! multi-worker dispatch, duplicate coalescing, queue-time deadlines
//! ([`SolveError::ExpiredInQueue`](decss_solver::SolveError)), and
//! cancellation propagation without touching any solver.
//!
//! The contract that makes the service safe to put in front of every
//! pipeline: a [`JobOutcome`]'s report is **byte-identical** to a fresh
//! single-threaded solve of the same `(graph, request)` pair, modulo
//! [`NONDETERMINISTIC_FIELDS`](decss_solver::json::NONDETERMINISTIC_FIELDS)
//! — pinned across worker counts, cache settings, and duplicate mixes by
//! the stress/property suite (`tests/stress.rs`).
//!
//! ```
//! use decss_service::{ServiceConfig, SolveService};
//! use decss_solver::SolveRequest;
//! use std::sync::Arc;
//!
//! let service = SolveService::new(
//!     ServiceConfig::default().workers(2).cache_capacity(64),
//! );
//! let network = Arc::new(decss_graphs::gen::grid(8, 8, 40, 7));
//! let jobs = service.submit_batch(
//!     ["improved", "shortcut", "shortcut"] // the duplicate is served from cache
//!         .map(|name| (Arc::clone(&network), SolveRequest::new(name))),
//! );
//! for result in service.join_all(&jobs) {
//!     assert!(result.unwrap().report.valid);
//! }
//! let stats = service.stats();
//! assert_eq!((stats.completed, stats.cache_hits), (3, 1));
//! ```

pub mod cache;
pub mod key;
pub mod log;
pub mod queue;
pub mod service;
pub mod stats;

pub use cache::InstanceCache;
pub use key::JobKey;
pub use log::{EventKind, LogEvent, ServiceLog};
pub use queue::{JobQueue, PushError};
pub use service::{
    DrainSummary, JobOutcome, JobResult, ServiceConfig, SolveService, SubmitError, WarmState,
};
pub use stats::{LatencyHistogram, Stats};

use std::fmt;

/// Identifier of one submitted job: dense `u64`s in submission order,
/// unique within one [`SolveService`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct JobId(pub u64);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job#{}", self.0)
    }
}
