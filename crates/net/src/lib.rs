//! `decss-net`: the hardened network service tier.
//!
//! A hand-rolled HTTP/1.1 front-end over the batch solve service —
//! `std::net` only, no async runtime — built for hostile conditions:
//!
//! * **bounded everything** — a fixed connection pool fed by a
//!   non-blocking accept loop ([`server`]), strict parser caps on head
//!   size, header count, and body size ([`http`]);
//! * **load shedding** — pool-full connections get a fast `503 busy`,
//!   queue-full jobs a `429` with a `retry_after_ms` hint, and
//!   per-client token buckets ([`quota`]) meter admission;
//! * **graceful drain** — `/ready` flips to 503 first, the listener
//!   closes after a grace window, in-flight requests finish, and the
//!   solve service runs its backlog dry with an audited log;
//! * **provable robustness** — a deterministic fault-injection plan
//!   ([`fault`]) and a chaos harness ([`stress`]) that asserts report
//!   byte-identity, slot-leak freedom, and clean drain accounting.
//!
//! The job/report dialect is shared verbatim with `decss serve`'s file
//! mode via [`jobs`].

#![warn(missing_docs)]

pub mod client;
pub mod fault;
pub mod http;
pub mod jobs;
pub mod quota;
pub mod server;
pub mod signal;
pub mod stress;
pub mod trace;

pub use client::{raw_exchange, Client, Response};
pub use fault::{FaultClock, FaultPlan};
pub use http::{HttpError, Limits, Parse, Request};
pub use jobs::{parse_job_specs, FileAccess, JobSpec};
pub use quota::{QuotaConfig, QuotaTable};
pub use server::{NetConfig, NetHandle, NetServer, NetSnapshot, NetSummary, PersistConfig};
pub use stress::{chaos, ChaosReport, StressConfig};
pub use trace::{Arrival, GenConfig, ReplayConfig, ReplayOutcome, Trace, TraceEvent, TraceHeader};
