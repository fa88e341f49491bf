#![warn(missing_docs)]
#![warn(rustdoc::broken_intra_doc_links)]
//! `decss` — distributed approximation of minimum-weight 2-edge-connected
//! spanning subgraphs.
//!
//! This is the facade crate of the workspace reproducing **Dory &
//! Ghaffari, "Improved Distributed Approximations for Minimum-Weight
//! Two-Edge-Connected Spanning Subgraph" (PODC 2019)**. It re-exports
//! the sub-crates:
//!
//! * [`graphs`] — weighted graphs, generators, verification oracles,
//! * [`congest`] — the CONGEST round simulator and message-level
//!   protocols,
//! * [`tree`] — LCA labels, heavy-light decomposition, the layering and
//!   segment decompositions, aggregate engines,
//! * [`core`] — the paper's deterministic `(5+ε)`-approximation
//!   (Theorem 1.1), its `(4+ε)` TAP engine, and the unweighted variant,
//! * [`shortcuts`] — the low-congestion-shortcut framework and the
//!   `O(log n)`-approximation in `Õ(SC(G)+D)` rounds (Theorem 1.2),
//! * [`baselines`] — exact solvers and classical baselines,
//! * [`solver`] — the unified API over all of the above: the `Solver`
//!   trait, the algorithm [`Registry`](solver::Registry), reusable
//!   [`SolverSession`](solver::SolverSession)s, and the one
//!   [`SolveReport`](solver::SolveReport) schema,
//! * [`service`] — the batch solve service on the solver API: a
//!   [`SolveService`](service::SolveService) worker pool with a bounded
//!   job queue, instance cache, accountability log, and per-algorithm
//!   latency stats (`decss serve` and the `scenario` sweeps run on it),
//! * [`net`] — the hardened HTTP front-end on the service: bounded
//!   connection pool, strict request parsing, load shedding with retry
//!   hints, per-client quotas, graceful SIGTERM drain, and the
//!   fault-injection chaos harness (`decss serve --listen` and
//!   `decss netstress`),
//! * [`persist`] — warm-state persistence: a versioned, checksummed
//!   snapshot format for the service's cache, audited log tail, and
//!   counters, written atomically on drain or on a timer and restored
//!   at startup (`decss serve --restore/--snapshot`).
//!
//! # Quickstart
//!
//! Every pipeline is a name in the registry; a solve is a request and an
//! answer is a report:
//!
//! ```
//! use decss::solver::{SolveRequest, SolverSession};
//!
//! let network = decss::graphs::gen::sparse_two_ec(64, 48, 100, 1);
//! let mut session = SolverSession::new();
//! let report = session.solve(&network, &SolveRequest::new("improved").epsilon(0.25))?;
//! assert!(report.valid);
//! println!(
//!     "2-ECSS weight {} (certified within {:.2}x of optimal), {} CONGEST rounds",
//!     report.weight,
//!     report.certified_ratio(),
//!     report.rounds.unwrap_or(0),
//! );
//! # Ok::<(), decss::solver::SolveError>(())
//! ```
//!
//! The per-crate entry points (`core::approximate_two_ecss`,
//! `shortcuts::shortcut_two_ecss`, ...) remain public as the underlying
//! engines; the registry solvers are pinned byte-identical to them by
//! the parity suite.

pub use decss_baselines as baselines;
pub use decss_congest as congest;
pub use decss_core as core;
pub use decss_graphs as graphs;
pub use decss_net as net;
pub use decss_persist as persist;
pub use decss_service as service;
pub use decss_shortcuts as shortcuts;
pub use decss_solver as solver;
pub use decss_tree as tree;
