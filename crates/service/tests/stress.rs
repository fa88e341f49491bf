//! The service stress/property suite: under every mix of worker
//! counts, cache settings, queue bounds, duplicate loads, and registry
//! algorithms, the batch service must be *invisible* — every report
//! byte-identical to a fresh single-threaded [`SolverSession`] solve of
//! the same `(graph, request)` pair (once [`strip_nondeterministic`]
//! has removed the `NONDETERMINISTIC_FIELDS` of `decss_solver::json`),
//! every duplicate served from the cache when one is
//! configured, and no job lost or double-completed even when the
//! bounded queue forces backpressure on the submitter.
//!
//! CI runs this suite in release mode alongside the engine-determinism
//! suites: timing-dependent bugs in the worker pool are likeliest at
//! release-mode speed.

use decss_graphs::{gen, Graph};
use decss_service::{ServiceConfig, SolveService};
use decss_solver::json::strip_nondeterministic;
use decss_solver::{SolveRequest, SolverSession};
use proptest::prelude::*;
use std::sync::Arc;

/// The mixed job load: every registry algorithm at least once (the
/// exact solver on an instance inside its edge cap), knobs exercised
/// (epsilon, bandwidth, failure injection), instances shared via `Arc`
/// the way a real batch caller would.
fn mixed_jobs(seed: u64) -> Vec<(Arc<Graph>, SolveRequest)> {
    let grid = Arc::new(gen::grid(6, 6, 20, seed));
    let sparse = Arc::new(gen::sparse_two_ec(30, 20, 40, seed));
    let tiny = Arc::new(gen::grid(3, 3, 16, seed)); // 12 edges: exact-solver territory
    vec![
        (Arc::clone(&grid), SolveRequest::new("improved")),
        (Arc::clone(&grid), SolveRequest::new("basic").epsilon(0.5)),
        (Arc::clone(&grid), SolveRequest::new("shortcut").seed(seed)),
        (
            Arc::clone(&sparse),
            SolveRequest::new("shortcut").seed(seed).bandwidth(4),
        ),
        (Arc::clone(&sparse), SolveRequest::new("greedy")),
        (Arc::clone(&sparse), SolveRequest::new("unweighted")),
        (
            Arc::clone(&sparse),
            SolveRequest::new("improved").fail_edges(3).seed(seed),
        ),
        (Arc::clone(&tiny), SolveRequest::new("exact")),
        (Arc::clone(&tiny), SolveRequest::new("cheapest-cover")),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn concurrent_service_is_byte_identical_to_fresh_sessions(
        workers in 1usize..=8,
        cache_on in 0u8..2,
        queue_cap in 1usize..=4,
        duplicates in 1usize..=6,
        seed in 0u64..1_000,
    ) {
        let cache_cap = if cache_on == 1 { 64 } else { 0 };
        let service = SolveService::new(
            ServiceConfig::default()
                .workers(workers)
                .queue_capacity(queue_cap)
                .cache_capacity(cache_cap),
        );

        // The base mix plus `duplicates` extra copies of one job — the
        // copies share graph *and* request, so exactly them must be
        // cache hits when caching is on.
        let mut jobs = mixed_jobs(seed);
        let (dup_graph, dup_req) = jobs[2].clone();
        for _ in 0..duplicates {
            jobs.push((Arc::clone(&dup_graph), dup_req.clone()));
        }
        let total = jobs.len();

        // Tiny queue bounds (1..=4) force submit-side backpressure: the
        // submitter parks on the full queue while workers drain it.
        let ids = service.submit_batch(jobs.clone());
        prop_assert_eq!(ids.len(), total);
        let results = service.join_all(&ids);

        // Reference: the same requests through one fresh single-threaded
        // session (session reuse is pinned deterministic by the solver
        // parity suite, so one session for all references is fair).
        let mut reference = SolverSession::new();
        let mut hits = 0u64;
        for ((graph, req), result) in jobs.iter().zip(&results) {
            let outcome = result.as_ref().expect("every job in the mix solves");
            let fresh = reference.solve(graph, req).expect("reference solve");
            prop_assert_eq!(
                strip_nondeterministic(&outcome.report.to_json()),
                strip_nondeterministic(&fresh.to_json()),
                "service report diverged for {} (workers={workers} cache={cache_cap} queue={queue_cap})",
                req.algorithm
            );
            hits += outcome.cache_hit as u64;
        }

        // Cache accounting: with a cache, exactly the duplicate copies
        // hit (coalescing makes this exact even when duplicates run
        // concurrently); without one, nothing does.
        let expected_hits = if cache_cap > 0 { duplicates as u64 } else { 0 };
        prop_assert_eq!(hits, expected_hits);
        let stats = service.stats();
        prop_assert_eq!(stats.cache_hits, expected_hits);
        prop_assert_eq!(stats.completed, total as u64);
        prop_assert_eq!(stats.failed, 0);
        prop_assert_eq!(stats.queue_depth, 0);

        // Accountability: the log proves no job was lost or
        // double-completed — exactly one submit/start/finish per job.
        prop_assert_eq!(service.log().audit(), Ok(total));
        let log_len = service.log().len();
        prop_assert_eq!(log_len, 3 * total);
    }

    #[test]
    fn duplicate_storms_coalesce_to_one_solve(
        workers in 1usize..=8,
        copies in 2usize..=16,
        seed in 0u64..1_000,
    ) {
        // All jobs identical: whatever the worker count, exactly one
        // solve happens and every other job is served from the cache,
        // byte-identical.
        let service = SolveService::new(
            ServiceConfig::default().workers(workers).queue_capacity(2).cache_capacity(8),
        );
        let g = Arc::new(gen::grid(5, 5, 20, seed));
        let jobs: Vec<_> = (0..copies)
            .map(|_| (Arc::clone(&g), SolveRequest::new("shortcut").seed(seed)))
            .collect();
        let ids = service.submit_batch(jobs);
        let results = service.join_all(&ids);
        let first = strip_nondeterministic(&results[0].as_ref().unwrap().report.to_json());
        for r in &results {
            prop_assert_eq!(strip_nondeterministic(&r.as_ref().unwrap().report.to_json()), first.clone());
        }
        let stats = service.stats();
        prop_assert_eq!(stats.cache_misses, 1, "one copy pays for the solve");
        prop_assert_eq!(stats.cache_hits, copies as u64 - 1);
        prop_assert_eq!(service.log().audit(), Ok(copies));
    }
}

#[test]
fn cross_worker_session_reuse_stays_deterministic() {
    // One service, many rounds of the same mixed batch: worker sessions
    // get progressively dirtier (different algorithms and instance
    // sizes interleave arbitrarily across workers), yet reports must
    // keep matching fresh sessions byte for byte.
    let service = SolveService::new(ServiceConfig::default().workers(4).cache_capacity(0));
    let mut reference = SolverSession::new();
    for round in 0..3u64 {
        let jobs = mixed_jobs(round);
        let ids = service.submit_batch(jobs.clone());
        for ((graph, req), result) in jobs.iter().zip(service.join_all(&ids)) {
            let outcome = result.expect("solves");
            let fresh = reference.solve(graph, req).expect("reference solve");
            assert_eq!(
                strip_nondeterministic(&outcome.report.to_json()),
                strip_nondeterministic(&fresh.to_json()),
                "round {round}, {}",
                req.algorithm
            );
        }
    }
    assert_eq!(service.log().audit(), Ok(3 * mixed_jobs(0).len()));
}
