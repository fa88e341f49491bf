//! The determinism contract of the persistence tier, pinned
//! exhaustively and by property: a service restored from a snapshot
//! serves reports **byte-identical** (once `strip_nondeterministic`
//! has removed the `NONDETERMINISTIC_FIELDS` of `decss_solver::json`) to
//!
//! 1. the reports the pre-drain service handed out, and
//! 2. a fresh single-threaded [`SolverSession`] solve of the same
//!    `(graph, request)` pair —
//!
//! across graph families × cache on/off × worker counts, with the
//! state always pushed through the real wire format
//! ([`encode_snapshot`] → [`decode_snapshot`]), not just cloned in
//! memory. "Byte-identical" covers the full report JSON: edge ids,
//! weights, the ledger breakdown (`rounds`, `measured_sc`,
//! `pass_cost`), guarantees, and fingerprints.

use decss_graphs::gen::{self, Family};
use decss_graphs::Graph;
use decss_persist::{decode_snapshot, encode_snapshot};
use decss_service::{ServiceConfig, SolveService};
use decss_solver::json::strip_nondeterministic;
use decss_solver::{SolveReport, SolveRequest, SolverSession};
use proptest::prelude::*;
use std::sync::Arc;

const FAMILIES: [Family; 3] = [Family::Grid, Family::Torus, Family::Lollipop];

fn jobs_for(graph: &Arc<Graph>) -> Vec<(Arc<Graph>, SolveRequest)> {
    vec![
        (Arc::clone(graph), SolveRequest::new("greedy").seed(1)),
        (Arc::clone(graph), SolveRequest::new("improved").seed(2)),
        (Arc::clone(graph), SolveRequest::new("shortcut").seed(3)),
        (Arc::clone(graph), SolveRequest::new("shortcut").seed(3).epsilon(0.5)),
        // A duplicate: exercises coalescing before and after restore.
        (Arc::clone(graph), SolveRequest::new("improved").seed(2)),
    ]
}

/// Solves the batch on a fresh service, drains, round-trips the warm
/// state through the wire format, restores into a second service, and
/// pins the three-way equivalence.
fn check_round_trip(graph: Arc<Graph>, workers: usize, cache_cap: usize) {
    let config = || {
        ServiceConfig::default()
            .workers(workers)
            .cache_capacity(cache_cap)
            .queue_capacity(16)
    };
    let warm = SolveService::new(config());
    let batch = jobs_for(&graph);
    let ids = warm.submit_batch(batch.clone());
    let originals: Vec<SolveReport> = warm
        .join_all(&ids)
        .into_iter()
        .map(|r| r.expect("pre-drain solve succeeds").report)
        .collect();
    let summary = warm.drain();
    assert!(summary.audit.is_ok(), "{:?}", summary.audit);
    let jobs_before = summary.audit.unwrap();
    let hits_before = summary.stats.cache_hits;

    // Through the real bytes, not a memory clone.
    let bytes = encode_snapshot(&warm.export_warm_state());
    let state = decode_snapshot(&bytes).expect("wire round trip");
    assert_eq!(state.submitted, jobs_before as u64);
    if cache_cap > 0 {
        assert_eq!(state.cache.len(), 4, "4 distinct keys cached");
    } else {
        assert!(state.cache.is_empty(), "cache off exports nothing");
    }

    let restored = SolveService::new(config());
    restored
        .restore_warm_state(state)
        .expect("restore into a cold service");
    let replay_ids = restored.submit_batch(batch.clone());
    let replays = restored.join_all(&replay_ids);
    let mut session = SolverSession::new();
    for (i, (replay, original)) in replays.iter().zip(&originals).enumerate() {
        let outcome = replay.as_ref().expect("replay solve succeeds");
        if cache_cap > 0 {
            assert!(outcome.cache_hit, "job {i} must be served from the restored cache");
        }
        assert_eq!(
            strip_nondeterministic(&outcome.report.to_json()),
            strip_nondeterministic(&original.to_json()),
            "job {i}: restored report differs from the pre-drain one"
        );
        let fresh = session.solve(&batch[i].0, &batch[i].1).expect("fresh solve succeeds");
        assert_eq!(
            strip_nondeterministic(&outcome.report.to_json()),
            strip_nondeterministic(&fresh.to_json()),
            "job {i}: restored report differs from a fresh solve"
        );
        assert_eq!(outcome.report.fingerprint, fresh.fingerprint);
        assert_eq!(outcome.report.edges, fresh.edges);
        assert_eq!(outcome.report.weight, fresh.weight);
        assert_eq!(outcome.report.rounds, fresh.rounds, "ledger breakdown must survive");
        assert_eq!(outcome.report.measured_sc, fresh.measured_sc);
    }
    let final_summary = restored.drain();
    assert_eq!(
        final_summary.audit,
        Ok(jobs_before + batch.len()),
        "the audit must span the imported tail and the new generation"
    );
    if cache_cap > 0 {
        assert_eq!(
            final_summary.stats.cache_hits,
            hits_before + batch.len() as u64,
            "every replay is a hit on top of the restored counter"
        );
    }
}

#[test]
fn exhaustive_family_by_cache_by_workers_matrix() {
    for family in FAMILIES {
        let graph = Arc::new(gen::instance(family, 24, 30, 11));
        for cache_cap in [0usize, 64] {
            for workers in [1usize, 2, 4] {
                check_round_trip(Arc::clone(&graph), workers, cache_cap);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random instances keep the contract: any seed, any of the three
    /// families, any worker count in the matrix.
    #[test]
    fn random_instances_round_trip(
        family_index in 0usize..3,
        seed in 0u64..1_000,
        workers in 1usize..5,
        cache_on in 0u8..2,
    ) {
        let graph = Arc::new(gen::instance(FAMILIES[family_index], 20, 25, seed));
        check_round_trip(graph, workers, if cache_on == 1 { 32 } else { 0 });
    }
}
