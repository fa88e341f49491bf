//! Cache keys: a structural [`graph fingerprint`](graph_fingerprint)
//! plus the normalized result-shaping knobs of a [`SolveRequest`].

use decss_graphs::fingerprint::graph_fingerprint;
use decss_graphs::Graph;
use decss_solver::{delta_fingerprint, SolveRequest};

/// The full cache key of one job: the graph fingerprint plus the
/// normalized request. Two jobs with equal keys produce byte-identical
/// [`SolveReport`](decss_solver::SolveReport)s (modulo the wall clock),
/// because every solver in the registry is deterministic in
/// `(graph, request)`.
///
/// Normalization keeps exactly the knobs that shape the report —
/// algorithm, epsilon, variant, seed, bandwidth, fail-edges, deltas,
/// trace level — and drops the ones that only decide *whether* the
/// solve finishes (deadline, cancellation flag), so a request that
/// carries a budget still hits the cache entry its unbudgeted twin
/// filled.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct JobKey {
    /// [`graph_fingerprint`] of the instance: vertex count, edge count,
    /// and the multiset of `(u, v, weight)` triples, so two graphs share
    /// it exactly when they are the same labelled weighted graph (up to
    /// a 64-bit collision). It is order-independent and delta streams
    /// update it in `O(|delta|)`, so a mutated instance's key is
    /// computable without walking the mutated graph.
    pub fingerprint: u64,
    /// The normalized request, rendered to a canonical string.
    pub request: String,
}

impl JobKey {
    /// The key of `(g, req)`.
    ///
    /// Delta jobs key under the **mutated** graph's fingerprint — the
    /// chained value [`delta_fingerprint`] derives from the base graph
    /// and the batch — so a follow-up job against the materialized
    /// mutated graph, and a resubmission of the same delta job, land on
    /// consistent fingerprints. (The request half still carries the
    /// delta echo, so "solve the mutated graph from scratch" and
    /// "apply this batch" remain distinct cache entries.)
    pub fn new(g: &Graph, req: &SolveRequest) -> Self {
        // `params_echo` covers epsilon/variant/seed/bandwidth/fail_edges/
        // deltas with defaults spelled out; algorithm and trace are the
        // two result-shaping knobs it omits.
        let request = format!("{} {} trace={:?}", req.algorithm, req.params_echo(), req.trace);
        let fingerprint = if req.deltas.is_empty() {
            graph_fingerprint(g)
        } else {
            // An invalid batch fails the solve anyway; any deterministic
            // key will do for its error row.
            delta_fingerprint(g, &req.deltas).unwrap_or_else(|_| graph_fingerprint(g))
        };
        JobKey { fingerprint, request }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decss_graphs::gen;
    use decss_solver::TraceLevel;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn fingerprint_separates_structure_and_weights() {
        let a = gen::grid(4, 4, 20, 7);
        let b = gen::grid(4, 4, 20, 7);
        assert_eq!(graph_fingerprint(&a), graph_fingerprint(&b));
        // Different weights (other seed) and different structure both
        // change the fingerprint.
        assert_ne!(graph_fingerprint(&a), graph_fingerprint(&gen::grid(4, 4, 20, 8)));
        assert_ne!(graph_fingerprint(&a), graph_fingerprint(&gen::grid(4, 5, 20, 7)));
    }

    #[test]
    fn delta_jobs_key_under_the_chained_mutated_fingerprint() {
        use decss_graphs::EdgeId;
        use decss_solver::{mutate, GraphDelta};
        let g = gen::grid(4, 4, 20, 7);
        let deltas = vec![
            GraphDelta::Reweight { edge: EdgeId(2), weight: 123 },
            GraphDelta::Delete { edge: EdgeId(5) },
        ];
        let req = SolveRequest::new("shortcut").deltas(deltas.clone());
        let key = JobKey::new(&g, &req);
        // The fingerprint half is the mutated graph's, derived without
        // materializing it...
        let mutated = mutate(&g, &deltas).unwrap();
        assert_eq!(key.fingerprint, graph_fingerprint(&mutated));
        // ...and resubmitting the same delta job hits the same key,
        // while a from-scratch solve of the mutated graph stays distinct
        // through the request half.
        assert_eq!(key, JobKey::new(&g, &req));
        let plain = JobKey::new(&mutated, &SolveRequest::new("shortcut"));
        assert_eq!(plain.fingerprint, key.fingerprint);
        assert_ne!(plain, key);
    }

    #[test]
    fn keys_normalize_away_budget_knobs_only() {
        let g = gen::cycle(6, 9, 0);
        let base = SolveRequest::new("shortcut").seed(3);
        let budgeted = SolveRequest::new("shortcut")
            .seed(3)
            .deadline(Duration::from_secs(5))
            .cancel_flag(Arc::new(AtomicBool::new(false)));
        assert_eq!(JobKey::new(&g, &base), JobKey::new(&g, &budgeted));
        // Every result-shaping knob splits the key.
        for other in [
            SolveRequest::new("improved").seed(3),
            SolveRequest::new("shortcut").seed(4),
            SolveRequest::new("shortcut").seed(3).epsilon(0.5),
            SolveRequest::new("shortcut").seed(3).bandwidth(4),
            SolveRequest::new("shortcut").seed(3).fail_edges(1),
            SolveRequest::new("shortcut").seed(3).trace(TraceLevel::Summary),
        ] {
            assert_ne!(JobKey::new(&g, &base), JobKey::new(&g, &other), "{other:?}");
        }
    }
}
