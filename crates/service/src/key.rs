//! Cache keys: a structural [`graph fingerprint`](graph_fingerprint)
//! plus the normalized result-shaping knobs of a [`SolveRequest`].

use decss_graphs::fingerprint::graph_fingerprint;
use decss_graphs::Graph;
use decss_solver::SolveRequest;

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
    /// [`graph_fingerprint`] of the instance as submitted — for a delta
    /// job, the base graph the batch applies to: vertex count, edge
    /// count, and the multiset of `(u, v, weight)` triples, so two
    /// graphs share it exactly when they are the same labelled weighted
    /// graph (up to a 64-bit collision). It is order-independent.
    pub fingerprint: u64,
    /// The normalized request, rendered to a canonical string.
    pub request: String,
}

impl JobKey {
    /// The key of `(g, req)`.
    ///
    /// Delta jobs key under their **base** graph's fingerprint: the
    /// request half carries the batch (`deltas=[…]` in the params
    /// echo), so a resubmitted delta job hits its entry, while another
    /// batch on the same base and a from-scratch solve of the mutated
    /// graph each key apart.
    pub fn new(g: &Graph, req: &SolveRequest) -> Self {
        // `params_echo` covers epsilon/variant/seed/bandwidth/fail_edges/
        // deltas with defaults spelled out; algorithm and trace are the
        // two result-shaping knobs it omits.
        let request = format!("{} {} trace={:?}", req.algorithm, req.params_echo(), req.trace);
        JobKey { fingerprint: graph_fingerprint(g), request }
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
    fn delta_jobs_key_under_their_base_fingerprint() {
        use decss_graphs::EdgeId;
        use decss_solver::{mutate, GraphDelta};
        let g = gen::grid(4, 4, 20, 7);
        let deltas = vec![
            GraphDelta::Reweight { edge: EdgeId(2), weight: 123 },
            GraphDelta::Delete { edge: EdgeId(5) },
        ];
        let req = SolveRequest::new("shortcut").deltas(deltas.clone());
        let key = JobKey::new(&g, &req);
        assert_eq!(key.fingerprint, graph_fingerprint(&g));
        // A resubmission hits the same key...
        assert_eq!(key, JobKey::new(&g, &req));
        // ...while another batch on the same base, and a from-scratch
        // solve of the mutated graph, each key apart.
        let other = SolveRequest::new("shortcut")
            .deltas(vec![GraphDelta::Reweight { edge: EdgeId(2), weight: 124 }]);
        assert_ne!(key, JobKey::new(&g, &other));
        let mutated = mutate(&g, &deltas).unwrap();
        assert_ne!(key, JobKey::new(&mutated, &SolveRequest::new("shortcut")));
        // An invalid batch still keys (its solve fails with a row).
        let invalid =
            SolveRequest::new("shortcut").deltas(vec![GraphDelta::Delete { edge: EdgeId(10_000) }]);
        assert_eq!(JobKey::new(&g, &invalid).fingerprint, graph_fingerprint(&g));
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
