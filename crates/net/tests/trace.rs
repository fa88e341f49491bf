//! The trace replay determinism contract: replaying the same seeded
//! trace twice produces byte-identical job rows modulo the
//! `NONDETERMINISTIC_FIELDS` of `decss_solver::json`, with a balanced
//! drain audit both times — and the deliberately chaotic ingredients
//! (cancellations, deadline pressure) resolve to the same deterministic
//! error rows on every run.

use decss_net::jobs::FileAccess;
use decss_net::trace::{self, Arrival, GenConfig, ReplayConfig};
use decss_solver::json::strip_nondeterministic;

fn job_rows(document: &str) -> Vec<String> {
    document
        .lines()
        .filter(|l| l.contains("\"job\""))
        .map(strip_nondeterministic)
        .collect()
}

#[test]
fn same_trace_twice_gives_identical_rows_and_balanced_audits() {
    let text = trace::generate(&GenConfig { seed: 42, jobs: 36, ..GenConfig::default() });
    let cfg = ReplayConfig { workers: 3, ..ReplayConfig::default() };
    let first = trace::replay(&text, FileAccess::Denied, &cfg).expect("first replay");
    let second = trace::replay(&text, FileAccess::Denied, &cfg).expect("second replay");
    assert_eq!(first.jobs, 36);
    assert!(
        first.audit.as_ref().expect("local audit").is_ok(),
        "{:?}",
        first.audit
    );
    assert!(
        second.audit.as_ref().expect("local audit").is_ok(),
        "{:?}",
        second.audit
    );

    let rows_a = job_rows(&first.document);
    let rows_b = job_rows(&second.document);
    assert_eq!(rows_a.len(), 36, "one row per event");
    assert_eq!(
        rows_a, rows_b,
        "job rows must be byte-identical modulo the nondeterministic fields"
    );
    // The error population (deliberate failures) is part of the
    // deterministic surface too.
    assert_eq!(first.failed, second.failed);
}

#[test]
fn chaotic_ingredients_resolve_deterministically() {
    // A hand-written trace with one of each hazard: a pre-cancelled
    // job, an already-expired deadline, and a failure storm.
    let text = format!(
        "{{\"trace_version\": {}, \"seed\": 0, \"profile\": \"hand\", \"arrival\": \"poisson\"}}\n\
         {{\"at_ms\": 0, \"algorithm\": \"improved\", \"family\": \"grid\", \"n\": 36, \"seed\": 1}}\n\
         {{\"at_ms\": 1, \"algorithm\": \"greedy\", \"family\": \"grid\", \"n\": 36, \"seed\": 1, \"cancel\": true}}\n\
         {{\"at_ms\": 2, \"algorithm\": \"improved\", \"family\": \"grid\", \"n\": 36, \"seed\": 1, \"deadline_ms\": 0}}\n\
         {{\"at_ms\": 3, \"algorithm\": \"improved\", \"family\": \"sparse-random\", \"n\": 24, \"seed\": 2, \"fail_edges\": 2}}\n",
        trace::TRACE_VERSION,
    );
    let cfg = ReplayConfig::default();
    let outcome = trace::replay(&text, FileAccess::Denied, &cfg).expect("replay");
    assert!(outcome.audit.expect("local audit").is_ok());
    let rows = job_rows(&outcome.document);
    assert_eq!(rows.len(), 4);
    assert!(!rows[0].contains("\"error\""), "plain job succeeds: {}", rows[0]);
    assert!(
        rows[1].contains("cancelled"),
        "pre-cancel must resolve to Cancelled: {}",
        rows[1]
    );
    assert!(
        rows[2].contains("expired"),
        "deadline 0 must expire in queue: {}",
        rows[2]
    );
    // Rerun: the exact same rows, including the error rows.
    let again = trace::replay(&text, FileAccess::Denied, &cfg).expect("replay again");
    assert_eq!(rows, job_rows(&again.document));
}

#[test]
fn bursty_traces_replay_and_pacing_respects_stamps() {
    let text =
        trace::generate(&GenConfig { seed: 9, jobs: 12, arrival: Arrival::Bursty, mean_gap_ms: 1 });
    let outcome = trace::replay(
        &text,
        FileAccess::Denied,
        &ReplayConfig { pace: true, ..ReplayConfig::default() },
    )
    .expect("paced replay");
    assert_eq!(outcome.jobs, 12);
    assert!(outcome.audit.expect("local audit").is_ok());
    assert!(outcome.document.contains("\"paced\": true"));
    assert!(outcome.document.contains("\"tail_ms\""));
}
