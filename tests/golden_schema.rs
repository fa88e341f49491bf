//! Golden-schema tests for the CLI's JSON documents (`decss scenario`
//! and `decss serve`): the emitted field sets are a public contract —
//! sweep post-processing, dashboards, and the bench gate all scan these
//! documents with the workspace's line-oriented JSON dialect
//! (`decss::solver::json`) — so any drift must break *here*, loudly,
//! instead of silently in a consumer.
//!
//! Values are checked through the same dialect (`string_field` /
//! `number_field`) the real consumers use; the nondeterministic fields
//! (`NONDETERMINISTIC_FIELDS`) are asserted present, then stripped by
//! `strip_nondeterministic` for the cross-run and cross-worker-count
//! determinism comparisons, the same way CI's `.github/strip_rows.sh`
//! strips them.

use decss::solver::json::{
    number_field, string_field, strip_nondeterministic, NONDETERMINISTIC_FIELDS,
};
use std::process::Command;

fn decss(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_decss"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

/// Every JSON key on `line`, in order of appearance (duplicates kept:
/// a schema that repeats a key is itself a bug worth catching).
fn keys_of(line: &str) -> Vec<String> {
    let mut keys = Vec::new();
    let mut rest = line;
    while let Some(start) = rest.find('"') {
        let tail = &rest[start + 1..];
        match tail.find('"') {
            Some(end) if tail[end + 1..].starts_with(':') => {
                keys.push(tail[..end].to_string());
                rest = &tail[end + 1..];
            }
            Some(end) => rest = &tail[end + 1..],
            None => break,
        }
    }
    keys
}

/// A job row past its `"job"` id, without the nondeterministic fields.
fn past_job_id(row: &str) -> String {
    let (_, fields) = row.trim_end_matches(',').split_once(", ").expect("job id");
    strip_nondeterministic(fields)
}

#[test]
fn scenario_document_schema_is_pinned() {
    let (out, err, ok) = decss(&[
        "scenario",
        "--families",
        "grid",
        "--sizes",
        "36",
        "--seeds",
        "0",
        "--algorithms",
        "shortcut,improved,greedy",
    ]);
    assert!(ok, "scenario failed: {err}");

    // Header: one key per line inside the "scenario" object.
    let header: Vec<String> = out
        .lines()
        .skip_while(|l| !l.contains("\"scenario\""))
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with('}'))
        .flat_map(keys_of)
        .collect();
    assert_eq!(
        header,
        [
            "families",
            "sizes",
            "seeds",
            "algorithms",
            "max_weight",
            "epsilon",
            "bandwidth",
            "fail_edges",
            "nproc",
            "workers"
        ],
        "scenario header drifted"
    );

    // Rows: the exact per-algorithm field sets, in emission order.
    let rows: Vec<&str> = out.lines().filter(|l| l.contains("\"family\"")).collect();
    assert_eq!(rows.len(), 3);
    let common_prefix = [
        "family",
        "requested_n",
        "seed",
        "algorithm",
        "n",
        "m",
        "edges",
        "weight",
        "lower_bound",
        "certified_ratio",
        "valid",
    ];
    let expect = |row: &str, tail: &[&str]| {
        let mut want: Vec<String> = common_prefix.iter().map(|s| s.to_string()).collect();
        want.extend(tail.iter().map(|s| s.to_string()));
        assert_eq!(keys_of(row), want, "row schema drifted: {row}");
    };
    expect(
        rows[0],
        &[
            "rounds",
            "measured_sc",
            "alpha",
            "beta",
            "pass_cost",
            "fallbacks",
            "wall_ms",
        ],
    );
    expect(rows[1], &["rounds", "guarantee", "wall_ms"]);
    expect(rows[2], &["wall_ms"]); // greedy: centralized, no round model

    // The dialect the consumers scan with reads the values back.
    assert_eq!(string_field(rows[0], "algorithm").as_deref(), Some("shortcut"));
    assert_eq!(number_field(rows[0], "requested_n"), Some(36.0));
    assert!(number_field(rows[0], "weight").is_some());
    assert!(number_field(rows[0], "wall_ms").is_some(), "wall_ms must be emitted");

    // Determinism across worker counts: the sweep through 3 workers is
    // byte-identical modulo the nondeterministic fields and the
    // header's own workers field.
    let (multi, err, ok) = decss(&[
        "scenario",
        "--families",
        "grid",
        "--sizes",
        "36",
        "--seeds",
        "0",
        "--algorithms",
        "shortcut,improved,greedy",
        "--workers",
        "3",
    ]);
    assert!(ok, "{err}");
    let body = |doc: &str| {
        strip_nondeterministic(doc)
            .lines()
            .filter(|l| !l.contains("\"workers\""))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(body(&out), body(&multi), "worker count leaked into the rows");
}

/// CI's smokes diff serve and replay rows through
/// `.github/strip_rows.sh`, which must strip exactly the library's list.
#[test]
fn ci_row_stripper_lists_the_nondeterministic_fields() {
    let script = include_str!("../.github/strip_rows.sh");
    let fields = script
        .lines()
        .find_map(|l| l.strip_prefix("FIELDS=\"")?.strip_suffix('"'))
        .expect("the script sets FIELDS");
    assert_eq!(fields.split(' ').collect::<Vec<_>>(), NONDETERMINISTIC_FIELDS);
}

#[test]
fn serve_document_schema_is_pinned() {
    let dir = std::env::temp_dir().join("decss-golden-tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let jobs_path = dir.join("jobs.json");
    std::fs::write(
        &jobs_path,
        concat!(
            "[\n",
            "  {\"family\": \"grid\", \"n\": 36, \"seed\": 1, \"algorithm\": \"shortcut\"},\n",
            "  {\"family\": \"grid\", \"n\": 36, \"seed\": 1, \"algorithm\": \"shortcut\"},\n",
            "  {\"family\": \"grid\", \"n\": 36, \"seed\": 1, \"algorithm\": \"improved\"}\n",
            "]\n"
        ),
    )
    .expect("write jobs file");
    let (out, err, ok) = decss(&[
        "serve",
        "--jobs",
        jobs_path.to_str().expect("utf8 path"),
        "--workers",
        "2",
        "--cache-cap",
        "8",
    ]);
    assert!(ok, "serve failed: {err}");

    // The stats header: service shape plus the latency histogram shape,
    // one object per algorithm (order nondeterministic under 2 workers,
    // so the histogram tail is asserted as a repeated group).
    let service_line = out
        .lines()
        .find(|l| l.contains("\"service\""))
        .expect("service header line");
    let keys = keys_of(service_line);
    let histogram_group = ["algorithm", "count", "mean_ms", "max_ms", "histogram"];
    let mut want: Vec<String> = [
        "service",
        "workers",
        "queue_capacity",
        "queue_depth",
        "cache_capacity",
        "cache_entries",
        "cache_bytes",
        "submitted",
        "completed",
        "failed",
        "cache_hits",
        "cache_misses",
        "hit_rate",
        "latency",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    for _ in 0..2 {
        // two algorithms ran → two histogram objects
        want.extend(histogram_group.iter().map(|s| s.to_string()));
    }
    // Host shape trailer: detected cores.
    want.push("nproc".to_string());
    assert_eq!(keys, want, "service stats schema drifted: {service_line}");
    assert_eq!(number_field(service_line, "submitted"), Some(3.0));
    assert_eq!(number_field(service_line, "completed"), Some(3.0));
    assert_eq!(number_field(service_line, "cache_hits"), Some(1.0), "{service_line}");
    assert_eq!(number_field(service_line, "queue_depth"), Some(0.0));

    // Job rows: echo prefix + cache_hit + the report fields, ending in
    // wall_ms.
    let rows: Vec<&str> = out.lines().filter(|l| l.contains("\"job\"")).collect();
    assert_eq!(rows.len(), 3);
    let report_tail = [
        "algorithm",
        "n",
        "m",
        "edges",
        "weight",
        "lower_bound",
        "certified_ratio",
        "valid",
    ];
    for (row, algo_tail) in rows.iter().zip([
        &[
            "rounds",
            "measured_sc",
            "alpha",
            "beta",
            "pass_cost",
            "fallbacks",
            "wall_ms",
        ][..],
        &[
            "rounds",
            "measured_sc",
            "alpha",
            "beta",
            "pass_cost",
            "fallbacks",
            "wall_ms",
        ][..],
        &["rounds", "guarantee", "wall_ms"][..],
    ]) {
        let mut want: Vec<String> = ["job", "family", "requested_n", "seed", "cache_hit"]
            .map(String::from)
            .to_vec();
        want.extend(report_tail.iter().map(|s| s.to_string()));
        want.extend(algo_tail.iter().map(|s| s.to_string()));
        assert_eq!(keys_of(row), want, "serve row schema drifted: {row}");
    }
    // Exactly one of the two duplicates is the cache hit (*which* one
    // claims the key first is a worker-scheduling race under 2 workers),
    // and the rows are byte-identical past the job id once the
    // nondeterministic fields, the flag among them, are stripped.
    let hit_count = rows[..2].iter().filter(|r| r.contains("\"cache_hit\": true")).count();
    assert_eq!(
        hit_count, 1,
        "one duplicate misses, the other hits:\n{}\n{}",
        rows[0], rows[1]
    );
    assert_eq!(past_job_id(rows[0]), past_job_id(rows[1]));

    // Failed jobs keep the echo prefix and report an "error" field.
    let bad_jobs = dir.join("bad_jobs.json");
    std::fs::write(
        &bad_jobs,
        "[\n  {\"family\": \"grid\", \"n\": 36, \"algorithm\": \"mystery\"}\n]\n",
    )
    .expect("write jobs file");
    let (out, err, ok) = decss(&["serve", "--jobs", bad_jobs.to_str().expect("utf8 path")]);
    assert!(!ok, "a failing job must fail the exit status");
    assert!(err.contains("1 of 1 jobs failed"), "{err}");
    let row = out.lines().find(|l| l.contains("\"job\"")).expect("error row");
    assert_eq!(keys_of(row), ["job", "family", "requested_n", "seed", "error"]);
    assert!(string_field(row, "error")
        .expect("error field")
        .contains("unknown algorithm"));

    // A compacted (single-line) job array is rejected loudly instead of
    // silently collapsing into one merged job.
    let compact = dir.join("compact_jobs.json");
    std::fs::write(
        &compact,
        "[{\"family\": \"grid\", \"n\": 36, \"algorithm\": \"shortcut\"},\
         {\"family\": \"grid\", \"n\": 64, \"algorithm\": \"improved\"}]\n",
    )
    .expect("write jobs file");
    let (_, err, ok) = decss(&["serve", "--jobs", compact.to_str().expect("utf8 path")]);
    assert!(!ok);
    assert!(err.contains("one job object per line"), "{err}");

    // A present-but-malformed optional knob (here `"fail_edges":2`,
    // missing the dialect's space after the colon) errors loudly — a
    // silently dropped knob would change what the job means.
    let malformed = dir.join("malformed_jobs.json");
    std::fs::write(
        &malformed,
        "[\n  {\"family\": \"grid\", \"n\": 36, \"algorithm\": \"shortcut\", \"fail_edges\":2}\n]\n",
    )
    .expect("write jobs file");
    let (_, err, ok) = decss(&["serve", "--jobs", malformed.to_str().expect("utf8 path")]);
    assert!(!ok);
    assert!(err.contains("malformed \"fail_edges\""), "{err}");
}

#[test]
fn delta_job_rows_pin_the_incremental_schema() {
    use decss::graphs::gen;
    use decss::tree::RootedTree;

    // The exact graph serve builds for {family: grid, n: 36, seed: 2}
    // (max_weight defaults to 64): a raised non-tree edge can never
    // flip the MST, so the job must take the incremental path without
    // a fallback.
    let g = gen::grid(6, 6, 64, 2);
    let tree = RootedTree::mst(&g);
    let edge = g
        .edge_ids()
        .find(|&e| !tree.is_tree_edge(e))
        .expect("a grid has non-tree edges");
    let weight = g.weight(edge) + 7;

    let dir = std::env::temp_dir().join("decss-golden-tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let jobs_path = dir.join("delta_jobs.json");
    std::fs::write(
        &jobs_path,
        format!(
            "[\n  {{\"family\": \"grid\", \"n\": 36, \"seed\": 2, \"algorithm\": \"shortcut\", \
             \"deltas\": [\"rw({e},{weight})\"]}},\n  {{\"family\": \"grid\", \"n\": 36, \
             \"seed\": 2, \"algorithm\": \"shortcut\", \"deltas\": [\"rw({e},{weight})\"]}}\n]\n",
            e = edge.index(),
        ),
    )
    .expect("write jobs file");
    let (out, err, ok) = decss(&["serve", "--jobs", jobs_path.to_str().expect("utf8 path")]);
    assert!(ok, "delta serve failed: {err}");

    // Delta rows carry the report's incremental block and the mutated
    // graph's fingerprint, wedged (in that order) between the solver
    // fields and the trailing wall_ms.
    let rows: Vec<&str> = out.lines().filter(|l| l.contains("\"job\"")).collect();
    assert_eq!(rows.len(), 2);
    let want: Vec<String> = [
        "job",
        "family",
        "requested_n",
        "seed",
        "cache_hit",
        "algorithm",
        "n",
        "m",
        "edges",
        "weight",
        "lower_bound",
        "certified_ratio",
        "valid",
        "rounds",
        "measured_sc",
        "alpha",
        "beta",
        "pass_cost",
        "fallbacks",
        "incremental",
        "parts_redone",
        "levels_redone",
        "fell_back",
        "fingerprint",
        "wall_ms",
    ]
    .map(String::from)
    .to_vec();
    for row in &rows {
        assert_eq!(keys_of(row), want, "delta row schema drifted: {row}");
        assert!(
            row.contains("\"incremental\": {\"parts_redone\": "),
            "incremental block shape drifted: {row}"
        );
        assert!(
            row.contains("\"fell_back\": false"),
            "a raised non-tree edge fell back: {row}"
        );
        assert!(
            number_field(row, "fingerprint").is_some(),
            "fingerprint must be emitted: {row}"
        );
    }
    // Resubmitting the same delta batch lands on the same (base
    // fingerprint, request) key: the duplicate job is a cache hit
    // (single worker, so deterministically the second row).
    assert!(rows[0].contains("\"cache_hit\": false"), "{}", rows[0]);
    assert!(rows[1].contains("\"cache_hit\": true"), "{}", rows[1]);
    // And the two reports agree byte-for-byte past the job id, once the
    // nondeterministic fields are stripped.
    assert_eq!(past_job_id(rows[0]), past_job_id(rows[1]));
}
