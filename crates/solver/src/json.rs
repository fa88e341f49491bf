//! The workspace's one hand-rolled JSON dialect (the environment is
//! offline and vendors no serde): string escaping for writers plus the
//! line-oriented field scanners the readers use.
//!
//! Every JSON document the workspace emits — [`SolveReport::to_json`]
//! (and through it the CLI's `scenario` sweeps) and the `BENCH_*.json`
//! files written by `decss_bench::benchjson` — goes through [`escape`],
//! and `benchjson`'s parser is built on [`string_field`] /
//! [`number_field`], so the dialect is defined in exactly one place.
//!
//! It also holds the one list of what the determinism contract ignores,
//! [`NONDETERMINISTIC_FIELDS`], and [`strip_nondeterministic`].
//!
//! [`SolveReport::to_json`]: crate::SolveReport::to_json

/// Escapes a string for embedding in a JSON string literal.
///
/// Only `\` and `"` need escaping for the strings the workspace emits
/// (ids, env echoes, algorithm names); control characters are the
/// caller's responsibility to avoid (the bench host header flattens
/// them).
pub fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Extracts the string value of `"key": "value"` from a JSON-ish line,
/// undoing [`escape`].
pub fn string_field(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\": \"");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let mut out = String::new();
    let mut chars = rest.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => return Some(out),
            '\\' => out.push(chars.next()?),
            _ => out.push(c),
        }
    }
    None
}

/// Extracts the numeric value of `"key": 123.4` from a JSON-ish line.
pub fn number_field(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\": ");
    let start = line.find(&pat)? + pat.len();
    let rest: String = line[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-' || *c == 'e' || *c == '+')
        .collect();
    rest.parse().ok()
}

/// Extracts the items of `"key": ["a", "b", ...]` from a JSON-ish
/// line, undoing [`escape`] per item. `Some(vec![])` for an empty
/// array; `None` when the key is absent or the array is malformed
/// (unterminated, or holding non-string items).
pub fn string_array_field(line: &str, key: &str) -> Option<Vec<String>> {
    let pat = format!("\"{key}\": [");
    let start = line.find(&pat)? + pat.len();
    let mut chars = line[start..].chars();
    let mut out = Vec::new();
    loop {
        let c = loop {
            match chars.next()? {
                c if c.is_whitespace() || c == ',' => continue,
                c => break c,
            }
        };
        match c {
            ']' => return Some(out),
            '"' => {
                let mut item = String::new();
                loop {
                    match chars.next()? {
                        '"' => break,
                        '\\' => item.push(chars.next()?),
                        ch => item.push(ch),
                    }
                }
                out.push(item);
            }
            _ => return None,
        }
    }
}

/// The fields a rerun of the same job may render differently: the wall
/// clock, and whether the service answered from its cache. Every report
/// row is otherwise byte-identical across worker counts, cache hits,
/// snapshot restores, trace replays and HTTP.
pub const NONDETERMINISTIC_FIELDS: &[&str] = &["wall_ms", "cache_hit"];

/// Removes every [`NONDETERMINISTIC_FIELDS`] `"key": value` pair from
/// `text` (one row or a whole multi-line document), with one adjacent
/// `, `: the one before the pair, else the one after it. Pairs are found
/// by key wherever they sit, the text of string values and other keys
/// is never matched, and every other byte is kept. Values are the
/// scalars the renderers emit (`{:.3}` floats, bools): each runs to the
/// next `,`, `}`, `]` or line end.
pub fn strip_nondeterministic(text: &str) -> String {
    let bytes = text.as_bytes();
    let mut out = String::with_capacity(text.len());
    let (mut kept, mut i) = (0, 0);
    while let Some(open) = text[i..].find('"').map(|at| i + at) {
        let mut close = open + 1;
        while close < bytes.len() && bytes[close] != b'"' {
            close += if bytes[close] == b'\\' { 2 } else { 1 };
        }
        let Some(rest) = text.get(close + 1..) else {
            break;
        };
        i = close + 1;
        if !(rest.starts_with(": ") && NONDETERMINISTIC_FIELDS.contains(&&text[open + 1..close])) {
            continue;
        }
        let end = i + 2 + rest[2..].find([',', '}', ']', '\n']).unwrap_or(rest.len() - 2);
        let before = text[kept..open].ends_with(", ");
        let after = !before && text[end..].starts_with(", ");
        out.push_str(&text[kept..if before { open - 2 } else { open }]);
        kept = if after { end + 2 } else { end };
        i = end;
    }
    out.push_str(&text[kept..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_round_trips_through_string_field() {
        let s = "weird\"id\\x";
        let line = format!("{{\"id\": \"{}\"}}", escape(s));
        assert_eq!(string_field(&line, "id").as_deref(), Some(s));
    }

    #[test]
    fn number_field_reads_floats_and_ints() {
        let line = "{\"a\": 12, \"b\": -3.5e2, \"c\": \"nope\"}";
        assert_eq!(number_field(line, "a"), Some(12.0));
        assert_eq!(number_field(line, "b"), Some(-350.0));
        assert_eq!(number_field(line, "c"), None);
        assert_eq!(number_field(line, "missing"), None);
    }

    #[test]
    fn string_array_field_reads_items_and_rejects_malformed_arrays() {
        let line = "{\"deltas\": [\"rw(3,9)\", \"del(5)\"], \"empty\": [], \"n\": 4}";
        assert_eq!(
            string_array_field(line, "deltas"),
            Some(vec!["rw(3,9)".to_string(), "del(5)".to_string()])
        );
        assert_eq!(string_array_field(line, "empty"), Some(vec![]));
        assert_eq!(string_array_field(line, "missing"), None);
        assert_eq!(string_array_field("{\"a\": [\"x\"", "a"), None);
        assert_eq!(string_array_field("{\"a\": [3, 4]}", "a"), None);
    }

    #[test]
    fn strip_nondeterministic_handles_first_middle_and_tail() {
        // First, middle and last position, and both keys in one row.
        let want = r#"{"a": 1, "b": true}"#;
        for row in [
            r#"{"wall_ms": 3.250, "a": 1, "b": true}"#,
            r#"{"a": 1, "cache_hit": false, "b": true}"#,
            r#"{"a": 1, "b": true, "wall_ms": 3.250}"#,
            r#"{"cache_hit": true, "a": 1, "wall_ms": 0.125, "b": true}"#,
            r#"{"wall_ms": 0.125, "cache_hit": false, "a": 1, "b": true}"#,
        ] {
            assert_eq!(strip_nondeterministic(row), want, "{row}");
        }
        assert_eq!(
            strip_nondeterministic(r#"{"cache_hit": false, "wall_ms": 9.000}"#),
            "{}"
        );
        // Absent keys and prefixes of listed ones are kept, and so is a
        // listed name inside a string, be it a value or a longer key.
        for row in [want, r#"{"cache_hits": 1, "wall_ms_total": 2.000}"#, "", "not json"] {
            assert_eq!(strip_nondeterministic(row), row);
        }
        let quoted = r#"{"e": "bad \"wall_ms\": 1.000, \\", "x \"wall_ms": 2, "cache_hit": false}"#;
        let want = r#"{"e": "bad \"wall_ms\": 1.000, \\", "x \"wall_ms": 2}"#;
        assert_eq!(strip_nondeterministic(quoted), want);
    }

    #[test]
    fn strip_changes_only_the_rows_of_a_serve_document() {
        let doc = r#"{
  "service": {"cache_hits": 1, "latency": [{"mean_ms": 0.018}], "nproc": 2},
  "jobs": [
    {"job": 0, "cache_hit": false, "valid": true, "wall_ms": 0.037},
    {"job": 1, "cache_hit": true, "valid": true, "wall_ms": 0.002},
    {"job": 2, "error": "unknown algorithm \"mystery\""}
  ]
}
"#;
        let want = doc
            .replace(", \"cache_hit\": false", "")
            .replace(", \"cache_hit\": true", "")
            .replace(", \"wall_ms\": 0.037", "")
            .replace(", \"wall_ms\": 0.002", "");
        assert_eq!(strip_nondeterministic(doc), want);
    }
}
