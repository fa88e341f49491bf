//! Machine-readable bench results: writing the `BENCH_*.json` files the
//! criterion harnesses dump, parsing them back, and comparing a fresh
//! run against a committed baseline (the perf regression gate).
//!
//! The JSON format is the fixed shape the harnesses emit — one object
//! with a `suite` name and a flat `benches` array of
//! `{id, mean_ns, min_ns, max_ns, iters}` — so the parser here is a
//! purpose-built scanner, not a general JSON reader (the workspace is
//! offline and vendors no serde).

use criterion::Measurement;
// One JSON dialect for the whole workspace: the escape/scan helpers
// live in `decss_solver::json` (shared with `SolveReport::to_json` and
// the scenario sweeps).
use decss_solver::json::{escape, number_field, string_field};
use std::fmt::Write as _;

/// One parsed benchmark entry.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchEntry {
    /// The `group/name/param` label.
    pub id: String,
    /// Mean nanoseconds per iteration.
    pub mean_ns: f64,
}

/// Host metadata recorded in a bench header: wall-clock baselines are
/// only comparable between runs on similar machines, and the PR 2
/// cross-machine caveat showed that a silent core-count mismatch makes
/// gate comparisons meaningless. Older committed baselines predate the
/// header and parse with `host: None`.
#[derive(Clone, Debug, PartialEq)]
pub struct HostMeta {
    /// Available parallelism at record time (`nproc`).
    pub nproc: u32,
    /// Space-joined `KEY=VALUE` list of the `DECSS_*` run conditions
    /// active during the run (sampling time, gate knobs, ...; not the
    /// `DECSS_BENCH_JSON` output path), sorted by key; empty when none
    /// were set.
    pub decss_env: String,
}

impl HostMeta {
    /// Captures the current host: core count plus the `DECSS_*` run
    /// conditions in effect.
    pub fn current() -> Self {
        let nproc = std::thread::available_parallelism().map_or(1, |p| p.get() as u32);
        HostMeta { nproc, decss_env: Self::run_conditions(std::env::vars()) }
    }

    /// Renders the `decss_env` header from environment `(key, value)`
    /// pairs: every `DECSS_*` variable except `DECSS_BENCH_JSON`, which
    /// says where the file goes, not how the run went.
    fn run_conditions(vars: impl IntoIterator<Item = (String, String)>) -> String {
        let mut conditions: Vec<String> = vars
            .into_iter()
            .filter(|(k, _)| k.starts_with("DECSS_") && k != "DECSS_BENCH_JSON")
            // Control characters (a newline in an env value) would break
            // the line-oriented JSON shape; the header is informational,
            // so flatten them to spaces.
            .map(|(k, v)| format!("{k}={}", v.replace(|c: char| c.is_control(), " ")))
            .collect();
        conditions.sort();
        conditions.join(" ")
    }
}

/// A parsed `BENCH_*.json` file.
#[derive(Clone, Debug, Default)]
pub struct BenchFile {
    /// Suite name (e.g. `graph_core`).
    pub suite: String,
    /// Host metadata, when the file was recorded with it.
    pub host: Option<HostMeta>,
    /// All entries, in file order.
    pub benches: Vec<BenchEntry>,
}

impl BenchFile {
    /// Looks up an entry's mean by id.
    pub fn mean_ns(&self, id: &str) -> Option<f64> {
        self.benches.iter().find(|b| b.id == id).map(|b| b.mean_ns)
    }
}

/// Renders measurements in the canonical `BENCH_*.json` shape, stamped
/// with the current host's metadata.
pub fn render(suite: &str, measurements: &[Measurement]) -> String {
    render_with_host(suite, measurements, &HostMeta::current())
}

/// [`render`] with an explicit host header (tests pin it).
pub fn render_with_host(suite: &str, measurements: &[Measurement], host: &HostMeta) -> String {
    let mut out = format!(
        "{{\n  \"suite\": \"{}\",\n  \"unit\": \"ns_per_iter\",\n  \"host\": {{\"nproc\": {}, \"decss_env\": \"{}\"}},\n  \"benches\": [\n",
        escape(suite),
        host.nproc,
        escape(&host.decss_env)
    );
    for (i, m) in measurements.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"id\": \"{}\", \"mean_ns\": {:.1}, \"min_ns\": {:.1}, \"max_ns\": {:.1}, \"iters\": {}}}{}",
            escape(&m.id),
            m.mean_ns,
            m.min_ns,
            m.max_ns,
            m.iters,
            if i + 1 == measurements.len() { "" } else { "," },
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// Writes measurements to `path` in the canonical shape.
///
/// # Panics
///
/// Panics if the file cannot be written (benches treat that as fatal).
pub fn dump(suite: &str, measurements: &[Measurement], path: &str) {
    std::fs::write(path, render(suite, measurements)).expect("writing bench JSON");
    println!("wrote {} measurements to {path}", measurements.len());
}

/// Parses a `BENCH_*.json` file produced by [`dump`].
///
/// # Errors
///
/// Returns a message naming the first malformed entry line.
pub fn parse(text: &str) -> Result<BenchFile, String> {
    let mut file = BenchFile::default();
    for line in text.lines() {
        if file.suite.is_empty() {
            if let Some(s) = string_field(line, "suite") {
                file.suite = s;
                continue;
            }
        }
        if file.host.is_none() && line.contains("\"host\"") {
            if let (Some(nproc), Some(decss_env)) =
                (number_field(line, "nproc"), string_field(line, "decss_env"))
            {
                file.host = Some(HostMeta { nproc: nproc as u32, decss_env });
                continue;
            }
        }
        if line.contains("\"id\"") {
            let id =
                string_field(line, "id").ok_or_else(|| format!("malformed bench entry: {line}"))?;
            let mean_ns =
                number_field(line, "mean_ns").ok_or_else(|| format!("entry {id} lacks mean_ns"))?;
            file.benches.push(BenchEntry { id, mean_ns });
        }
    }
    if file.benches.is_empty() {
        return Err("no bench entries found".into());
    }
    Ok(file)
}

/// The per-nproc sibling path of a baseline file: `BENCH_x.json` →
/// `BENCH_x.nproc<K>.json`. Wall-clock baselines form a *family* keyed
/// by core count — the canonical file is whatever host recorded it
/// last, and siblings pin other machine shapes so the gate can always
/// compare like with like (it never gates across differing `nproc`).
pub fn nproc_sibling(path: &str, nproc: u32) -> String {
    match path.strip_suffix(".json") {
        Some(stem) => format!("{stem}.nproc{nproc}.json"),
        None => format!("{path}.nproc{nproc}.json"),
    }
}

/// One gate finding: a bench that regressed or disappeared.
#[derive(Clone, Debug)]
pub struct Regression {
    /// The bench id.
    pub id: String,
    /// Baseline mean (ns).
    pub baseline_ns: f64,
    /// Fresh mean (ns); 0.0 when the bench vanished from the fresh run.
    pub fresh_ns: f64,
}

impl Regression {
    /// Slowdown factor (fresh / baseline), or infinity for a vanished id.
    pub fn ratio(&self) -> f64 {
        if self.fresh_ns == 0.0 {
            f64::INFINITY
        } else {
            self.fresh_ns / self.baseline_ns
        }
    }
}

/// Compares a fresh run against the committed baseline: every baseline
/// id must still exist and must not be more than `tolerance` slower
/// (0.20 = +20%). New ids in the fresh run are fine (additions).
pub fn compare(baseline: &BenchFile, fresh: &BenchFile, tolerance: f64) -> Vec<Regression> {
    let mut out = Vec::new();
    for b in &baseline.benches {
        match fresh.mean_ns(&b.id) {
            None => {
                out.push(Regression { id: b.id.clone(), baseline_ns: b.mean_ns, fresh_ns: 0.0 })
            }
            Some(f) if f > b.mean_ns * (1.0 + tolerance) => {
                out.push(Regression { id: b.id.clone(), baseline_ns: b.mean_ns, fresh_ns: f })
            }
            Some(_) => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meas(id: &str, mean: f64) -> Measurement {
        Measurement {
            id: id.into(),
            mean_ns: mean,
            min_ns: mean,
            max_ns: mean,
            iters: 1,
        }
    }

    #[test]
    fn round_trips() {
        let ms = [meas("a/1", 10.0), meas("b/2", 2000.5)];
        let text = render("demo", &ms);
        let parsed = parse(&text).unwrap();
        assert_eq!(parsed.suite, "demo");
        assert_eq!(parsed.benches.len(), 2);
        assert_eq!(parsed.mean_ns("a/1"), Some(10.0));
        assert_eq!(parsed.mean_ns("b/2"), Some(2000.5));
        assert_eq!(parsed.mean_ns("missing"), None);
        // render() stamps the current host.
        assert_eq!(parsed.host, Some(HostMeta::current()));
    }

    #[test]
    fn host_header_round_trips() {
        let host = HostMeta { nproc: 8, decss_env: "DECSS_BENCH_SAMPLE_MS=5".into() };
        let text = render_with_host("demo", &[meas("a", 1.0)], &host);
        let parsed = parse(&text).unwrap();
        assert_eq!(parsed.host, Some(host));
    }

    #[test]
    fn run_conditions_drop_the_output_path() {
        let vars = [
            ("DECSS_NOTE", "a\nb"),
            ("PATH", "/usr/bin"),
            ("DECSS_BENCH_JSON", "/tmp/fresh.json"),
            ("DECSS_BENCH_SAMPLE_MS", "5"),
        ]
        .map(|(k, v)| (k.to_string(), v.to_string()));
        assert_eq!(
            HostMeta::run_conditions(vars),
            "DECSS_BENCH_SAMPLE_MS=5 DECSS_NOTE=a b"
        );
    }

    #[test]
    fn files_without_host_header_parse_as_none() {
        // The shape of the pre-PR-3 committed baselines.
        let text = concat!(
            "{\n  \"suite\": \"s\",\n  \"unit\": \"ns_per_iter\",\n  \"benches\": [\n",
            "    {\"id\": \"a\", \"mean_ns\": 1.0, \"min_ns\": 1.0, \"max_ns\": 1.0, \"iters\": 1}\n  ]\n}\n"
        );
        let parsed = parse(text).unwrap();
        assert_eq!(parsed.host, None);
    }

    #[test]
    fn escaped_ids_round_trip() {
        let ms = [meas("weird\"id\\x", 5.0)];
        let parsed = parse(&render("s", &ms)).unwrap();
        assert_eq!(parsed.benches[0].id, "weird\"id\\x");
    }

    #[test]
    fn parses_the_committed_shape() {
        let text = concat!(
            "{\n  \"suite\": \"graph_core\",\n  \"unit\": \"ns_per_iter\",\n  \"benches\": [\n",
            "    {\"id\": \"graph_core/bfs/10000\", \"mean_ns\": 123456.7, \"min_ns\": 1.0, ",
            "\"max_ns\": 2.0, \"iters\": 40}\n  ]\n}\n"
        );
        let parsed = parse(text).unwrap();
        assert_eq!(parsed.suite, "graph_core");
        assert_eq!(parsed.mean_ns("graph_core/bfs/10000"), Some(123456.7));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("hello world").is_err());
        assert!(parse("{\"benches\": [{\"id\": \"x\"}]}").is_err());
    }

    #[test]
    fn nproc_sibling_rewrites_the_extension() {
        assert_eq!(
            nproc_sibling("BENCH_congest_rounds.json", 4),
            "BENCH_congest_rounds.nproc4.json"
        );
        assert_eq!(nproc_sibling("dir/BENCH_x.json", 16), "dir/BENCH_x.nproc16.json");
        // No .json suffix: append rather than corrupt.
        assert_eq!(nproc_sibling("weird", 2), "weird.nproc2.json");
    }

    #[test]
    fn gate_flags_regressions_and_vanished_ids() {
        let base =
            parse(&render("s", &[meas("a", 100.0), meas("b", 100.0), meas("c", 100.0)])).unwrap();
        let fresh = parse(&render(
            "s",
            &[meas("a", 115.0), meas("b", 125.0), meas("extra", 1.0)],
        ))
        .unwrap();
        let regs = compare(&base, &fresh, 0.20);
        let ids: Vec<&str> = regs.iter().map(|r| r.id.as_str()).collect();
        // a is within +20%; b regressed; c vanished.
        assert_eq!(ids, ["b", "c"]);
        assert!((regs[0].ratio() - 1.25).abs() < 1e-9);
        assert!(regs[1].ratio().is_infinite());
    }
}
