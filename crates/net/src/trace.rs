//! Seeded, versioned, replayable workload traces.
//!
//! A trace is a line-oriented file: one header object on the first
//! line, then one timestamped job object per line — the exact
//! [`crate::jobs`] dialect plus two trace-only keys (`"at_ms"`, the
//! arrival offset, and `"cancel"`, a pre-submission cancellation):
//!
//! ```text
//! {"trace_version": 1, "seed": 7, "profile": "mixed", "arrival": "poisson", "jobs": 40}
//! {"at_ms": 0, "algorithm": "improved", "family": "powerlaw", "n": 64, "seed": 3}
//! {"at_ms": 12, "algorithm": "greedy", "family": "grid", "n": 36, "seed": 5, "cancel": true}
//! ```
//!
//! [`generate`] writes such a file from a seed (Poisson or bursty
//! arrivals mixing algorithms, families, duplicate storms, delta
//! batches, deadline pressure, cancellations, and edge-failure storms);
//! [`replay`] runs one through a local [`SolveService`] and reports
//! per-job rows plus a tail-latency summary, and [`replay_remote`]
//! drives a running `decss serve --listen` front end instead.
//! Replaying the same trace twice yields byte-identical job rows modulo
//! [`NONDETERMINISTIC_FIELDS`](decss_solver::json::NONDETERMINISTIC_FIELDS)
//! — the chaotic ingredients are encoded so their *outcome* is
//! deterministic (cancels are flagged before submission, deadline
//! pressure is `deadline_ms: 0`, deltas only reweight/insert).

use crate::client::Client;
use crate::jobs::{self, FileAccess, JobSpec};
use decss_graphs::Graph;
use decss_service::{EventKind, ServiceConfig, SolveService};
use decss_solver::json::{escape, number_field, string_field};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

/// The trace format version this build writes and accepts.
pub const TRACE_VERSION: u64 = 1;

/// The parsed first line of a trace file.
#[derive(Clone, Debug)]
pub struct TraceHeader {
    /// Format version (currently always [`TRACE_VERSION`]).
    pub version: u64,
    /// The generator seed (echo; replay does not reseed anything).
    pub seed: u64,
    /// The generator profile label.
    pub profile: String,
    /// Arrival process label (`"poisson"` or `"bursty"`).
    pub arrival: String,
}

/// One timestamped job of a trace.
#[derive(Debug)]
pub struct TraceEvent {
    /// Arrival offset from the start of the trace.
    pub at_ms: u64,
    /// Cancel the job before it is submitted (it must come back
    /// `Cancelled` — deterministically, since the service checks the
    /// flag before anything else).
    pub cancel: bool,
    /// The raw job line (forwardable verbatim to a backend — the
    /// trace-only keys are ignored by the jobs parser).
    pub line: String,
    /// The parsed job.
    pub spec: JobSpec,
}

/// A parsed trace: header plus events in arrival order.
#[derive(Debug)]
pub struct Trace {
    /// The first line.
    pub header: TraceHeader,
    /// The job events, `at_ms` non-decreasing.
    pub events: Vec<TraceEvent>,
}

/// Parses a trace file. The header must be the first non-blank line;
/// job lines follow the [`crate::jobs`] dialect and must carry
/// non-decreasing `"at_ms"` stamps.
pub fn parse(text: &str, files: FileAccess) -> Result<Trace, String> {
    let mut lines = text.lines().enumerate();
    let header = loop {
        let Some((idx, line)) = lines.next() else {
            return Err("empty trace file (expected a header line)".into());
        };
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if !line.contains("\"trace_version\"") {
            return Err(format!(
                "trace line {}: the first line must be a header with \"trace_version\"",
                idx + 1
            ));
        }
        let version = number_field(line, "trace_version")
            .ok_or_else(|| format!("trace line {}: malformed \"trace_version\"", idx + 1))?
            as u64;
        if version != TRACE_VERSION {
            return Err(format!(
                "trace version {version} not supported (this build speaks version {TRACE_VERSION})"
            ));
        }
        break TraceHeader {
            version,
            seed: number_field(line, "seed").map_or(0, |s| s as u64),
            profile: string_field(line, "profile").unwrap_or_else(|| "unknown".into()),
            arrival: string_field(line, "arrival").unwrap_or_else(|| "unknown".into()),
        };
    };
    let mut events = Vec::new();
    let mut graphs: HashMap<String, Arc<Graph>> = HashMap::new();
    let mut last_at = 0u64;
    for (idx, line) in lines {
        let line = line.trim();
        let at = |msg: String| format!("trace line {}: {msg}", idx + 1);
        if line.is_empty() {
            continue;
        }
        if !line.contains("\"algorithm\"") {
            return Err(at("trace job lacks an \"algorithm\" field".into()));
        }
        let at_ms = number_field(line, "at_ms")
            .ok_or_else(|| at("trace job needs an \"at_ms\" arrival stamp".into()))?
            as u64;
        if at_ms < last_at {
            return Err(at(format!("\"at_ms\" went backwards ({at_ms} after {last_at})")));
        }
        last_at = at_ms;
        let cancel = line.contains("\"cancel\": true");
        let spec = jobs::parse_job_line(line, files, &mut graphs).map_err(at)?;
        events.push(TraceEvent { at_ms, cancel, line: line.to_string(), spec });
    }
    if events.is_empty() {
        return Err("trace has a header but no job events".into());
    }
    Ok(Trace { header, events })
}

/// Arrival process of a generated trace.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Arrival {
    /// Independent exponential inter-arrival gaps.
    Poisson,
    /// On/off: tight bursts separated by long idle gaps.
    Bursty,
}

impl Arrival {
    /// The header label.
    pub fn label(self) -> &'static str {
        match self {
            Arrival::Poisson => "poisson",
            Arrival::Bursty => "bursty",
        }
    }

    /// Parses a `--arrival` flag value.
    pub fn from_label(label: &str) -> Result<Self, String> {
        match label {
            "poisson" => Ok(Arrival::Poisson),
            "bursty" => Ok(Arrival::Bursty),
            other => Err(format!("unknown arrival process {other:?} (poisson or bursty)")),
        }
    }
}

/// Knobs of the trace generator.
#[derive(Clone, Debug)]
pub struct GenConfig {
    /// Master seed: same seed, same trace, byte for byte.
    pub seed: u64,
    /// Number of job events.
    pub jobs: usize,
    /// Arrival process.
    pub arrival: Arrival,
    /// Mean inter-arrival gap (Poisson) or inter-burst gap (bursty).
    pub mean_gap_ms: u64,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            seed: 0,
            jobs: 40,
            arrival: Arrival::Poisson,
            mean_gap_ms: 10,
        }
    }
}

/// The family pool the generator mixes: a classic slice of the sweep
/// grid plus the atlas families, each at a size that keeps replay fast.
const FAMILY_POOL: &[(&str, usize)] = &[
    ("grid", 36),
    ("sparse-random", 48),
    ("hard-sqrt", 49),
    ("tree-chords", 40),
    ("powerlaw", 64),
    ("roadmesh", 81),
    ("expander", 64),
    ("nearclique", 64),
    ("adversarial", 96),
];

/// The algorithms the generator mixes (all registry names).
const ALGORITHM_POOL: &[&str] = &["improved", "basic", "shortcut", "greedy", "unweighted"];

/// Generates a seeded trace: same [`GenConfig`], same bytes. The mix
/// covers algorithms, families (classic + atlas), duplicate storms
/// (repeated identical specs — cache-hit pressure), delta batches
/// (reweights/inserts only, so the instance stays 2-edge-connected),
/// deadline pressure (`deadline_ms: 0`, a deterministic queue expiry),
/// cancellations (`"cancel": true`, flagged before submission), and
/// edge-failure storms (`fail_edges`).
pub fn generate(cfg: &GenConfig) -> String {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut out = format!(
        "{{\"trace_version\": {TRACE_VERSION}, \"seed\": {}, \"profile\": \"mixed\", \
         \"arrival\": \"{}\", \"jobs\": {}}}\n",
        cfg.seed,
        cfg.arrival.label(),
        cfg.jobs,
    );
    let mut at_ms = 0u64;
    let mut burst_left = 0usize;
    let mut emitted = 0usize;
    let mut previous: Option<String> = None;
    let mut storm_left = 0usize;
    while emitted < cfg.jobs {
        // Arrival stamp.
        match cfg.arrival {
            Arrival::Poisson => {
                let u = 1.0 - rng.gen::<f64>(); // (0, 1]
                at_ms += (-(cfg.mean_gap_ms as f64) * u.ln()).round() as u64;
            }
            Arrival::Bursty => {
                if burst_left == 0 {
                    burst_left = rng.gen_range(4..=12);
                    let u = 1.0 - rng.gen::<f64>();
                    at_ms += (-(8.0 * cfg.mean_gap_ms as f64) * u.ln()).round() as u64;
                }
                burst_left -= 1; // jobs inside a burst share the stamp
            }
        }
        // Duplicate storm: repeat the previous body verbatim (same
        // instance and request — pure cache pressure) at new stamps.
        if storm_left > 0 {
            if let Some(body) = &previous {
                out.push_str(&format!("{{\"at_ms\": {at_ms}, {body}}}\n"));
                storm_left -= 1;
                emitted += 1;
                continue;
            }
        }
        let (family, n) = FAMILY_POOL[rng.gen_range(0..FAMILY_POOL.len())];
        let algorithm = ALGORITHM_POOL[rng.gen_range(0..ALGORITHM_POOL.len())];
        let seed = rng.gen_range(0..5u64);
        let mut body = format!(
            "\"algorithm\": \"{algorithm}\", \"family\": \"{family}\", \"n\": {n}, \
             \"seed\": {seed}"
        );
        let roll: f64 = rng.gen();
        if roll < 0.10 {
            // Deadline pressure: an already-expired budget is the one
            // deadline whose outcome does not race the workers.
            body.push_str(", \"deadline_ms\": 0");
        } else if roll < 0.25 {
            // Edge-failure storm (seeded inside the solver).
            body.push_str(&format!(", \"fail_edges\": {}", rng.gen_range(1..=3u32)));
        } else if roll < 0.45 {
            // Delta batch: reweights and inserts only — ids below n are
            // always valid (m >= n in a 2-edge-connected graph) and the
            // instance stays 2-edge-connected.
            let deltas: Vec<String> = (0..rng.gen_range(1..=3usize))
                .map(|_| {
                    if rng.gen_bool(0.5) {
                        format!("rw({},{})", rng.gen_range(0..n), rng.gen_range(1..=64u64))
                    } else {
                        let u = rng.gen_range(0..n);
                        let v = (u + rng.gen_range(1..n)) % n;
                        format!("ins({u},{v},{})", rng.gen_range(1..=64u64))
                    }
                })
                .collect();
            body.push_str(&format!(
                ", \"deltas\": [{}]",
                deltas
                    .iter()
                    .map(|d| format!("\"{d}\""))
                    .collect::<Vec<_>>()
                    .join(", ")
            ));
        }
        let mut line = format!("{{\"at_ms\": {at_ms}, {body}");
        if (0.45..0.53).contains(&roll) {
            // Cancellation: flagged in the trace, applied pre-submit.
            line.push_str(", \"cancel\": true");
        }
        line.push('}');
        out.push_str(&line);
        out.push('\n');
        emitted += 1;
        // Kick off a duplicate storm now and then.
        if roll >= 0.90 {
            storm_left = rng.gen_range(2..=4);
        }
        previous = Some(body);
    }
    out
}

/// Knobs of the local replayer.
#[derive(Clone, Debug)]
pub struct ReplayConfig {
    /// Solve-pool workers.
    pub workers: usize,
    /// Queue bound (submission blocks at the bound; nothing is shed).
    pub queue_cap: usize,
    /// Instance-cache capacity.
    pub cache_cap: usize,
    /// Honor `at_ms` pacing (sleep between arrivals). Off by default:
    /// determinism tests and CI replay as fast as possible.
    pub pace: bool,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        ReplayConfig { workers: 3, queue_cap: 16, cache_cap: 64, pace: false }
    }
}

/// What a replay produced.
#[derive(Debug)]
pub struct ReplayOutcome {
    /// The full report document (replay header, service stats, rows).
    pub document: String,
    /// The drain audit (local replay only; `None` for remote).
    pub audit: Option<Result<usize, String>>,
    /// Jobs that came back with an error row — deliberate trace
    /// failures (cancels, expiries, failure storms) land here, so a
    /// nonzero count is data, not an infrastructure problem.
    pub failed: u64,
    /// Total job events replayed.
    pub jobs: usize,
}

/// Percentile (nearest-rank) over a sample of microseconds sorted
/// ascending, in milliseconds.
fn percentile_ms(sorted_us: &[u64], p: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let rank = ((p * sorted_us.len() as f64).ceil() as usize).clamp(1, sorted_us.len());
    sorted_us[rank - 1] as f64 / 1000.0
}

/// Renders the `"replay"` header object of a report document.
fn replay_header(trace: &Trace, paced: bool, latencies_us: &mut [u64]) -> String {
    latencies_us.sort_unstable();
    format!(
        "\"trace_version\": {}, \"trace_seed\": {}, \"profile\": \"{}\", \"arrival\": \"{}\", \
         \"events\": {}, \"paced\": {paced}, \"tail_ms\": {{\"p50\": {:.3}, \"p95\": {:.3}, \
         \"p99\": {:.3}, \"max\": {:.3}}}",
        trace.header.version,
        trace.header.seed,
        escape(&trace.header.profile),
        escape(&trace.header.arrival),
        trace.events.len(),
        percentile_ms(latencies_us, 0.50),
        percentile_ms(latencies_us, 0.95),
        percentile_ms(latencies_us, 0.99),
        percentile_ms(latencies_us, 1.0),
    )
}

/// Replays a trace through a fresh local [`SolveService`]: submits
/// every event in arrival order (optionally paced by `at_ms`), joins
/// them all, drains, and renders a report document with a `"replay"`
/// header (including the tail-latency summary derived from the service
/// log), the final `"service"` stats, and one `"jobs"` row per event.
///
/// Determinism contract: same trace file + same config ⇒ byte-identical
/// job rows modulo `NONDETERMINISTIC_FIELDS`, and a balanced audit.
pub fn replay(text: &str, files: FileAccess, cfg: &ReplayConfig) -> Result<ReplayOutcome, String> {
    let trace = parse(text, files)?;
    let service = SolveService::new(
        ServiceConfig::default()
            .workers(cfg.workers.max(1))
            .queue_capacity(cfg.queue_cap.max(1))
            .cache_capacity(cfg.cache_cap),
    );
    let started = std::time::Instant::now();
    let mut ids = Vec::with_capacity(trace.events.len());
    for event in &trace.events {
        if cfg.pace {
            let due = Duration::from_millis(event.at_ms);
            let elapsed = started.elapsed();
            if due > elapsed {
                std::thread::sleep(due - elapsed);
            }
        }
        let mut req = event.spec.req.clone();
        if event.cancel {
            req = req.cancel_flag(Arc::new(AtomicBool::new(true)));
        }
        ids.push(service.submit(Arc::clone(&event.spec.graph), req));
    }
    let results = service.join_all(&ids);
    // Per-job serving latency from the accountability log: the span
    // between the Submitted and Finished events.
    let mut submitted_us: HashMap<u64, u64> = HashMap::new();
    let mut latencies_us: Vec<u64> = Vec::new();
    for event in service.log().snapshot() {
        match event.kind {
            EventKind::Submitted => {
                submitted_us.insert(event.job.0, event.at_us);
            }
            EventKind::Finished { .. } => {
                if let Some(start) = submitted_us.get(&event.job.0) {
                    latencies_us.push(event.at_us.saturating_sub(*start));
                }
            }
            EventKind::Started { .. } => {}
        }
    }
    let failed = results.iter().filter(|r| r.is_err()).count() as u64;
    let rows: Vec<String> = trace
        .events
        .iter()
        .zip(&results)
        .enumerate()
        .map(|(index, (event, result))| jobs::job_row(index, &event.spec, result))
        .collect();
    let stats = service.stats();
    let summary = service.drain();
    let document = format!(
        "{{\n  \"replay\": {{{}}},\n  \"service\": {{{}}},\n  \"jobs\": [\n{}\n  ]\n}}\n",
        replay_header(&trace, cfg.pace, &mut latencies_us),
        stats.json_fields(),
        rows.join(",\n"),
    );
    Ok(ReplayOutcome {
        document,
        audit: Some(summary.audit),
        failed,
        jobs: trace.events.len(),
    })
}

/// Replays a trace against a running front end (`decss serve
/// --listen`): every event line is posted verbatim as a single-job
/// `POST /solve` (the trace-only keys are ignored by the server's
/// parser), in arrival order. Cancellation events cannot be
/// flagged remotely, so they are sent with their flag stripped — the
/// remote replay measures serving, not cancellation plumbing.
pub fn replay_remote(
    text: &str,
    target: &str,
    cfg: &ReplayConfig,
) -> Result<ReplayOutcome, String> {
    let trace = parse(text, FileAccess::Denied)?;
    let addr = target
        .parse()
        .map_err(|e| format!("target address {target:?}: {e}"))?;
    let client = Client::new(addr).with_client_id("decss-trace-replay");
    let started = std::time::Instant::now();
    let mut rows = Vec::with_capacity(trace.events.len());
    let mut failed = 0u64;
    let mut latencies_us: Vec<u64> = Vec::new();
    for (index, event) in trace.events.iter().enumerate() {
        if cfg.pace {
            let due = Duration::from_millis(event.at_ms);
            let elapsed = started.elapsed();
            if due > elapsed {
                std::thread::sleep(due - elapsed);
            }
        }
        let sent = std::time::Instant::now();
        let row = match client.post("/solve", &format!("[\n{}\n]", event.line)) {
            Ok(resp) => {
                let answer = resp.text();
                let row = answer.trim().to_string();
                if resp.status != 200 || row.contains("\"error\"") {
                    failed += 1;
                }
                format!(
                    "    {}",
                    row.replacen("\"job\": 0,", &format!("\"job\": {index},"), 1)
                )
            }
            Err(e) => {
                failed += 1;
                format!("    {{\"job\": {index}, \"error\": \"{}\"}}", escape(&e))
            }
        };
        latencies_us.push(sent.elapsed().as_micros() as u64);
        rows.push(row);
    }
    let document = format!(
        "{{\n  \"replay\": {{{}, \"target\": \"{}\"}},\n  \"jobs\": [\n{}\n  ]\n}}\n",
        replay_header(&trace, cfg.pace, &mut latencies_us),
        escape(target),
        rows.join(",\n"),
    );
    Ok(ReplayOutcome { document, audit: None, failed, jobs: trace.events.len() })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_parses() {
        let cfg = GenConfig { seed: 11, jobs: 30, ..GenConfig::default() };
        let a = generate(&cfg);
        let b = generate(&cfg);
        assert_eq!(a, b, "same seed, same bytes");
        let trace = parse(&a, FileAccess::Denied).expect("generated trace parses");
        assert_eq!(trace.events.len(), 30);
        assert_eq!(trace.header.seed, 11);
        assert_eq!(trace.header.arrival, "poisson");
        // Arrival stamps are non-decreasing by construction.
        for pair in trace.events.windows(2) {
            assert!(pair[0].at_ms <= pair[1].at_ms);
        }
    }

    #[test]
    fn bursty_traces_share_stamps_inside_a_burst() {
        let cfg = GenConfig {
            seed: 3,
            jobs: 40,
            arrival: Arrival::Bursty,
            ..GenConfig::default()
        };
        let trace = parse(&generate(&cfg), FileAccess::Denied).expect("parses");
        let repeats = trace
            .events
            .windows(2)
            .filter(|pair| pair[0].at_ms == pair[1].at_ms)
            .count();
        assert!(repeats >= 10, "bursts must stack arrivals: {repeats} shared stamps");
    }

    #[test]
    fn parser_rejects_bad_traces() {
        assert!(parse("", FileAccess::Denied).is_err());
        let headerless =
            "{\"at_ms\": 0, \"algorithm\": \"greedy\", \"family\": \"grid\", \"n\": 16}\n";
        assert!(parse(headerless, FileAccess::Denied).is_err_and(|e| e.contains("trace_version")));
        let future = format!("{{\"trace_version\": {}}}\n", TRACE_VERSION + 1);
        assert!(parse(&future, FileAccess::Denied).is_err_and(|e| e.contains("not supported")));
        let unstamped = format!(
            "{{\"trace_version\": {TRACE_VERSION}}}\n\
             {{\"algorithm\": \"greedy\", \"family\": \"grid\", \"n\": 16}}\n"
        );
        assert!(parse(&unstamped, FileAccess::Denied).is_err_and(|e| e.contains("at_ms")));
        let backwards = format!(
            "{{\"trace_version\": {TRACE_VERSION}}}\n\
             {{\"at_ms\": 5, \"algorithm\": \"greedy\", \"family\": \"grid\", \"n\": 16}}\n\
             {{\"at_ms\": 1, \"algorithm\": \"greedy\", \"family\": \"grid\", \"n\": 16}}\n"
        );
        assert!(parse(&backwards, FileAccess::Denied).is_err_and(|e| e.contains("backwards")));
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let sorted = [1_000, 2_000, 3_000, 4_000];
        assert_eq!(percentile_ms(&sorted, 0.50), 2.0);
        assert_eq!(percentile_ms(&sorted, 1.0), 4.0);
        assert_eq!(percentile_ms(&[], 0.5), 0.0);
    }
}
