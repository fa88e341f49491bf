//! The `decss` command-line tool: run the paper's algorithms on a graph
//! file (see `decss_graphs::io` for the format) or on a generated
//! instance, and print the chosen subgraph plus diagnostics.
//!
//! ```text
//! decss solve      --input net.graph [--algorithm NAME] [--epsilon 0.25] [--seed S]
//!                  [--bandwidth B] [--fail-edges K] [--deadline-ms MS]
//!                  [--deltas "rw(3,9),del(5),ins(2,9,4)"] [--trace summary|full] [--json]
//! decss algorithms [--names]                                    # list the solver registry
//! decss gen        --family grid --n 100 --seed 7 [--max-weight 64]  # writes the format to stdout
//! decss verify     --input net.graph --edges 0,3,7,...          # check a 2-ECSS
//! decss simulate   --input net.graph --protocol bfs [--root 0] [--bursts 8]
//! decss scenario   --families grid,hard-sqrt --sizes 1000,10000 [--seeds 0,1] \
//!                  [--algorithms shortcut,improved] [--epsilon 0.25] [--max-weight 64] \
//!                  [--bandwidth B] [--fail-edges K] [--deadline-ms MS] [--trace LEVEL] \
//!                  [--workers K] [--cache-cap N] [--out runs.json]
//! decss serve      --jobs jobs.json [--workers K] [--cache-cap N] [--queue-cap N] \
//!                  [--out reports.json] [--keep-going] [--restore PATH] [--snapshot PATH]
//! decss trace gen  [--seed S] [--jobs N] [--arrival poisson|bursty] [--mean-gap-ms MS] \
//!                  [--out trace.jsonl]
//! decss trace replay --input trace.jsonl [--target ADDR] [--workers K] [--cache-cap N] \
//!                  [--queue-cap N] [--pace] [--out reports.json]
//! decss serve      --listen 127.0.0.1:8080 [--workers K] [--cache-cap N] [--queue-cap N] \
//!                  [--max-conns N] [--read-timeout-ms MS] [--write-timeout-ms MS] \
//!                  [--quota-rps R] [--quota-burst B] [--grace-ms MS] [--restore PATH] \
//!                  [--snapshot PATH] [--snapshot-interval-ms MS]
//! decss netstress  [--seed S] [--ops N] [--threads K] [--workers K] [--queue-cap N] [--faults]
//! ```
//!
//! Every algorithm subcommand routes through the unified
//! [`decss::solver`] API: `solve` resolves `--algorithm` in the solver
//! [`Registry`](decss::solver::Registry) (see `decss algorithms` for the
//! vocabulary), and all reports render through the one `SolveReport`
//! schema (text or `--json`). The batch subcommands — `serve`, which
//! reads a JSON array of job specs (or, with `--listen`, serves the same
//! dialect over HTTP until SIGTERM drains it), and `scenario`, which
//! expands a family × size × seed sweep grid — both run their jobs
//! through a [`SolveService`](decss::service::SolveService) worker pool,
//! so they get multi-worker dispatch, duplicate-job caching, queue-time
//! deadlines, and per-algorithm latency stats for free, and emit one
//! JSON document of reports plus service stats. `netstress` turns the
//! network tier's chaos harness on a self-hosted server and fails on any
//! contract violation.
//!
//! Each subcommand (and each `serve` mode) checks its arguments against
//! the flags it reads before doing any work: an unknown flag, a stray
//! argument or a flag missing its value is a usage error. Only a usage
//! error is followed by the usage text; a data or solver failure (an
//! unreadable or malformed file, an invalid `--deltas` entry, a solve
//! error) prints `error: …` alone.
//!
//! Exit codes: `0` — success (or partial failure under `--keep-going`);
//! `2` — the batch completed but some jobs failed (the document still
//! covers the whole batch); `1` — infrastructure error (bad flags,
//! unreadable files, a failed drain audit, chaos violations).

use decss::congest::protocols::{bfs, boruvka, flood, leader};
use decss::congest::SimReport;
use decss::graphs::{algo, io, EdgeId, Graph, VertexId};
use decss::net::jobs::{self, FileAccess};
use decss::net::trace::{self, Arrival, GenConfig, ReplayConfig};
use decss::net::{signal, stress, NetConfig, NetServer, QuotaConfig, StressConfig};
use decss::service::{ServiceConfig, SolveService};
use decss::solver::{SolveReport, SolveRequest, SolverSession, TraceLevel};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(Failure::Data(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::from(1)
        }
        Err(Failure::Usage(msg)) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("usage:");
            eprintln!("  decss solve      --input FILE [--algorithm NAME] [--epsilon E] [--seed S] [--bandwidth B] [--fail-edges K] [--deadline-ms MS] [--deltas LIST] [--trace summary|full] [--json]");
            eprintln!("  decss algorithms [--names]");
            eprintln!("  decss gen        --family NAME --n N [--seed S] [--max-weight W]");
            eprintln!("  decss verify     --input FILE --edges ID[,ID...]");
            eprintln!("  decss simulate   --input FILE --protocol flood|bfs|leader|mst [--root R] [--bursts B]");
            eprintln!("  decss scenario   --families F[,F...] --sizes N[,N...] [--seeds S[,S...]] [--algorithms NAME[,...]] [--epsilon E] [--max-weight W] [--bandwidth B] [--fail-edges K] [--deadline-ms MS] [--trace summary|full] [--workers K] [--cache-cap N] [--out FILE]");
            eprintln!("  decss serve      --jobs FILE.json [--workers K] [--cache-cap N] [--queue-cap N] [--out FILE] [--keep-going] [--restore PATH] [--snapshot PATH]");
            eprintln!("  decss trace      gen [--seed S] [--jobs N] [--arrival poisson|bursty] [--mean-gap-ms MS] [--out FILE]");
            eprintln!("  decss trace      replay --input FILE.jsonl [--target ADDR] [--workers K] [--cache-cap N] [--queue-cap N] [--pace] [--out FILE]");
            eprintln!("  decss serve      --listen ADDR [--workers K] [--cache-cap N] [--queue-cap N] [--max-conns N] [--read-timeout-ms MS] [--write-timeout-ms MS] [--quota-rps R] [--quota-burst B] [--grace-ms MS] [--restore PATH] [--snapshot PATH] [--snapshot-interval-ms MS]");
            eprintln!("  decss netstress  [--seed S] [--ops N] [--threads K] [--workers K] [--queue-cap N] [--faults]");
            eprintln!();
            eprintln!("run `decss algorithms` for the solver registry NAMEs.");
            eprintln!("exit codes: 0 ok, 2 some jobs failed, 1 infrastructure error.");
            ExitCode::from(1)
        }
    }
}

/// Why a subcommand failed.
enum Failure {
    /// A command-line mistake: no or an unknown subcommand, an unknown
    /// flag, a flag missing its value, with a value it cannot take or
    /// without the flag it depends on, or a missing required flag.
    Usage(String),
    /// Anything else: an unreadable or malformed file, an invalid
    /// `--deltas` entry, a solver error, a failed audit.
    Data(String),
}

impl From<String> for Failure {
    fn from(msg: String) -> Self {
        Failure::Data(msg)
    }
}

fn usage(msg: impl Into<String>) -> Failure {
    Failure::Usage(msg.into())
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(|s| s.as_str())
}

fn parse_flag<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, Failure> {
    match flag(args, name) {
        None => Ok(default),
        Some(s) => s.parse().map_err(|_| usage(format!("bad {name} {s}"))),
    }
}

/// The value of a flag the subcommand cannot run without.
fn required<'a>(args: &'a [String], name: &str, missing: &str) -> Result<&'a str, Failure> {
    flag(args, name).ok_or_else(|| usage(missing))
}

/// Rejects any argument outside the flags a subcommand reads, given as
/// whitespace-separated lists: each `valued` flag takes the next
/// argument as its value, each of `switches` stands alone. Subcommands
/// call this before doing any work, so a misspelt flag fails instead of
/// being ignored.
fn check_flags(cmd: &str, args: &[String], valued: &str, switches: &str) -> Result<(), Failure> {
    let listed = |list: &str, arg: &str| list.split_whitespace().any(|f| f == arg);
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        if listed(valued, arg) {
            if rest.next().is_none() {
                return Err(usage(format!("decss {cmd}: {arg} needs a value")));
            }
        } else if !listed(switches, arg) {
            return Err(usage(format!("decss {cmd}: unknown argument {arg}")));
        }
    }
    Ok(())
}

fn load(args: &[String]) -> Result<Graph, Failure> {
    let path = required(args, "--input", "--input FILE is required")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    io::parse_graph(&text).map_err(|e| format!("parsing {path}: {e}").into())
}

fn run(args: &[String]) -> Result<ExitCode, Failure> {
    match args.first().map(|s| s.as_str()) {
        Some("solve") => solve(&args[1..]),
        Some("algorithms") => algorithms(&args[1..]),
        Some("gen") => generate(&args[1..]),
        Some("verify") => verify(&args[1..]),
        Some("simulate") => simulate(&args[1..]),
        Some("scenario") => scenario(&args[1..]),
        Some("serve") => serve(&args[1..]),
        Some("trace") => trace_cmd(&args[1..]),
        Some("netstress") => netstress(&args[1..]),
        _ => Err(usage(
            "expected a subcommand: solve | algorithms | gen | verify | simulate | scenario | serve | trace | netstress",
        )),
    }
}

/// The request flags `solve` and `scenario` share. [`request_from_flags`]
/// also reads `--seed`, which only `solve` accepts: `scenario` overrides
/// the seed with each `--seeds` entry.
const REQUEST_FLAGS: &str = "--epsilon --bandwidth --fail-edges --deadline-ms --trace";

/// Builds a [`SolveRequest`] from the shared solver flags (`solve` and
/// `scenario` speak the same vocabulary; `scenario` then overrides the
/// seed per run).
fn request_from_flags(args: &[String], algorithm: &str) -> Result<SolveRequest, Failure> {
    let mut req = SolveRequest::new(algorithm)
        .epsilon(parse_flag(args, "--epsilon", 0.25)?)
        .bandwidth(parse_flag(args, "--bandwidth", 1u32)?)
        .fail_edges(parse_flag(args, "--fail-edges", 0u32)?);
    if let Some(seed) = flag(args, "--seed") {
        req = req.seed(seed.parse().map_err(|_| usage(format!("bad --seed {seed}")))?);
    }
    if let Some(ms) = flag(args, "--deadline-ms") {
        let ms: u64 = ms.parse().map_err(|_| usage(format!("bad --deadline-ms {ms}")))?;
        req = req.deadline(Duration::from_millis(ms));
    }
    req = req.trace(match flag(args, "--trace") {
        None | Some("silent") => TraceLevel::Silent,
        Some("summary") => TraceLevel::Summary,
        Some("full") => TraceLevel::Full,
        Some(other) => {
            return Err(usage(format!("bad --trace {other}; options: silent, summary, full")))
        }
    });
    Ok(req)
}

fn solve(args: &[String]) -> Result<ExitCode, Failure> {
    let valued = format!("{REQUEST_FLAGS} --input --algorithm --seed --deltas");
    check_flags("solve", args, &valued, "--json")?;
    let g = load(args)?;
    let algorithm = flag(args, "--algorithm").unwrap_or("improved");
    let mut req = request_from_flags(args, algorithm)?;
    if let Some(list) = flag(args, "--deltas") {
        req = req.deltas(jobs::parse_deltas(jobs::split_delta_list(list).into_iter())?);
    }
    let mut session = SolverSession::new();
    let report = session.solve(&g, &req).map_err(|e| e.to_string())?;
    if args.iter().any(|a| a == "--json") {
        println!("{}", report.to_json());
    } else {
        print!("{}", report.render_text());
    }
    Ok(ExitCode::SUCCESS)
}

/// Lists the solver registry: the stable `--algorithm` vocabulary.
/// `--names` prints bare names only (one per line; CI drives the
/// registry-wide smoke test with it).
fn algorithms(args: &[String]) -> Result<ExitCode, Failure> {
    check_flags("algorithms", args, "", "--names")?;
    let session = SolverSession::new();
    if args.iter().any(|a| a == "--names") {
        for name in session.registry().names() {
            println!("{name}");
        }
    } else {
        println!("registered algorithms (decss solve --algorithm NAME):");
        for solver in session.registry().solvers() {
            println!("  {:<16} {}", solver.name(), solver.description());
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// Runs a message-level protocol on the round simulator and prints the
/// metrics.
fn simulate(args: &[String]) -> Result<ExitCode, Failure> {
    check_flags("simulate", args, "--input --protocol --root --bursts", "")?;
    let g = load(args)?;
    let protocol = required(args, "--protocol", "--protocol NAME is required")?;
    let root: u32 = parse_flag(args, "--root", 0)?;
    if root as usize >= g.n() {
        return Err(Failure::Data(format!("--root {root} out of range (n = {})", g.n())));
    }
    let bursts: u32 = parse_flag(args, "--bursts", 8)?;

    let start = std::time::Instant::now();
    let (summary, report): (String, SimReport) = match protocol {
        "flood" => {
            let (accs, report) = flood::gossip_flood(&g, bursts);
            let digest = accs.iter().fold(0u64, |a, &b| a.rotate_left(1) ^ b);
            (format!("flood digest: {digest:#018x}"), report)
        }
        "bfs" => {
            let (tree, report) = bfs::distributed_bfs(&g, VertexId(root));
            (format!("bfs depth: {}", tree.depth()), report)
        }
        "leader" => {
            let (leader_v, report) = leader::elect_leader(&g);
            (format!("leader: {leader_v}"), report)
        }
        "mst" => {
            let (edges, report) = boruvka::distributed_mst(&g);
            (
                format!(
                    "mst edges: {} (weight {})",
                    edges.len(),
                    g.weight_of(edges.iter().copied())
                ),
                report,
            )
        }
        other => {
            return Err(usage(format!(
                "unknown --protocol {other}; options: flood, bfs, leader, mst"
            )))
        }
    };
    let elapsed = start.elapsed();
    println!("protocol: {protocol}");
    println!("{summary}");
    println!("report: {report}");
    println!("wall-clock: {:.3} ms", elapsed.as_secs_f64() * 1e3);
    println!(
        "rounds/sec: {:.0}",
        report.rounds as f64 / elapsed.as_secs_f64().max(1e-9)
    );
    Ok(ExitCode::SUCCESS)
}

fn generate(args: &[String]) -> Result<ExitCode, Failure> {
    check_flags("gen", args, "--family --n --seed --max-weight", "")?;
    let family = required(args, "--family", "--family NAME is required")?;
    let n: usize = required(args, "--n", "--n N is required")?
        .parse()
        .map_err(|_| usage("bad --n"))?;
    let seed: u64 = parse_flag(args, "--seed", 0)?;
    let w: u64 = parse_flag(args, "--max-weight", 64)?;
    let g = jobs::instance_by_label(family, n, w, seed)?;
    print!("{}", io::format_graph(&g));
    Ok(ExitCode::SUCCESS)
}

/// Runs the family × size × seed sweep through a [`SolveService`] (any
/// registry algorithm) and emits one JSON document (stdout, or `--out
/// FILE`). `--bandwidth B` rescales the reported rounds (B words per
/// edge per round); `--fail-edges K` removes K seeded-random edges per
/// run (keeping 2-edge-connectivity) before solving and reports which
/// ones fell; `--workers K` dispatches the grid over K warm solver
/// sessions and `--cache-cap N` sizes the duplicate-job cache (rows
/// stay in grid order and are byte-identical to a single-session sweep
/// except `wall_ms`). Per-run progress goes to stderr so the JSON
/// stays clean.
fn scenario(args: &[String]) -> Result<ExitCode, Failure> {
    fn list<T: std::str::FromStr>(s: &str, what: &str) -> Result<Vec<T>, Failure> {
        s.split(',')
            .map(|x| {
                x.trim()
                    .parse::<T>()
                    .map_err(|_| usage(format!("bad {what} entry {x:?}")))
            })
            .collect()
    }
    let valued = format!(
        "{REQUEST_FLAGS} --families --sizes --seeds --algorithms --max-weight --workers \
         --cache-cap --out"
    );
    check_flags("scenario", args, &valued, "")?;
    let families: Vec<&str> = required(args, "--families", "--families F[,F...] is required")?
        .split(',')
        .map(str::trim)
        .collect();
    let sizes: Vec<usize> =
        list(required(args, "--sizes", "--sizes N[,N...] is required")?, "--sizes")?;
    let seeds: Vec<u64> = list(flag(args, "--seeds").unwrap_or("0"), "--seeds")?;
    let algorithms: Vec<&str> = flag(args, "--algorithms")
        .unwrap_or("shortcut")
        .split(',')
        .map(str::trim)
        .collect();
    let registry = decss::solver::Registry::standard();
    for a in &algorithms {
        if registry.get(a).is_none() {
            return Err(usage(format!(
                "unknown algorithm {a}; registered: {}",
                registry.known()
            )));
        }
    }
    let w: u64 = parse_flag(args, "--max-weight", 64)?;
    let workers: usize = parse_flag(args, "--workers", 1)?;
    let cache_cap: usize = parse_flag(args, "--cache-cap", 128)?;
    // One flag vocabulary with `solve`: the shared helper parses every
    // request knob (epsilon/bandwidth/fail-edges/deadline/trace);
    // this probe also feeds the sweep header.
    let probe = request_from_flags(args, "probe")?;
    let (epsilon, bandwidth, fail_edges) = (probe.epsilon, probe.bandwidth, probe.fail_edges);

    let quoted = |xs: &[&str]| xs.iter().map(|x| format!("\"{x}\"")).collect::<Vec<_>>().join(", ");
    let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
    let mut json = String::new();
    json.push_str("{\n  \"scenario\": {\n");
    json.push_str(&format!("    \"families\": [{}],\n", quoted(&families)));
    json.push_str(&format!(
        "    \"sizes\": [{}],\n",
        sizes.iter().map(ToString::to_string).collect::<Vec<_>>().join(", ")
    ));
    json.push_str(&format!(
        "    \"seeds\": [{}],\n",
        seeds.iter().map(ToString::to_string).collect::<Vec<_>>().join(", ")
    ));
    json.push_str(&format!("    \"algorithms\": [{}],\n", quoted(&algorithms)));
    json.push_str(&format!("    \"max_weight\": {w},\n"));
    json.push_str(&format!("    \"epsilon\": {epsilon},\n"));
    json.push_str(&format!("    \"bandwidth\": {bandwidth},\n"));
    json.push_str(&format!("    \"fail_edges\": {fail_edges},\n"));
    json.push_str(&format!("    \"nproc\": {nproc},\n"));
    json.push_str(&format!("    \"workers\": {workers}\n"));
    json.push_str("  },\n  \"runs\": [\n");

    // The whole grid goes through one SolveService: K warm sessions
    // drain the queue while this thread submits, duplicate cells
    // coalesce in the instance cache, and joining in submission order
    // keeps the rows in grid order — byte-identical to the old
    // single-session sweep (modulo `NONDETERMINISTIC_FIELDS`) by the
    // service's determinism contract.
    // Per-solve deadline semantics (`deadline_from_submit(false)`): a
    // sweep submits its whole grid up front, so queue position is a
    // batching artifact — `--deadline-ms` budgets each *run*, exactly
    // as the pre-service sweep did.
    let service = SolveService::new(
        ServiceConfig::default()
            .workers(workers)
            .cache_capacity(cache_cap)
            .deadline_from_submit(false),
    );
    let mut submissions = Vec::new();
    let mut labels = Vec::new();
    for &family in &families {
        for &n in &sizes {
            for &seed in &seeds {
                let g = Arc::new(jobs::instance_by_label(family, n, w, seed)?);
                for &algorithm in &algorithms {
                    eprintln!("scenario: {family} n={n} seed={seed} {algorithm} ...");
                    // The run seed drives every randomized part of the
                    // run: instance generation (above), the shortcut
                    // sampling, and failure injection.
                    let req = request_from_flags(args, algorithm)?.seed(seed);
                    submissions.push(service.submit(Arc::clone(&g), req));
                    labels.push((family, n, seed, algorithm));
                }
            }
        }
    }
    let mut rows: Vec<String> = Vec::new();
    for (result, (family, n, seed, algorithm)) in
        service.join_all(&submissions).into_iter().zip(labels)
    {
        let outcome = result.map_err(|e| format!("{family} n={n} seed={seed} {algorithm}: {e}"))?;
        rows.push(format!(
            "    {{\"family\": \"{family}\", \"requested_n\": {n}, \"seed\": {seed}, {}}}",
            outcome.report.json_fields()
        ));
    }
    let stats = service.stats();
    eprintln!(
        "scenario: {} runs on {} worker(s), {} cache hit(s)",
        rows.len(),
        stats.workers,
        stats.cache_hits
    );
    json.push_str(&rows.join(",\n"));
    json.push_str("\n  ]\n}\n");

    match flag(args, "--out") {
        Some(path) => {
            std::fs::write(path, &json).map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!("scenario: wrote {} runs to {path}", rows.len());
        }
        None => print!("{json}"),
    }
    Ok(ExitCode::SUCCESS)
}

/// Batch-solves a job file through a [`SolveService`] (`--jobs`), or —
/// with `--listen ADDR` — serves the same job dialect over HTTP until a
/// termination signal drains it. File mode emits one JSON document: a
/// `"service"` stats header (queue/cache counters, hit rate,
/// per-algorithm latency histograms) plus one row per job, in
/// submission order — report fields for completed jobs, an `"error"`
/// field for failed ones. The document always covers the whole batch;
/// exit status is 2 when some jobs failed (0 under `--keep-going`), 1
/// only for infrastructure errors.
fn serve(args: &[String]) -> Result<ExitCode, Failure> {
    if args.iter().any(|a| a == "--listen") {
        return serve_network(args);
    }
    let valued = "--jobs --workers --cache-cap --queue-cap --out --restore --snapshot";
    check_flags("serve", args, valued, "--keep-going")?;
    let jobs_path = required(args, "--jobs", "--jobs FILE.json or --listen ADDR is required")?;
    let text =
        std::fs::read_to_string(jobs_path).map_err(|e| format!("reading {jobs_path}: {e}"))?;
    let specs = jobs::parse_job_specs(&text, FileAccess::Allowed)?;
    let workers: usize = parse_flag(args, "--workers", 1)?;
    let cache_cap: usize = parse_flag(args, "--cache-cap", 128)?;
    let queue_cap: usize = parse_flag(args, "--queue-cap", 256)?;

    let service = SolveService::new(
        ServiceConfig::default()
            .workers(workers)
            .cache_capacity(cache_cap)
            .queue_capacity(queue_cap),
    );
    if let Some(path) = flag(args, "--restore") {
        match decss::persist::read_snapshot(std::path::Path::new(path))
            .map_err(|e| e.to_string())
            .and_then(|state| service.restore_warm_state(state))
        {
            Ok(entries) => eprintln!("serve: restored {entries} cache entries from {path}"),
            Err(e) => eprintln!("serve: restore from {path} failed ({e}); starting cold"),
        }
    }
    let submissions: Vec<_> = specs
        .iter()
        .map(|s| {
            eprintln!(
                "serve: {} n={} seed={} {} ...",
                s.family, s.requested_n, s.seed, s.req.algorithm
            );
            service.submit(Arc::clone(&s.graph), s.req.clone())
        })
        .collect();
    let results = service.join_all(&submissions);

    let mut failed = 0usize;
    let mut rows = Vec::new();
    for (i, (spec, result)) in specs.iter().zip(&results).enumerate() {
        if result.is_err() {
            failed += 1;
        }
        rows.push(jobs::job_row(i, spec, result));
    }
    // The backlog is already joined; drain closes intake, stops the
    // workers, and audits the service log — the same shutdown path the
    // network tier takes, so file mode gets the same accountability.
    // Drain leaves the cache intact, so the post-drain snapshot carries
    // the fully settled warm state.
    let summary = service.drain();
    if let Some(path) = flag(args, "--snapshot") {
        match decss::persist::write_snapshot(
            std::path::Path::new(path),
            &service.export_warm_state(),
        ) {
            Ok(bytes) => eprintln!("serve: snapshot {path} written ({bytes} bytes)"),
            Err(e) => eprintln!("serve: snapshot {path} failed: {e}"),
        }
    }
    let json = jobs::report_document(&summary.stats, &rows);
    match flag(args, "--out") {
        Some(path) => {
            std::fs::write(path, &json).map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!(
                "serve: wrote {} job reports to {path} ({} cache hits)",
                rows.len(),
                summary.stats.cache_hits
            );
        }
        None => print!("{json}"),
    }
    summary.audit.map_err(|e| format!("service log audit failed: {e}"))?;
    if failed > 0 {
        eprintln!("serve: {failed} of {} jobs failed (see the report rows)", rows.len());
        if args.iter().any(|a| a == "--keep-going") {
            return Ok(ExitCode::SUCCESS);
        }
        return Ok(ExitCode::from(2));
    }
    Ok(ExitCode::SUCCESS)
}

/// `decss trace gen | replay`: generate a seeded workload trace, or
/// replay one through a local [`SolveService`] or against a running
/// server (`--target ADDR` posts each event as `POST /solve`). A local
/// replay submits every event in arrival order and its drain audit must
/// balance. Deliberate in-trace failures (cancels, expiries, failure
/// storms) are data rows, not process errors: the exit code is 0 unless
/// the infrastructure itself misbehaves.
fn trace_cmd(args: &[String]) -> Result<ExitCode, Failure> {
    match args.first().map(|s| s.as_str()) {
        Some("gen") => {
            let args = &args[1..];
            check_flags("trace gen", args, "--seed --jobs --arrival --mean-gap-ms --out", "")?;
            let defaults = GenConfig::default();
            let cfg = GenConfig {
                seed: parse_flag(args, "--seed", defaults.seed)?,
                jobs: parse_flag(args, "--jobs", defaults.jobs)?,
                arrival: match flag(args, "--arrival") {
                    None => defaults.arrival,
                    Some(label) => Arrival::from_label(label).map_err(usage)?,
                },
                mean_gap_ms: parse_flag(args, "--mean-gap-ms", defaults.mean_gap_ms)?,
            };
            if cfg.jobs == 0 {
                return Err(usage("--jobs must be at least 1"));
            }
            let text = trace::generate(&cfg);
            match flag(args, "--out") {
                Some(path) => {
                    std::fs::write(path, &text).map_err(|e| format!("writing {path}: {e}"))?;
                    eprintln!("trace: wrote {} events to {path}", cfg.jobs);
                }
                None => print!("{text}"),
            }
            Ok(ExitCode::SUCCESS)
        }
        Some("replay") => {
            let args = &args[1..];
            let valued = "--input --target --workers --cache-cap --queue-cap --out";
            check_flags("trace replay", args, valued, "--pace")?;
            let input = required(args, "--input", "--input FILE.jsonl is required")?;
            let text =
                std::fs::read_to_string(input).map_err(|e| format!("reading {input}: {e}"))?;
            let defaults = ReplayConfig::default();
            let cfg = ReplayConfig {
                workers: parse_flag(args, "--workers", defaults.workers)?,
                queue_cap: parse_flag(args, "--queue-cap", defaults.queue_cap)?,
                cache_cap: parse_flag(args, "--cache-cap", defaults.cache_cap)?,
                pace: args.iter().any(|a| a == "--pace"),
            };
            let outcome = match flag(args, "--target") {
                Some(target) => trace::replay_remote(&text, target, &cfg)?,
                None => trace::replay(&text, FileAccess::Allowed, &cfg)?,
            };
            match flag(args, "--out") {
                Some(path) => {
                    std::fs::write(path, &outcome.document)
                        .map_err(|e| format!("writing {path}: {e}"))?;
                    eprintln!("trace: wrote {} replay reports to {path}", outcome.jobs);
                }
                None => print!("{}", outcome.document),
            }
            if outcome.failed > 0 {
                eprintln!(
                    "trace: {} of {} jobs failed by design (cancels/expiries are trace data)",
                    outcome.failed, outcome.jobs
                );
            }
            if let Some(audit) = outcome.audit {
                audit.map_err(|e| format!("service log audit failed: {e}"))?;
            }
            Ok(ExitCode::SUCCESS)
        }
        _ => Err(usage("expected `decss trace gen` or `decss trace replay`")),
    }
}

/// The network tier: bind `--listen ADDR`, serve `/healthz`, `/ready`,
/// `/stats`, `POST /solve`, and `POST /jobs` until SIGTERM or SIGINT,
/// then drain gracefully — `/ready` flips to 503, in-flight requests
/// finish, the backlog runs dry, and the final audited accounting goes
/// to stderr. Exits 0 on a clean drain, 1 on an audit failure or a
/// connection-slot leak.
fn serve_network(args: &[String]) -> Result<ExitCode, Failure> {
    let valued = "--listen --workers --cache-cap --queue-cap --max-conns --read-timeout-ms \
                  --write-timeout-ms --quota-rps --quota-burst --grace-ms --restore --snapshot \
                  --snapshot-interval-ms";
    check_flags("serve --listen", args, valued, "")?;
    let listen = required(args, "--listen", "--listen ADDR is required")?;
    let workers: usize = parse_flag(args, "--workers", 2)?;
    let cache_cap: usize = parse_flag(args, "--cache-cap", 128)?;
    let queue_cap: usize = parse_flag(args, "--queue-cap", 64)?;
    let max_conns: usize = parse_flag(args, "--max-conns", 8)?;
    let read_ms: u64 = parse_flag(args, "--read-timeout-ms", 5_000)?;
    let write_ms: u64 = parse_flag(args, "--write-timeout-ms", 5_000)?;
    let grace_ms: u64 = parse_flag(args, "--grace-ms", 150)?;
    let mut net = NetConfig::default()
        .max_connections(max_conns)
        .read_timeout(Duration::from_millis(read_ms))
        .write_timeout(Duration::from_millis(write_ms));
    if let Some(rps) = flag(args, "--quota-rps") {
        let refill_per_sec: f64 =
            rps.parse().map_err(|_| usage(format!("bad --quota-rps {rps}")))?;
        let burst: f64 = parse_flag(args, "--quota-burst", (refill_per_sec * 2.0).max(1.0))?;
        net = net.quota(QuotaConfig { refill_per_sec, burst });
    } else if flag(args, "--quota-burst").is_some() {
        return Err(usage("decss serve --listen: --quota-burst needs --quota-rps"));
    }
    if let Some(path) = flag(args, "--restore") {
        net = net.restore_from(path);
    }
    if let Some(path) = flag(args, "--snapshot") {
        net = net.snapshot_to(path);
    }
    if let Some(ms) = flag(args, "--snapshot-interval-ms") {
        if flag(args, "--snapshot").is_none() {
            return Err(usage("decss serve --listen: --snapshot-interval-ms needs --snapshot"));
        }
        let ms: u64 = ms
            .parse()
            .map_err(|_| usage(format!("bad --snapshot-interval-ms {ms}")))?;
        net = net.snapshot_interval(Duration::from_millis(ms.max(1)));
    }
    let service = ServiceConfig::default()
        .workers(workers)
        .cache_capacity(cache_cap)
        .queue_capacity(queue_cap);

    signal::reset();
    signal::install_handlers();
    let handle = NetServer::start(listen, net, service)?;
    eprintln!("serve: listening on http://{}", handle.addr());
    eprintln!("serve: GET /healthz /ready /stats; POST /solve /jobs; SIGTERM drains");
    while !signal::shutdown_requested() {
        std::thread::sleep(Duration::from_millis(50));
    }
    eprintln!("serve: shutdown signal received; draining ...");
    let summary = handle.drain(Duration::from_millis(grace_ms));
    eprintln!(
        "serve: drained; {} connections accepted ({} refused busy), {} requests, {} jobs done, {} shed",
        summary.net.accepted,
        summary.net.refused_busy,
        summary.net.requests,
        summary.service.stats.completed,
        summary.net.shed,
    );
    for (client, jobs_done) in &summary.clients {
        eprintln!("serve: client {client}: {jobs_done} jobs");
    }
    match &summary.snapshot {
        Some(Ok(bytes)) => eprintln!("serve: final snapshot written ({bytes} bytes)"),
        Some(Err(e)) => eprintln!("serve: final snapshot failed: {e}"),
        None => {}
    }
    let audited = summary
        .service
        .audit
        .as_ref()
        .map_err(|e| format!("service log audit failed: {e}"))?;
    if summary.slot_leaks() != 0 {
        return Err(Failure::Data(format!(
            "connection slot leak: accepted {} != closed {}",
            summary.net.accepted, summary.net.conns_closed
        )));
    }
    eprintln!("serve: audit clean ({audited} jobs accounted); bye");
    Ok(ExitCode::SUCCESS)
}

/// Runs the network tier's chaos harness against a self-hosted server:
/// seeded threads mix well-formed solves with truncated requests,
/// stalled writers, garbage, disconnects, duplicate storms, and
/// overload waves (`--faults` adds injected accept/write failures),
/// then the run drains and verifies report byte-identity, slot-leak
/// freedom, and clean audit. Exits 0 on a contract-clean run, 1
/// otherwise.
fn netstress(args: &[String]) -> Result<ExitCode, Failure> {
    check_flags(
        "netstress",
        args,
        "--seed --ops --threads --workers --queue-cap",
        "--faults",
    )?;
    let mut config = StressConfig::default();
    config.seed = parse_flag(args, "--seed", config.seed)?;
    config.ops = parse_flag(args, "--ops", config.ops)?;
    config.threads = parse_flag(args, "--threads", config.threads)?;
    config.service = config
        .service
        .clone()
        .workers(parse_flag(args, "--workers", 2)?)
        .queue_capacity(parse_flag(args, "--queue-cap", 3)?);
    if args.iter().any(|a| a == "--faults") {
        config.net = config.net.clone().fault(stress::default_fault_plan());
    }
    let report = stress::chaos(config);
    print!("{}", report.render());
    Ok(if report.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn verify(args: &[String]) -> Result<ExitCode, Failure> {
    check_flags("verify", args, "--input --edges", "")?;
    let g = load(args)?;
    let list = required(args, "--edges", "--edges ID[,ID...] is required")?;
    let edges: Vec<EdgeId> = list
        .split(',')
        .map(|s| {
            s.trim()
                .parse::<u32>()
                .map(EdgeId)
                .map_err(|_| usage(format!("bad edge id {s}")))
        })
        .collect::<Result<_, _>>()?;
    for &e in &edges {
        if e.index() >= g.m() {
            return Err(Failure::Data(format!("edge id {e} out of range (m = {})", g.m())));
        }
    }
    // An ad-hoc edge set rendered through the one report schema: no
    // solver ran, so there is no lower bound (ratio pins to 1.0) and no
    // round count.
    let report = SolveReport {
        algorithm: "verify".into(),
        label: "verify (edge-set check)".into(),
        n: g.n(),
        m: g.m(),
        weight: g.weight_of(edges.iter().copied()),
        valid: algo::two_edge_connected_in(&g, edges.iter().copied()),
        edges,
        bandwidth: 1,
        ..SolveReport::default()
    };
    print!("{}", report.render_text());
    if !report.valid {
        return Err(Failure::Data(
            "the given edge set is not a spanning 2-edge-connected subgraph".into(),
        ));
    }
    Ok(ExitCode::SUCCESS)
}
