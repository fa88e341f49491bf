//! The end-to-end runner. It reaches the program only through its front
//! doors — `SolverSession`, and `NetServer`/`SolveService` over raw
//! HTTP — plus the generators that make its inputs. A later change that
//! reshapes a phase API can then break only the per-layer numbers, never
//! the end-to-end comparison.

use crate::host::HostRef;
use crate::http::{self, Reply};
use crate::json::{self, Value};
use crate::load::{poisson_schedule, Rng, Sent};
use crate::meta::Meta;
use crate::stats;
use decss_graphs::fingerprint::graph_fingerprint;
use decss_graphs::{gen, EdgeId, Graph};
use decss_net::{jobs::instance_by_label, NetConfig, NetHandle, NetServer};
use decss_service::ServiceConfig;
use decss_solver::{
    delta_fingerprint, mutate, GraphDelta, SolveReport, SolveRequest, SolverSession,
};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Set-ups per run of the solve loops; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;
/// Set-ups per serve run: one takes about 80 ms, so the median can rest
/// on more of them.
pub const SERVE_SETUP_REPS: usize = 9;
/// Generator seed of the two 10⁵-vertex instances. They are fixed and
/// pinned: the weights of a 10⁵ grid move `improved`'s time by up to 1.7×
/// from one generator seed to the next, which would swamp any change
/// worth measuring. The workload seed drives the op sequence instead.
pub const INSTANCE_SEED: u64 = 1;
/// Edge weights are drawn from `1..=MAX_WEIGHT` (the job dialect's
/// default).
pub const MAX_WEIGHT: u64 = 64;
/// Edges reweighted per `delta-reweight` op.
pub const DELTA_BATCH: usize = 16;

/// Seed streams: one per purpose, so adding draws to one never moves
/// another.
pub const STREAM_ORDER: u64 = 1;
pub const STREAM_WARM_DELTAS: u64 = 2;
pub const STREAM_DELTAS: u64 = 3;
const STREAM_ARRIVALS: u64 = 4;
const STREAM_JOBS: u64 = 5;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    Thm11,
    Thm12,
    Delta,
    Serve,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::Thm11, Workload::Thm12, Workload::Delta, Workload::Serve];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Thm11 => "thm11-solve",
            Workload::Thm12 => "thm12-solve",
            Workload::Delta => "delta-reweight",
            Workload::Serve => "serve-http",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The registry algorithm of the solve loops.
    pub fn algorithm(self) -> &'static str {
        match self {
            Workload::Thm11 => "improved",
            _ => "shortcut",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct Opts {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
}

/// What one run measured, raw (unscaled).
#[derive(Default, Debug)]
pub struct Run {
    pub attempted: u64,
    /// One message per failed op.
    pub failures: Vec<String>,
    /// The times whose median is `op_ms` and whose tail is
    /// `op_ms.tail`: per pass on the solve loops, per op elsewhere.
    pub op_samples: Vec<f64>,
    pub ops_per_s: f64,
    pub ratios: Vec<f64>,
    pub rounds: Vec<f64>,
    pub setup_s: Vec<f64>,
    pub notes: Vec<String>,
}

// ---------------------------------------------------------------- inputs

/// The two 10⁵-vertex instances of the solve workloads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Big {
    /// 316 × 316 grid, n = 99,856.
    Grid,
    /// The hard-√n construction at n = 10⁵.
    HardSqrt,
}

impl Big {
    pub fn label(self) -> &'static str {
        match self {
            Big::Grid => "grid-316x316",
            Big::HardSqrt => "hard-sqrt-100000",
        }
    }

    pub fn generate(self) -> Graph {
        match self {
            Big::Grid => gen::grid(316, 316, MAX_WEIGHT, INSTANCE_SEED),
            Big::HardSqrt => gen::hard_sqrt_two_ec(100_000, MAX_WEIGHT, INSTANCE_SEED),
        }
    }
}

/// Generates each instance and checks its pin.
pub fn make_instances(meta: &Meta, kinds: &[Big]) -> Result<Vec<Graph>, String> {
    kinds
        .iter()
        .map(|&kind| {
            let g = kind.generate();
            meta.check_pin(kind.label(), graph_fingerprint(&g))?;
            Ok(g)
        })
        .collect()
}

/// The checks every session report must pass.
pub fn check_report(r: &SolveReport, g: &Graph, algorithm: &str) -> Result<(), String> {
    if r.algorithm != algorithm {
        return Err(format!("asked for {algorithm}, report says {}", r.algorithm));
    }
    if !r.valid {
        return Err(format!("{algorithm}: output is not a 2-ECSS"));
    }
    if (r.n, r.m) != (g.n(), g.m()) {
        return Err(format!(
            "{algorithm}: report echoes n/m {}/{}, instance {}/{}",
            r.n,
            r.m,
            g.n(),
            g.m()
        ));
    }
    if r.rounds.is_none() {
        return Err(format!("{algorithm}: report carries no round count"));
    }
    Ok(())
}

/// Runs `make` `reps` times, dropping each result before the next is
/// built (so peak memory stays that of one set-up), and returns the last
/// with every set-up's seconds.
pub fn repeated_setup<T>(
    reps: usize,
    mut make: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut last = None;
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        drop(last.take());
        let started = Instant::now();
        last = Some(make()?);
        times.push(started.elapsed().as_secs_f64());
    }
    Ok((last.expect("reps >= 1"), times))
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

// ------------------------------------------------------ thm11 / thm12

pub struct SolveSetup {
    pub graphs: Vec<Graph>,
    pub session: SolverSession,
}

pub const SOLVE_KINDS: [Big; 2] = [Big::Grid, Big::HardSqrt];

/// Generation, pin check, a fresh session, and one warm-up solve of
/// each instance (which grows the session's scratch).
pub fn setup_solve(meta: &Meta, algorithm: &str) -> Result<SolveSetup, String> {
    let graphs = make_instances(meta, &SOLVE_KINDS)?;
    let mut session = SolverSession::new();
    for g in &graphs {
        let r = session
            .solve(g, &SolveRequest::new(algorithm))
            .map_err(|e| e.to_string())?;
        check_report(&r, g, algorithm)?;
    }
    Ok(SolveSetup { graphs, session })
}

/// Seeded pass order: which instance a pass solves first.
pub fn pass_order(rng: &mut Rng) -> [usize; 2] {
    if rng.below(2) == 0 {
        [0, 1]
    } else {
        [1, 0]
    }
}

/// Closed loop from one thread: passes of one solve per instance until
/// the run's time is up. `op_ms` and its tail are taken over passes, of
/// the pass's mean solve time: over single solves they would flip
/// between the two instances' times.
pub fn run_solve_loop(opts: Opts, meta: &Meta, host: &mut HostRef) -> Result<Run, String> {
    let algorithm = opts.workload.algorithm();
    let (mut s, setup_s) = repeated_setup(SETUP_REPS, || setup_solve(meta, algorithm))?;
    let mut run = Run { setup_s, ..Run::default() };
    let req = SolveRequest::new(algorithm);
    let mut order = Rng::stream(opts.seed, STREAM_ORDER);
    let started = Instant::now();
    let ref_before = host.spent();
    while started.elapsed().as_secs_f64() < opts.seconds {
        let mut pass_ms = 0.0;
        for k in pass_order(&mut order) {
            let g = &s.graphs[k];
            let t = Instant::now();
            let out = s.session.solve(g, &req);
            pass_ms += ms_since(t);
            run.attempted += 1;
            match out
                .map_err(|e| e.to_string())
                .and_then(|r| check_report(&r, g, algorithm).map(|()| r))
            {
                Ok(r) => {
                    run.ratios.push(r.certified_ratio());
                    run.rounds.push(r.rounds.unwrap_or(0) as f64);
                }
                Err(e) => run.failures.push(e),
            }
        }
        run.op_samples.push(pass_ms / 2.0);
        host.top_up(started.elapsed());
    }
    let busy = started.elapsed() - (host.spent() - ref_before);
    run.ops_per_s = run.attempted as f64 / busy.as_secs_f64();
    Ok(run)
}

// ------------------------------------------------------ delta-reweight

pub struct DeltaSetup {
    pub base: Graph,
    pub session: SolverSession,
    /// Edges outside the base's solution, hence outside its MST.
    pub candidates: Vec<EdgeId>,
}

/// A fresh seeded batch: `DELTA_BATCH` distinct non-tree edges, each
/// made heavier (so the MST, and with it the retained decomposition,
/// survives).
pub fn reweight_batch(rng: &mut Rng, base: &Graph, candidates: &[EdgeId]) -> Vec<GraphDelta> {
    let mut picked: Vec<EdgeId> = Vec::with_capacity(DELTA_BATCH);
    while picked.len() < DELTA_BATCH {
        let e = candidates[rng.below(candidates.len() as u64) as usize];
        if !picked.contains(&e) {
            picked.push(e);
        }
    }
    picked
        .into_iter()
        .map(|edge| GraphDelta::Reweight {
            edge,
            weight: base.weight(edge) + 1 + rng.below(MAX_WEIGHT),
        })
        .collect()
}

/// The checks of one delta op's report.
pub fn check_delta(r: &SolveReport, base: &Graph, batch: &[GraphDelta]) -> Result<(), String> {
    check_report(r, base, "shortcut")?;
    if r.incremental.is_none() {
        return Err("delta report lacks its incremental block".into());
    }
    let expected = delta_fingerprint(base, batch).map_err(|e| e.to_string())?;
    if r.fingerprint != Some(expected) {
        return Err(format!(
            "delta report fingerprint {:?}, expected {expected}",
            r.fingerprint
        ));
    }
    Ok(())
}

/// Generation, pin check, then [`setup_delta_on`].
pub fn setup_delta(meta: &Meta, seed: u64) -> Result<DeltaSetup, String> {
    let base = make_instances(meta, &[Big::Grid])?.pop().expect("one instance");
    setup_delta_on(base, seed)
}

/// A fresh session, one plain solve of `base` (whose output marks the
/// non-tree edges), then two delta ops: the first builds the retained
/// instance cold, the second runs warm.
pub fn setup_delta_on(base: Graph, seed: u64) -> Result<DeltaSetup, String> {
    let mut session = SolverSession::new();
    let r = session
        .solve(&base, &SolveRequest::new("shortcut"))
        .map_err(|e| e.to_string())?;
    check_report(&r, &base, "shortcut")?;
    let mut chosen = vec![false; base.m()];
    for e in &r.edges {
        chosen[e.index()] = true;
    }
    let candidates: Vec<EdgeId> = base.edge_ids().filter(|e| !chosen[e.index()]).collect();
    let mut warm = Rng::stream(seed, STREAM_WARM_DELTAS);
    for _ in 0..2 {
        let batch = reweight_batch(&mut warm, &base, &candidates);
        let req = SolveRequest::new("shortcut").deltas(batch.clone());
        let r = session.solve(&base, &req).map_err(|e| e.to_string())?;
        check_delta(&r, &base, &batch)?;
    }
    Ok(DeltaSetup { base, session, candidates })
}

/// Closed loop from one thread: each op re-solves the warm base with a
/// fresh reweight batch through `SolverSession::solve`.
pub fn run_delta_loop(opts: Opts, meta: &Meta, host: &mut HostRef) -> Result<Run, String> {
    let (mut s, setup_s) = repeated_setup(SETUP_REPS, || setup_delta(meta, opts.seed))?;
    let mut run = Run { setup_s, ..Run::default() };
    let mut batches = Rng::stream(opts.seed, STREAM_DELTAS);
    let mut first: Option<(Vec<GraphDelta>, SolveReport)> = None;
    let started = Instant::now();
    let ref_before = host.spent();
    while started.elapsed().as_secs_f64() < opts.seconds {
        let batch = reweight_batch(&mut batches, &s.base, &s.candidates);
        let req = SolveRequest::new("shortcut").deltas(batch.clone());
        let t = Instant::now();
        let out = s.session.solve(&s.base, &req);
        let ms = ms_since(t);
        run.attempted += 1;
        run.op_samples.push(ms);
        match out
            .map_err(|e| e.to_string())
            .and_then(|r| check_delta(&r, &s.base, &batch).map(|()| r))
        {
            Ok(r) => {
                run.ratios.push(r.certified_ratio());
                run.rounds.push(r.rounds.unwrap_or(0) as f64);
                if first.is_none() {
                    first = Some((batch, r));
                }
            }
            Err(e) => run.failures.push(e),
        }
        host.top_up(started.elapsed());
    }
    let busy = started.elapsed() - (host.spent() - ref_before);
    run.ops_per_s = run.attempted as f64 / busy.as_secs_f64();
    // The incremental answer must equal a fresh solve of the mutated
    // graph; one op per run is checked, outside the timed loop.
    if let Some((batch, inc)) = first {
        let mutated = mutate(&s.base, &batch).map_err(|e| e.to_string())?;
        let fresh = SolverSession::new()
            .solve(&mutated, &SolveRequest::new("shortcut"))
            .map_err(|e| e.to_string())?;
        if (fresh.edges.as_slice(), fresh.weight) != (inc.edges.as_slice(), inc.weight) {
            run.failures
                .push("incremental re-solve differs from a fresh solve".into());
        }
    }
    let median = stats::median(&run.op_samples);
    let slow = run.op_samples.iter().filter(|&&ms| ms > 2.0 * median).count();
    run.notes
        .push(format!("ops over twice the median (cold rebuilds): {slow}"));
    Ok(run)
}

// ------------------------------------------------------------ serve-http

/// Families of the served jobs: every atlas family but `nearclique`,
/// plus grid and hard-√n.
pub const FAMILIES: [&str; 6] =
    ["grid", "hard-sqrt", "powerlaw", "roadmesh", "expander", "adversarial"];
pub const SIZES: [usize; 3] = [1000, 2000, 4000];
/// The open loop's fixed rate, about a third of one worker's measured
/// capacity (about 65 requests/s with two closed-loop clients). The open
/// loop serves the stream's first deck.
pub const OPEN_RATE: f64 = 24.0;
pub const CLIENTS: usize = 2;
/// The closed loop runs in segments of this many seconds; the reference
/// is sampled between them, while the server is idle.
pub const SEGMENT_S: f64 = 1.0;
/// Decks the run always serves: `certified_ratio` and `rounds` are means
/// over the stream's first `QUALITY_DECKS` decks, the same jobs in every
/// run of a seed however fast the host is.
pub const QUALITY_DECKS: usize = 6;
/// A reply slower than this fails `ok_pct`; far above the tail.
pub const LIMIT_MS: f64 = 1000.0;
const IO_TIMEOUT: Duration = Duration::from_secs(10);
/// Seeds of the warm-up jobs, outside the range fresh jobs draw from.
const WARM_SEED: u64 = 1 << 40;
/// Slots per deck that repeat an earlier job exactly (about a quarter).
const DECK_REPEATS: usize = 13;

/// One served job.
#[derive(Clone, Debug, PartialEq)]
pub struct Job {
    pub family: &'static str,
    pub n: usize,
    pub seed: u64,
    pub algorithm: &'static str,
    /// `(edge, weight)` reweights.
    pub deltas: Vec<(u32, u64)>,
}

impl Job {
    /// The `POST /solve` body: a jobs document with one job line.
    pub fn body(&self) -> String {
        let mut line = format!(
            "{{\"algorithm\": \"{}\", \"family\": \"{}\", \"n\": {}, \"seed\": {}",
            self.algorithm, self.family, self.n, self.seed
        );
        if !self.deltas.is_empty() {
            let specs: Vec<String> =
                self.deltas.iter().map(|(e, w)| format!("\"rw({e},{w})\"")).collect();
            line.push_str(&format!(", \"deltas\": [{}]", specs.join(", ")));
        }
        format!("[\n{line}}}\n]\n")
    }
}

/// A deck slot: a fresh job of (family, size) index and algorithm, a
/// delta job against the family's recurring base, or a repeat.
#[derive(Clone, Copy, Debug)]
enum Slot {
    Fresh(usize, usize, &'static str),
    Delta(usize),
    Repeat,
}

/// Deck `k`: the same multiset of job kinds for every seed, so every
/// run serves the same mix and a seed moves only the order, the
/// instances and the arrival times. Per family: two `shortcut` and two
/// `improved` jobs, one `basic` and one `unweighted`, across the three
/// sizes; then one `greedy` job at n = 1000 and two delta jobs, with
/// families rotating by deck; then the repeats.
fn deck(k: usize) -> Vec<Slot> {
    let mut d = Vec::new();
    for f in 0..FAMILIES.len() {
        d.push(Slot::Fresh(f, f % 3, "shortcut"));
        d.push(Slot::Fresh(f, (f + 1) % 3, "shortcut"));
        d.push(Slot::Fresh(f, (f + 1) % 3, "improved"));
        d.push(Slot::Fresh(f, (f + 2) % 3, "improved"));
        d.push(Slot::Fresh(f, (f + 2) % 3, "basic"));
        d.push(Slot::Fresh(f, f % 3, "unweighted"));
    }
    d.push(Slot::Fresh(k % FAMILIES.len(), 0, "greedy"));
    for j in 0..2 {
        d.push(Slot::Delta((2 * k + j) % FAMILIES.len()));
    }
    d.extend([Slot::Repeat; DECK_REPEATS]);
    d
}

/// Jobs per deck.
pub fn deck_len() -> usize {
    deck(0).len()
}

/// A seeded job sequence, dealt deck by deck. Job `i` depends only on
/// the seed and `i`, so the sequence is the same whichever client thread
/// asks for it.
pub struct JobGen {
    rng: Rng,
    jobs: Vec<Job>,
    /// Jobs a repeat may copy, oldest first: the warm-up jobs (which the
    /// server has cached), then every fresh and delta job.
    history: Vec<Job>,
    /// Per family, the seed of its recurring delta base (n = 2000).
    delta_seeds: Vec<u64>,
    dealt: Vec<Slot>,
    decks: usize,
}

impl JobGen {
    pub fn new(seed: u64) -> JobGen {
        let mut rng = Rng::stream(seed, STREAM_JOBS);
        let delta_seeds = FAMILIES.iter().map(|_| rng.next_u64() >> 33).collect();
        JobGen {
            rng,
            jobs: Vec::new(),
            history: warm_jobs(),
            delta_seeds,
            dealt: Vec::new(),
            decks: 0,
        }
    }

    pub fn job(&mut self, i: usize) -> Job {
        while self.jobs.len() <= i {
            let job = self.next_job();
            self.jobs.push(job);
        }
        self.jobs[i].clone()
    }

    fn next_job(&mut self) -> Job {
        if self.dealt.is_empty() {
            // Fisher–Yates; popped from the back.
            self.dealt = deck(self.decks);
            self.decks += 1;
            for i in (1..self.dealt.len()).rev() {
                let j = self.rng.below(i as u64 + 1) as usize;
                self.dealt.swap(i, j);
            }
        }
        let r = &mut self.rng;
        let job = match self.dealt.pop().expect("dealt a deck") {
            Slot::Repeat => {
                // At least three jobs back (so it has finished) and
                // within the last 18 (so the 128-entry cache still holds
                // it).
                let back = 3 + r.below(16.min(self.history.len() as u64 - 3)) as usize;
                return self.history[self.history.len() - 1 - back].clone();
            }
            Slot::Fresh(f, s, algorithm) => Job {
                family: FAMILIES[f],
                n: SIZES[s],
                seed: r.next_u64() >> 33,
                algorithm,
                deltas: Vec::new(),
            },
            // Four reweights on edge ids every 2000-vertex 2EC instance
            // has (m >= n).
            Slot::Delta(f) => Job {
                family: FAMILIES[f],
                n: 2000,
                seed: self.delta_seeds[f],
                algorithm: "shortcut",
                deltas: (0..4)
                    .map(|_| (r.below(1000) as u32, 1 + r.below(MAX_WEIGHT)))
                    .collect(),
            },
        };
        self.history.push(job.clone());
        job
    }
}

/// One request as the client saw it.
#[derive(Debug)]
pub struct Record {
    /// 1 = open loop, 2 = closed loop.
    pub phase: u8,
    /// Position in the job stream.
    pub index: usize,
    pub job: Job,
    /// Seconds from the start of the load; closed-loop requests are
    /// scheduled when sent.
    pub at: Sent,
    pub reply: Result<Reply, String>,
}

pub struct ServeSetup {
    pub handle: NetHandle,
    /// Taken just before the server (and its service log) started.
    pub opened: Instant,
}

impl ServeSetup {
    pub fn addr(&self) -> SocketAddr {
        self.handle.addr()
    }
}

/// Warm-up jobs: one `improved` and one `shortcut` job per family at
/// n = 1000.
pub fn warm_jobs() -> Vec<Job> {
    let mut out = Vec::new();
    for (i, family) in FAMILIES.into_iter().enumerate() {
        for algorithm in ["improved", "shortcut"] {
            out.push(Job {
                family,
                n: 1000,
                seed: WARM_SEED + i as u64,
                algorithm,
                deltas: Vec::new(),
            });
        }
    }
    out
}

/// Starts an in-process server (one service worker, default cache) and
/// sends it the warm-up jobs.
pub fn setup_serve() -> Result<ServeSetup, String> {
    let opened = Instant::now();
    let handle = NetServer::start(
        "127.0.0.1:0",
        NetConfig::default(),
        ServiceConfig::default().workers(1),
    )?;
    let setup = ServeSetup { handle, opened };
    for job in warm_jobs() {
        let reply = http::post(setup.addr(), "/solve", &job.body(), IO_TIMEOUT)?;
        let row = parse_row(&reply)?;
        if row.get("valid").and_then(Value::as_bool) != Some(true) {
            return Err(format!("warm-up job {job:?} is not valid"));
        }
    }
    Ok(setup)
}

fn parse_row(reply: &Reply) -> Result<Value, String> {
    let text = std::str::from_utf8(&reply.body).map_err(|_| "reply is not UTF-8".to_string())?;
    if reply.status != 200 {
        return Err(format!("HTTP {}: {}", reply.status, text.trim()));
    }
    json::parse(text.trim()).map_err(|e| format!("reply row: {e}"))
}

fn secs(epoch: Instant) -> f64 {
    epoch.elapsed().as_secs_f64()
}

/// The open loop: Poisson arrivals from `CLIENTS` threads for jobs
/// `0..schedule.len()`. A thread still waiting on a reply sends its next
/// request late; the lateness is recorded and counts in that request's
/// latency.
fn open_loop(
    addr: SocketAddr,
    jobs: &Mutex<JobGen>,
    schedule: &[f64],
    epoch: Instant,
) -> Vec<Record> {
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let k = next.fetch_add(1, Ordering::SeqCst);
                        let Some(&scheduled) = schedule.get(k) else {
                            break;
                        };
                        let index = k;
                        let job = jobs.lock().expect("job generator lock").job(index);
                        let body = job.body();
                        let wait = scheduled - secs(epoch);
                        if wait > 0.0 {
                            std::thread::sleep(Duration::from_secs_f64(wait));
                        }
                        let sent = secs(epoch);
                        let reply = http::post(addr, "/solve", &body, IO_TIMEOUT);
                        let at = Sent { scheduled, sent, done: secs(epoch) };
                        out.push(Record { phase: 1, index, job, at, reply });
                    }
                    out
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("client thread"))
            .collect()
    })
}

/// The closed loop: `CLIENTS` threads, each sending its next job when
/// the last one returns, from job `next` on until `until`, and in any
/// case every job below `min_jobs`.
fn closed_loop(
    addr: SocketAddr,
    jobs: &Mutex<JobGen>,
    next: &AtomicUsize,
    epoch: Instant,
    until: f64,
    min_jobs: usize,
) -> Vec<Record> {
    std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    while secs(epoch) < until || next.load(Ordering::SeqCst) < min_jobs {
                        let index = next.fetch_add(1, Ordering::SeqCst);
                        let job = jobs.lock().expect("job generator lock").job(index);
                        let body = job.body();
                        let sent = secs(epoch);
                        let reply = http::post(addr, "/solve", &body, IO_TIMEOUT);
                        let at = Sent { scheduled: sent, sent, done: secs(epoch) };
                        out.push(Record { phase: 2, index, job, at, reply });
                    }
                    out
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("client thread"))
            .collect()
    })
}

/// The measured load of one serve run.
pub struct ServeLoad {
    /// In job order.
    pub records: Vec<Record>,
    /// Start of the open loop.
    pub epoch: Instant,
    /// Seconds the closed loop ran, summed over segments: from each
    /// segment's start to its last reply.
    pub closed_s: f64,
    pub segments: usize,
}

/// One deck in the open loop, then the closed loop in segments of
/// [`SEGMENT_S`] until the run's time is up and the first
/// [`QUALITY_DECKS`] decks are served. The reference is topped up to its
/// share of the elapsed time after the open loop and between segments,
/// while the server is idle.
pub fn serve_load(opts: Opts, setup: &ServeSetup, host: &mut HostRef) -> ServeLoad {
    let jobs = Mutex::new(JobGen::new(opts.seed));
    let mut arrivals = Rng::stream(opts.seed, STREAM_ARRIVALS);
    let schedule = poisson_schedule(&mut arrivals, OPEN_RATE, deck_len());
    let epoch = Instant::now();
    let mut records = open_loop(setup.addr(), &jobs, &schedule, epoch);
    let quality_jobs = QUALITY_DECKS * deck_len();
    let next = AtomicUsize::new(deck_len());
    let (mut closed_s, mut segments) = (0.0, 0);
    loop {
        host.top_up(epoch.elapsed());
        let start = secs(epoch);
        if start >= opts.seconds && next.load(Ordering::SeqCst) >= quality_jobs {
            break;
        }
        let until = (start + SEGMENT_S).min(opts.seconds);
        // Only the last segment runs on past the time to serve the
        // quality decks, so the reference sees the whole run.
        let floor = if until >= opts.seconds {
            quality_jobs
        } else {
            0
        };
        let segment = closed_loop(setup.addr(), &jobs, &next, epoch, until, floor);
        closed_s += segment.iter().map(|r| r.at.done).fold(start, f64::max) - start;
        segments += 1;
        records.extend(segment);
    }
    records.sort_by_key(|r| r.index);
    ServeLoad { records, epoch, closed_s, segments }
}

/// Checks one reply: HTTP 200, a valid report of the asked algorithm on
/// the asked instance (its n and m, from a local regeneration), within
/// the latency limit. Returns the row.
pub fn check_reply(
    record: &Record,
    expected: &mut HashMap<(&'static str, usize, u64), (usize, usize)>,
) -> Result<Value, String> {
    let reply = record.reply.as_ref().map_err(|e| e.clone())?;
    let row = parse_row(reply)?;
    let job = &record.job;
    if row.get("valid").and_then(Value::as_bool) != Some(true) {
        return Err(format!("job {job:?}: reply is not a valid 2-ECSS"));
    }
    if row.get("algorithm").and_then(Value::as_str) != Some(job.algorithm) {
        return Err(format!("job {job:?}: reply is for another algorithm"));
    }
    let (n, m) = match expected.get(&(job.family, job.n, job.seed)) {
        Some(&nm) => nm,
        None => {
            let g = instance_by_label(job.family, job.n, MAX_WEIGHT, job.seed)?;
            expected.insert((job.family, job.n, job.seed), (g.n(), g.m()));
            (g.n(), g.m())
        }
    };
    let got = |key: &str| row.get(key).and_then(Value::as_f64).map(|x| x as usize);
    if (got("n"), got("m")) != (Some(n), Some(m)) {
        return Err(format!(
            "job {job:?}: reply n/m {:?}/{:?}, instance {n}/{m}",
            got("n"),
            got("m")
        ));
    }
    let latency = record.at.latency_ms();
    if latency > LIMIT_MS {
        return Err(format!(
            "job {job:?}: {latency:.1} ms is over the {LIMIT_MS} ms limit"
        ));
    }
    Ok(row)
}

pub fn run_serve(opts: Opts, host: &mut HostRef) -> Result<Run, String> {
    let (setup, setup_s) = repeated_setup(SERVE_SETUP_REPS, setup_serve)?;
    let load = serve_load(opts, &setup, host);
    let mut run = Run { setup_s, ..Run::default() };
    run.failures
        .extend(setup.handle.server().service().log().audit().err());
    let summary = setup.handle.drain(Duration::ZERO);
    let mut expected = HashMap::new();
    let quality_jobs = QUALITY_DECKS * deck_len();
    let (mut hits, mut closed_ok) = (0u64, 0u64);
    let (mut late, mut open_latency) = (Vec::new(), Vec::new());
    for record in &load.records {
        run.attempted += 1;
        // op_ms comes from the closed loop. The open loop's latency
        // drifted by a third within an hour on a 2-vCPU host as its idle
        // threads' wake-ups slowed, which the reference did not correct;
        // it is printed below as a diagnostic.
        if record.phase == 1 {
            open_latency.push(record.at.latency_ms());
            late.push(record.at.late_ms());
        } else {
            run.op_samples.push(record.at.latency_ms());
        }
        match check_reply(record, &mut expected) {
            Ok(row) => {
                // Quality means over the same jobs in every run; how
                // far the closed loop gets depends on the host.
                if record.index < quality_jobs {
                    run.ratios.extend(row.get("certified_ratio").and_then(Value::as_f64));
                    run.rounds.extend(row.get("rounds").and_then(Value::as_f64));
                }
                hits += u64::from(row.get("cache_hit").and_then(Value::as_bool) == Some(true));
                closed_ok += u64::from(record.phase == 2);
            }
            Err(e) => run.failures.push(e),
        }
    }
    run.ops_per_s = closed_ok as f64 / load.closed_s;
    let open = open_latency.len();
    run.notes.push(format!(
        "requests: {open} open-loop at {OPEN_RATE}/s, {} closed-loop with {CLIENTS} clients \
         over {:.2} s in {} segments; cache hits {hits}",
        load.records.len() - open,
        load.closed_s,
        load.segments
    ));
    run.notes.push(format!(
        "open loop: latency median {:.3} ms, tail {:.3} ms; generator lateness median {:.3} ms, max {:.3} ms",
        stats::median(&open_latency),
        stats::tail(&open_latency).map_or(f64::NAN, |t| t.value),
        stats::median(&late),
        late.iter().copied().fold(0.0, f64::max)
    ));
    run.notes.push(format!(
        "server: {} accepted, {} shed, {} busy refusals",
        summary.net.accepted, summary.net.shed, summary.net.refused_busy
    ));
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Prints the `"pins"` entries of `meta.json`. Run it only when a
    /// generator change is meant to change the instances:
    /// `cargo test --release -- --ignored print_pins --nocapture`.
    #[test]
    #[ignore]
    fn print_pins() {
        for kind in SOLVE_KINDS {
            let fp = graph_fingerprint(&kind.generate());
            println!("\"{}\": \"{fp:016x}\",", kind.label());
        }
    }

    #[test]
    fn job_sequence_replays_and_mixes_as_documented() {
        let mut a = JobGen::new(9);
        let mut b = JobGen::new(9);
        // Asking out of order (as racing client threads do) changes
        // nothing: job i is a function of the seed and i.
        let n = 5 * deck_len();
        let late_first = b.job(n - 1);
        let seq: Vec<Job> = (0..n).map(|i| a.job(i)).collect();
        assert_eq!(seq[n - 1], late_first);
        assert!((0..n).all(|i| b.job(i) == seq[i]));
        let other: Vec<Job> = (0..n).map(|i| JobGen::new(10).job(i)).collect();
        assert_ne!(other, seq);

        // Every seed serves the same mix, deck by deck.
        let mix = |jobs: &[Job]| {
            let mut kinds: Vec<(&str, usize, bool)> =
                jobs.iter().map(|j| (j.algorithm, j.n, j.deltas.is_empty())).collect();
            kinds.sort_unstable();
            kinds
        };
        let fresh = |jobs: &[Job]| -> Vec<Job> {
            let mut seen: Vec<Job> = warm_jobs();
            jobs.iter()
                .filter(|j| {
                    !seen.contains(j) && {
                        seen.push((*j).clone());
                        true
                    }
                })
                .cloned()
                .collect()
        };
        assert_eq!(mix(&fresh(&seq)), mix(&fresh(&other)));
        let repeats = n - fresh(&seq).len();
        assert_eq!(repeats, 5 * DECK_REPEATS);
        let share = repeats as f64 / n as f64;
        assert!((0.2..0.3).contains(&share), "repeat share {share}");

        assert!(seq.iter().all(|j| j.family != "nearclique"));
        assert!(seq.iter().filter(|j| j.algorithm == "greedy").all(|j| j.n == 1000));
        for algorithm in ["shortcut", "improved", "basic", "unweighted", "greedy"] {
            assert!(seq.iter().any(|j| j.algorithm == algorithm), "{algorithm}");
        }
        let body = seq.iter().find(|j| !j.deltas.is_empty()).unwrap().body();
        assert!(body.contains("\"deltas\": [\"rw("), "{body}");
    }
}
