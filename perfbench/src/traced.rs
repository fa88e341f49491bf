//! The traced run: per-layer metrics from spans recorded around the
//! benchmark's calls into each crate's public phase functions.
//!
//! For Thm 1.1 and Thm 1.2 each op is solved twice: once through
//! `SolverSession::solve` (untraced, the front door) and once replayed
//! phase by phase with the public functions, in the order
//! `approximate_two_ecss` and `shortcut_two_ecss_with` call them. The
//! replay must reproduce the session's edges, weight and rounds, or the
//! run fails. `delta-reweight` replays the session's delta path the same
//! way; `serve-http` reads queue wait and solve time from the service
//! log and replays job parsing offline over the request bodies.
//!
//! This module may follow the phase APIs wherever they move; the
//! end-to-end runner in `e2e` does not depend on it.

use crate::e2e::{self, Opts, Workload};
use crate::host::HostRef;
use crate::load::Rng;
use crate::meta::Meta;
use crate::spans::{self, Span, Tracer};
use crate::stats;
use decss_congest::ledger::RoundLedger;
use decss_core::forward::forward_phase;
use decss_core::mis::MisContext;
use decss_core::reverse::reverse_delete;
use decss_core::virtual_graph::VirtualGraph;
use decss_core::{rounds, verify, TapConfig, TwoEcssConfig, Variant};
use decss_graphs::fingerprint::graph_fingerprint;
use decss_graphs::{algo, EdgeId, Graph};
use decss_net::jobs::{instance_by_label, parse_job_specs, FileAccess};
use decss_service::EventKind;
use decss_shortcuts::setcover::parallel_greedy_tap;
use decss_shortcuts::tools::ScTools;
use decss_shortcuts::workspace::ShortcutWorkspace;
use decss_shortcuts::{DynamicInstance, ShortcutConfig};
use decss_solver::{SolveReport, SolveRequest};
use decss_tree::{EulerTour, Layering, LcaOracle, RootedTree, SegmentDecomposition};
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Op id of the spans recorded during set-up.
const SETUP_OP: u64 = u64::MAX;

/// `SolverSession` keeps at most this many retained delta instances and
/// clears them all when a new one would not fit (its
/// `DYNAMIC_CACHE_CAP`); the delta replay mirrors that bookkeeping.
const SESSION_RETAINED_CAP: usize = 32;

pub struct Traced {
    pub attempted: u64,
    pub failures: Vec<String>,
    pub metrics: Vec<(String, f64, String)>,
}

/// What a replay produced, for comparison with the session's report.
struct Replayed {
    edges: Vec<EdgeId>,
    weight: u64,
    rounds: u64,
    /// Layer counts of this op, summed into per-op means.
    counts: Vec<(&'static str, f64)>,
}

impl Replayed {
    fn matches(&self, r: &SolveReport) -> Result<(), String> {
        if self.edges != r.edges || self.weight != r.weight || Some(self.rounds) != r.rounds {
            return Err(format!(
                "phase replay differs from the session: weight {} vs {}, rounds {} vs {:?}, \
                 {} vs {} edges",
                self.weight,
                r.weight,
                self.rounds,
                r.rounds,
                self.edges.len(),
                r.edges.len()
            ));
        }
        Ok(())
    }
}

/// The shared state of a traced run.
struct Acc {
    tr: Tracer,
    ops: u64,
    failures: Vec<String>,
    counts: BTreeMap<&'static str, f64>,
    values: BTreeMap<&'static str, f64>,
    session_ms: Vec<f64>,
    replay_ms: Vec<f64>,
}

impl Acc {
    /// One traced op: the session call and its phase replay, each in a
    /// span, taking turns at going first so that neither gains from
    /// its place; then the report's checks and the replay's match with
    /// it. Returns the session's time.
    fn op(
        &mut self,
        solve: impl FnOnce() -> Result<SolveReport, decss_solver::SolveError>,
        replay: impl FnOnce(&mut Tracer, u64) -> Result<Replayed, String>,
        check: impl FnOnce(&SolveReport) -> Result<(), String>,
    ) -> f64 {
        let op = self.ops;
        self.ops += 1;
        let (report, replayed) = if op.is_multiple_of(2) {
            let report = self.tr.span("solver.solve", op, |_| solve());
            (report, self.tr.span("replay", op, |tr| replay(tr, op)))
        } else {
            let replayed = self.tr.span("replay", op, |tr| replay(tr, op));
            (self.tr.span("solver.solve", op, |_| solve()), replayed)
        };
        let last = |name| {
            ms(self
                .tr
                .spans()
                .iter()
                .rfind(|s| s.name == name)
                .expect("the op's span"))
        };
        let (session_ms, replay_ms) = (last("solver.solve"), last("replay"));
        self.session_ms.push(session_ms);
        self.replay_ms.push(replay_ms);
        let checked = report.map_err(|e| e.to_string()).and_then(|r| {
            check(&r)?;
            let replayed = replayed?;
            replayed.matches(&r)?;
            Ok(replayed)
        });
        match checked {
            Ok(replayed) => {
                for (name, v) in replayed.counts {
                    *self.counts.entry(name).or_default() += v;
                }
            }
            Err(e) => self.failures.push(e),
        }
        session_ms
    }
}

fn ms(span: &Span) -> f64 {
    span.ns() as f64 / 1e6
}

// --------------------------------------------------------------- replays

/// Thm 1.1 in the order `approximate_two_ecss` → `approximate_tap`
/// runs it, then the session's validation.
fn replay_thm11(
    tr: &mut Tracer,
    op: u64,
    g: &Graph,
    config: &TwoEcssConfig,
) -> Result<Replayed, String> {
    if !tr.span("graphs.check", op, |_| algo::is_two_edge_connected(g)) {
        return Err("replay: not 2-edge-connected".into());
    }
    let tree = tr.span("tree.mst", op, |_| RootedTree::mst(g));
    if !tr.span("graphs.check", op, |_| algo::is_two_edge_connected(g)) {
        return Err("replay: not 2-edge-connected".into());
    }
    let (lca, layering, segments) = tr.span("tree.decomp", op, |_| {
        let lca = LcaOracle::new(&tree);
        let layering = Layering::new(&tree);
        let euler = EulerTour::new(&tree);
        let segments = SegmentDecomposition::new(&tree, &euler);
        (lca, layering, segments)
    });
    let (params, mut ledger) = tr.span("core.rounds", op, |_| {
        let params = rounds::measure(g, tree.root(), &segments);
        let mut ledger = RoundLedger::new();
        rounds::charge_setup(&mut ledger, &params, layering.num_layers());
        (params, ledger)
    });
    let (vg, engine, weights) = tr.span("core.virtual_graph", op, |_| {
        let vg = VirtualGraph::new(g, &tree, &lca);
        let engine = vg.engine(&tree, &lca);
        let weights = vg.weights_f64();
        (vg, engine, weights)
    });
    let tap = config.tap;
    let fwd = tr.span("core.forward", op, |_| {
        forward_phase(
            &tree,
            &layering,
            &engine,
            &weights,
            tap.epsilon_prime(),
            &params,
            &mut ledger,
        )
    });
    let rev = tr.span("core.reverse", op, |_| {
        let ctx = MisContext {
            tree: &tree,
            lca: &lca,
            layering: &layering,
            segments: &segments,
            engine: &engine,
        };
        let rev = reverse_delete(&ctx, &fwd, tap.variant, &params, &mut ledger);
        let counts = engine.covering_count(&rev.in_b);
        black_box(verify::max_r_cover(&counts, &fwd.r_edge));
        rev
    });
    let (edges, weight) = tr.span("core.assemble", op, |_| {
        let augmentation = vg.to_graph_edges((0..vg.len()).filter(|&i| rev.in_b[i]));
        let augmentation_weight = g.weight_of(augmentation.iter().copied());
        let mut edges: Vec<EdgeId> = g.edge_ids().filter(|&e| tree.is_tree_edge(e)).collect();
        let mst_weight = g.weight_of(edges.iter().copied());
        edges.extend(augmentation);
        edges.sort_unstable();
        (edges, mst_weight + augmentation_weight)
    });
    if !tr.span("graphs.validate", op, |_| {
        algo::two_edge_connected_in(g, edges.iter().copied())
    }) {
        return Err("replay: output is not a 2-ECSS".into());
    }
    Ok(Replayed {
        edges,
        weight,
        rounds: ledger.total_rounds(),
        counts: vec![
            ("core.forward_iterations", fwd.iterations as f64),
            ("core.anchors", rev.total_anchors as f64),
        ],
    })
}

/// Thm 1.2 in the order `shortcut_two_ecss_with` runs it, then the
/// session's validation.
fn replay_thm12(
    tr: &mut Tracer,
    op: u64,
    g: &Graph,
    config: &ShortcutConfig,
    ws: &mut ShortcutWorkspace,
) -> Result<Replayed, String> {
    if !tr.span("graphs.check", op, |_| algo::is_two_edge_connected(g)) {
        return Err("replay: not 2-edge-connected".into());
    }
    let tree = tr.span("tree.mst", op, |_| RootedTree::mst(g));
    tr.span("shortcuts.workspace", op, |_| ws.ensure(g));
    let tools = tr.span("shortcuts.tools", op, |_| ScTools::new_with(g, &tree, ws));
    let mut ledger = RoundLedger::new();
    ledger.charge("sc.mst", tools.pass_cost());
    let cover = tr
        .span("shortcuts.set_cover", op, |_| {
            parallel_greedy_tap(&tools, &config.setcover, &mut ledger, ws)
        })
        .ok_or("replay: set cover found no augmentation")?;
    let (edges, weight) = tr.span("shortcuts.assemble", op, |_| {
        let mut edges: Vec<EdgeId> = g.edge_ids().filter(|&e| tree.is_tree_edge(e)).collect();
        let mst_weight = g.weight_of(edges.iter().copied());
        edges.extend(cover.chosen.iter().copied());
        edges.sort_unstable();
        (edges, mst_weight + cover.weight)
    });
    if !tr.span("graphs.validate", op, |_| {
        algo::two_edge_connected_in(g, edges.iter().copied())
    }) {
        return Err("replay: output is not a 2-ECSS".into());
    }
    Ok(Replayed {
        edges,
        weight,
        rounds: ledger.total_rounds(),
        counts: vec![("shortcuts.repetitions", cover.repetitions as f64)],
    })
}

/// The request knobs the session folds into each pipeline's config
/// (defaults: ε = 0.25, no seed).
fn configs() -> (TwoEcssConfig, ShortcutConfig) {
    let req = SolveRequest::new("improved");
    let thm11 = TwoEcssConfig {
        tap: TapConfig { epsilon: req.epsilon, variant: Variant::Improved },
    };
    let mut thm12 = ShortcutConfig::default();
    thm12.setcover.epsilon = req.epsilon;
    (thm11, thm12)
}

// ------------------------------------------------------------- workloads

fn trace_solves(opts: Opts, meta: &Meta, host: &mut HostRef, acc: &mut Acc) -> Result<(), String> {
    let algorithm = opts.workload.algorithm();
    let (thm11, thm12) = configs();
    let setup = Instant::now();
    let mut graphs = Vec::new();
    for kind in e2e::SOLVE_KINDS {
        let g = acc.tr.span("graphs.gen", SETUP_OP, |_| kind.generate());
        let fp = acc.tr.span("graphs.fingerprint", SETUP_OP, |_| graph_fingerprint(&g));
        meta.check_pin(kind.label(), fp)?;
        graphs.push(g);
    }
    let mut session = decss_solver::SolverSession::new();
    let req = SolveRequest::new(algorithm);
    let mut ws = ShortcutWorkspace::new(&graphs[0]);
    let mut warm = Tracer::new();
    for g in &graphs {
        let r = session.solve(g, &req).map_err(|e| e.to_string())?;
        e2e::check_report(&r, g, algorithm)?;
        match opts.workload {
            Workload::Thm11 => replay_thm11(&mut warm, 0, g, &thm11)?,
            _ => replay_thm12(&mut warm, 0, g, &thm12, &mut ws)?,
        };
    }
    acc.values.insert("wall.setup_s", setup.elapsed().as_secs_f64());

    let mut order = Rng::stream(opts.seed, e2e::STREAM_ORDER);
    let mut pass_means = Vec::new();
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < opts.seconds {
        let mut pass_ms = 0.0;
        for k in e2e::pass_order(&mut order) {
            let g = &graphs[k];
            pass_ms += acc.op(
                || session.solve(g, &req),
                |tr, op| match opts.workload {
                    Workload::Thm11 => replay_thm11(tr, op, g, &thm11),
                    _ => replay_thm12(tr, op, g, &thm12, &mut ws),
                },
                |r| e2e::check_report(r, g, algorithm),
            );
        }
        pass_means.push(pass_ms / 2.0);
        host.top_up(started.elapsed());
    }
    acc.values.insert("wall.op_ms", stats::median(&pass_means));
    acc.values.insert(
        "wall.op_ms.tail",
        stats::tail(&pass_means).map_or(f64::NAN, |t| t.value),
    );
    Ok(())
}

fn trace_delta(opts: Opts, meta: &Meta, host: &mut HostRef, acc: &mut Acc) -> Result<(), String> {
    let (_, config) = configs();
    let setup = Instant::now();
    let base = acc.tr.span("graphs.gen", SETUP_OP, |_| e2e::Big::Grid.generate());
    let fp = acc
        .tr
        .span("graphs.fingerprint", SETUP_OP, |_| graph_fingerprint(&base));
    meta.check_pin(e2e::Big::Grid.label(), fp)?;
    let mut s = e2e::setup_delta_on(base, opts.seed)?;
    acc.values.insert("wall.setup_s", setup.elapsed().as_secs_f64());

    // The session's retained-instance map, mirrored: this workload only
    // ever looks up the base, so the mirror keeps the base instance and
    // the map's size, and replays the warm-up's two batches to match.
    let mut retained: (Option<DynamicInstance>, usize) = (None, 0);
    let mut warm_tracer = Tracer::new();
    let mut warm = Rng::stream(opts.seed, e2e::STREAM_WARM_DELTAS);
    for _ in 0..2 {
        let batch = e2e::reweight_batch(&mut warm, &s.base, &s.candidates);
        replay_delta(&mut warm_tracer, 0, &s.base, &batch, &config, &mut retained)?;
    }

    let mut batches = Rng::stream(opts.seed, e2e::STREAM_DELTAS);
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < opts.seconds {
        let batch = e2e::reweight_batch(&mut batches, &s.base, &s.candidates);
        let req = SolveRequest::new("shortcut").deltas(batch.clone());
        let (session, base) = (&mut s.session, &s.base);
        acc.op(
            || session.solve(base, &req),
            |tr, op| replay_delta(tr, op, base, &batch, &config, &mut retained),
            |r| e2e::check_delta(r, base, &batch),
        );
        host.top_up(started.elapsed());
    }
    acc.values.insert("wall.op_ms", stats::median(&acc.session_ms));
    Ok(())
}

/// The session's delta path for one batch against `base`:
/// fingerprint, retained-instance lookup (or a cold build), the parked
/// clone, the incremental apply, and validation.
fn replay_delta(
    tr: &mut Tracer,
    op: u64,
    base: &Graph,
    batch: &[decss_solver::GraphDelta],
    config: &ShortcutConfig,
    retained: &mut (Option<DynamicInstance>, usize),
) -> Result<Replayed, String> {
    black_box(tr.span("graphs.fingerprint", op, |_| graph_fingerprint(base)));
    let mut inst = match retained.0.take() {
        Some(inst) => {
            retained.1 -= 1;
            inst
        }
        None => tr.span("shortcuts.delta_build", op, |_| DynamicInstance::new(base.clone())),
    };
    let parked = tr.span("shortcuts.instance_clone", op, |_| inst.clone());
    if retained.1 >= SESSION_RETAINED_CAP {
        retained.1 = 0;
    }
    *retained = (Some(parked), retained.1 + 1);
    let (res, stats) = tr
        .span("shortcuts.delta_apply", op, |_| inst.apply(batch, config))
        .map_err(|e| format!("replay: {e}"))?;
    if !tr.span("graphs.validate", op, |_| {
        algo::two_edge_connected_in(inst.graph(), res.edges.iter().copied())
    }) {
        return Err("replay: output is not a 2-ECSS".into());
    }
    // Parking the mutated instance may clear the map, base included.
    if retained.1 >= SESSION_RETAINED_CAP {
        *retained = (None, 0);
    }
    retained.1 += 1;
    Ok(Replayed {
        weight: res.total_weight(),
        rounds: res.ledger.total_rounds(),
        edges: res.edges,
        counts: vec![
            ("shortcuts.parts_redone", stats.parts_redone as f64),
            ("shortcuts.levels_redone", stats.levels_redone as f64),
            ("shortcuts.fell_back", f64::from(u8::from(stats.fell_back))),
        ],
    })
}

fn trace_serve(opts: Opts, host: &mut HostRef, acc: &mut Acc) -> Result<(), String> {
    let setup_started = Instant::now();
    let setup = e2e::setup_serve()?;
    acc.values
        .insert("wall.setup_s", setup_started.elapsed().as_secs_f64());
    let load = e2e::serve_load(opts, &setup, host);
    let events = setup.handle.server().service().log().snapshot();
    acc.failures
        .extend(setup.handle.server().service().log().audit().err());
    let log_origin = acc.tr.ns_at(setup.opened);
    let epoch = acc.tr.ns_at(load.epoch);
    drop(setup.handle.drain(Duration::ZERO));

    // Client-side request spans, timed from the send.
    let at_ns = |secs: f64| epoch + (secs * 1e9) as u64;
    let mut request_ms = Vec::new();
    let mut late = Vec::new();
    let (mut closed_latency, mut closed_ok) = (Vec::new(), 0u64);
    let mut expected = HashMap::new();
    let (mut miss_ms, mut greedy_ms) = (Vec::new(), Vec::new());
    for r in &load.records {
        acc.ops += 1;
        let op = r.index as u64;
        let span = Span {
            name: "net.request",
            op,
            parent: None,
            start_ns: at_ns(r.at.sent),
            end_ns: at_ns(r.at.done),
        };
        request_ms.push(ms(&span));
        acc.tr.record(span);
        if r.phase == 1 {
            late.push(r.at.late_ms());
        } else {
            closed_latency.push(r.at.latency_ms());
        }
        let class = match r.reply.as_ref().map_or(0, |reply| reply.status) {
            200..=299 => Some("net.status_2xx"),
            400..=499 => Some("net.status_4xx"),
            500..=599 => Some("net.status_5xx"),
            _ => None,
        };
        if let Some(class) = class {
            *acc.counts.entry(class).or_default() += 1.0;
        }
        match e2e::check_reply(r, &mut expected) {
            Ok(row) => {
                closed_ok += u64::from(r.phase == 2);
                let hit = row.get("cache_hit").and_then(crate::json::Value::as_bool) == Some(true);
                let wall = row.get("wall_ms").and_then(crate::json::Value::as_f64);
                if let (false, Some(wall)) = (hit, wall) {
                    miss_ms.push(wall);
                    if r.job.algorithm == "greedy" {
                        greedy_ms.push(wall);
                    }
                }
            }
            Err(e) => acc.failures.push(e),
        }
    }

    // Service-side spans from the log, for the jobs of the measured
    // phases (the warm-up's jobs were submitted before the epoch).
    let mut jobs: BTreeMap<u64, ([Option<u64>; 3], bool)> = BTreeMap::new();
    for e in &events {
        let job = jobs.entry(e.job.0).or_default();
        let slot = match e.kind {
            EventKind::Submitted => 0,
            EventKind::Started { .. } => 1,
            EventKind::Finished { cache_hit, .. } => {
                job.1 = cache_hit;
                2
            }
        };
        job.0[slot] = Some(log_origin + e.at_us * 1000);
    }
    let (mut queue_ms, mut run_ms, mut job_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut hits = 0u64;
    for (id, ([submit, start, finish], hit)) in jobs {
        let (Some(submit), Some(start), Some(finish)) = (submit, start, finish) else {
            continue;
        };
        if submit < epoch {
            continue;
        }
        let queue = Span {
            name: "service.queue",
            op: id,
            parent: None,
            start_ns: submit,
            end_ns: start,
        };
        let run = Span {
            name: "service.run",
            op: id,
            parent: None,
            start_ns: start,
            end_ns: finish,
        };
        queue_ms.push(ms(&queue));
        run_ms.push(ms(&run));
        job_ms.push(ms(&queue) + ms(&run));
        acc.tr.record(queue);
        acc.tr.record(run);
        hits += u64::from(hit);
    }
    acc.values.insert(
        "service.cache_hit_pct",
        100.0 * hits as f64 / job_ms.len().max(1) as f64,
    );
    acc.values.insert("service.queue_wait_ms", stats::mean(&queue_ms));
    acc.values.insert("service.solve_ms", stats::mean(&run_ms));
    // Means are additive, so this is the mean over requests of the time
    // each spent outside the service, without pairing requests to jobs
    // (HTTP replies carry no job id).
    acc.values
        .insert("net.overhead_ms", stats::mean(&request_ms) - stats::mean(&job_ms));
    acc.values.insert("solver.solve_ms", stats::mean(&miss_ms));
    acc.values.insert(
        "baselines.greedy_ms",
        if greedy_ms.is_empty() {
            0.0
        } else {
            stats::mean(&greedy_ms)
        },
    );
    acc.values.insert("load.late_ms", stats::median(&late));
    acc.values
        .insert("load.late_ms.tail", stats::tail(&late).map_or(0.0, |t| t.value));
    acc.values.insert("wall.op_ms", stats::median(&closed_latency));
    acc.values.insert(
        "wall.op_ms.tail",
        stats::tail(&closed_latency).map_or(f64::NAN, |t| t.value),
    );
    acc.values.insert("wall.ops_per_s", closed_ok as f64 / load.closed_s);

    // Offline replay of what a connection worker does before submitting:
    // parse the body (which generates the instance), then the cache key's
    // fingerprint; generation is also timed on its own.
    for r in &load.records {
        let op = r.index as u64;
        let body = r.job.body();
        let specs = acc
            .tr
            .span("net.parse", op, |_| parse_job_specs(&body, FileAccess::Denied))?;
        let spec = specs.first().ok_or("replay: empty job document")?;
        black_box(
            acc.tr
                .span("graphs.fingerprint", op, |_| graph_fingerprint(&spec.graph)),
        );
        let job = &r.job;
        black_box(acc.tr.span("graphs.gen", op, |_| {
            instance_by_label(job.family, job.n, e2e::MAX_WEIGHT, job.seed)
        })?);
    }
    // The spans are built after the run from timestamps the load takes
    // anyway, so tracing adds nothing to the request path.
    acc.values.insert("trace.overhead_pct", 0.0);
    Ok(())
}

// ---------------------------------------------------------------- report

pub fn run(opts: Opts, meta: &Meta, host: &mut HostRef) -> Result<Traced, String> {
    let mut acc = Acc {
        tr: Tracer::new(),
        ops: 0,
        failures: Vec::new(),
        counts: BTreeMap::new(),
        values: BTreeMap::new(),
        session_ms: Vec::new(),
        replay_ms: Vec::new(),
    };
    match opts.workload {
        Workload::Thm11 | Workload::Thm12 => trace_solves(opts, meta, host, &mut acc)?,
        Workload::Delta => trace_delta(opts, meta, host, &mut acc)?,
        Workload::Serve => trace_serve(opts, host, &mut acc)?,
    }
    let ops = acc.ops.max(1) as f64;
    let spans = acc.tr.spans();
    let names = spans::by_name(spans);

    println!(
        "workload {} seed {} seconds {} (traced, {} ops)",
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        acc.ops
    );
    println!(
        "  {:<28} {:>7} {:>12} {:>12} {:>12}",
        "span", "calls", "total ms", "self ms", "self ms/op"
    );
    for (name, &(calls, total, own)) in &names {
        println!(
            "  {name:<28} {calls:>7} {:>12.3} {:>12.3} {:>12.4}",
            total as f64 / 1e6,
            own as f64 / 1e6,
            own as f64 / 1e6 / ops
        );
    }
    for (&name, &sum) in &acc.counts {
        let per_op = if name.starts_with("net.status") || name == "shortcuts.fell_back" {
            sum
        } else {
            sum / ops
        };
        acc.values.insert(name, per_op);
    }
    if !acc.session_ms.is_empty() {
        // Session time minus the replayed phases (the replay span less
        // its own glue), per op.
        let phases_ns: u64 = names.get("replay").map_or(0, |&(_, total, own)| total - own);
        let session_ns = names.get("solver.solve").map_or(0, |&(_, total, _)| total);
        acc.values.insert(
            "solver.overhead_ms",
            (session_ns as f64 - phases_ns as f64) / 1e6 / ops,
        );
        let (session, replay) = (stats::median(&acc.session_ms), stats::median(&acc.replay_ms));
        acc.values
            .insert("trace.overhead_pct", 100.0 * (replay / session - 1.0));
        acc.values.insert("trace.replay_op_ms", replay);
        acc.values
            .entry("wall.op_ms.tail")
            .or_insert_with(|| stats::tail(&acc.session_ms).map_or(f64::NAN, |t| t.value));
        acc.values.insert(
            "wall.ops_per_s",
            acc.session_ms.len() as f64 / (acc.session_ms.iter().sum::<f64>() / 1e3),
        );
        println!(
            "  tracing overhead: replayed op median {replay:.3} ms vs untraced session op median {session:.3} ms ({:+.2}%)",
            100.0 * (replay / session - 1.0)
        );
    } else {
        println!("  tracing overhead: none on the request path (spans are built after the run)");
    }
    acc.values.insert("host.ref_ms", host.median_ms());
    acc.values.insert("wall.peak_rss_mb", crate::peak_rss_mb());

    let path = std::path::PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out")).join(format!(
        "spans-{}-{}.jsonl",
        opts.workload.name(),
        opts.seed
    ));
    match acc.tr.write_jsonl(&path) {
        Ok(()) => println!("  spans: {} written to {}", spans.len(), path.display()),
        Err(e) => println!("  spans: not written ({e})"),
    }
    // Every workload reports every per-layer metric of BENCHMARK.json. A
    // `<span>_ms` metric the run did not set is the mean self time per
    // call of that span; a layer the ops never reach reads 0.
    let metrics: Vec<(String, f64, String)> = meta
        .per_layer
        .iter()
        .map(|(name, unit)| {
            let span_ms = || {
                let (calls, _, own) = *names.get(name.strip_suffix("_ms")?)?;
                Some(own as f64 / 1e6 / calls as f64)
            };
            let value = acc.values.get(name.as_str()).copied().or_else(span_ms);
            (name.clone(), value.unwrap_or(0.0), unit.clone())
        })
        .collect();
    for (name, value, unit) in &metrics {
        println!("  {name} {value:.4} {unit}");
    }
    Ok(Traced { attempted: acc.ops, failures: acc.failures, metrics })
}
