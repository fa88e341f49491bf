//! The built-in solvers: every pipeline in the workspace behind the one
//! [`Solver`] trait.

use crate::context::SolveCx;
use crate::error::SolveError;
use crate::registry::{Solver, SolverFactory};
use crate::report::SolveReport;
use crate::request::{SolveRequest, TraceLevel};
use decss_baselines::{cheapest_cover_tap, exact_two_ecss, greedy_tap};
use decss_congest::ledger::RoundLedger;
use decss_core::{approximate_two_ecss, TapConfig, TwoEcssConfig, Variant};
use decss_graphs::{algo, EdgeId, Graph, Weight};
use decss_shortcuts::{shortcut_two_ecss_with, ShortcutConfig, ShortcutResult};
use decss_tree::RootedTree;

/// Factories for every built-in solver, in the registration order of
/// [`Registry::standard`](crate::Registry::standard).
pub const STANDARD: &[SolverFactory] = &[
    || Box::new(TapSolver { name: "improved", variant: Variant::Improved }),
    || Box::new(TapSolver { name: "basic", variant: Variant::Basic }),
    || Box::new(ShortcutSolver),
    || Box::new(GreedySolver),
    || Box::new(UnweightedSolver),
    || Box::new(ExactSolver),
    || Box::new(CheapestCoverSolver),
];

fn ledger_trace(trace: &mut Vec<String>, level: TraceLevel, ledger: &RoundLedger) {
    if level >= TraceLevel::Full {
        for (op, inv, rounds) in ledger.breakdown() {
            trace.push(format!("rounds {op} x{inv} = {rounds}"));
        }
    }
}

/// MST + tree edges → the sorted union used by every MST-plus-augmentation
/// pipeline (identical composition across solvers, pinned by the parity
/// suite).
fn compose_mst_plus(
    g: &Graph,
    tree: &RootedTree,
    augmentation: &[EdgeId],
) -> (Vec<EdgeId>, Weight) {
    let mut edges: Vec<EdgeId> = g.edge_ids().filter(|&e| tree.is_tree_edge(e)).collect();
    let mst_weight = g.weight_of(edges.iter().copied());
    edges.extend(augmentation.iter().copied());
    edges.sort_unstable();
    (edges, mst_weight)
}

/// Theorem 1.1: the deterministic primal-dual TAP pipeline (`improved`
/// `(5+ε)` / `basic` `(9+ε)` 2-ECSS).
struct TapSolver {
    name: &'static str,
    variant: Variant,
}

impl Solver for TapSolver {
    fn name(&self) -> &'static str {
        self.name
    }

    fn description(&self) -> &'static str {
        match self.variant {
            Variant::Improved => {
                "deterministic (5+e)-approximation, O((D+sqrt(n)) log^2 n / e) rounds (Theorem 1.1)"
            }
            Variant::Basic => {
                "the Section 3.5 (9+e) variant of Theorem 1.1 (<=4-cover reverse-delete)"
            }
        }
    }

    fn solve(
        &self,
        g: &Graph,
        req: &SolveRequest,
        cx: &mut SolveCx,
    ) -> Result<SolveReport, SolveError> {
        cx.checkpoint()?;
        let variant = req.variant.unwrap_or(self.variant);
        let config = TwoEcssConfig { tap: TapConfig { epsilon: req.epsilon, variant } };
        let res = approximate_two_ecss(g, &config)?;
        cx.checkpoint()?;
        let mut trace = Vec::new();
        if req.trace >= TraceLevel::Summary {
            let s = res.stats;
            trace.push(format!(
                "layers={} segments={} max-segment-diameter={} virtual-edges={}",
                s.num_layers, s.num_segments, s.max_segment_diameter, s.virtual_edges
            ));
            trace.push(format!(
                "forward-iterations={} anchors={} cleaned={} max-r-cover={}",
                s.forward_iterations, s.anchors, s.cleaned, s.max_r_cover
            ));
        }
        ledger_trace(&mut trace, req.trace, &res.ledger);
        Ok(SolveReport {
            algorithm: self.name.into(),
            label: self.name.into(),
            edges: res.edges.clone(),
            weight: res.total_weight(),
            mst_weight: Some(res.mst_weight),
            augmentation_weight: Some(res.augmentation_weight),
            lower_bound: res.lower_bound,
            guarantee: Some(config.tap.two_ecss_guarantee()),
            rounds: Some(res.ledger.total_rounds()),
            tap_stats: Some(res.stats),
            trace,
            ..SolveReport::default()
        })
    }
}

/// Theorem 1.2: the randomized `O(log n)`-approximation over
/// low-congestion shortcuts, `Õ(SC(G) + D)` rounds.
struct ShortcutSolver;

impl Solver for ShortcutSolver {
    fn name(&self) -> &'static str {
        "shortcut"
    }

    fn description(&self) -> &'static str {
        "randomized O(log n)-approximation in O~(SC(G)+D) rounds over low-congestion shortcuts (Theorem 1.2)"
    }

    fn solve(
        &self,
        g: &Graph,
        req: &SolveRequest,
        cx: &mut SolveCx,
    ) -> Result<SolveReport, SolveError> {
        cx.checkpoint()?;
        let config = shortcut_config(req);
        let res = shortcut_two_ecss_with(g, &config, cx.workspace())?;
        cx.checkpoint()?;
        Ok(shortcut_report(res, req))
    }
}

/// The request knobs folded into the shortcut pipeline's config — the
/// one mapping, shared with the session's incremental delta path.
pub(crate) fn shortcut_config(req: &SolveRequest) -> ShortcutConfig {
    let mut config = ShortcutConfig::default();
    config.setcover.epsilon = req.epsilon;
    if let Some(seed) = req.seed {
        config.setcover.seed = seed;
    }
    config
}

/// [`ShortcutResult`] → [`SolveReport`] assembly (label, trace, field
/// mapping), shared by [`ShortcutSolver`] and the session's incremental
/// delta path so both produce the identical report for the same result.
pub(crate) fn shortcut_report(res: ShortcutResult, req: &SolveRequest) -> SolveReport {
    let mut trace = Vec::new();
    if req.trace >= TraceLevel::Summary {
        trace.push(format!(
            "levels={} measured-sc={} pass-cost={} repetitions={} fallbacks={}",
            res.level_quality.len(),
            res.measured_sc,
            res.pass_cost,
            res.repetitions,
            res.fallbacks
        ));
        for (d, q) in res.level_quality.iter().enumerate() {
            trace.push(format!(
                "level {d}: alpha={} beta={} scheme={:?}",
                q.alpha, q.beta, q.scheme
            ));
        }
    }
    ledger_trace(&mut trace, req.trace, &res.ledger);
    SolveReport {
        algorithm: "shortcut".into(),
        label: "shortcut (Theorem 1.2)".into(),
        edges: res.edges.clone(),
        weight: res.total_weight(),
        mst_weight: Some(res.mst_weight),
        augmentation_weight: Some(res.augmentation_weight),
        lower_bound: res.lower_bound(),
        rounds: Some(res.ledger.total_rounds()),
        measured_sc: Some(res.measured_sc),
        level_quality: res.level_quality,
        pass_cost: Some(res.pass_cost),
        fallbacks: Some(res.fallbacks),
        trace,
        ..SolveReport::default()
    }
}

/// The centralized greedy set-cover TAP baseline (`O(log n)` quality,
/// no round model).
struct GreedySolver;

impl Solver for GreedySolver {
    fn name(&self) -> &'static str {
        "greedy"
    }

    fn description(&self) -> &'static str {
        "centralized greedy set-cover baseline, O(log n)-approximate augmentation (no round model)"
    }

    fn solve(
        &self,
        g: &Graph,
        req: &SolveRequest,
        cx: &mut SolveCx,
    ) -> Result<SolveReport, SolveError> {
        cx.checkpoint()?;
        if !algo::is_two_edge_connected(g) {
            return Err(SolveError::NotTwoEdgeConnected);
        }
        let tree = RootedTree::mst(g);
        cx.checkpoint()?;
        let (aug, aug_weight) =
            greedy_tap(g, &tree, || cx.checkpoint())?.ok_or(SolveError::NotTwoEdgeConnected)?;
        let (edges, mst_weight) = compose_mst_plus(g, &tree, &aug);
        let mut trace = Vec::new();
        if req.trace >= TraceLevel::Summary {
            trace.push(format!(
                "greedy picks={} candidates={}",
                aug.len(),
                g.m() - (g.n() - 1)
            ));
        }
        Ok(SolveReport {
            algorithm: "greedy".into(),
            label: "greedy baseline".into(),
            edges,
            weight: mst_weight + aug_weight,
            mst_weight: Some(mst_weight),
            augmentation_weight: Some(aug_weight),
            lower_bound: mst_weight as f64,
            trace,
            ..SolveReport::default()
        })
    }
}

/// The unweighted MIS + petals special case (Section 3.6.1), run on the
/// MST (4-approximate augmentation for unit weights).
struct UnweightedSolver;

impl Solver for UnweightedSolver {
    fn name(&self) -> &'static str {
        "unweighted"
    }

    fn description(&self) -> &'static str {
        "the Section 3.6.1 MIS+petals pipeline (ignores weights; 4-approximate augmentation on unit weights)"
    }

    fn solve(
        &self,
        g: &Graph,
        req: &SolveRequest,
        cx: &mut SolveCx,
    ) -> Result<SolveReport, SolveError> {
        cx.checkpoint()?;
        // Checked here, not just inside the TAP engine: `RootedTree::mst`
        // panics on a disconnected graph, and the trait contract promises
        // `NotTwoEdgeConnected` on every infeasible input.
        if !algo::is_two_edge_connected(g) {
            return Err(SolveError::NotTwoEdgeConnected);
        }
        let tree = RootedTree::mst(g);
        cx.checkpoint()?;
        let res = decss_core::algorithm::approximate_tap_unweighted(g, &tree)?;
        let (edges, mst_weight) = compose_mst_plus(g, &tree, &res.augmentation);
        let mut trace = Vec::new();
        if req.trace >= TraceLevel::Summary {
            let s = res.stats;
            trace.push(format!(
                "layers={} segments={} anchors={} virtual-edges={}",
                s.num_layers, s.num_segments, s.anchors, s.virtual_edges
            ));
        }
        ledger_trace(&mut trace, req.trace, &res.ledger);
        Ok(SolveReport {
            algorithm: "unweighted".into(),
            label: "unweighted (Section 3.6.1)".into(),
            edges,
            weight: mst_weight + res.weight,
            mst_weight: Some(mst_weight),
            augmentation_weight: Some(res.weight),
            lower_bound: (mst_weight as f64).max(res.dual_lower_bound),
            rounds: Some(res.ledger.total_rounds()),
            tap_stats: Some(res.stats),
            trace,
            ..SolveReport::default()
        })
    }
}

/// Exact minimum-weight 2-ECSS by branch-and-bound subset search (tiny
/// instances; the problem is NP-hard).
struct ExactSolver;

impl Solver for ExactSolver {
    fn name(&self) -> &'static str {
        "exact"
    }

    fn description(&self) -> &'static str {
        "exact optimum by pruned subset enumeration (instances up to 22 edges; NP-hard)"
    }

    fn solve(
        &self,
        g: &Graph,
        _req: &SolveRequest,
        cx: &mut SolveCx,
    ) -> Result<SolveReport, SolveError> {
        if g.m() > decss_baselines::exact_ecss::MAX_EDGES {
            return Err(SolveError::TooLarge {
                algorithm: "exact",
                limit: decss_baselines::exact_ecss::MAX_EDGES,
                got: g.m(),
                unit: "edges",
            });
        }
        cx.checkpoint()?;
        let (edges, weight) = exact_two_ecss(g).ok_or(SolveError::NotTwoEdgeConnected)?;
        Ok(SolveReport {
            algorithm: "exact".into(),
            label: "exact optimum".into(),
            edges,
            weight,
            lower_bound: weight as f64,
            guarantee: Some(1.0),
            ..SolveReport::default()
        })
    }
}

/// The per-tree-edge cheapest-cover heuristic (unbounded ratio; the
/// sanity baseline).
struct CheapestCoverSolver;

impl Solver for CheapestCoverSolver {
    fn name(&self) -> &'static str {
        "cheapest-cover"
    }

    fn description(&self) -> &'static str {
        "per-tree-edge cheapest-cover heuristic (unbounded ratio; sanity baseline)"
    }

    fn solve(
        &self,
        g: &Graph,
        _req: &SolveRequest,
        cx: &mut SolveCx,
    ) -> Result<SolveReport, SolveError> {
        cx.checkpoint()?;
        if !algo::is_two_edge_connected(g) {
            return Err(SolveError::NotTwoEdgeConnected);
        }
        let tree = RootedTree::mst(g);
        cx.checkpoint()?;
        let (aug, aug_weight) =
            cheapest_cover_tap(g, &tree).ok_or(SolveError::NotTwoEdgeConnected)?;
        let (edges, mst_weight) = compose_mst_plus(g, &tree, &aug);
        Ok(SolveReport {
            algorithm: "cheapest-cover".into(),
            label: "cheapest-cover heuristic".into(),
            edges,
            weight: mst_weight + aug_weight,
            mst_weight: Some(mst_weight),
            augmentation_weight: Some(aug_weight),
            lower_bound: mst_weight as f64,
            ..SolveReport::default()
        })
    }
}
