//! The forward (primal-dual) phase of the algorithm (Sections 3.4, 4.4).
//!
//! The phase processes the layers in increasing order. Epoch `k` raises
//! the dual variables `y(t)` of the still-uncovered layer-`k` tree edges
//! `R_k`: the first iteration sets each to the largest feasible value
//! `min_{e ∋ t} (w(e) − s(e)) / |S_e^k|`, and every subsequent iteration
//! multiplies the still-uncovered ones by `(1 + ε')`. A virtual edge
//! whose dual constraint `s(e) = Σ_{t ∈ S_e} y(t) ≥ w(e)` goes tight is
//! added to the candidate augmentation `A`. At the end:
//!
//! * every tree edge is covered by `A`,
//! * every `e ∈ A` is tight (`s(e) ≥ w(e)`),
//! * all dual constraints hold up to `(1 + ε')` (so `Σ y / (1 + ε')` is a
//!   feasible dual and hence a lower bound on the optimal augmentation of
//!   `G'`),
//! * `y(t) > 0` only for `t ∈ R_k` of some `k`.
//!
//! Each epoch runs `O(log n / ε')` iterations, each a constant number of
//! aggregate computations (Lemma 4.12): charged per iteration.

use crate::rounds;
use decss_congest::ledger::{CostParams, RoundLedger};
use decss_tree::aggregates::CoverEngine;
use decss_tree::{Layering, RootedTree};

/// Relative tolerance for floating-point tightness tests.
pub const TIGHT_TOL: f64 = 1e-9;

/// Output of the forward phase.
#[derive(Clone, Debug)]
pub struct ForwardResult {
    /// Whether each virtual edge was added to `A`.
    pub in_a: Vec<bool>,
    /// Epoch (= layer index) at which each virtual edge entered `A`;
    /// `0` if never.
    pub epoch_added: Vec<u32>,
    /// Final dual variables, indexed by tree-edge child vertex.
    pub y: Vec<f64>,
    /// Epoch at which each tree edge was first covered (`0` for the
    /// root's slot, which holds no edge).
    pub epoch_covered: Vec<u32>,
    /// Whether each tree edge is in `R_k` for its own layer `k`, i.e.
    /// entered an epoch uncovered (exactly the dual-positive edges).
    pub r_edge: Vec<bool>,
    /// Total forward iterations across all epochs.
    pub iterations: u32,
    /// `Σ_t y(t)` — divided by `(1 + ε')` this lower-bounds the optimal
    /// augmentation weight of `G'`.
    pub dual_objective: f64,
    /// Per-epoch trace (Experiment E14).
    pub trace: Vec<crate::trace::ForwardEpochTrace>,
}

impl ForwardResult {
    /// Lower bound on the optimal TAP value of the *virtual* graph `G'`:
    /// the scaled-feasible dual objective.
    pub fn dual_lower_bound_gprime(&self, epsilon_prime: f64) -> f64 {
        self.dual_objective / (1.0 + epsilon_prime) / (1.0 + 10.0 * TIGHT_TOL)
    }
}

/// Runs the forward phase.
///
/// `weights[i]` is the weight of virtual edge `i` (matching
/// `engine.arcs()`); duals and tightness use `f64` with [`TIGHT_TOL`].
///
/// # Panics
///
/// Panics if some tree edge is covered by no virtual edge (the input
/// graph was not 2-edge-connected) or if an epoch exceeds its iteration
/// bound (cannot happen; defends against float pathology).
pub fn forward_phase(
    tree: &RootedTree,
    layering: &Layering,
    engine: &CoverEngine<'_>,
    weights: &[f64],
    epsilon_prime: f64,
    params: &CostParams,
    ledger: &mut RoundLedger,
) -> ForwardResult {
    let n = tree.n();
    let m = engine.arcs().len();
    assert_eq!(weights.len(), m);
    let mut in_a = vec![false; m];
    let mut epoch_added = vec![0u32; m];
    let mut y = vec![0.0f64; n];
    let mut covered = vec![false; n];
    let mut epoch_covered = vec![0u32; n];
    let mut r_edge = vec![false; n];
    let mut iterations = 0u32;
    let mut trace: Vec<crate::trace::ForwardEpochTrace> = Vec::new();

    // Iteration bound per epoch: y grows by (1+eps') per iteration and a
    // factor |S_e^k| <= n suffices to tighten the argmin edge.
    let max_iters = ((n.max(2) as f64).ln() / (1.0 + epsilon_prime).ln()).ceil() as u32 + 4;

    let root = tree.root();
    for k in 1..=layering.num_layers() {
        // R_k: uncovered layer-k tree edges.
        let rk: Vec<bool> = (0..n)
            .map(|vi| {
                let v = decss_graphs::VertexId(vi as u32);
                vi != root.index() && layering.layer(v) == k && !covered[vi]
            })
            .collect();
        if !rk.iter().any(|&b| b) {
            continue;
        }
        for (vi, &r) in rk.iter().enumerate() {
            if r {
                r_edge[vi] = true;
            }
        }

        let mut epoch_trace = crate::trace::ForwardEpochTrace {
            layer: k,
            r_edges: rk.iter().filter(|&&b| b).count() as u32,
            ..Default::default()
        };
        let arcs_before = in_a.iter().filter(|&&b| b).count() as u32;

        let mut first = true;
        for _round in 0..=max_iters {
            iterations += 1;
            epoch_trace.iterations += 1;
            rounds::charge_forward_iteration(ledger, params);

            if first {
                first = false;
                // s(e) and |S_e^k| for every virtual edge.
                let s = engine.covered_sum(&y);
                let ske = engine.covered_count(&rk);
                // Largest feasible y for each t in R_k.
                let keys: Vec<f64> = (0..m)
                    .map(|i| {
                        if ske[i] == 0 {
                            // Covers no R_k edge; irrelevant for R_k queries.
                            f64::MAX
                        } else {
                            ((weights[i] - s[i]) / ske[i] as f64).max(0.0)
                        }
                    })
                    .collect();
                let all = vec![true; m];
                let mins = engine.covering_argmin_f64(&all, &keys);
                for (vi, &r) in rk.iter().enumerate() {
                    if r && !covered[vi] {
                        let (val, _) = mins[vi].unwrap_or_else(|| {
                            panic!(
                                "tree edge above v{vi} is covered by no non-tree edge: \
                                 the input graph is not 2-edge-connected"
                            )
                        });
                        y[vi] = val;
                    }
                }
            } else {
                for (vi, &r) in rk.iter().enumerate() {
                    if r && !covered[vi] {
                        y[vi] *= 1.0 + epsilon_prime;
                    }
                }
            }

            // Add tight edges to A.
            let s = engine.covered_sum(&y);
            for i in 0..m {
                if !in_a[i] && s[i] >= weights[i] * (1.0 - TIGHT_TOL) {
                    in_a[i] = true;
                    epoch_added[i] = k;
                }
            }

            // Refresh coverage.
            let counts = engine.covering_count(&in_a);
            for vi in 0..n {
                if !covered[vi] && counts[vi] > 0 {
                    covered[vi] = true;
                    epoch_covered[vi] = k;
                }
            }

            let remaining = rk.iter().enumerate().any(|(vi, &r)| r && !covered[vi]);
            if !remaining {
                break;
            }
            assert!(
                _round < max_iters,
                "epoch {k} did not converge within {max_iters} iterations"
            );
        }
        epoch_trace.arcs_added = in_a.iter().filter(|&&b| b).count() as u32 - arcs_before;
        epoch_trace.dual_mass =
            rk.iter().enumerate().filter(|&(_, &r)| r).map(|(vi, _)| y[vi]).sum();
        trace.push(epoch_trace);
    }

    // Every tree edge must now be covered.
    for vi in 0..n {
        if vi != root.index() {
            assert!(
                covered[vi],
                "tree edge above v{vi} left uncovered by the forward phase"
            );
        }
    }

    let dual_objective = y.iter().sum();
    ForwardResult {
        in_a,
        epoch_added,
        y,
        epoch_covered,
        r_edge,
        iterations,
        dual_objective,
        trace,
    }
}

/// Checks that all dual constraints hold up to `(1+ε')` (with float
/// slack); returns the maximum violation ratio `s(e) / w(e)` observed.
pub fn max_dual_violation(engine: &CoverEngine<'_>, weights: &[f64], y: &[f64]) -> f64 {
    let s = engine.covered_sum(y);
    s.iter()
        .zip(weights)
        .map(|(&si, &wi)| if wi > 0.0 { si / wi } else { 1.0 })
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::virtual_graph::VirtualGraph;
    use decss_congest::ledger::RoundLedger;
    use decss_graphs::gen;
    use decss_tree::{EulerTour, LcaOracle, SegmentDecomposition};

    fn run(n: usize, extra: usize, seed: u64, eps: f64) -> (ForwardResult, VirtualGraph, f64) {
        let g = gen::sparse_two_ec(n, extra, 30, seed);
        let tree = RootedTree::mst(&g);
        let lca = LcaOracle::new(&tree);
        let layering = Layering::new(&tree);
        let euler = EulerTour::new(&tree);
        let segs = SegmentDecomposition::new(&tree, &euler);
        let params = crate::rounds::measure(&g, tree.root(), &segs);
        let vg = VirtualGraph::new(&g, &tree, &lca);
        let engine = vg.engine(&tree, &lca);
        let weights = vg.weights_f64();
        let mut ledger = RoundLedger::new();
        let fwd = forward_phase(&tree, &layering, &engine, &weights, eps, &params, &mut ledger);
        let violation = max_dual_violation(&engine, &weights, &fwd.y);
        (fwd, vg, violation)
    }

    #[test]
    fn forward_covers_everything_and_stays_feasible() {
        for seed in 0..5 {
            let (fwd, vg, violation) = run(40, 30, seed, 0.25);
            // Feasibility up to (1+eps') and float slack.
            assert!(
                violation <= (1.0 + 0.25) * (1.0 + 1e-6),
                "seed {seed}: violation {violation}"
            );
            // At least one edge entered A.
            assert!(fwd.in_a.iter().any(|&b| b));
            assert!(fwd.iterations >= 1);
            assert!(fwd.dual_objective > 0.0);
            assert_eq!(fwd.in_a.len(), vg.len());
        }
    }

    #[test]
    fn added_edges_are_tight() {
        let (fwd, vg, _) = run(30, 25, 3, 0.5);
        let g = gen::sparse_two_ec(30, 25, 30, 3);
        let tree = RootedTree::mst(&g);
        let lca = LcaOracle::new(&tree);
        let engine = vg.engine(&tree, &lca);
        let s = engine.covered_sum(&fwd.y);
        for i in 0..vg.len() {
            if fwd.in_a[i] {
                assert!(
                    s[i] >= vg.edges()[i].weight as f64 * (1.0 - 1e-6),
                    "edge {i} in A but not tight"
                );
            }
        }
    }

    #[test]
    fn dual_positive_only_on_r_edges() {
        let (fwd, _, _) = run(35, 20, 7, 0.25);
        for (vi, &yv) in fwd.y.iter().enumerate() {
            if yv > 0.0 {
                assert!(fwd.r_edge[vi], "y > 0 at non-R edge v{vi}");
            }
        }
    }

    #[test]
    fn smaller_epsilon_never_reduces_iterations() {
        // The dual grows by (1+eps) per iteration, so a finer eps can only
        // need at least as many iterations on the same instance. (Strict
        // inequality need not hold: epochs that converge in their first
        // iteration are eps-independent.)
        let mut saw_strict = false;
        for seed in 0..6 {
            let (coarse, _, _) = run(60, 40, seed, 1.0);
            let (fine, _, _) = run(60, 40, seed, 0.05);
            assert!(
                fine.iterations >= coarse.iterations,
                "seed {seed}: fine {} < coarse {}",
                fine.iterations,
                coarse.iterations
            );
            saw_strict |= fine.iterations > coarse.iterations;
        }
        assert!(saw_strict, "epsilon had no effect on any seed");
    }

    #[test]
    fn dual_lower_bound_is_sane() {
        let (fwd, vg, _) = run(30, 30, 5, 0.25);
        let lb = fwd.dual_lower_bound_gprime(0.25 / 2.0);
        assert!(lb > 0.0);
        // The bound cannot exceed the weight of all virtual edges.
        let total: f64 = vg.weights_f64().iter().sum();
        assert!(lb <= total);
    }
}
