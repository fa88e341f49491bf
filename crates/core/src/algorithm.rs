//! Public entry points: [`approximate_tap`] and [`approximate_two_ecss`].

use crate::config::{TapConfig, TapError, TwoEcssConfig};
use crate::forward::{forward_phase, max_dual_violation, TIGHT_TOL};
use crate::mis::MisContext;
use crate::reverse::reverse_delete;
use crate::rounds;
use crate::unweighted::unweighted_tap;
use crate::virtual_graph::VirtualGraph;
use decss_congest::ledger::RoundLedger;
use decss_graphs::{algo, EdgeId, Graph, Weight};
use decss_tree::{Layering, LcaOracle, RootedTree, SegmentDecomposition};

/// Structural and behavioural statistics of a TAP run, consumed by the
/// experiment harness.
#[derive(Clone, Copy, Debug, Default)]
pub struct TapStats {
    /// Number of layers of the layering decomposition.
    pub num_layers: u32,
    /// Number of segments.
    pub num_segments: usize,
    /// Maximum segment diameter.
    pub max_segment_diameter: u32,
    /// Number of virtual edges of `G'`.
    pub virtual_edges: usize,
    /// Forward-phase iterations.
    pub forward_iterations: u32,
    /// Anchors selected across the reverse-delete phase.
    pub anchors: usize,
    /// Petals removed by cleaning passes.
    pub cleaned: usize,
    /// Maximum cover count over dual-positive tree edges in the output
    /// (bounded by 4 / 2 per variant).
    pub max_r_cover: u32,
}

/// Result of the TAP approximation.
#[derive(Clone, Debug)]
pub struct TapResult {
    /// The chosen augmentation as graph edges (sorted, deduplicated).
    pub augmentation: Vec<EdgeId>,
    /// Total weight of the augmentation.
    pub weight: Weight,
    /// A certified lower bound on the optimal augmentation weight of the
    /// *input* graph `G` (scaled dual objective; see
    /// [`crate::forward::ForwardResult::dual_lower_bound_gprime`] —
    /// halved for the `G → G'` translation).
    pub dual_lower_bound: f64,
    /// Round-accounting ledger of the whole run.
    pub ledger: RoundLedger,
    /// Run statistics.
    pub stats: TapStats,
    /// Per-phase execution trace (Experiment E14).
    pub trace: crate::trace::TapTrace,
}

impl TapResult {
    /// `weight / dual lower bound` — an upper bound on the achieved
    /// approximation ratio, certified without knowing the optimum. Note
    /// that this can exceed the `(4+ε)` guarantee (which is against the
    /// true optimum) by up to another factor-2 slack of the dual bound
    /// through the virtual graph; the guarantee itself is checked against
    /// exact optima on small instances in `decss-baselines`.
    pub fn certified_ratio(&self) -> f64 {
        decss_graphs::weight::certified_ratio(self.weight as f64, self.dual_lower_bound)
    }
}

/// Result of the 2-ECSS approximation.
#[derive(Clone, Debug)]
pub struct TwoEcssResult {
    /// All chosen edges: the MST plus the augmentation.
    pub edges: Vec<EdgeId>,
    /// The MST part.
    pub mst_edges: Vec<EdgeId>,
    /// The augmentation part.
    pub augmentation: Vec<EdgeId>,
    /// Weight of the MST.
    pub mst_weight: Weight,
    /// Weight of the augmentation.
    pub augmentation_weight: Weight,
    /// Certified lower bound on the optimal 2-ECSS weight:
    /// `max(w(MST), TAP dual bound)` (Claim 2.1's two inequalities).
    pub lower_bound: f64,
    /// Round ledger.
    pub ledger: RoundLedger,
    /// Statistics of the inner TAP run.
    pub stats: TapStats,
    /// Per-phase execution trace of the inner TAP run.
    pub trace: crate::trace::TapTrace,
}

impl TwoEcssResult {
    /// Total weight of the output subgraph.
    pub fn total_weight(&self) -> Weight {
        self.mst_weight + self.augmentation_weight
    }

    /// `total weight / certified lower bound`. See the caveat on
    /// [`TapResult::certified_ratio`]; vs the *true* optimum the
    /// guarantee is `5 + ε` (improved) / `9 + ε` (basic).
    pub fn certified_ratio(&self) -> f64 {
        decss_graphs::weight::certified_ratio(self.total_weight() as f64, self.lower_bound)
    }
}

/// Approximates weighted TAP for the given graph and rooted spanning
/// tree.
///
/// # Errors
///
/// * [`TapError::BadEpsilon`] if `config.epsilon` is not positive/finite.
/// * [`TapError::NotTwoEdgeConnected`] if `g` is not 2-edge-connected
///   (some tree edge cannot be covered).
/// * [`TapError::InvariantBroken`] if the run broke an invariant its
///   guarantee rests on: Lemma 4.18's cover bound on the dual-positive
///   tree edges, or dual feasibility up to `1 + ε′`.
pub fn approximate_tap(
    g: &Graph,
    tree: &RootedTree,
    config: &TapConfig,
) -> Result<TapResult, TapError> {
    check_epsilon(config)?;
    if !algo::is_two_edge_connected(g) {
        return Err(TapError::NotTwoEdgeConnected);
    }
    tap_on_two_edge_connected(g, tree, config)
}

fn check_epsilon(config: &TapConfig) -> Result<(), TapError> {
    if config.epsilon.is_finite() && config.epsilon > 0.0 {
        Ok(())
    } else {
        Err(TapError::BadEpsilon)
    }
}

/// [`approximate_tap`] on a graph its caller has checked to be
/// 2-edge-connected, with a checked `config.epsilon`.
fn tap_on_two_edge_connected(
    g: &Graph,
    tree: &RootedTree,
    config: &TapConfig,
) -> Result<TapResult, TapError> {
    let lca = LcaOracle::new(tree);
    let layering = Layering::new(tree);
    let segments = SegmentDecomposition::new(tree, lca.euler());
    let params = rounds::measure(g, tree.root(), &segments);
    let mut ledger = RoundLedger::new();
    rounds::charge_setup(&mut ledger, &params, layering.num_layers());

    let vg = VirtualGraph::new(g, tree, &lca);
    let engine = vg.engine(tree, &lca);
    let weights = vg.weights_f64();

    let fwd = forward_phase(
        tree,
        &layering,
        &engine,
        &weights,
        config.epsilon_prime(),
        &params,
        &mut ledger,
    );
    let ctx = MisContext {
        tree,
        lca: &lca,
        layering: &layering,
        segments: &segments,
        engine: &engine,
    };
    let rev = reverse_delete(&ctx, &fwd, config.variant, &params, &mut ledger);

    let counts = engine.covering_count(&rev.in_b);
    let max_r_cover = crate::verify::max_r_cover(&counts, &fwd.r_edge);
    check_guarantee(config, max_r_cover, max_dual_violation(&engine, &weights, &fwd.y))?;

    let chosen: Vec<usize> = (0..vg.len()).filter(|&i| rev.in_b[i]).collect();
    let augmentation = vg.to_graph_edges(chosen);
    let weight = g.weight_of(augmentation.iter().copied());
    let dual_lower_bound = fwd.dual_lower_bound_gprime(config.epsilon_prime()) / 2.0;
    let trace = crate::trace::TapTrace {
        forward: fwd.trace.clone(),
        reverse: rev.trace.clone(),
        cleaned_per_epoch: rev.cleaned_per_epoch.clone(),
    };

    Ok(TapResult {
        augmentation,
        weight,
        dual_lower_bound,
        ledger,
        trace,
        stats: TapStats {
            num_layers: layering.num_layers(),
            num_segments: segments.len(),
            max_segment_diameter: segments.max_diameter(),
            virtual_edges: vg.len(),
            forward_iterations: fwd.iterations,
            anchors: rev.total_anchors,
            cleaned: rev.cleaned,
            max_r_cover,
        },
    })
}

/// Approximates weighted TAP with the *unweighted* algorithm of
/// Section 3.6.1 (ignores weights; 4-approximate for unit weights).
///
/// # Errors
///
/// [`TapError::NotTwoEdgeConnected`] if `g` is not 2-edge-connected.
pub fn approximate_tap_unweighted(g: &Graph, tree: &RootedTree) -> Result<TapResult, TapError> {
    if !algo::is_two_edge_connected(g) {
        return Err(TapError::NotTwoEdgeConnected);
    }
    let lca = LcaOracle::new(tree);
    let layering = Layering::new(tree);
    let segments = SegmentDecomposition::new(tree, lca.euler());
    let params = rounds::measure(g, tree.root(), &segments);
    let mut ledger = RoundLedger::new();
    rounds::charge_setup(&mut ledger, &params, layering.num_layers());

    let vg = VirtualGraph::new(g, tree, &lca);
    let engine = vg.engine(tree, &lca);
    let ctx = MisContext {
        tree,
        lca: &lca,
        layering: &layering,
        segments: &segments,
        engine: &engine,
    };
    let res = unweighted_tap(&ctx, &params, &mut ledger);
    let chosen: Vec<usize> = (0..vg.len()).filter(|&i| res.in_cover[i]).collect();
    let augmentation = vg.to_graph_edges(chosen);
    let weight = g.weight_of(augmentation.iter().copied());
    Ok(TapResult {
        augmentation,
        weight,
        // Anchors are independent, so each needs its own covering edge:
        // #anchors lower-bounds the optimal G' augmentation size; halve
        // for the G translation (unit weights).
        dual_lower_bound: res.num_anchors as f64 / 2.0,
        ledger,
        trace: Default::default(),
        stats: TapStats {
            num_layers: layering.num_layers(),
            num_segments: segments.len(),
            max_segment_diameter: segments.max_diameter(),
            virtual_edges: vg.len(),
            forward_iterations: 0,
            anchors: res.num_anchors,
            cleaned: 0,
            max_r_cover: 0,
        },
    })
}

/// Approximates minimum-weight 2-ECSS: MST + TAP augmentation
/// (Claim 2.1).
///
/// # Errors
///
/// Same as [`approximate_tap`], except that a graph that is not
/// 2-edge-connected is reported before a bad `epsilon`.
pub fn approximate_two_ecss(g: &Graph, config: &TwoEcssConfig) -> Result<TwoEcssResult, TapError> {
    if !algo::is_two_edge_connected(g) {
        return Err(TapError::NotTwoEdgeConnected);
    }
    check_epsilon(&config.tap)?;
    let tree = RootedTree::mst(g);
    let tap = tap_on_two_edge_connected(g, &tree, &config.tap)?;
    let mst_edges: Vec<EdgeId> = g.edge_ids().filter(|&e| tree.is_tree_edge(e)).collect();
    let mst_weight = g.weight_of(mst_edges.iter().copied());
    let mut edges = mst_edges.clone();
    edges.extend(tap.augmentation.iter().copied());
    edges.sort_unstable();
    debug_assert!(crate::verify::is_valid_two_ecss(
        g,
        mst_edges.iter().copied(),
        tap.augmentation.iter().copied()
    ));
    Ok(TwoEcssResult {
        edges,
        mst_edges,
        augmentation: tap.augmentation.clone(),
        mst_weight,
        augmentation_weight: tap.weight,
        lower_bound: (mst_weight as f64).max(tap.dual_lower_bound),
        ledger: tap.ledger,
        stats: tap.stats,
        trace: tap.trace,
    })
}

/// Fails a run that broke an invariant its `(2c + ε)` TAP guarantee
/// rests on, so that no report claims a guarantee the run did not earn:
///
/// * every dual-positive tree edge is covered at most `c` times by the
///   output, `c` = [`TapConfig::cover_bound`] (Lemma 4.18);
/// * every dual constraint holds up to `1 + ε′`, with the float slack
///   that [`crate::forward::ForwardResult::dual_lower_bound_gprime`]
///   divides by.
fn check_guarantee(
    config: &TapConfig,
    max_r_cover: u32,
    max_dual_violation: f64,
) -> Result<(), TapError> {
    if max_r_cover > config.cover_bound() {
        return Err(TapError::InvariantBroken(
            "a dual-positive tree edge is covered more often than the variant's bound",
        ));
    }
    let feasible = (1.0 + config.epsilon_prime()) * (1.0 + 10.0 * TIGHT_TOL);
    if max_dual_violation.is_nan() || max_dual_violation > feasible {
        return Err(TapError::InvariantBroken("a dual constraint exceeds 1 + eps'"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Variant;
    use crate::verify;
    use decss_graphs::gen;

    #[test]
    fn two_ecss_outputs_are_valid_across_families() {
        for family in gen::Family::ALL {
            let g = gen::instance(family, 36, 32, 5);
            let res = approximate_two_ecss(&g, &TwoEcssConfig::default())
                .unwrap_or_else(|e| panic!("family {family}: {e}"));
            assert!(
                algo::two_edge_connected_in(&g, res.edges.iter().copied()),
                "family {family}: output is not a 2-ECSS"
            );
            assert!(res.total_weight() >= res.mst_weight);
            assert!(res.certified_ratio() >= 1.0 - 1e-9);
            assert!(res.stats.max_r_cover <= 2, "family {family}");
            assert!(res.ledger.total_rounds() > 0);
        }
    }

    #[test]
    fn tap_rejects_bad_inputs() {
        let g = gen::path(5); // not 2-edge-connected
        assert_eq!(
            approximate_two_ecss(&g, &TwoEcssConfig::default()).unwrap_err(),
            TapError::NotTwoEdgeConnected
        );
        let g2 = gen::cycle(5, 9, 0);
        let tree = RootedTree::mst(&g2);
        let bad = TapConfig { epsilon: 0.0, ..TapConfig::default() };
        assert_eq!(approximate_tap(&g2, &tree, &bad).unwrap_err(), TapError::BadEpsilon);
    }

    #[test]
    fn guarantee_check_fails_just_past_each_bound() {
        for variant in [Variant::Improved, Variant::Basic] {
            let config = TapConfig { epsilon: 0.25, variant };
            let c = config.cover_bound();
            let feasible = (1.0 + config.epsilon_prime()) * (1.0 + 10.0 * TIGHT_TOL);
            assert_eq!(check_guarantee(&config, c, feasible), Ok(()), "{variant:?}");
            assert_eq!(check_guarantee(&config, 0, 0.5), Ok(()), "{variant:?}");
            for (cover, violation) in [
                (c + 1, 1.0),
                (0, feasible.next_up()),
                (0, f64::INFINITY),
                (0, f64::NAN),
            ] {
                assert!(
                    matches!(
                        check_guarantee(&config, cover, violation),
                        Err(TapError::InvariantBroken(_))
                    ),
                    "{variant:?}: cover {cover}, violation {violation}"
                );
            }
        }
    }

    #[test]
    fn basic_variant_also_valid() {
        let g = gen::sparse_two_ec(30, 24, 40, 2);
        let config = TwoEcssConfig { tap: TapConfig { epsilon: 0.5, variant: Variant::Basic } };
        let res = approximate_two_ecss(&g, &config).unwrap();
        assert!(algo::two_edge_connected_in(&g, res.edges.iter().copied()));
        assert!(res.stats.max_r_cover <= 4);
    }

    #[test]
    fn unweighted_entry_point_works() {
        let g = gen::sparse_two_ec(30, 24, 1, 3).unweighted();
        let tree = RootedTree::mst(&g);
        let res = approximate_tap_unweighted(&g, &tree).unwrap();
        let lca = decss_tree::LcaOracle::new(&tree);
        let vg = VirtualGraph::new(&g, &tree, &lca);
        let engine = vg.engine(&tree, &lca);
        // Rebuild the mask over virtual edges from chosen graph edges to
        // confirm the cover is complete.
        let mask: Vec<bool> = vg
            .edges()
            .iter()
            .map(|ve| res.augmentation.contains(&ve.orig))
            .collect();
        assert!(verify::covers_all_tree_edges(&tree, &engine, &mask));
        // 4-approximation certificate vs the anchor lower bound.
        assert!((res.weight as f64) <= 4.0 * res.dual_lower_bound.max(0.5) * 2.0);
    }

    #[test]
    fn mst_weight_is_a_lower_bound_component() {
        let g = gen::grid(6, 6, 20, 7);
        let res = approximate_two_ecss(&g, &TwoEcssConfig::default()).unwrap();
        assert!(res.lower_bound >= res.mst_weight as f64);
        assert!(res.certified_ratio() < 12.0);
    }
}
