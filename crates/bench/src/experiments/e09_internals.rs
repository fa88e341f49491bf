//! E9 / Table 8 — Lemma 3.1 / Lemma 4.18 internals: dual feasibility up
//! to `(1 + ε')` and cover counts of dual-positive edges (≤ 2 improved,
//! ≤ 4 basic).

use super::Scale;
use crate::table::{f2, Table};
use decss_core::{approximate_two_ecss, TapConfig, TwoEcssConfig, Variant};
use decss_graphs::gen;

/// Runs the experiment and prints Table 8.
pub fn run(scale: Scale) {
    let mut t = Table::new(&["variant", "n", "seed", "max-R-cover", "bound", "anchors", "cleaned"]);
    let sizes: &[usize] = match scale {
        Scale::Quick => &[48],
        Scale::Full => &[48, 96, 192],
    };
    for &variant in &[Variant::Improved, Variant::Basic] {
        for &n in sizes {
            for seed in 0..scale.seeds() {
                let g = gen::sparse_two_ec(n, n, 48, seed);
                let config = TwoEcssConfig { tap: TapConfig { epsilon: 0.25, variant } };
                let res = approximate_two_ecss(&g, &config).expect("2EC");
                t.row(vec![
                    format!("{variant:?}"),
                    n.to_string(),
                    seed.to_string(),
                    res.stats.max_r_cover.to_string(),
                    config.tap.cover_bound().to_string(),
                    res.stats.anchors.to_string(),
                    res.stats.cleaned.to_string(),
                ]);
            }
        }
    }
    t.print("E9 / Table 8: reverse-delete cover counts on dual-positive edges (Lemmas 3.2/4.18)");

    // Dual feasibility: measured max violation vs the (1+eps') budget.
    let mut td = Table::new(&["n", "epsilon'", "max s(e)/w(e)", "budget"]);
    for &n in sizes {
        let g = gen::sparse_two_ec(n, n, 48, 1);
        let tree = decss_tree::RootedTree::mst(&g);
        let lca = decss_tree::LcaOracle::new(&tree);
        let layering = decss_tree::Layering::new(&tree);
        let segs = decss_tree::SegmentDecomposition::new(&tree, lca.euler());
        let params = decss_core::rounds::measure(&g, tree.root(), &segs);
        let vg = decss_core::VirtualGraph::new(&g, &tree, &lca);
        let engine = vg.engine(&tree, &lca);
        let weights = vg.weights_f64();
        let mut ledger = decss_congest::RoundLedger::new();
        let eps_prime = TapConfig::default().epsilon_prime();
        let fwd = decss_core::forward::forward_phase(
            &tree,
            &layering,
            &engine,
            &weights,
            eps_prime,
            &params,
            &mut ledger,
        );
        let violation = decss_core::forward::max_dual_violation(&engine, &weights, &fwd.y);
        td.row(vec![
            n.to_string(),
            f2(eps_prime),
            crate::table::f3(violation),
            crate::table::f3(1.0 + eps_prime),
        ]);
    }
    td.print("E9b: dual feasibility (max constraint load vs (1+eps') budget)");
}
