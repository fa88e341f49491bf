//! E7 / Table 6 — Claim 2.1: the output decomposes as
//! `w(T) + w(B) ≤ w(T) + α·OPT_TAP`, so both parts are individually
//! bounded by the optimum. We report the split and the two lower-bound
//! components.

use super::Scale;
use crate::table::{f2, Table};
use decss_core::{approximate_tap, approximate_two_ecss, TwoEcssConfig};
use decss_graphs::gen::{self, Family};
use decss_tree::RootedTree;

/// Runs the experiment and prints Table 6.
pub fn run(scale: Scale) {
    let mut t = Table::new(&[
        "family",
        "n",
        "w(T)",
        "w(B)",
        "total",
        "mst-LB",
        "dual-LB",
        "aug-share",
    ]);
    for family in [Family::SparseRandom, Family::Grid, Family::OuterplanarDisk] {
        for &n in scale.ratio_sizes() {
            let g = gen::instance(family, n, 64, 9);
            let config = TwoEcssConfig::default();
            let res = approximate_two_ecss(&g, &config).expect("2EC");
            // The dual alone (`res.lower_bound` is max(w(MST), dual)).
            let tap = approximate_tap(&g, &RootedTree::mst(&g), &config.tap).expect("2EC");
            t.row(vec![
                family.label().into(),
                g.n().to_string(),
                res.mst_weight.to_string(),
                res.augmentation_weight.to_string(),
                res.total_weight().to_string(),
                res.mst_weight.to_string(),
                f2(tap.dual_lower_bound),
                f2(res.augmentation_weight as f64 / res.total_weight() as f64),
            ]);
        }
    }
    t.print("E7 / Table 6: weight split w(T) + w(B) and lower-bound components (Claim 2.1)");
}
