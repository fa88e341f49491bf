//! E13 / Table 11 — ablation of the shortcut construction: threshold-BFS
//! (the worst-case-safe `O(D+√n)` scheme) vs tree-restricted Steiner
//! subtrees (the `Õ(D)`-on-nice-families scheme), measured on the same
//! fragment partitions. `best_shortcut` picks per partition; this table
//! shows what each choice costs alone.

use super::Scale;
use crate::table::{f2, Table};
use decss_graphs::algo::bfs_tree;
use decss_graphs::{gen, VertexId};
use decss_shortcuts::fragments::FragmentHierarchy;
use decss_shortcuts::shortcut::{threshold_bfs, tree_restricted};
use decss_tree::{LcaOracle, RootedTree};

/// Runs the ablation and prints Table 11.
pub fn run(scale: Scale) {
    let sizes: &[usize] = match scale {
        Scale::Quick => &[100],
        Scale::Full => &[100, 256, 400],
    };
    let mut t = Table::new(&[
        "family",
        "n",
        "level",
        "parts",
        "thr-alpha",
        "thr-beta",
        "tree-alpha",
        "tree-beta",
        "winner",
    ]);
    for label in ["outerplanar", "grid", "lollipop", "hard-sqrt"] {
        for &n in sizes {
            let g = match label {
                "outerplanar" => gen::outerplanar_disk(n, 1.0, 32, 5),
                "grid" => {
                    let side = (n as f64).sqrt() as usize;
                    gen::grid(side, side, 32, 5)
                }
                "lollipop" => gen::lollipop_two_ec(n, 32, 5),
                "hard-sqrt" => gen::hard_sqrt_two_ec(n, 32, 5),
                _ => unreachable!(),
            };
            let tree = RootedTree::mst(&g);
            let hierarchy = FragmentHierarchy::new(&tree, &LcaOracle::new(&tree));
            let bfs = bfs_tree(&g, VertexId(0));
            // Report the busiest level (most parts).
            let level = (0..hierarchy.num_levels())
                .max_by_key(|&d| hierarchy.num_fragments(d))
                .expect("non-empty hierarchy");
            let partition = hierarchy.level_partition(&g, level);
            let thr = threshold_bfs(&g, &bfs, &partition);
            let tr = tree_restricted(&g, &bfs, &partition);
            let winner = if thr.cost() <= tr.cost() {
                "threshold"
            } else {
                "tree-restricted"
            };
            t.row(vec![
                label.into(),
                g.n().to_string(),
                level.to_string(),
                partition.len().to_string(),
                thr.alpha.to_string(),
                thr.beta.to_string(),
                tr.alpha.to_string(),
                tr.beta.to_string(),
                winner.into(),
            ]);
        }
    }
    t.print("E13 / Table 11: shortcut-construction ablation on the busiest fragment level");
    let _ = f2(0.0);
}
