//! Post-hoc verification of algorithm outputs — the oracles behind the
//! test suite and Experiment E9.

use decss_graphs::{algo, EdgeId, Graph};
use decss_tree::aggregates::CoverEngine;
use decss_tree::RootedTree;

/// Whether `chosen` (virtual-edge indices as a mask) covers every tree
/// edge.
pub fn covers_all_tree_edges(tree: &RootedTree, engine: &CoverEngine<'_>, chosen: &[bool]) -> bool {
    let counts = engine.covering_count(chosen);
    tree.tree_edge_children().all(|v| counts[v.index()] > 0)
}

/// Cover count per tree edge (indexed by child vertex).
pub fn cover_counts(engine: &CoverEngine<'_>, chosen: &[bool]) -> Vec<u32> {
    engine.covering_count(chosen)
}

/// Maximum cover count over the dual-positive (`R`) edges — the quantity
/// Lemmas 3.2 / 4.18 bound by 4 / 2.
pub fn max_r_cover(counts: &[u32], r_edge: &[bool]) -> u32 {
    counts
        .iter()
        .zip(r_edge)
        .filter(|&(_, &r)| r)
        .map(|(&c, _)| c)
        .max()
        .unwrap_or(0)
}

/// Whether `tree ∪ augmentation` is a spanning 2-edge-connected subgraph
/// of `g`.
pub fn is_valid_two_ecss(
    g: &Graph,
    tree_edges: impl IntoIterator<Item = EdgeId>,
    augmentation: impl IntoIterator<Item = EdgeId>,
) -> bool {
    let all: Vec<EdgeId> = tree_edges.into_iter().chain(augmentation).collect();
    algo::two_edge_connected_in(g, all)
}

#[cfg(test)]
mod tests {
    use super::*;
    use decss_graphs::gen;
    use decss_graphs::VertexId;
    use decss_tree::aggregates::{CoverArc, CoverEngine};
    use decss_tree::LcaOracle;

    #[test]
    fn cover_check_detects_gaps() {
        let g = gen::path(4); // tree 0-1-2-3
        let ids: Vec<EdgeId> = g.edge_ids().collect();
        let tree = RootedTree::new(&g, VertexId(0), &ids);
        let lca = LcaOracle::new(&tree);
        let engine =
            CoverEngine::new(&tree, &lca, vec![CoverArc { anc: VertexId(0), desc: VertexId(2) }]);
        // The arc covers edges above 1 and 2 but not above 3.
        assert!(!covers_all_tree_edges(&tree, &engine, &[true]));
        let counts = cover_counts(&engine, &[true]);
        assert_eq!(&counts[1..], &[1, 1, 0]);
        assert_eq!(max_r_cover(&counts, &[false, true, true, false]), 1);
    }

    #[test]
    fn two_ecss_validation() {
        let g = gen::cycle(5, 3, 0);
        let mst = algo::minimum_spanning_tree(&g).unwrap();
        let non_tree: Vec<EdgeId> = g.edge_ids().filter(|id| !mst.contains(id)).collect();
        assert!(is_valid_two_ecss(&g, mst.iter().copied(), non_tree));
        assert!(!is_valid_two_ecss(&g, mst.iter().copied(), []));
    }
}
