//! The Section 5.3 probe that set cover runs densely, and the
//! candidates' LCAs.
//!
//! * [`covered_mask_into`] (Lemma 5.4): given a candidate set `S` of non-tree
//!   edges, decide for every tree edge whether `S` covers it. Every
//!   `S`-edge gets a random fingerprint; each vertex XORs the
//!   fingerprints of its incident `S`-edges; a descendants' XOR then
//!   cancels edges with both endpoints inside the subtree, so the edge
//!   above `u` is covered iff the subtree XOR is non-zero (w.h.p.).
//!   [`parallel_greedy_tap`](crate::setcover::parallel_greedy_tap) runs
//!   it once, as its upfront feasibility check.
//! * [`candidate_lcas`]: the LCA of each candidate's endpoints
//!   ([`ScTools::lca`]), computed once per set-cover run.
//!
//! Lemma 5.5's marked-cover counts live in [`crate::setcover`]
//! (`counts_over_active`), whose sampling repetitions and bucket loads
//! run sparsely on virtual trees. The dense forms of those two probes
//! are test references in `tests/naive/mod.rs`.

use crate::tools::ScTools;
use crate::workspace::ShortcutWorkspace;
use decss_congest::ledger::RoundLedger;
use decss_congest::protocols::convergecast::Agg;
use decss_graphs::{EdgeId, VertexId};
use rand::rngs::StdRng;
use rand::Rng;

/// Lemma 5.4: whether each tree edge (indexed by child vertex) is
/// covered by `set`. Randomized; correct w.h.p. (no false "covered" is
/// possible for XOR of fewer than 2^64 terms only with negligible
/// probability; false "uncovered" never happens for the zero case).
/// Writes into `out` on the workspace's value buffers.
pub fn covered_mask_into(
    tools: &ScTools<'_>,
    set: &[EdgeId],
    rng: &mut StdRng,
    ledger: &mut RoundLedger,
    ws: &mut ShortcutWorkspace,
    out: &mut Vec<bool>,
) {
    let n = tools.tree.n();
    let ShortcutWorkspace { val_a, val_b, .. } = ws;
    val_a.clear();
    val_a.resize(n, 0);
    for &id in set {
        let fp: u64 = rng.gen::<u64>() | 1; // non-zero fingerprint
        let e = tools.graph.edge(id);
        val_a[e.u.index()] ^= fp;
        val_a[e.v.index()] ^= fp;
    }
    tools.descendants_sum_into(val_a, Agg::Xor, ledger, val_b);
    out.clear();
    out.extend((0..n).map(|vi| {
        let v = VertexId(vi as u32);
        tools.tree.parent(v).is_some() && val_b[vi] != 0
    }));
}

/// The LCA of each edge's endpoints, by [`ScTools::lca`] (what the
/// probes need per candidate; depends only on the tree).
pub fn candidate_lcas(tools: &ScTools<'_>, edges: &[EdgeId]) -> Vec<VertexId> {
    edges
        .iter()
        .map(|&id| {
            let e = tools.graph.edge(id);
            tools.lca(e.u, e.v)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use decss_graphs::gen;
    use decss_tree::{LcaOracle, RootedTree};
    use rand::SeedableRng;

    fn non_tree_edges(g: &decss_graphs::Graph, tree: &RootedTree) -> Vec<EdgeId> {
        g.edge_ids().filter(|&e| !tree.is_tree_edge(e)).collect()
    }

    /// Ground truth: does any edge of `set` cover the tree edge above v?
    fn naive_covered(
        g: &decss_graphs::Graph,
        _tree: &RootedTree,
        lca: &LcaOracle,
        set: &[EdgeId],
        v: VertexId,
    ) -> bool {
        set.iter().any(|&id| {
            let e = g.edge(id);
            let w = lca.lca(e.u, e.v);
            (lca.is_ancestor(v, e.u) || lca.is_ancestor(v, e.v)) && lca.is_proper_ancestor(w, v)
        })
    }

    #[test]
    fn covered_mask_matches_ground_truth() {
        let mut rng = StdRng::seed_from_u64(42);
        for seed in 0..5 {
            let g = gen::sparse_two_ec(40, 30, 20, seed);
            let tree = RootedTree::mst(&g);
            let lca = LcaOracle::new(&tree);
            let tools = ScTools::new(&g, &tree);
            let candidates = non_tree_edges(&g, &tree);
            let set: Vec<EdgeId> = candidates.iter().copied().step_by(2).collect();
            let mut ledger = RoundLedger::new();
            let mut ws = ShortcutWorkspace::new(&g);
            let mut mask = Vec::new();
            covered_mask_into(&tools, &set, &mut rng, &mut ledger, &mut ws, &mut mask);
            for v in tree.tree_edge_children() {
                assert_eq!(
                    mask[v.index()],
                    naive_covered(&g, &tree, &lca, &set, v),
                    "seed {seed}, edge above {v}"
                );
            }
        }
    }

    #[test]
    fn covered_mask_into_overwrites_a_junk_buffer() {
        let g = gen::sparse_two_ec(40, 30, 20, 3);
        let tree = RootedTree::mst(&g);
        let tools = ScTools::new(&g, &tree);
        let set = non_tree_edges(&g, &tree);
        let mut ledger = RoundLedger::new();
        let mut ws = ShortcutWorkspace::new(&g);
        // Same seed on both calls: the rng must be consumed identically.
        let mut rng_a = StdRng::seed_from_u64(7);
        let mut rng_b = StdRng::seed_from_u64(7);
        let mut a = Vec::new();
        covered_mask_into(&tools, &set, &mut rng_a, &mut ledger, &mut ws, &mut a);
        let mut b = vec![true; 2]; // junk: must be overwritten
        covered_mask_into(&tools, &set, &mut rng_b, &mut ledger, &mut ws, &mut b);
        assert_eq!(a, b);
    }
}
