//! The two subroutines of Section 5.3.
//!
//! * [`covered_mask_into`] (Lemma 5.4): given a candidate set `S` of non-tree
//!   edges, decide for every tree edge whether `S` covers it. Every
//!   `S`-edge gets a random fingerprint; each vertex XORs the
//!   fingerprints of its incident `S`-edges; a descendants' XOR then
//!   cancels edges with both endpoints inside the subtree, so the edge
//!   above `u` is covered iff the subtree XOR is non-zero (w.h.p.).
//! * [`marked_cover_counts_into`] (Lemma 5.5): for every non-tree edge
//!   `e = {u, v}`, the number of *marked* tree edges it covers, via
//!   `M_u + M_v − 2·M_w` where `M_x` counts marked edges on the root
//!   path of `x` (an ancestors' sum) and `w = LCA(u, v)` comes from the
//!   heavy-light labels.
//! * [`path_load_into`]: the transpose — for every tree edge, how many
//!   edges of a set cover it (two descendants' sums: incident-count
//!   minus twice the LCA-count).
//!
//! Each probe takes a [`ShortcutWorkspace`] plus a caller-held output
//! buffer (and, where an LCA per candidate is needed, a precomputed LCA
//! slice from [`candidate_lcas`]): the set-cover driver calls them every
//! sampling repetition, so none allocates.

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

/// Lemma 5.5: for each entry of `candidates`, the number of tree edges
/// with `marked` set that it covers. `lcas` holds each candidate's
/// [`candidate_lcas`] entry (they depend only on the tree, so the
/// set-cover driver computes them once instead of every phase).
pub fn marked_cover_counts_into(
    tools: &ScTools<'_>,
    candidates: &[EdgeId],
    lcas: &[VertexId],
    marked: &[bool],
    ledger: &mut RoundLedger,
    ws: &mut ShortcutWorkspace,
    out: &mut Vec<u32>,
) {
    let n = tools.tree.n();
    assert_eq!(marked.len(), n);
    assert_eq!(lcas.len(), candidates.len());
    let ShortcutWorkspace { val_a, val_b, .. } = ws;
    val_a.clear();
    val_a.extend((0..n).map(|vi| u64::from(marked[vi])));
    tools.ancestors_sum_into(val_a, Agg::Sum, ledger, val_b);
    out.clear();
    out.extend(candidates.iter().zip(lcas).map(|(&id, &w)| {
        let e = tools.graph.edge(id);
        (val_b[e.u.index()] + val_b[e.v.index()] - 2 * val_b[w.index()]) as u32
    }));
}

/// For each tree edge (child vertex), how many edges of `set` cover it:
/// `Σ_{x ∈ subtree} inc(x) − 2 · Σ_{x ∈ subtree} lca_count(x)`.
/// `lcas` holds each edge's [`candidate_lcas`] entry.
pub fn path_load_into(
    tools: &ScTools<'_>,
    set: &[EdgeId],
    lcas: &[VertexId],
    ledger: &mut RoundLedger,
    ws: &mut ShortcutWorkspace,
    out: &mut Vec<u32>,
) {
    let n = tools.tree.n();
    assert_eq!(lcas.len(), set.len());
    let ShortcutWorkspace { val_a, val_b, val_c, val_d, .. } = ws;
    val_a.clear();
    val_a.resize(n, 0);
    val_b.clear();
    val_b.resize(n, 0);
    for (&id, &w) in set.iter().zip(lcas) {
        let e = tools.graph.edge(id);
        val_a[e.u.index()] += 1;
        val_a[e.v.index()] += 1;
        val_b[w.index()] += 1;
    }
    tools.descendants_sum_into(val_a, Agg::Sum, ledger, val_c);
    tools.descendants_sum_into(val_b, Agg::Sum, ledger, val_d);
    out.clear();
    out.extend((0..n).map(|vi| {
        let v = VertexId(vi as u32);
        if tools.tree.parent(v).is_none() {
            0
        } else {
            (val_c[vi] - 2 * val_d[vi]) as u32
        }
    }));
}

/// The heavy-light LCA of each edge's endpoints (what the probes need
/// per candidate; depends only on the tree).
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

    #[test]
    fn marked_cover_counts_match_ground_truth() {
        let g = gen::sparse_two_ec(35, 25, 20, 7);
        let tree = RootedTree::mst(&g);
        let lca = LcaOracle::new(&tree);
        let tools = ScTools::new(&g, &tree);
        let candidates = non_tree_edges(&g, &tree);
        let marked: Vec<bool> = (0..g.n()).map(|i| i % 3 != 0).collect();
        let lcas = candidate_lcas(&tools, &candidates);
        let mut ledger = RoundLedger::new();
        let mut ws = ShortcutWorkspace::new(&g);
        let mut counts = Vec::new();
        marked_cover_counts_into(
            &tools,
            &candidates,
            &lcas,
            &marked,
            &mut ledger,
            &mut ws,
            &mut counts,
        );
        for (i, &id) in candidates.iter().enumerate() {
            let expected = tree
                .tree_edge_children()
                .filter(|&v| marked[v.index()] && naive_covered(&g, &tree, &lca, &[id], v))
                .count() as u32;
            assert_eq!(counts[i], expected, "candidate {id}");
        }
    }

    #[test]
    fn path_load_matches_ground_truth() {
        let g = gen::sparse_two_ec(30, 25, 20, 9);
        let tree = RootedTree::mst(&g);
        let lca = LcaOracle::new(&tree);
        let tools = ScTools::new(&g, &tree);
        let candidates = non_tree_edges(&g, &tree);
        let set: Vec<EdgeId> = candidates.iter().copied().take(10).collect();
        let lcas = candidate_lcas(&tools, &set);
        let mut ledger = RoundLedger::new();
        let mut ws = ShortcutWorkspace::new(&g);
        let mut loads = Vec::new();
        path_load_into(&tools, &set, &lcas, &mut ledger, &mut ws, &mut loads);
        for v in tree.tree_edge_children() {
            let expected = set
                .iter()
                .filter(|&&id| naive_covered(&g, &tree, &lca, &[id], v))
                .count() as u32;
            assert_eq!(loads[v.index()], expected, "edge above {v}");
        }
        // Two descendants' sums were charged.
        assert_eq!(ledger.invocations_of("sc.descendants-sum"), 2);
    }
}
