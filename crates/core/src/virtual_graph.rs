//! The virtual graph `G'` (Khuller–Thurimella; Section 4.1).
//!
//! Every non-tree edge `{u, v}` of `G` is replaced by one or two
//! ancestor-to-descendant *virtual edges*: if `w = LCA(u, v)` equals an
//! endpoint the edge is kept as-is; otherwise it becomes `{w, u}` and
//! `{w, v}`, each carrying the original weight and remembering the
//! original edge. The virtual edges covering a tree edge cover exactly
//! the same tree paths as the originals, so an `α`-approximate
//! augmentation in `G'` maps back (virtual → original) to a
//! `2α`-approximate augmentation in `G` (Lemma 4.1).

use decss_graphs::{EdgeId, Graph, Weight};
use decss_tree::aggregates::{CoverArc, CoverEngine};
use decss_tree::{LcaOracle, RootedTree};

/// One virtual (ancestor-to-descendant) non-tree edge.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct VirtualEdge {
    /// The ancestor/descendant pair.
    pub arc: CoverArc,
    /// The original graph edge this virtual edge replaces.
    pub orig: EdgeId,
    /// Weight (inherited from the original edge).
    pub weight: Weight,
}

/// The virtual graph: the tree plus the virtual non-tree edges.
#[derive(Clone, Debug)]
pub struct VirtualGraph {
    edges: Vec<VirtualEdge>,
}

impl VirtualGraph {
    /// Builds `G'` from the graph, its rooted spanning tree, and an LCA
    /// oracle. Non-tree edges whose endpoints coincide in the tree
    /// (parallel edges to tree edges) are still included — they cover
    /// their one-edge path.
    pub fn new(g: &Graph, tree: &RootedTree, lca: &LcaOracle) -> Self {
        let mut edges = Vec::new();
        for (id, e) in g.edges() {
            if tree.is_tree_edge(id) {
                continue;
            }
            let w = lca.lca(e.u, e.v);
            if w == e.u {
                edges.push(VirtualEdge {
                    arc: CoverArc { anc: e.u, desc: e.v },
                    orig: id,
                    weight: e.weight,
                });
            } else if w == e.v {
                edges.push(VirtualEdge {
                    arc: CoverArc { anc: e.v, desc: e.u },
                    orig: id,
                    weight: e.weight,
                });
            } else {
                edges.push(VirtualEdge {
                    arc: CoverArc { anc: w, desc: e.u },
                    orig: id,
                    weight: e.weight,
                });
                edges.push(VirtualEdge {
                    arc: CoverArc { anc: w, desc: e.v },
                    orig: id,
                    weight: e.weight,
                });
            }
        }
        VirtualGraph { edges }
    }

    /// The virtual edges, in construction order.
    pub fn edges(&self) -> &[VirtualEdge] {
        &self.edges
    }

    /// Number of virtual edges.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Whether there are no virtual edges (the graph was a tree).
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Weights of all virtual edges as `f64`, indexed like [`edges`].
    ///
    /// [`edges`]: VirtualGraph::edges
    pub fn weights_f64(&self) -> Vec<f64> {
        self.edges.iter().map(|e| e.weight as f64).collect()
    }

    /// Builds the aggregation engine over the virtual edges' arcs. The
    /// engine borrows the tree and its oracle, not `self`.
    pub fn engine<'a>(&self, tree: &'a RootedTree, lca: &'a LcaOracle) -> CoverEngine<'a> {
        CoverEngine::new(tree, lca, self.edges.iter().map(|e| e.arc).collect())
    }

    /// Maps a set of chosen virtual edges (by index) back to original
    /// graph edges, deduplicated and sorted (Lemma 4.1's correspondence).
    pub fn to_graph_edges(&self, chosen: impl IntoIterator<Item = usize>) -> Vec<EdgeId> {
        let mut out: Vec<EdgeId> = chosen.into_iter().map(|i| self.edges[i].orig).collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decss_graphs::gen;
    use decss_graphs::VertexId;

    /// Cycle 0-1-...-5-0: MST drops one edge; the dropped edge becomes
    /// one or two virtual edges through the LCA.
    #[test]
    fn cycle_produces_lca_split() {
        let g = gen::cycle(6, 1, 0).unweighted();
        let tree = RootedTree::mst(&g);
        let lca = LcaOracle::new(&tree);
        let vg = VirtualGraph::new(&g, &tree, &lca);
        // Exactly one non-tree edge; its endpoints' LCA is the root, so it
        // splits in two unless one endpoint is the root.
        let e = g
            .edge_ids()
            .find(|&id| !tree.is_tree_edge(id))
            .map(|id| g.edge(id))
            .unwrap();
        let w = lca.lca(e.u, e.v);
        let expected = if w == e.u || w == e.v { 1 } else { 2 };
        assert_eq!(vg.len(), expected);
        assert!(!vg.is_empty());
    }

    #[test]
    fn virtual_edges_cover_the_same_tree_edges() {
        let g = gen::gnp_two_ec(30, 0.12, 40, 3);
        let tree = RootedTree::mst(&g);
        let lca = LcaOracle::new(&tree);
        let vg = VirtualGraph::new(&g, &tree, &lca);
        let engine = vg.engine(&tree, &lca);
        // For every original non-tree edge {u, v}, the union of its
        // virtual edges' covered sets equals the tree path u..v.
        for (id, e) in g.edges() {
            if tree.is_tree_edge(id) {
                continue;
            }
            let virt: Vec<usize> = (0..vg.len()).filter(|&i| vg.edges()[i].orig == id).collect();
            assert!(!virt.is_empty());
            let w = lca.lca(e.u, e.v);
            for v in tree.tree_edge_children() {
                // Tree edge above v is on path(u, v) iff v is an ancestor
                // of u or v below w... direct check:
                let on_path = (lca.is_ancestor(v, e.u) || lca.is_ancestor(v, e.v))
                    && lca.is_proper_ancestor(w, v);
                let covered = virt.iter().any(|&i| engine.covers(i, v));
                assert_eq!(on_path, covered, "edge above {v} vs original {id}");
            }
        }
    }

    #[test]
    fn mapping_back_dedups() {
        let g = gen::gnp_two_ec(20, 0.2, 10, 1);
        let tree = RootedTree::mst(&g);
        let lca = LcaOracle::new(&tree);
        let vg = VirtualGraph::new(&g, &tree, &lca);
        // Choose every virtual edge; the mapped-back set must be exactly
        // the non-tree edges of G.
        let all: Vec<usize> = (0..vg.len()).collect();
        let mapped = vg.to_graph_edges(all);
        let expected: Vec<EdgeId> = g.edge_ids().filter(|&id| !tree.is_tree_edge(id)).collect();
        assert_eq!(mapped, expected);
    }

    #[test]
    fn weights_are_inherited() {
        let g = decss_graphs::Graph::from_edges(
            4,
            [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 9), (1, 3, 7)],
        )
        .unwrap();
        let tree = RootedTree::new(&g, VertexId(0), &[EdgeId(0), EdgeId(1), EdgeId(2)]);
        let lca = LcaOracle::new(&tree);
        let vg = VirtualGraph::new(&g, &tree, &lca);
        for ve in vg.edges() {
            assert_eq!(ve.weight, g.weight(ve.orig));
        }
        let ws = vg.weights_f64();
        assert_eq!(ws.len(), vg.len());
        assert!(ws.iter().all(|&w| w == 9.0 || w == 7.0));
    }
}
