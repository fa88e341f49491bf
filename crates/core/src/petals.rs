//! Petals of tree edges (Sections 3.2 and 4.3, Claims 4.9 and 4.11).
//!
//! Fix a set `X` of virtual edges and a layer `i`. For a tree edge `t`
//! of layer `i` covered by `X`:
//!
//! * the **higher petal** is the covering edge reaching the highest
//!   ancestor (minimum `depth(anc)`),
//! * the **lower petal** is the covering edge `e` maximizing the depth
//!   of `u_e = LCA(leaf(t), desc_e)` — the edge covering the most of
//!   `t`'s layer path below `t`.
//!
//! Claim 4.9: the two petals cover every neighbour of `t` (with respect
//! to `X`) in layers `>= i`. Computing all petals of a layer costs two
//! aggregate computations, i.e. `O(D + √n)` rounds (Claim 4.11).

use decss_graphs::VertexId;
use decss_tree::aggregates::CoverEngine;
use decss_tree::{Layering, LcaOracle};

/// Petals of every layer-`i` tree edge with respect to a set `X`.
#[derive(Clone, Debug)]
pub struct PetalTable {
    /// The layer the table was computed for.
    pub layer: u32,
    /// `higher[v]` = index of the higher petal of the edge above `v`
    /// (layer-`i` edges only; `None` if uncovered by `X` or wrong layer).
    higher: Vec<Option<u32>>,
    /// `lower[v]` = index of the lower petal.
    lower: Vec<Option<u32>>,
}

impl PetalTable {
    /// Computes the petals of all layer-`i` edges with respect to the
    /// active arc set `x_active`.
    pub fn compute(
        engine: &CoverEngine<'_>,
        lca: &LcaOracle,
        layering: &Layering,
        tree_root: VertexId,
        layer: u32,
        x_active: &[bool],
    ) -> Self {
        let n = lca.euler().subtree_size(tree_root) as usize;
        let arcs = engine.arcs();

        // Higher petal: argmin over covering arcs of depth(anc).
        let anc_depth: Vec<u64> = arcs.iter().map(|a| lca.depth(a.anc) as u64).collect();
        let higher_raw = engine.covering_argmin(x_active, &anc_depth);

        // Lower petal: each arc learns leaf(t) of the layer-i path
        // portion it covers (an aggregate over covered tree edges,
        // Claim 4.8 guarantees at most one such portion), computes
        // u_e = LCA(leaf, desc), and tree edges take the argmax of
        // depth(u_e), i.e. the argmin of (MAX - depth(u_e)).
        let leaf_keys: Vec<u64> = (0..n)
            .map(|vi| {
                let v = VertexId(vi as u32);
                if vi != tree_root.index() && layering.layer(v) == layer {
                    layering.leaf_of(v).0 as u64
                } else {
                    u64::MAX
                }
            })
            .collect();
        let arc_leaf = engine.covered_min(&leaf_keys);
        let lower_keys: Vec<u64> = arcs
            .iter()
            .enumerate()
            .map(|(i, a)| {
                if arc_leaf[i] == u64::MAX {
                    // Covers no layer-i edge; irrelevant for layer-i queries.
                    u64::MAX
                } else {
                    let leaf = VertexId(arc_leaf[i] as u32);
                    let u_e = lca.lca(leaf, a.desc);
                    u64::MAX - lca.depth(u_e) as u64
                }
            })
            .collect();
        let lower_raw = engine.covering_argmin(x_active, &lower_keys);

        let mut higher = vec![None; n];
        let mut lower = vec![None; n];
        for vi in 0..n {
            let v = VertexId(vi as u32);
            if vi == tree_root.index() || layering.layer(v) != layer {
                continue;
            }
            higher[vi] = higher_raw[vi].map(|(_, i)| i);
            lower[vi] = lower_raw[vi].map(|(_, i)| i);
        }
        PetalTable { layer, higher, lower }
    }

    /// The higher petal of the edge above `v` (a layer-`i` edge), if it
    /// is covered by `X`.
    pub fn higher(&self, v: VertexId) -> Option<u32> {
        self.higher[v.index()]
    }

    /// The lower petal of the edge above `v`.
    pub fn lower(&self, v: VertexId) -> Option<u32> {
        self.lower[v.index()]
    }

    /// Both petals (deduplicated if they coincide).
    pub fn both(&self, v: VertexId) -> impl Iterator<Item = u32> {
        let h = self.higher[v.index()];
        let l = self.lower[v.index()].filter(|&l| Some(l) != h);
        h.into_iter().chain(l)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::virtual_graph::VirtualGraph;
    use decss_graphs::gen;
    use decss_tree::RootedTree;

    fn setup(
        n: usize,
        extra: usize,
        seed: u64,
    ) -> (decss_graphs::Graph, RootedTree, LcaOracle, Layering, VirtualGraph) {
        let g = gen::sparse_two_ec(n, extra, 30, seed);
        let tree = RootedTree::mst(&g);
        let lca = LcaOracle::new(&tree);
        let layering = Layering::new(&tree);
        let vg = VirtualGraph::new(&g, &tree, &lca);
        (g, tree, lca, layering, vg)
    }

    /// Claim 4.9: the petals of `t` cover every neighbour of `t` (w.r.t.
    /// `X`) in layers `>= layer(t)`.
    #[test]
    fn petals_cover_high_layer_neighbours() {
        for seed in 0..6 {
            let (_, tree, lca, layering, vg) = setup(40, 30, seed);
            let engine = vg.engine(&tree, &lca);
            let x = vec![true; vg.len()];
            for layer in 1..=layering.num_layers() {
                let petals = PetalTable::compute(&engine, &lca, &layering, tree.root(), layer, &x);
                for t in tree.tree_edge_children() {
                    if layering.layer(t) != layer {
                        continue;
                    }
                    let covering: Vec<usize> =
                        (0..vg.len()).filter(|&i| engine.covers(i, t)).collect();
                    if covering.is_empty() {
                        assert_eq!(petals.higher(t), None);
                        continue;
                    }
                    let petal_set: Vec<u32> = petals.both(t).collect();
                    assert!(!petal_set.is_empty());
                    // Every neighbour t' with layer >= layer(t) reachable
                    // via a common covering arc must be covered by a petal.
                    for &e in &covering {
                        for tp in tree.tree_edge_children() {
                            if layering.layer(tp) < layer || !engine.covers(e, tp) {
                                continue;
                            }
                            let ok = petal_set.iter().any(|&p| engine.covers(p as usize, tp));
                            assert!(ok, "seed {seed}: petals of {t} miss neighbour {tp} (arc {e})");
                        }
                    }
                }
            }
        }
    }

    /// The higher petal reaches at least as high as any covering arc.
    #[test]
    fn higher_petal_is_highest() {
        let (_, tree, lca, layering, vg) = setup(30, 25, 9);
        let engine = vg.engine(&tree, &lca);
        let x = vec![true; vg.len()];
        for layer in 1..=layering.num_layers() {
            let petals = PetalTable::compute(&engine, &lca, &layering, tree.root(), layer, &x);
            for t in tree.tree_edge_children() {
                if layering.layer(t) != layer {
                    continue;
                }
                if let Some(h) = petals.higher(t) {
                    let h_depth = lca.depth(engine.arcs()[h as usize].anc);
                    for i in 0..vg.len() {
                        if engine.covers(i, t) {
                            assert!(h_depth <= lca.depth(engine.arcs()[i].anc));
                        }
                    }
                }
            }
        }
    }

    /// Claim 4.8: an ancestor-descendant arc covers edges of at most one
    /// path per layer (the premise of the `leaf(t)` aggregate).
    #[test]
    fn arcs_cover_one_path_per_layer() {
        for seed in 0..6 {
            let (_, tree, lca, layering, vg) = setup(36, 30, seed);
            let engine = vg.engine(&tree, &lca);
            for i in 0..vg.len() {
                let mut per_layer: std::collections::HashMap<u32, decss_tree::layering::PathId> =
                    std::collections::HashMap::new();
                for t in tree.tree_edge_children() {
                    if !engine.covers(i, t) {
                        continue;
                    }
                    let layer = layering.layer(t);
                    let pid = layering.path_of(t);
                    if let Some(&prev) = per_layer.get(&layer) {
                        assert_eq!(
                            prev, pid,
                            "seed {seed}: arc {i} covers two layer-{layer} paths"
                        );
                    } else {
                        per_layer.insert(layer, pid);
                    }
                }
            }
        }
    }

    /// Restricting X must never produce petals outside X.
    #[test]
    fn petals_respect_the_active_set() {
        let (_, tree, lca, layering, vg) = setup(25, 20, 4);
        let engine = vg.engine(&tree, &lca);
        let x: Vec<bool> = (0..vg.len()).map(|i| i % 2 == 0).collect();
        for layer in 1..=layering.num_layers() {
            let petals = PetalTable::compute(&engine, &lca, &layering, tree.root(), layer, &x);
            for t in tree.tree_edge_children() {
                if layering.layer(t) != layer {
                    continue;
                }
                for p in petals.both(t) {
                    assert!(x[p as usize], "petal {p} of {t} is not in X");
                }
            }
        }
    }
}
