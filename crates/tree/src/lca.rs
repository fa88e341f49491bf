//! The one index of a rooted tree: its Euler tour, depths and parents,
//! the heavy paths of Definition 5.3, and lowest common ancestors.
//!
//! Both algorithms of the paper query LCAs through distributed labels.
//! Theorem 1.1 uses Lemma 4.2's `O(log n)`-bit labels (following
//! Censor-Hillel & Dory and Alstrup et al.), assigned in
//! `O(D + √n log* n)` rounds. Theorem 1.2 uses Theorem 5.3's labels:
//! each vertex's list of the light edges on its root path, from which
//! any two adjacent vertices compute their LCA locally. [`LcaOracle`]
//! answers the same queries centrally, and the round ledger charges
//! the distributed label assignment as before: `setup.lca-labels` for
//! Lemma 4.2, `sc.hld-setup` for Theorem 5.3.
//!
//! The edge from `c` up to its parent `v` is **heavy** iff
//! `2|T_c| ≥ |T_v|`, light otherwise. This is the non-strict variant of
//! Definition 5.3's `|T_c| > |T_v| / 2`, so that vertex chains form
//! single heavy paths. Both key properties survive: at most one child
//! can satisfy it (two would force `2(|T_v| − 1) ≥ 2|T_v|`), and a light
//! edge still at least halves the subtree size, so every root path
//! crosses at most `log2 n` light edges. The heavy edges form
//! vertex-disjoint paths, each named by its top vertex, its *head*.
//!
//! An LCA climbs heavy paths (Sleator & Tarjan, "A data structure for
//! dynamic trees", JCSS 26(3), 1983): while the two vertices' heads
//! differ, the one whose head is deeper jumps to its head's parent, which
//! crosses one light edge; then both sit on one heavy path and the
//! shallower is the LCA. That is `O(log n)` per query from `O(n)` flat
//! rows.

use crate::euler::EulerTour;
use crate::rooted::RootedTree;
use decss_graphs::VertexId;

/// Euler tour, depths, parents and heavy paths of one rooted tree, with
/// ancestor tests and LCA queries.
///
/// The rows are crate-visible so that [`crate::aggregates::CoverEngine`]
/// borrows them instead of copying them.
#[derive(Clone, Debug)]
pub struct LcaOracle {
    pub(crate) euler: EulerTour,
    pub(crate) depth: Vec<u32>,
    /// Parent of each vertex; the root maps to itself.
    pub(crate) parent: Vec<u32>,
    /// Top vertex of the heavy path containing each vertex.
    head: Vec<u32>,
    /// Number of light edges on each vertex's root path.
    light_depth: Vec<u32>,
}

impl LcaOracle {
    /// Builds the index in `O(n)`: the Euler tour, then one pass over the
    /// tree's BFS order (parents before children).
    pub fn new(tree: &RootedTree) -> Self {
        let n = tree.n();
        let euler = EulerTour::new(tree);
        let mut depth = vec![0u32; n];
        let mut parent = vec![0u32; n];
        let mut head = vec![0u32; n];
        let mut light_depth = vec![0u32; n];
        for &v in tree.order() {
            let vi = v.index();
            let Some(p) = tree.parent(v) else {
                parent[vi] = v.0;
                head[vi] = v.0;
                continue;
            };
            let pi = p.index();
            parent[vi] = p.0;
            depth[vi] = depth[pi] + 1;
            if 2 * euler.subtree_size(v) >= euler.subtree_size(p) {
                head[vi] = head[pi];
                light_depth[vi] = light_depth[pi];
            } else {
                head[vi] = v.0;
                light_depth[vi] = light_depth[pi] + 1;
            }
        }
        LcaOracle { euler, depth, parent, head, light_depth }
    }

    /// Whether `a` is an ancestor of `d` (inclusive).
    #[inline]
    pub fn is_ancestor(&self, a: VertexId, d: VertexId) -> bool {
        self.euler.is_ancestor(a, d)
    }

    /// Whether `a` is a proper ancestor of `d`.
    #[inline]
    pub fn is_proper_ancestor(&self, a: VertexId, d: VertexId) -> bool {
        self.euler.is_proper_ancestor(a, d)
    }

    /// Depth of `v`.
    #[inline]
    pub fn depth(&self, v: VertexId) -> u32 {
        self.depth[v.index()]
    }

    /// The underlying Euler tour.
    pub fn euler(&self) -> &EulerTour {
        &self.euler
    }

    /// Top vertex of the heavy path containing `v`.
    #[inline]
    pub fn head(&self, v: VertexId) -> VertexId {
        VertexId(self.head[v.index()])
    }

    /// Whether the edge above `v` is heavy (`false` for the root).
    #[inline]
    pub fn is_heavy_above(&self, v: VertexId) -> bool {
        self.head[v.index()] != v.0
    }

    /// Number of light edges on the path from `v` to the root: the
    /// "light depth", at most `log2 n`.
    #[inline]
    pub fn light_depth(&self, v: VertexId) -> u32 {
        self.light_depth[v.index()]
    }

    /// The lowest common ancestor of `u` and `v`, by climbing heavy
    /// paths.
    pub fn lca(&self, mut u: VertexId, mut v: VertexId) -> VertexId {
        let (mut hu, mut hv) = (self.head[u.index()], self.head[v.index()]);
        while hu != hv {
            // Heads differ, so the deeper one is not the root: its
            // endpoint crosses the light edge above it.
            if self.depth[hu as usize] >= self.depth[hv as usize] {
                u = VertexId(self.parent[hu as usize]);
                hu = self.head[u.index()];
            } else {
                v = VertexId(self.parent[hv as usize]);
                hv = self.head[v.index()];
            }
        }
        if self.depth[u.index()] <= self.depth[v.index()] {
            u
        } else {
            v
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{binary_tree, figure_tree, path_tree};
    use decss_graphs::{gen, EdgeId};

    /// LCA by walking parent pointers from the deeper endpoint.
    fn naive_lca(t: &RootedTree, mut a: VertexId, mut b: VertexId) -> VertexId {
        while a != b {
            if t.depth(a) >= t.depth(b) {
                a = t.parent(a).unwrap();
            } else {
                b = t.parent(b).unwrap();
            }
        }
        a
    }

    fn assert_all_pairs_naive(t: &RootedTree) {
        let oracle = LcaOracle::new(t);
        let n = t.n() as u32;
        for a in 0..n {
            for b in 0..n {
                let (a, b) = (VertexId(a), VertexId(b));
                assert_eq!(oracle.lca(a, b), naive_lca(t, a, b), "lca({a}, {b})");
            }
        }
    }

    #[test]
    fn lca_on_figure_tree() {
        let (_, t) = figure_tree();
        let oracle = LcaOracle::new(&t);
        assert_eq!(oracle.lca(VertexId(4), VertexId(5)), VertexId(2));
        assert_eq!(oracle.lca(VertexId(7), VertexId(8)), VertexId(6));
        assert_eq!(oracle.lca(VertexId(4), VertexId(8)), VertexId(2));
        assert_eq!(oracle.lca(VertexId(4), VertexId(3)), VertexId(3));
        assert_eq!(oracle.lca(VertexId(0), VertexId(8)), VertexId(0));
        assert_eq!(oracle.lca(VertexId(5), VertexId(5)), VertexId(5));
        assert_all_pairs_naive(&t);
    }

    #[test]
    fn all_pairs_lca_on_binary_tree() {
        let (_, t) = binary_tree(5);
        assert_all_pairs_naive(&t);
    }

    #[test]
    fn lca_matches_naive_on_random_tree() {
        let g = gen::gnp_two_ec(40, 0.1, 100, 9);
        let t = RootedTree::mst(&g);
        let oracle = LcaOracle::new(&t);
        for a in 0..40u32 {
            for b in (a..40).step_by(3) {
                let (a, b) = (VertexId(a), VertexId(b));
                assert_eq!(oracle.lca(a, b), naive_lca(&t, a, b), "lca({a},{b})");
            }
        }
    }

    #[test]
    fn path_is_one_heavy_path() {
        let (_, t) = path_tree(10);
        let oracle = LcaOracle::new(&t);
        for v in 1..10u32 {
            assert!(oracle.is_heavy_above(VertexId(v)), "edge above v{v}");
            assert_eq!(oracle.head(VertexId(v)), VertexId(0));
        }
        assert_eq!(oracle.light_depth(VertexId(9)), 0);
        assert_eq!(oracle.lca(VertexId(9), VertexId(7)), VertexId(7));
        assert_eq!(oracle.depth(VertexId(9)), 9);
    }

    #[test]
    fn binary_tree_light_depth_is_logarithmic() {
        let (_, t) = binary_tree(7); // 127 vertices
        let oracle = LcaOracle::new(&t);
        let log2_n = (t.n() as f64).log2();
        for v in t.order().iter().copied() {
            let d = oracle.light_depth(v);
            assert!(d as f64 <= log2_n, "light depth {d} exceeds log2(n) at {v}");
        }
    }

    #[test]
    fn every_vertex_has_at_most_one_heavy_child() {
        let (_, fig) = figure_tree();
        let g = gen::gnp_two_ec(80, 0.05, 50, 3);
        for t in [fig, RootedTree::mst(&g)] {
            let oracle = LcaOracle::new(&t);
            for v in t.order().iter().copied() {
                let heavy = t.children(v).iter().filter(|&&c| oracle.is_heavy_above(c)).count();
                assert!(heavy <= 1, "vertex {v} has {heavy} heavy children");
            }
        }
    }

    /// `head`, `is_heavy_above` and `light_depth` against a recomputation
    /// from subtree sizes counted by parent walks.
    #[test]
    fn heavy_paths_match_naive_on_random_msts() {
        for seed in 0..6 {
            let g = gen::gnp_two_ec(60, 0.07, 40, seed);
            let t = RootedTree::mst(&g);
            let oracle = LcaOracle::new(&t);
            let mut size = vec![0u32; t.n()];
            for v in g.vertices() {
                let mut cur = Some(v);
                while let Some(x) = cur {
                    size[x.index()] += 1;
                    cur = t.parent(x);
                }
            }
            let heavy =
                |c: VertexId| t.parent(c).is_some_and(|p| 2 * size[c.index()] >= size[p.index()]);
            for v in g.vertices() {
                assert_eq!(oracle.is_heavy_above(v), heavy(v), "seed {seed}: edge above {v}");
                let (mut top, mut light) = (v, 0);
                while heavy(top) {
                    top = t.parent(top).unwrap();
                }
                let mut cur = v;
                while let Some(p) = t.parent(cur) {
                    light += u32::from(!heavy(cur));
                    cur = p;
                }
                assert_eq!(oracle.head(v), top, "seed {seed}: head of {v}");
                assert_eq!(oracle.light_depth(v), light, "seed {seed}: light depth of {v}");
            }
        }
    }

    /// A 50,000-vertex path rooted at one end (one heavy path) and in the
    /// middle (two long arms, one of them light): the build and the climbs
    /// run without recursion.
    #[test]
    fn lca_across_a_long_path() {
        let g = gen::path(50_000);
        let ids: Vec<EdgeId> = g.edge_ids().collect();
        let t = RootedTree::new(&g, VertexId(0), &ids);
        let oracle = LcaOracle::new(&t);
        assert_eq!(oracle.lca(VertexId(49_999), VertexId(7)), VertexId(7));
        assert_eq!(oracle.depth(VertexId(49_999)), 49_999);
        let t = RootedTree::new(&g, VertexId(25_000), &ids);
        let oracle = LcaOracle::new(&t);
        let (low, high) = (VertexId(0), VertexId(49_999));
        assert_eq!(oracle.light_depth(low) + oracle.light_depth(high), 1);
        assert_eq!(oracle.lca(low, high), VertexId(25_000));
        assert_eq!(oracle.lca(VertexId(3), low), VertexId(3));
        assert_eq!(oracle.lca(high, VertexId(40_000)), VertexId(40_000));
    }
}
