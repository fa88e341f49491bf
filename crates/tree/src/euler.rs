//! Euler tour (pre/post order) over a rooted tree: subtree intervals and
//! constant-time ancestor tests. [`crate::LcaOracle`] builds the one
//! tour of a tree; reach it through [`crate::LcaOracle::euler`].

use crate::rooted::RootedTree;
use decss_graphs::VertexId;

/// Pre/post numbering of a rooted tree.
#[derive(Clone, Debug)]
pub struct EulerTour {
    pub(crate) pre: Vec<u32>,
    pub(crate) post: Vec<u32>,
    size: Vec<u32>,
}

impl EulerTour {
    /// Computes the tour (iteratively; deep trees are common here).
    pub fn new(tree: &RootedTree) -> Self {
        let n = tree.n();
        let mut pre = vec![0u32; n];
        let mut post = vec![0u32; n];
        let mut size = vec![1u32; n];
        let mut timer = 0u32;
        // (vertex, child cursor)
        let mut stack: Vec<(VertexId, usize)> = vec![(tree.root(), 0)];
        pre[tree.root().index()] = timer;
        timer += 1;
        while let Some(&(v, cursor)) = stack.last() {
            let kids = tree.children(v);
            if cursor < kids.len() {
                stack.last_mut().expect("nonempty").1 += 1;
                let c = kids[cursor];
                pre[c.index()] = timer;
                timer += 1;
                stack.push((c, 0));
            } else {
                post[v.index()] = timer;
                timer += 1;
                stack.pop();
                if let Some(&(p, _)) = stack.last() {
                    size[p.index()] += size[v.index()];
                }
            }
        }
        EulerTour { pre, post, size }
    }

    /// Pre-order index of `v`.
    #[inline]
    pub fn pre(&self, v: VertexId) -> u32 {
        self.pre[v.index()]
    }

    /// Post-order index of `v`.
    #[inline]
    pub fn post(&self, v: VertexId) -> u32 {
        self.post[v.index()]
    }

    /// Number of vertices in the subtree rooted at `v` (including `v`).
    #[inline]
    pub fn subtree_size(&self, v: VertexId) -> u32 {
        self.size[v.index()]
    }

    /// Whether `a` is an ancestor of `d` (inclusive: `a` is an ancestor
    /// of itself). O(1).
    #[inline]
    pub fn is_ancestor(&self, a: VertexId, d: VertexId) -> bool {
        self.pre[a.index()] <= self.pre[d.index()] && self.post[d.index()] <= self.post[a.index()]
    }

    /// Whether `a` is a *proper* ancestor of `d`.
    #[inline]
    pub fn is_proper_ancestor(&self, a: VertexId, d: VertexId) -> bool {
        a != d && self.is_ancestor(a, d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::figure_tree;

    #[test]
    fn ancestor_tests() {
        let (_, t) = figure_tree();
        let e = EulerTour::new(&t);
        assert!(e.is_ancestor(VertexId(0), VertexId(8)));
        assert!(e.is_ancestor(VertexId(2), VertexId(4)));
        assert!(!e.is_ancestor(VertexId(3), VertexId(5)));
        assert!(e.is_ancestor(VertexId(3), VertexId(3)));
        assert!(!e.is_proper_ancestor(VertexId(3), VertexId(3)));
        assert!(e.is_proper_ancestor(VertexId(0), VertexId(1)));
    }

    #[test]
    fn subtree_sizes() {
        let (_, t) = figure_tree();
        let e = EulerTour::new(&t);
        assert_eq!(e.subtree_size(VertexId(0)), 9);
        assert_eq!(e.subtree_size(VertexId(2)), 7);
        assert_eq!(e.subtree_size(VertexId(6)), 3);
        assert_eq!(e.subtree_size(VertexId(4)), 1);
    }

    #[test]
    fn pre_intervals_nest() {
        let (_, t) = figure_tree();
        let e = EulerTour::new(&t);
        for v in t.order().iter().copied() {
            for &c in t.children(v) {
                assert!(e.pre(v) < e.pre(c));
                assert!(e.post(c) < e.post(v));
            }
        }
    }

    #[test]
    fn deep_tree_does_not_overflow() {
        use decss_graphs::{gen, EdgeId, VertexId};
        let g = gen::path(50_000);
        let ids: Vec<EdgeId> = g.edge_ids().collect();
        let t = RootedTree::new(&g, VertexId(0), &ids);
        let e = EulerTour::new(&t);
        assert!(e.is_ancestor(VertexId(0), VertexId(49_999)));
    }
}
