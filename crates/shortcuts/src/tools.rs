//! The three tree tools of Section 5.2, with shortcut-based round
//! accounting: descendants' sum (Theorem 5.1), ancestors' sum
//! (Theorem 5.2), and the heavy-light decomposition with its LCA
//! (Theorem 5.3), which the tree's [`LcaOracle`] holds.
//!
//! Results are computed logically (they are classic tree sweeps); the
//! cost of each *pass* is the measured shortcut quality summed over the
//! fragment-hierarchy levels — exactly the recursion
//! `T(L) = T(L−1) + U(L−1)` of Theorem 5.2, where each `U` is one
//! shortcut use on one level's partition.
//!
//! Construction and the aggregate sweeps run on flat scratch: one
//! [`ShortcutWorkspace`] is reused across every hierarchy level's
//! shortcut measurement, and the `*_into` sweeps write into
//! caller-held buffers so the set-cover driver allocates nothing per
//! round.

use crate::fragments::FragmentHierarchy;
use crate::shortcut::{best_shortcut_ws, ShortcutQuality};
use crate::workspace::ShortcutWorkspace;
use decss_congest::ledger::RoundLedger;
use decss_congest::protocols::convergecast::Agg;
use decss_graphs::algo;
use decss_graphs::{Graph, VertexId};
use decss_tree::{LcaOracle, RootedTree};

/// Shortcut-powered tree tools bound to one graph + rooted tree.
pub struct ScTools<'a> {
    /// The communication graph.
    pub graph: &'a Graph,
    /// The rooted tree the sums run over.
    pub tree: &'a RootedTree,
    /// The tree's one index: Euler tour, heavy paths, LCA (Theorem 5.3).
    pub index: LcaOracle,
    /// The fragment hierarchy.
    pub hierarchy: FragmentHierarchy,
    /// Measured shortcut quality per level.
    pub level_quality: Vec<ShortcutQuality>,
    /// Hop depth of the BFS backbone (the `O(D)` term).
    pub bfs_depth: u32,
}

impl<'a> ScTools<'a> {
    /// Builds the tools: BFS backbone, tree index, hierarchy, and per-level
    /// shortcut quality (the better construction, by
    /// [`best_shortcut_ws`]).
    pub fn new(graph: &'a Graph, tree: &'a RootedTree) -> Self {
        Self::new_with(graph, tree, &mut ShortcutWorkspace::new(graph))
    }

    /// [`ScTools::new`] reusing a caller-held workspace for the
    /// per-level shortcut measurements.
    pub fn new_with(graph: &'a Graph, tree: &'a RootedTree, ws: &mut ShortcutWorkspace) -> Self {
        let index = LcaOracle::new(tree);
        let hierarchy = FragmentHierarchy::new(tree, &index);
        let bfs = algo::bfs_tree(graph, tree.root());
        let level_quality = (0..hierarchy.num_levels())
            .map(|d| best_shortcut_ws(graph, &bfs, &hierarchy.level_partition(graph, d), ws))
            .collect();
        ScTools {
            graph,
            tree,
            index,
            hierarchy,
            level_quality,
            bfs_depth: bfs.depth(),
        }
    }

    /// Assembles tools from already-built parts — the incremental solve
    /// path's constructor: [`crate::dynamic::DynamicInstance`] retains
    /// the decomposition and per-level qualities across deltas and
    /// rebuilds only what a delta touched, so nothing here is
    /// recomputed. The caller guarantees the parts are exactly what
    /// [`ScTools::new_with`] would have produced for `(graph, tree)`;
    /// the `incremental_equivalence` suite pins that end to end.
    pub fn from_parts(
        graph: &'a Graph,
        tree: &'a RootedTree,
        index: LcaOracle,
        hierarchy: FragmentHierarchy,
        level_quality: Vec<ShortcutQuality>,
        bfs_depth: u32,
    ) -> Self {
        ScTools { graph, tree, index, hierarchy, level_quality, bfs_depth }
    }

    /// Rounds of one full pass over the hierarchy (one tool invocation):
    /// `Σ_levels (α_d + β_d)` plus a global broadcast.
    pub fn pass_cost(&self) -> u64 {
        self.level_quality.iter().map(|q| q.cost()).sum::<u64>() + 2 * self.bfs_depth as u64
    }

    /// The measured "shortcut complexity" of this instance: the worst
    /// per-level `α + β` (what `SC(G)` bounds for every partition).
    pub fn measured_sc(&self) -> u64 {
        self.level_quality.iter().map(|q| q.cost()).max().unwrap_or(0)
    }

    /// Descendants' aggregate (Theorem 5.1): for every vertex `u`, the
    /// aggregate of `values[v]` over `v` in the subtree of `u`, written
    /// into `out`.
    pub fn descendants_sum_into(
        &self,
        values: &[u64],
        op: Agg,
        ledger: &mut RoundLedger,
        out: &mut Vec<u64>,
    ) {
        assert_eq!(values.len(), self.tree.n());
        ledger.charge("sc.descendants-sum", self.pass_cost());
        out.clear();
        out.extend_from_slice(values);
        for &v in self.tree.order().iter().rev() {
            if let Some(p) = self.tree.parent(v) {
                out[p.index()] = op.combine(out[p.index()], out[v.index()]);
            }
        }
    }

    /// Ancestors' aggregate (Theorem 5.2): for every vertex `u`, the
    /// aggregate of `values[v]` over `v` on the path `u → root`
    /// (inclusive), written into `out`.
    pub fn ancestors_sum_into(
        &self,
        values: &[u64],
        op: Agg,
        ledger: &mut RoundLedger,
        out: &mut Vec<u64>,
    ) {
        assert_eq!(values.len(), self.tree.n());
        ledger.charge("sc.ancestors-sum", self.pass_cost());
        out.clear();
        out.extend_from_slice(values);
        for &v in self.tree.order() {
            if let Some(p) = self.tree.parent(v) {
                out[v.index()] = op.combine(out[v.index()], out[p.index()]);
            }
        }
    }

    /// The LCA of Theorem 5.3. Adjacent endpoints compute it from their
    /// light-edge lists; the tree index answers it centrally by climbing
    /// the same heavy paths.
    pub fn lca(&self, u: VertexId, v: VertexId) -> VertexId {
        self.index.lca(u, v)
    }

    /// Charges the one-time cost of distributing the heavy-light labels
    /// that [`ScTools::lca`] stands for (Theorem 5.3: a subtree-size pass
    /// plus `O(log n)` ancestors' passes for the light-edge lists, whose
    /// entries are `O(log n)` words).
    pub fn charge_hld_setup(&self, ledger: &mut RoundLedger) {
        let levels = self.hierarchy.num_levels().max(1) as u64;
        ledger.charge("sc.hld-setup", self.pass_cost() * (1 + levels));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decss_graphs::gen;

    fn naive_desc(tree: &RootedTree, values: &[u64], op: Agg) -> Vec<u64> {
        let mut out = vec![0; tree.n()];
        for u in tree.order().iter().copied() {
            let mut acc = op.identity();
            // All v with u on their root path.
            let mut stack = vec![u];
            while let Some(x) = stack.pop() {
                acc = op.combine(acc, values[x.index()]);
                stack.extend(tree.children(x).iter().copied());
            }
            out[u.index()] = acc;
        }
        out
    }

    #[test]
    fn descendants_sum_matches_naive() {
        let g = gen::gnp_two_ec(40, 0.1, 20, 3);
        let tree = RootedTree::mst(&g);
        let tools = ScTools::new(&g, &tree);
        let values: Vec<u64> = (0..g.n() as u64).map(|i| i * 3 + 1).collect();
        let mut ledger = RoundLedger::new();
        let mut got = Vec::new();
        for op in [Agg::Sum, Agg::Min, Agg::Max, Agg::Xor] {
            tools.descendants_sum_into(&values, op, &mut ledger, &mut got);
            assert_eq!(got, naive_desc(&tree, &values, op), "{op:?}");
        }
        assert_eq!(ledger.invocations_of("sc.descendants-sum"), 4);
        assert!(ledger.total_rounds() > 0);
    }

    #[test]
    fn ancestors_sum_matches_naive() {
        let g = gen::grid(5, 6, 10, 1);
        let tree = RootedTree::mst(&g);
        let tools = ScTools::new(&g, &tree);
        let values: Vec<u64> = (0..g.n() as u64).map(|i| (i * 7) % 13).collect();
        let mut ledger = RoundLedger::new();
        let mut got = Vec::new();
        tools.ancestors_sum_into(&values, Agg::Sum, &mut ledger, &mut got);
        for v in g.vertices() {
            let mut acc = 0u64;
            let mut cur = Some(v);
            while let Some(x) = cur {
                acc += values[x.index()];
                cur = tree.parent(x);
            }
            assert_eq!(got[v.index()], acc, "at {v}");
        }
    }

    #[test]
    fn into_variants_reuse_buffers() {
        let g = gen::grid(4, 5, 8, 2);
        let tree = RootedTree::mst(&g);
        let tools = ScTools::new(&g, &tree);
        let values: Vec<u64> = (0..g.n() as u64).collect();
        let mut ledger = RoundLedger::new();
        let mut buf = vec![99u64; 3]; // wrong size and junk content: must be overwritten
        let mut fresh = Vec::new();
        tools.descendants_sum_into(&values, Agg::Sum, &mut ledger, &mut buf);
        tools.descendants_sum_into(&values, Agg::Sum, &mut ledger, &mut fresh);
        assert_eq!(buf, fresh);
        let mut fresh = Vec::new();
        tools.ancestors_sum_into(&values, Agg::Max, &mut ledger, &mut buf);
        tools.ancestors_sum_into(&values, Agg::Max, &mut ledger, &mut fresh);
        assert_eq!(buf, fresh);
    }

    #[test]
    fn lca_matches_a_parent_walk() {
        let g = gen::gnp_two_ec(50, 0.08, 20, 9);
        let tree = RootedTree::mst(&g);
        let tools = ScTools::new(&g, &tree);
        for a in (0..50u32).step_by(3) {
            for b in (0..50u32).step_by(7) {
                let (mut x, mut y) = (VertexId(a), VertexId(b));
                while x != y {
                    if tree.depth(x) >= tree.depth(y) {
                        x = tree.parent(x).unwrap();
                    } else {
                        y = tree.parent(y).unwrap();
                    }
                }
                assert_eq!(tools.lca(VertexId(a), VertexId(b)), x, "lca({a},{b})");
            }
        }
    }

    #[test]
    fn pass_cost_reflects_topology() {
        // Outerplanar low-diameter graphs should have much cheaper passes
        // than a long lollipop of similar size.
        let nice = gen::outerplanar_disk(128, 1.0, 10, 0);
        let ugly = gen::lollipop_two_ec(128, 10, 0);
        let nice_tree = RootedTree::mst(&nice);
        let ugly_tree = RootedTree::mst(&ugly);
        let nice_cost = ScTools::new(&nice, &nice_tree).pass_cost();
        let ugly_cost = ScTools::new(&ugly, &ugly_tree).pass_cost();
        assert!(
            nice_cost < ugly_cost,
            "outerplanar {nice_cost} !< lollipop {ugly_cost}"
        );
    }
}
