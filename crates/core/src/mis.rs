//! The per-layer MIS machinery of the reverse-delete phase
//! (Section 4.5.1).
//!
//! One *iteration* handles layer `i`: it must cover every still-uncovered
//! eligible layer-`i` tree edge (the set `H̃_i`) by adding petals of a
//! maximal independent set of `H̃_i` in the virtual conflict graph `G_i`
//! (two tree edges are adjacent iff some arc of `X` covers both). The
//! distributed structure is:
//!
//! 1. **Global part** — each segment publishes `O(log n)` words: the
//!    highest and lowest `H̃_i` edges of each layer-`i` path portion on
//!    its highway, with their petals (Claim 4.4 pipelining). Every
//!    vertex locally simulates the same greedy MIS over this set `T'`,
//!    using the petal labels for the adjacency test (Claim 4.9 makes the
//!    higher petal test exact for same-layer edges).
//! 2. **Local part** — each segment scans its layer-`i` path portions
//!    bottom-up, adding every still-uncovered edge as a *local anchor*
//!    and tracking coverage through the anchor's higher petal.
//!
//! Claim 4.13: the union of global and local anchors is an MIS of `G_i`
//! when both petals are added; Claim 4.15 bounds the dependencies when
//! only higher petals are added (improved variant).

use crate::petals::PetalTable;
use decss_graphs::VertexId;
use decss_tree::aggregates::CoverEngine;
use decss_tree::segments::SegmentDecomposition;
use decss_tree::{Layering, LcaOracle, RootedTree};

/// How an anchor was added (the improved variant's analysis
/// distinguishes them — Claim 4.15).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AnchorKind {
    /// Added by the globally simulated MIS over segment representatives.
    Global,
    /// Added by a segment-local scan.
    Local,
}

/// A tree edge selected as an anchor, with its petals in `X`.
#[derive(Clone, Copy, Debug)]
pub struct Anchor {
    /// Child endpoint of the anchor tree edge.
    pub edge: VertexId,
    /// Global or local.
    pub kind: AnchorKind,
    /// The layer of the iteration that created it.
    pub layer: u32,
    /// Higher petal (always present: anchors are covered by `X`).
    pub higher: u32,
    /// Lower petal.
    pub lower: u32,
}

/// Immutable context shared by all iterations of a reverse-delete epoch.
pub struct MisContext<'a> {
    /// The rooted tree.
    pub tree: &'a RootedTree,
    /// LCA oracle.
    pub lca: &'a LcaOracle,
    /// Layering decomposition.
    pub layering: &'a Layering,
    /// Segment decomposition.
    pub segments: &'a SegmentDecomposition,
    /// Aggregation engine over the virtual edges.
    pub engine: &'a CoverEngine<'a>,
}

impl MisContext<'_> {
    /// Adjacency test in `G_i` between two *layer-`i`* tree edges using
    /// only petals: `t1` and `t2` (on the same root-leaf path, `t2`
    /// above) are neighbours iff the higher petal of the lower one
    /// covers the upper one (exact by Claim 4.9).
    fn neighbours_in_gi(&self, petals: &PetalTable, t1: VertexId, t2: VertexId) -> bool {
        if t1 == t2 {
            return false;
        }
        // Order by depth: `lo` is the deeper edge.
        let (lo, hi) = if self.lca.depth(t1) > self.lca.depth(t2) {
            (t1, t2)
        } else {
            (t2, t1)
        };
        if !self.lca.is_proper_ancestor(hi, lo) {
            // Not on one root-leaf path: never adjacent (arcs are
            // ancestor-to-descendant).
            return false;
        }
        match petals.higher(lo) {
            Some(h) => self.engine.covers(h as usize, hi),
            None => false,
        }
    }

    /// The global part: representatives `T'` and their greedy MIS.
    ///
    /// For each segment and each layer-`i` path portion on its highway,
    /// the highest and lowest eligible edges enter `T'`; the greedy MIS
    /// runs in the deterministic order (segment id, position), as every
    /// vertex simulates the same algorithm.
    pub fn global_mis(
        &self,
        layer: u32,
        petals: &PetalTable,
        eligible: &dyn Fn(VertexId) -> bool,
    ) -> Vec<Anchor> {
        let mut reps: Vec<VertexId> = Vec::new();
        for seg in self.segments.segments() {
            // Group the segment's highway edges by layer path; the
            // highway is stored bottom-up, so the first eligible edge of
            // a group is `t_l` and the last is `t_h`.
            let mut groups: Vec<(decss_tree::layering::PathId, VertexId, VertexId)> = Vec::new();
            for &v in &seg.highway {
                if self.layering.layer(v) != layer || !eligible(v) {
                    continue;
                }
                let pid = self.layering.path_of(v);
                match groups.iter_mut().find(|g| g.0 == pid) {
                    Some(g) => g.2 = v, // update t_h (bottom-up scan)
                    None => groups.push((pid, v, v)),
                }
            }
            for (_, tl, th) in groups {
                reps.push(tl);
                if th != tl {
                    reps.push(th);
                }
            }
        }
        // Deterministic simulation order.
        reps.sort_by_key(|v| v.0);
        reps.dedup();

        let mut mis: Vec<VertexId> = Vec::new();
        let mut anchors = Vec::new();
        for &t in &reps {
            if mis.iter().any(|&m| self.neighbours_in_gi(petals, t, m)) {
                continue;
            }
            // `T'` edges are covered by X (they are eligible, i.e. in
            // H̃_i ⊆ F which X covers), so petals exist.
            let (Some(h), Some(l)) = (petals.higher(t), petals.lower(t)) else {
                continue;
            };
            mis.push(t);
            anchors.push(Anchor {
                edge: t,
                kind: AnchorKind::Global,
                layer,
                higher: h,
                lower: l,
            });
        }
        anchors
    }

    /// The local part: per-segment bottom-up scans over the layer-`i`
    /// path portions, adding local anchors for edges not covered by
    /// `covered_now` (coverage by `Y` after the global petals were added)
    /// nor by petals added earlier in the same scan.
    pub fn local_mis(
        &self,
        layer: u32,
        petals: &PetalTable,
        eligible: &dyn Fn(VertexId) -> bool,
        covered_now: &dyn Fn(VertexId) -> bool,
    ) -> Vec<Anchor> {
        let mut anchors = Vec::new();
        // `slot[p]` = (segment, group) of layer path `p` in the segment
        // last seen on it; the segment index keeps a slot from leaking
        // into the next segment.
        let mut slot = vec![(usize::MAX, 0usize); self.layering.paths().len()];
        for (si, seg) in self.segments.segments().iter().enumerate() {
            // The segment's layer-`i` edges grouped by path in order of
            // first appearance, bottom-up: `seg.edges` is in BFS order;
            // sort by decreasing depth to scan upward, path by path.
            let mut by_path: Vec<Vec<VertexId>> = Vec::new();
            let mut sorted: Vec<VertexId> = seg
                .edges
                .iter()
                .copied()
                .filter(|&v| self.layering.layer(v) == layer)
                .collect();
            sorted.sort_by_key(|&v| std::cmp::Reverse(self.lca.depth(v)));
            for v in sorted {
                let s = &mut slot[self.layering.path_of(v).0 as usize];
                if s.0 != si {
                    *s = (si, by_path.len());
                    by_path.push(Vec::new());
                }
                by_path[s.1].push(v);
            }
            for edges in by_path {
                // Coverage reached by anchors added in this scan: the
                // shallowest higher-petal ancestor so far; it covers the
                // edge above v' iff its depth < depth(v').
                let mut scan_anc_depth = u32::MAX;
                for v in edges {
                    if !eligible(v) {
                        continue;
                    }
                    let covered_by_scan = scan_anc_depth < self.lca.depth(v);
                    if covered_now(v) || covered_by_scan {
                        continue;
                    }
                    let (Some(h), Some(l)) = (petals.higher(v), petals.lower(v)) else {
                        continue;
                    };
                    anchors.push(Anchor {
                        edge: v,
                        kind: AnchorKind::Local,
                        layer,
                        higher: h,
                        lower: l,
                    });
                    let anc = self.engine.arcs()[h as usize].anc;
                    scan_anc_depth = scan_anc_depth.min(self.lca.depth(anc));
                }
            }
        }
        anchors
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::petals::PetalTable;
    use crate::virtual_graph::VirtualGraph;
    use decss_graphs::gen;
    use decss_tree::EulerTour;

    struct Fixture {
        tree: RootedTree,
        lca: LcaOracle,
        layering: Layering,
        segments: SegmentDecomposition,
        vg: VirtualGraph,
    }

    fn fixture(n: usize, extra: usize, seed: u64) -> Fixture {
        let g = gen::sparse_two_ec(n, extra, 30, seed);
        let tree = RootedTree::mst(&g);
        let lca = LcaOracle::new(&tree);
        let layering = Layering::new(&tree);
        let euler = EulerTour::new(&tree);
        let segments = SegmentDecomposition::new(&tree, &euler);
        let vg = VirtualGraph::new(&g, &tree, &lca);
        Fixture { tree, lca, layering, segments, vg }
    }

    /// Running global+local MIS with both petals over every layer covers
    /// all tree edges, and anchors of the same layer are independent —
    /// the unweighted algorithm's engine room (Claim 4.13 with full X).
    #[test]
    fn full_sweep_covers_all_edges_with_independent_anchors() {
        for seed in 0..5 {
            let f = fixture(36, 30, seed);
            let engine = f.vg.engine(&f.tree, &f.lca);
            let ctx = MisContext {
                tree: &f.tree,
                lca: &f.lca,
                layering: &f.layering,
                segments: &f.segments,
                engine: &engine,
            };
            let x = vec![true; f.vg.len()];
            let mut y_active = vec![false; f.vg.len()];
            let mut covered: Vec<bool> = vec![false; f.tree.n()];
            let mut all_anchors: Vec<Anchor> = Vec::new();
            for layer in 1..=f.layering.num_layers() {
                let petals =
                    PetalTable::compute(&engine, &f.lca, &f.layering, f.tree.root(), layer, &x);
                let is_eligible = |v: VertexId| !covered[v.index()];
                let globals = ctx.global_mis(layer, &petals, &is_eligible);
                for a in &globals {
                    y_active[a.higher as usize] = true;
                    y_active[a.lower as usize] = true;
                }
                let cov_counts = engine.covering_count(&y_active);
                let covered_now = |v: VertexId| covered[v.index()] || cov_counts[v.index()] > 0;
                let locals = ctx.local_mis(layer, &petals, &is_eligible, &covered_now);
                for a in globals.iter().chain(locals.iter()) {
                    y_active[a.higher as usize] = true;
                    y_active[a.lower as usize] = true;
                    all_anchors.push(*a);
                }
                let counts = engine.covering_count(&y_active);
                for vi in 0..f.tree.n() {
                    if counts[vi] > 0 {
                        covered[vi] = true;
                    }
                }
            }
            // All tree edges covered.
            for v in f.tree.tree_edge_children() {
                assert!(covered[v.index()], "seed {seed}: edge above {v} uncovered");
            }
            // Anchors pairwise independent in G_i (Claim 4.13 across
            // layers too: no arc covers two anchors).
            for (i, a) in all_anchors.iter().enumerate() {
                for b in all_anchors.iter().skip(i + 1) {
                    let conflict = (0..f.vg.len())
                        .any(|e| engine.covers(e, a.edge) && engine.covers(e, b.edge));
                    assert!(
                        !conflict,
                        "seed {seed}: anchors {} and {} share a covering arc",
                        a.edge, b.edge
                    );
                }
            }
        }
    }

    /// Global anchors alone are pairwise independent.
    #[test]
    fn global_mis_is_independent() {
        let f = fixture(40, 35, 11);
        let engine = f.vg.engine(&f.tree, &f.lca);
        let ctx = MisContext {
            tree: &f.tree,
            lca: &f.lca,
            layering: &f.layering,
            segments: &f.segments,
            engine: &engine,
        };
        let x = vec![true; f.vg.len()];
        for layer in 1..=f.layering.num_layers() {
            let petals =
                PetalTable::compute(&engine, &f.lca, &f.layering, f.tree.root(), layer, &x);
            let globals = ctx.global_mis(layer, &petals, &|_| true);
            for (i, a) in globals.iter().enumerate() {
                for b in globals.iter().skip(i + 1) {
                    let conflict = (0..f.vg.len())
                        .any(|e| engine.covers(e, a.edge) && engine.covers(e, b.edge));
                    assert!(!conflict, "layer {layer}: global anchors conflict");
                }
            }
        }
    }
}
