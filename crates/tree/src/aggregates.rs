//! Aggregate-function engines between tree edges and the non-tree edges
//! covering them (Claims 4.5 and 4.6).
//!
//! An *arc* is an ancestor-to-descendant non-tree edge `(anc, desc)` (in
//! the virtual graph `G'` every non-tree edge has this form); it covers
//! exactly the tree edges on the path `desc → anc`. The paper computes,
//! in `O(D + √n)` rounds per invocation:
//!
//! * for every arc simultaneously, an aggregate of values held by the
//!   tree edges it covers (Claim 4.5): path sums and counts, and path
//!   minima;
//! * for every tree edge simultaneously, an aggregate of values held by
//!   the arcs covering it (Claim 4.6): counts and argmins.
//!
//! Each has an exact near-linear central form:
//!
//! * **Path sums and counts** (`covered_sum`, `covered_count`): prefix
//!   sums from the root, differenced at the arc's endpoints.
//! * **Covering counts** (`covering_count`): `+1` at `desc` and `−1` at
//!   `anc` for every active arc, summed bottom-up. An arc whose `anc`
//!   lies in a subtree has its `desc` there too and cancels, so the
//!   integer subtree sum at `v` is the count for the edge above `v`:
//!   `O(n + m)`.
//! * **Covering argmins** (`covering_argmin`): the active arcs in
//!   `(key, index)` order each paint the still-unpainted edges of their
//!   path, skipping painted ones through a union-find of "next unpainted
//!   ancestor-or-self" pointers. The first arc to paint an edge is its
//!   lexicographic minimum: one sort, then near-linear.
//! * **Path minima** (`covered_min`): offline, by path compression
//!   (Tarjan, "Applications of path compression on balanced trees",
//!   J. ACM 26(4), 1979). Vertices are linked to their parents deepest
//!   first, each link carrying the minimum key of the path it spans; an
//!   arc is answered by a find from `desc` just before `anc` is linked.
//!
//! The engines are *logically exact* reimplementations: the algorithms
//! compute their answers centrally and charge each invocation the rounds
//! the distributed primitive would take,
//! `decss_congest::ledger::CostParams::aggregate` (`decss-congest` sits
//! above this crate, so no intra-doc link).
//!
//! The forward/reverse phases of the first algorithm invoke an engine
//! many times per run, so the union-find and prefix buffers are
//! allocated once per engine and reset at each invocation. The
//! log-factor sweep engine these forms replace is kept in the test tree
//! (`tests/cover_equivalence.rs`), which pins this one to it.

use crate::lca::LcaOracle;
use crate::rooted::RootedTree;
use decss_graphs::VertexId;
use std::cell::RefCell;

/// An ancestor-to-descendant non-tree edge.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct CoverArc {
    /// The upper endpoint (a proper ancestor of `desc`).
    pub anc: VertexId,
    /// The lower endpoint.
    pub desc: VertexId,
}

/// Per-invocation buffers, allocated once per engine; each method resets
/// the ones it uses.
#[derive(Clone, Debug, Default)]
struct EngineScratch {
    /// Union-find pointers: the painter's "next unpainted
    /// ancestor-or-self" in `covering_argmin`, the forest links in
    /// `covered_min`.
    link: Vec<u32>,
    /// `covered_min`: the minimum key on the tree path from a vertex up
    /// to (excluding) its link.
    link_min: Vec<u64>,
    /// `covering_argmin`: the active `(key, arc index)` pairs.
    order: Vec<(u64, u32)>,
    pref_f: Vec<f64>,
    pref_u: Vec<u32>,
}

/// Aggregation engine for a fixed tree and arc set. It borrows the
/// tree's rows from the [`LcaOracle`] and its vertex order from the
/// [`RootedTree`].
#[derive(Clone, Debug)]
pub struct CoverEngine<'a> {
    arcs: Vec<CoverArc>,
    /// All vertices sorted by depth, ascending (the tree's BFS order):
    /// the root, then the tree edges (child endpoints).
    by_depth: &'a [VertexId],
    /// Arc indices bucketed by `anc`: those of `v` are
    /// `by_anc[anc_start[v]..anc_start[v + 1]]`.
    by_anc: Vec<u32>,
    anc_start: Vec<u32>,
    /// Parent of each vertex; the root maps to itself.
    parent: &'a [u32],
    depth: &'a [u32],
    pre: &'a [u32],
    post: &'a [u32],
    /// Per-invocation scratch (interior mutability: the methods take
    /// `&self` and the scratch is logically stateless between calls).
    scratch: RefCell<EngineScratch>,
}

impl<'a> CoverEngine<'a> {
    /// Builds the engine.
    ///
    /// # Panics
    ///
    /// Panics if any arc's `anc` is not a proper ancestor of its `desc`.
    pub fn new(tree: &'a RootedTree, lca: &'a LcaOracle, arcs: Vec<CoverArc>) -> Self {
        let n = tree.n();
        for a in &arcs {
            assert!(
                lca.is_proper_ancestor(a.anc, a.desc),
                "arc {:?} is not ancestor-to-descendant",
                a
            );
        }
        // Counting sort of the arcs by `anc`.
        let mut anc_start = vec![0u32; n + 1];
        for a in &arcs {
            anc_start[a.anc.index() + 1] += 1;
        }
        for v in 0..n {
            anc_start[v + 1] += anc_start[v];
        }
        let mut fill = anc_start.clone();
        let mut by_anc = vec![0u32; arcs.len()];
        for (i, a) in arcs.iter().enumerate() {
            let slot = &mut fill[a.anc.index()];
            by_anc[*slot as usize] = i as u32;
            *slot += 1;
        }
        CoverEngine {
            arcs,
            by_depth: tree.order(),
            by_anc,
            anc_start,
            parent: &lca.parent,
            depth: &lca.depth,
            pre: &lca.euler.pre,
            post: &lca.euler.post,
            scratch: RefCell::default(),
        }
    }

    /// The engine's arcs.
    pub fn arcs(&self) -> &[CoverArc] {
        &self.arcs
    }

    /// Tree edges (child endpoints) sorted by depth, ascending.
    fn edges_by_depth(&self) -> &[VertexId] {
        &self.by_depth[1..]
    }

    /// Whether arc `i` covers the tree edge above `v`. O(1).
    #[inline]
    pub fn covers(&self, i: usize, v: VertexId) -> bool {
        let a = self.arcs[i];
        self.depth[a.anc.index()] < self.depth[v.index()]
            && self.pre[v.index()] <= self.pre[a.desc.index()]
            && self.post[a.desc.index()] <= self.post[v.index()]
    }

    /// For every tree edge (indexed by child vertex), the number of
    /// active arcs covering it.
    pub fn covering_count(&self, active: &[bool]) -> Vec<u32> {
        assert_eq!(active.len(), self.arcs.len());
        let mut sum = vec![0i32; self.by_depth.len()];
        for (a, _) in self.arcs.iter().zip(active).filter(|&(_, &on)| on) {
            sum[a.desc.index()] += 1;
            sum[a.anc.index()] -= 1;
        }
        for &v in self.edges_by_depth().iter().rev() {
            sum[self.parent[v.index()] as usize] += sum[v.index()];
        }
        // Every subtree sum is a count, so none is negative.
        sum.into_iter().map(|c| c as u32).collect()
    }

    /// For every tree edge, the active covering arc minimizing
    /// `(key, arc index)`, or `None` if uncovered.
    pub fn covering_argmin(&self, active: &[bool], keys: &[u64]) -> Vec<Option<(u64, u32)>> {
        assert_eq!(active.len(), self.arcs.len());
        assert_eq!(keys.len(), self.arcs.len());
        let mut s = self.scratch.borrow_mut();
        let EngineScratch { link: next, order, .. } = &mut *s;
        order.clear();
        order.extend(
            (0..self.arcs.len())
                .filter(|&i| active[i])
                .map(|i| (keys[i], i as u32)),
        );
        // Arc indices are distinct, so the unstable sort is deterministic.
        order.sort_unstable();
        // `next[v] == v` while the edge above `v` is unpainted; the root
        // holds no edge and is never painted.
        next.clear();
        let n = self.by_depth.len();
        next.extend(0..n as u32);
        let mut out = vec![None; n];
        let mut unpainted = n - 1;
        for &(key, i) in order.iter() {
            if unpainted == 0 {
                break;
            }
            let a = self.arcs[i as usize];
            let anc_depth = self.depth[a.anc.index()];
            let mut v = find_unpainted(next, a.desc.index());
            while self.depth[v] > anc_depth {
                out[v] = Some((key, i));
                unpainted -= 1;
                next[v] = self.parent[v];
                v = find_unpainted(next, v);
            }
        }
        out
    }

    /// For every tree edge, the active covering arc minimizing a
    /// non-negative float key (ties by arc index).
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if any key is negative or NaN.
    pub fn covering_argmin_f64(&self, active: &[bool], keys: &[f64]) -> Vec<Option<(f64, u32)>> {
        let bit_keys: Vec<u64> = keys
            .iter()
            .map(|&k| {
                debug_assert!(k >= 0.0 && !k.is_nan(), "key {k} not a non-negative float");
                k.to_bits()
            })
            .collect();
        self.covering_argmin(active, &bit_keys)
            .into_iter()
            .map(|o| o.map(|(bits, i)| (f64::from_bits(bits), i)))
            .collect()
    }

    /// For every arc, the sum of `tvals[v]` over the tree edges (child
    /// endpoints `v`) it covers.
    pub fn covered_sum(&self, tvals: &[f64]) -> Vec<f64> {
        assert_eq!(tvals.len(), self.by_depth.len());
        let mut s = self.scratch.borrow_mut();
        // Prefix sums root -> v over edge values.
        let pref = &mut s.pref_f;
        pref.clear();
        pref.resize(tvals.len(), 0.0);
        for &v in self.edges_by_depth() {
            let p = self.parent[v.index()] as usize;
            pref[v.index()] = pref[p] + tvals[v.index()];
        }
        self.arcs
            .iter()
            .map(|a| pref[a.desc.index()] - pref[a.anc.index()])
            .collect()
    }

    /// For every arc, the number of covered tree edges with `tmask` set.
    pub fn covered_count(&self, tmask: &[bool]) -> Vec<u32> {
        assert_eq!(tmask.len(), self.by_depth.len());
        let mut s = self.scratch.borrow_mut();
        let pref = &mut s.pref_u;
        pref.clear();
        pref.resize(tmask.len(), 0);
        for &v in self.edges_by_depth() {
            let p = self.parent[v.index()] as usize;
            pref[v.index()] = pref[p] + u32::from(tmask[v.index()]);
        }
        self.arcs
            .iter()
            .map(|a| pref[a.desc.index()] - pref[a.anc.index()])
            .collect()
    }

    /// For every arc, the minimum of `keys[v]` over covered tree edges
    /// (`u64::MAX` if the path is empty, which cannot happen for a valid
    /// arc).
    pub fn covered_min(&self, keys: &[u64]) -> Vec<u64> {
        assert_eq!(keys.len(), self.by_depth.len());
        let mut s = self.scratch.borrow_mut();
        let EngineScratch { link, link_min, .. } = &mut *s;
        link.clear();
        link.extend(0..keys.len() as u32);
        link_min.clear();
        link_min.resize(keys.len(), u64::MAX);
        let mut out = vec![u64::MAX; self.arcs.len()];
        // Deepest first: when `v` comes up, its proper descendants are
        // linked and `v` is not, so a find from `desc` climbs exactly the
        // arc's path. The root, last, links to itself and stays a set
        // root.
        for &v in self.by_depth.iter().rev() {
            let v = v.index();
            let (lo, hi) = (self.anc_start[v] as usize, self.anc_start[v + 1] as usize);
            for &i in &self.by_anc[lo..hi] {
                out[i as usize] = path_min(link, link_min, self.arcs[i as usize].desc.index());
            }
            link[v] = self.parent[v];
            link_min[v] = keys[v];
        }
        out
    }
}

/// The first vertex at or above `v` whose edge is unpainted (path
/// halving).
fn find_unpainted(next: &mut [u32], mut v: usize) -> usize {
    while next[v] as usize != v {
        let up = next[next[v] as usize];
        next[v] = up;
        v = up as usize;
    }
    v
}

/// The minimum key on the path from `v` up to the root of its set. Path
/// halving: each vertex visited is relinked to its grandparent, and its
/// `link_min` extended over both segments.
fn path_min(link: &mut [u32], link_min: &mut [u64], mut v: usize) -> u64 {
    let mut acc = u64::MAX;
    while link[v] as usize != v {
        let p = link[v] as usize;
        if link[p] as usize != p {
            link_min[v] = link_min[v].min(link_min[p]);
            link[v] = link[p];
        }
        acc = acc.min(link_min[v]);
        v = link[v] as usize;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{binary_tree, figure_tree};
    use decss_graphs::gen;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Naive cover test straight from the definition: `t` is on the tree
    /// path between the arc endpoints.
    fn naive_covers(tree: &RootedTree, a: CoverArc, v: VertexId) -> bool {
        let mut cur = a.desc;
        while cur != a.anc {
            if cur == v {
                return true;
            }
            cur = tree.parent(cur).expect("anc is an ancestor");
        }
        false
    }

    fn random_arcs(tree: &RootedTree, lca: &LcaOracle, count: usize, seed: u64) -> Vec<CoverArc> {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = tree.n() as u32;
        let mut arcs = Vec::new();
        while arcs.len() < count {
            let a = VertexId(rng.gen_range(0..n));
            let d = VertexId(rng.gen_range(0..n));
            if lca.is_proper_ancestor(a, d) {
                arcs.push(CoverArc { anc: a, desc: d });
            }
        }
        arcs
    }

    #[test]
    fn covers_matches_naive() {
        let (_, t) = binary_tree(5);
        let lca = LcaOracle::new(&t);
        let arcs = random_arcs(&t, &lca, 40, 1);
        let engine = CoverEngine::new(&t, &lca, arcs.clone());
        for (i, &a) in arcs.iter().enumerate() {
            for v in t.tree_edge_children() {
                assert_eq!(
                    engine.covers(i, v),
                    naive_covers(&t, a, v),
                    "arc {a:?} edge above {v}"
                );
            }
        }
    }

    #[test]
    fn covering_count_matches_naive() {
        let (_, t) = binary_tree(5);
        let lca = LcaOracle::new(&t);
        let arcs = random_arcs(&t, &lca, 30, 2);
        let engine = CoverEngine::new(&t, &lca, arcs.clone());
        let mut rng = StdRng::seed_from_u64(3);
        let active: Vec<bool> = (0..arcs.len()).map(|_| rng.gen_bool(0.7)).collect();
        let counts = engine.covering_count(&active);
        for v in t.tree_edge_children() {
            let expect = (0..arcs.len())
                .filter(|&i| active[i] && naive_covers(&t, arcs[i], v))
                .count() as u32;
            assert_eq!(counts[v.index()], expect, "count at {v}");
        }
    }

    #[test]
    fn repeated_invocations_reuse_scratch_cleanly() {
        // The shared union-find scratch must not leak state between
        // calls: the same query twice gives identical answers, and an
        // interleaved different query does not disturb the next one.
        let (_, t) = binary_tree(6);
        let lca = LcaOracle::new(&t);
        let arcs = random_arcs(&t, &lca, 60, 12);
        let engine = CoverEngine::new(&t, &lca, arcs.clone());
        let mut rng = StdRng::seed_from_u64(13);
        let keys: Vec<u64> = (0..arcs.len()).map(|_| rng.gen_range(0..1000)).collect();
        let active: Vec<bool> = (0..arcs.len()).map(|_| rng.gen_bool(0.6)).collect();
        let all = vec![true; arcs.len()];
        let vkeys: Vec<u64> = (0..t.n() as u64).map(|i| i * 17 % 101).collect();
        let min1 = engine.covering_argmin(&active, &keys);
        let pm1 = engine.covered_min(&vkeys);
        let _ = engine.covering_argmin(&all, &keys); // interleaved different queries
        let _ = engine.covered_min(&vec![7; t.n()]);
        assert_eq!(engine.covering_argmin(&active, &keys), min1);
        assert_eq!(engine.covered_min(&vkeys), pm1);
    }

    #[test]
    fn covering_argmin_matches_naive() {
        let (_, t) = binary_tree(5);
        let lca = LcaOracle::new(&t);
        let arcs = random_arcs(&t, &lca, 25, 4);
        let engine = CoverEngine::new(&t, &lca, arcs.clone());
        let mut rng = StdRng::seed_from_u64(5);
        let keys: Vec<u64> = (0..arcs.len()).map(|_| rng.gen_range(0..100)).collect();
        let active: Vec<bool> = (0..arcs.len()).map(|_| rng.gen_bool(0.8)).collect();
        let got = engine.covering_argmin(&active, &keys);
        for v in t.tree_edge_children() {
            let expect = arcs
                .iter()
                .enumerate()
                .filter(|&(i, &a)| active[i] && naive_covers(&t, a, v))
                .map(|(i, _)| (keys[i], i as u32))
                .min();
            assert_eq!(got[v.index()], expect, "argmin at {v}");
        }
    }

    #[test]
    fn covered_aggregates_match_naive() {
        let (_, t) = binary_tree(5);
        let lca = LcaOracle::new(&t);
        let arcs = random_arcs(&t, &lca, 25, 6);
        let engine = CoverEngine::new(&t, &lca, arcs.clone());
        let mut rng = StdRng::seed_from_u64(7);
        let n = t.n();
        let tvals: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..5.0)).collect();
        let tmask: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.5)).collect();
        let keys: Vec<u64> = (0..n).map(|_| rng.gen_range(0..50)).collect();
        let sums = engine.covered_sum(&tvals);
        let counts = engine.covered_count(&tmask);
        let mins = engine.covered_min(&keys);
        for (i, &a) in arcs.iter().enumerate() {
            let path: Vec<VertexId> = {
                let mut p = Vec::new();
                let mut cur = a.desc;
                while cur != a.anc {
                    p.push(cur);
                    cur = t.parent(cur).unwrap();
                }
                p
            };
            let es: f64 = path.iter().map(|v| tvals[v.index()]).sum();
            let ec: u32 = path.iter().map(|v| u32::from(tmask[v.index()])).sum();
            let em: u64 = path.iter().map(|v| keys[v.index()]).min().unwrap();
            assert!((sums[i] - es).abs() < 1e-9, "sum of arc {i}");
            assert_eq!(counts[i], ec, "count of arc {i}");
            assert_eq!(mins[i], em, "min of arc {i}");
        }
    }

    #[test]
    fn covering_argmin_f64_roundtrips() {
        let (_, t) = figure_tree();
        let lca = LcaOracle::new(&t);
        let arcs = vec![
            CoverArc { anc: VertexId(0), desc: VertexId(4) },
            CoverArc { anc: VertexId(2), desc: VertexId(4) },
        ];
        let engine = CoverEngine::new(&t, &lca, arcs);
        let got = engine.covering_argmin_f64(&[true, true], &[2.5, 1.25]);
        // Edge above 4 is covered by both arcs; arc 1 has the smaller key.
        let (val, idx) = got[4].unwrap();
        assert_eq!(idx, 1);
        assert!((val - 1.25).abs() < 1e-12);
        // Edge above 1 is covered only by arc 0.
        assert_eq!(got[1].unwrap().1, 0);
        // Edge above 5 is covered by neither.
        assert_eq!(got[5], None);
    }

    #[test]
    #[should_panic(expected = "ancestor-to-descendant")]
    fn non_ancestor_arcs_rejected() {
        let (_, t) = figure_tree();
        let lca = LcaOracle::new(&t);
        let _ = CoverEngine::new(&t, &lca, vec![CoverArc { anc: VertexId(4), desc: VertexId(5) }]);
    }

    mod properties {
        use super::naive_covers;
        use crate::aggregates::{CoverArc, CoverEngine};
        use crate::lca::LcaOracle;
        use crate::rooted::RootedTree;
        use decss_graphs::VertexId;
        use proptest::prelude::*;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        /// Random rooted tree (parent(v) in 0..v) plus random valid arcs.
        fn tree_and_arcs() -> impl Strategy<Value = (RootedTree, Vec<CoverArc>)> {
            (4usize..48, 0u64..10_000).prop_map(|(n, seed)| {
                let mut rng = StdRng::seed_from_u64(seed);
                let edges: Vec<(u32, u32, u64)> =
                    (1..n as u32).map(|v| (rng.gen_range(0..v), v, 1)).collect();
                let g = decss_graphs::Graph::from_edges(n, edges).unwrap();
                let ids: Vec<decss_graphs::EdgeId> = g.edge_ids().collect();
                let tree = RootedTree::new(&g, VertexId(0), &ids);
                let lca = LcaOracle::new(&tree);
                let mut arcs = Vec::new();
                for _ in 0..3 * n {
                    let a = VertexId(rng.gen_range(0..n as u32));
                    let d = VertexId(rng.gen_range(0..n as u32));
                    if lca.is_proper_ancestor(a, d) {
                        arcs.push(CoverArc { anc: a, desc: d });
                    }
                }
                (tree, arcs)
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(40))]

            /// The sweep engine agrees with the from-the-definition cover
            /// test on arbitrary random trees (the unit tests only used
            /// binary trees).
            #[test]
            fn covering_count_matches_naive_on_random_trees(
                (tree, arcs) in tree_and_arcs()
            ) {
                let lca = LcaOracle::new(&tree);
                let engine = CoverEngine::new(&tree, &lca, arcs.clone());
                let active = vec![true; arcs.len()];
                let counts = engine.covering_count(&active);
                for v in tree.tree_edge_children() {
                    let expect = arcs
                        .iter()
                        .filter(|&&a| naive_covers(&tree, a, v))
                        .count() as u32;
                    prop_assert_eq!(counts[v.index()], expect, "edge above {}", v);
                }
            }

            /// Path aggregates (covered_*) agree with direct walks.
            #[test]
            fn covered_count_matches_naive_on_random_trees(
                (tree, arcs) in tree_and_arcs()
            ) {
                let lca = LcaOracle::new(&tree);
                let engine = CoverEngine::new(&tree, &lca, arcs.clone());
                let mask = vec![true; tree.n()];
                let lens = engine.covered_count(&mask);
                for (i, &a) in arcs.iter().enumerate() {
                    let expect =
                        lca.depth(a.desc) - lca.depth(a.anc);
                    prop_assert_eq!(lens[i], expect, "arc {:?}", a);
                }
            }
        }
    }

    #[test]
    fn gnp_engine_consistency() {
        let g = gen::gnp_two_ec(60, 0.08, 40, 8);
        let t = RootedTree::mst(&g);
        let lca = LcaOracle::new(&t);
        let arcs = random_arcs(&t, &lca, 50, 9);
        let engine = CoverEngine::new(&t, &lca, arcs.clone());
        let active = vec![true; arcs.len()];
        let counts = engine.covering_count(&active);
        let path_lens = engine.covered_count(&vec![true; t.n()]);
        // Double counting: sum over tree edges of covering counts equals
        // sum over arcs of path lengths.
        let a: u32 = counts.iter().sum();
        let b: u32 = path_lens.iter().sum();
        assert_eq!(a, b);
    }
}
