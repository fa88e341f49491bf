//! Aggregate-function engines between tree edges and the non-tree edges
//! covering them (Claims 4.5 and 4.6).
//!
//! An *arc* is an ancestor-to-descendant non-tree edge `(anc, desc)` (in
//! the virtual graph `G'` every non-tree edge has this form); it covers
//! exactly the tree edges on the path `desc → anc`. The paper computes,
//! in `O(D + √n)` rounds per invocation:
//!
//! * for every arc simultaneously, an aggregate of values held by the
//!   tree edges it covers (Claim 4.5) — here: path sums and path minima
//!   via prefix sums / binary lifting,
//! * for every tree edge simultaneously, an aggregate of values held by
//!   the arcs covering it (Claim 4.6) — here: a depth sweep with a
//!   Fenwick tree / min segment tree over Euler positions. An arc
//!   `(anc, desc)` covers the edge above `v` iff `desc ∈ subtree(v)` and
//!   `depth(anc) < depth(v)`, which the sweep turns into a 1-D range
//!   query.
//!
//! The engines are *logically exact* reimplementations: the algorithms
//! compute their answers centrally and charge each invocation the rounds
//! the distributed primitive would take,
//! `decss_congest::ledger::CostParams::aggregate` (`decss-congest` sits
//! above this crate, so no intra-doc link).
//!
//! Layout: the binary-lifting table is one strided `Vec<u32>` (`levels`
//! rows of `n`), and the Fenwick / segment-tree / lifting scratch the
//! sweeps run on is allocated once per engine and reset by `fill` at
//! each invocation start (the sweeps are dense, so a memset beats both
//! per-read generation checks and write-recording touched lists — both
//! were measured). The forward/reverse phases of the first algorithm
//! invoke these engines thousands of times per run; reuse removes the
//! per-invocation allocator round-trips. The pre-rewrite engine is
//! preserved in the test tree (`tests/cover_equivalence.rs`), which pins
//! this one bit-identical to it.

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

/// Empty segment-tree slot.
const SEG_EMPTY: (u64, u32) = (u64::MAX, u32::MAX);

/// Reusable sweep scratch, allocated once per engine and reset by a
/// straight `fill` at each invocation start. (Both per-read generation
/// checks and write-recording touched lists were measured slower here:
/// the sweeps are dense — nearly every slot is dirtied — so a memset is
/// the cheapest reset and the win over the naive engine is purely the
/// avoided allocator round-trips.) The strided path-min lifting buffer
/// is fully overwritten per use.
#[derive(Clone, Debug, Default)]
struct EngineScratch {
    fen: Vec<f64>,
    seg: Vec<(u64, u32)>,
    seg_size: usize,
    lift: Vec<u64>,
    pref_f: Vec<f64>,
    pref_u: Vec<u32>,
}

/// Aggregation engine for a fixed tree and arc set.
#[derive(Clone, Debug)]
pub struct CoverEngine {
    arcs: Vec<CoverArc>,
    /// Tree edges (child endpoints) sorted by depth, ascending.
    edges_by_depth: Vec<VertexId>,
    /// Arc indices sorted by `depth(anc)`, ascending.
    arcs_by_anc_depth: Vec<u32>,
    /// Binary-lifting ancestor table, strided: `up[k * n + v]` is the
    /// `2^k`-th ancestor of `v`.
    up: Vec<u32>,
    /// Number of lifting levels (the stride count of `up`).
    levels: usize,
    depth: Vec<u32>,
    pre: Vec<u32>,
    post: Vec<u32>,
    n: usize,
    /// Per-invocation sweep scratch (interior mutability: the sweep
    /// methods take `&self` and the scratch is logically stateless
    /// between calls).
    scratch: RefCell<EngineScratch>,
}

impl CoverEngine {
    /// Builds the engine.
    ///
    /// # Panics
    ///
    /// Panics if any arc's `anc` is not a proper ancestor of its `desc`.
    pub fn new(tree: &RootedTree, lca: &LcaOracle, arcs: Vec<CoverArc>) -> Self {
        let n = tree.n();
        for a in &arcs {
            assert!(
                lca.is_proper_ancestor(a.anc, a.desc),
                "arc {:?} is not ancestor-to-descendant",
                a
            );
        }
        let depth: Vec<u32> = (0..n).map(|v| tree.depth(VertexId(v as u32))).collect();
        let pre: Vec<u32> = (0..n).map(|v| lca.euler().pre(VertexId(v as u32))).collect();
        let post: Vec<u32> = (0..n).map(|v| lca.euler().post(VertexId(v as u32))).collect();
        let mut edges_by_depth: Vec<VertexId> = tree.tree_edge_children().collect();
        edges_by_depth.sort_by_key(|v| depth[v.index()]);
        let mut arcs_by_anc_depth: Vec<u32> = (0..arcs.len() as u32).collect();
        arcs_by_anc_depth.sort_by_key(|&i| depth[arcs[i as usize].anc.index()]);
        let levels = (usize::BITS - n.leading_zeros()).max(1) as usize;
        let mut up = vec![0u32; levels * n];
        for v in 0..n {
            up[v] = tree.parent(VertexId(v as u32)).unwrap_or(tree.root()).0;
        }
        for k in 1..levels {
            let (done, row) = up.split_at_mut(k * n);
            let prev = &done[(k - 1) * n..];
            for v in 0..n {
                row[v] = prev[prev[v] as usize];
            }
        }
        let fen_len = 2 * n + 3; // Fenwick over 2n+2 positions, 1-based
        let mut seg_size = 1usize;
        while seg_size < 2 * n + 2 {
            seg_size <<= 1;
        }
        let scratch = RefCell::new(EngineScratch {
            fen: vec![0.0; fen_len],
            seg: vec![SEG_EMPTY; 2 * seg_size],
            seg_size,
            lift: Vec::new(),
            pref_f: Vec::new(),
            pref_u: Vec::new(),
        });
        CoverEngine {
            arcs,
            edges_by_depth,
            arcs_by_anc_depth,
            up,
            levels,
            depth,
            pre,
            post,
            n,
            scratch,
        }
    }

    /// The engine's arcs.
    pub fn arcs(&self) -> &[CoverArc] {
        &self.arcs
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
        let vals: Vec<f64> = active.iter().map(|&a| if a { 1.0 } else { 0.0 }).collect();
        self.covering_sum(active, &vals)
            .into_iter()
            .map(|x| x.round() as u32)
            .collect()
    }

    /// For every tree edge, the sum of `vals[i]` over active covering
    /// arcs `i`.
    pub fn covering_sum(&self, active: &[bool], vals: &[f64]) -> Vec<f64> {
        assert_eq!(active.len(), self.arcs.len());
        assert_eq!(vals.len(), self.arcs.len());
        let mut s = self.scratch.borrow_mut();
        s.fen.fill(0.0);
        let fen = &mut s.fen;
        let mut out = vec![0.0f64; self.n];
        let mut j = 0usize;
        for &v in &self.edges_by_depth {
            let d = self.depth[v.index()];
            while j < self.arcs_by_anc_depth.len() {
                let ai = self.arcs_by_anc_depth[j] as usize;
                if self.depth[self.arcs[ai].anc.index()] < d {
                    if active[ai] {
                        fen_add(fen, self.pre[self.arcs[ai].desc.index()] as usize, vals[ai]);
                    }
                    j += 1;
                } else {
                    break;
                }
            }
            out[v.index()] =
                fen_range_sum(fen, self.pre[v.index()] as usize, self.post[v.index()] as usize);
        }
        out
    }

    /// For every tree edge, the active covering arc minimizing
    /// `(key, arc index)`, or `None` if uncovered.
    pub fn covering_argmin(&self, active: &[bool], keys: &[u64]) -> Vec<Option<(u64, u32)>> {
        assert_eq!(active.len(), self.arcs.len());
        assert_eq!(keys.len(), self.arcs.len());
        let mut s = self.scratch.borrow_mut();
        s.seg.fill(SEG_EMPTY);
        let EngineScratch { seg, seg_size, .. } = &mut *s;
        let seg_size = *seg_size;
        let mut out = vec![None; self.n];
        let mut j = 0usize;
        for &v in &self.edges_by_depth {
            let d = self.depth[v.index()];
            while j < self.arcs_by_anc_depth.len() {
                let ai = self.arcs_by_anc_depth[j] as usize;
                if self.depth[self.arcs[ai].anc.index()] < d {
                    if active[ai] {
                        seg_update(
                            seg,
                            seg_size,
                            self.pre[self.arcs[ai].desc.index()] as usize,
                            (keys[ai], ai as u32),
                        );
                    }
                    j += 1;
                } else {
                    break;
                }
            }
            out[v.index()] = seg_range_min(
                seg,
                seg_size,
                self.pre[v.index()] as usize,
                self.post[v.index()] as usize,
            );
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
        assert_eq!(tvals.len(), self.n);
        let mut s = self.scratch.borrow_mut();
        // Prefix sums root -> v over edge values.
        let pref = &mut s.pref_f;
        pref.clear();
        pref.resize(self.n, 0.0);
        for &v in &self.edges_by_depth {
            let p = self.up[v.index()] as usize;
            pref[v.index()] = pref[p] + tvals[v.index()];
        }
        self.arcs
            .iter()
            .map(|a| pref[a.desc.index()] - pref[a.anc.index()])
            .collect()
    }

    /// For every arc, the number of covered tree edges with `tmask` set.
    pub fn covered_count(&self, tmask: &[bool]) -> Vec<u32> {
        assert_eq!(tmask.len(), self.n);
        let mut s = self.scratch.borrow_mut();
        let pref = &mut s.pref_u;
        pref.clear();
        pref.resize(self.n, 0);
        for &v in &self.edges_by_depth {
            let p = self.up[v.index()] as usize;
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
        assert_eq!(keys.len(), self.n);
        let n = self.n;
        let levels = self.levels;
        let mut s = self.scratch.borrow_mut();
        // lift[k * n + v] = min key over the 2^k edges starting at the
        // edge above v and going up. Fully overwritten each call.
        let lift = &mut s.lift;
        lift.clear();
        lift.resize(levels * n, u64::MAX);
        lift[..n].copy_from_slice(keys);
        for k in 1..levels {
            let (done, row) = lift.split_at_mut(k * n);
            let prev = &done[(k - 1) * n..];
            let up_prev = &self.up[(k - 1) * n..k * n];
            for v in 0..n {
                row[v] = prev[v].min(prev[up_prev[v] as usize]);
            }
        }
        self.arcs
            .iter()
            .map(|a| {
                let mut len = self.depth[a.desc.index()] - self.depth[a.anc.index()];
                let mut cur = a.desc.index();
                let mut acc = u64::MAX;
                let mut k = 0usize;
                while len > 0 {
                    if len & 1 == 1 {
                        acc = acc.min(lift[k * n + cur]);
                        cur = self.up[k * n + cur] as usize;
                    }
                    len >>= 1;
                    k += 1;
                }
                acc
            })
            .collect()
    }
}

/// Fenwick point-add.
fn fen_add(data: &mut [f64], mut i: usize, v: f64) {
    i += 1;
    while i < data.len() {
        data[i] += v;
        i += i & i.wrapping_neg();
    }
}

/// Fenwick prefix sum of `[0, i]`.
fn fen_prefix(data: &[f64], mut i: usize) -> f64 {
    i += 1;
    let mut s = 0.0;
    while i > 0 {
        s += data[i];
        i -= i & i.wrapping_neg();
    }
    s
}

fn fen_range_sum(data: &[f64], lo: usize, hi: usize) -> f64 {
    let upper = fen_prefix(data, hi);
    if lo == 0 {
        upper
    } else {
        upper - fen_prefix(data, lo - 1)
    }
}

/// Segment-tree point update (min).
fn seg_update(data: &mut [(u64, u32)], size: usize, i: usize, v: (u64, u32)) {
    let mut i = i + size;
    if v < data[i] {
        data[i] = v;
        i >>= 1;
        while i >= 1 {
            let best = data[2 * i].min(data[2 * i + 1]);
            if data[i] == best {
                break;
            }
            data[i] = best;
            i >>= 1;
        }
    }
}

fn seg_range_min(data: &[(u64, u32)], size: usize, lo: usize, hi: usize) -> Option<(u64, u32)> {
    let (mut lo, mut hi) = (lo + size, hi + size + 1);
    let mut best = SEG_EMPTY;
    while lo < hi {
        if lo & 1 == 1 {
            best = best.min(data[lo]);
            lo += 1;
        }
        if hi & 1 == 1 {
            hi -= 1;
            best = best.min(data[hi]);
        }
        lo >>= 1;
        hi >>= 1;
    }
    (best != SEG_EMPTY).then_some(best)
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
    fn covering_sum_and_count_match_naive() {
        let (_, t) = binary_tree(5);
        let lca = LcaOracle::new(&t);
        let arcs = random_arcs(&t, &lca, 30, 2);
        let engine = CoverEngine::new(&t, &lca, arcs.clone());
        let mut rng = StdRng::seed_from_u64(3);
        let vals: Vec<f64> = (0..arcs.len()).map(|_| rng.gen_range(0.0..10.0)).collect();
        let active: Vec<bool> = (0..arcs.len()).map(|_| rng.gen_bool(0.7)).collect();
        let sums = engine.covering_sum(&active, &vals);
        let counts = engine.covering_count(&active);
        for v in t.tree_edge_children() {
            let mut expect_sum = 0.0;
            let mut expect_count = 0;
            for (i, &a) in arcs.iter().enumerate() {
                if active[i] && naive_covers(&t, a, v) {
                    expect_sum += vals[i];
                    expect_count += 1;
                }
            }
            assert!((sums[v.index()] - expect_sum).abs() < 1e-9, "sum at {v}");
            assert_eq!(counts[v.index()], expect_count, "count at {v}");
        }
    }

    #[test]
    fn repeated_invocations_reuse_scratch_cleanly() {
        // The epoch-reset scratch must not leak state between calls:
        // the same query twice gives bit-identical answers, and an
        // interleaved different query does not disturb the next one.
        let (_, t) = binary_tree(6);
        let lca = LcaOracle::new(&t);
        let arcs = random_arcs(&t, &lca, 60, 12);
        let engine = CoverEngine::new(&t, &lca, arcs.clone());
        let mut rng = StdRng::seed_from_u64(13);
        let vals: Vec<f64> = (0..arcs.len()).map(|_| rng.gen_range(0.0..10.0)).collect();
        let keys: Vec<u64> = (0..arcs.len()).map(|_| rng.gen_range(0..1000)).collect();
        let active: Vec<bool> = (0..arcs.len()).map(|_| rng.gen_bool(0.6)).collect();
        let all = vec![true; arcs.len()];
        let sum1 = engine.covering_sum(&active, &vals);
        let min1 = engine.covering_argmin(&active, &keys);
        let _ = engine.covering_sum(&all, &vals); // interleaved different query
        let _ = engine.covering_argmin(&all, &keys);
        let sum2 = engine.covering_sum(&active, &vals);
        let min2 = engine.covering_argmin(&active, &keys);
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&sum1), bits(&sum2));
        assert_eq!(min1, min2);
        // The strided lifting buffer is also reused: same path minima
        // on the second call.
        let vkeys: Vec<u64> = (0..t.n() as u64).map(|i| i * 17 % 101).collect();
        let pm1 = engine.covered_min(&vkeys);
        let pm2 = engine.covered_min(&vkeys);
        assert_eq!(pm1, pm2);
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
