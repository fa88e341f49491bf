//! Pins `CoverEngine` (integer difference counts, path-painted argmins,
//! offline path minima by path compression) to the preserved sweep
//! engine `NaiveCoverEngine` below: every public method, the f64 ones
//! compared bitwise, across repeated invocations of one engine (the
//! union-find scratch is reused), and on inputs that stress the argmin's
//! `(key, index)` tie-break: keys drawn from 0..4, duplicated arcs, and
//! float keys of `0.0` and `f64::MAX`.
//!
//! Run under `--release` in CI; the 4096-vertex test is `#[ignore]`d
//! for the debug tier-1 run and executed with `--include-ignored`.

use decss_graphs::{gen, VertexId};
use decss_tree::aggregates::{CoverArc, CoverEngine};
use decss_tree::{LcaOracle, RootedTree};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use naive::NaiveCoverEngine;

/// Random parent-array tree on `n` vertices plus `3n` random valid arcs.
fn tree_and_arcs(n: usize, seed: u64) -> (RootedTree, Vec<CoverArc>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let edges: Vec<(u32, u32, u64)> = (1..n as u32).map(|v| (rng.gen_range(0..v), v, 1)).collect();
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
}

/// `count` random valid arcs on `tree`.
fn random_arcs(tree: &RootedTree, count: usize, seed: u64) -> Vec<CoverArc> {
    let lca = LcaOracle::new(tree);
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

/// How [`assert_engines_agree`] draws its inputs: each arc is active
/// with probability `active_p`, and arc keys are drawn from
/// `0..key_max`.
#[derive(Clone, Copy)]
struct Draw {
    active_p: f64,
    key_max: u64,
}

/// Most arcs active; keys spread wide, so ties on key are rare.
const SPREAD: Draw = Draw { active_p: 0.7, key_max: 10_000 };

/// Every engine method, flat vs naive, bit-identical — invoked twice on
/// the flat engine so the second pass runs on dirty scratch.
fn assert_engines_agree(tree: &RootedTree, arcs: &[CoverArc], seed: u64, draw: Draw) {
    let lca = LcaOracle::new(tree);
    let flat = CoverEngine::new(tree, &lca, arcs.to_vec());
    let naive = NaiveCoverEngine::new(tree, &lca, arcs.to_vec());
    let mut rng = StdRng::seed_from_u64(seed);
    let m = arcs.len();
    let n = tree.n();
    let active: Vec<bool> = (0..m).map(|_| rng.gen_bool(draw.active_p)).collect();
    let keys: Vec<u64> = (0..m).map(|_| rng.gen_range(0..draw.key_max)).collect();
    let tvals: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..5.0)).collect();
    let tmask: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.5)).collect();
    let tkeys: Vec<u64> = (0..n).map(|_| rng.gen_range(0..10_000)).collect();
    // The float argmin's extremes, `0.0` and `f64::MAX`, among ordinary
    // keys.
    let fkeys: Vec<f64> = (0..m)
        .map(|_| match rng.gen_range(0..4) {
            0 => 0.0,
            1 => f64::MAX,
            _ => rng.gen_range(0.0..10.0),
        })
        .collect();

    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let arg_bits = |xs: Vec<Option<(f64, u32)>>| {
        xs.into_iter()
            .map(|o| o.map(|(k, i)| (k.to_bits(), i)))
            .collect::<Vec<_>>()
    };
    for round in 0..2 {
        assert_eq!(
            flat.covering_count(&active),
            naive.covering_count(&active),
            "covering_count (round {round})"
        );
        assert_eq!(
            flat.covering_argmin(&active, &keys),
            naive.covering_argmin(&active, &keys),
            "covering_argmin (round {round})"
        );
        assert_eq!(
            arg_bits(flat.covering_argmin_f64(&active, &fkeys)),
            arg_bits(naive.covering_argmin_f64(&active, &fkeys)),
            "covering_argmin_f64 (round {round})"
        );
        assert_eq!(
            bits(&flat.covered_sum(&tvals)),
            bits(&naive.covered_sum(&tvals)),
            "covered_sum (round {round})"
        );
        assert_eq!(
            flat.covered_count(&tmask),
            naive.covered_count(&tmask),
            "covered_count (round {round})"
        );
        assert_eq!(
            flat.covered_min(&tkeys),
            naive.covered_min(&tkeys),
            "covered_min (round {round})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn flat_engine_matches_naive(n in 4usize..96, seed in 0u64..10_000) {
        let (tree, arcs) = tree_and_arcs(n, seed);
        assert_engines_agree(&tree, &arcs, seed ^ 0xABCD, SPREAD);
    }
}

/// MST-of-a-graph trees (non-random shape) at a few hundred vertices.
#[test]
fn flat_engine_matches_naive_on_mst_trees() {
    for (n, seed) in [(60usize, 8u64), (200, 9), (400, 10)] {
        let g = gen::gnp_two_ec(n, (4.0 / n as f64).min(0.3), 40, seed);
        let tree = RootedTree::mst(&g);
        let arcs = random_arcs(&tree, 2 * n, seed);
        assert_engines_agree(&tree, &arcs, seed, SPREAD);
    }
}

/// The n=4096 instance the issue pins (release CI only).
#[test]
#[ignore = "large instance; run in release CI via --include-ignored"]
fn flat_engine_matches_naive_at_4096() {
    let (tree, arcs) = tree_and_arcs(4096, 21);
    assert_engines_agree(&tree, &arcs, 22, SPREAD);
}

/// Keys in 0..4 make most argmins a tie on key, decided by arc index,
/// and half the arcs appear twice, so identical arcs tie on everything
/// but their index.
#[test]
fn flat_engine_matches_naive_on_tied_keys_and_duplicated_arcs() {
    for (n, seed) in [(12usize, 30u64), (90, 31), (600, 32)] {
        let (tree, _) = tree_and_arcs(n, seed);
        let mut arcs = random_arcs(&tree, 3 * n, seed);
        arcs.extend_from_within(..arcs.len() / 2);
        assert_engines_agree(&tree, &arcs, seed, Draw { active_p: 0.7, key_max: 4 });
    }
}

/// No active arc: every count is zero and every argmin `None`.
#[test]
fn flat_engine_matches_naive_with_no_active_arc() {
    let (tree, arcs) = tree_and_arcs(300, 33);
    assert_engines_agree(&tree, &arcs, 33, Draw { active_p: 0.0, key_max: 4 });
}

mod naive {
    //! The sweep cover engine — a depth sweep over Euler positions with
    //! a Fenwick tree for counts and a min segment tree for argmins, and
    //! nested `Vec<Vec<_>>` binary-lifting tables for path minima, all
    //! allocated per invocation — preserved as the reference this suite
    //! compares against. Not used on any production path.

    use super::CoverArc;
    use decss_graphs::VertexId;
    use decss_tree::lca::LcaOracle;
    use decss_tree::rooted::RootedTree;

    /// Empty segment-tree slot.
    const SEG_EMPTY: (u64, u32) = (u64::MAX, u32::MAX);

    /// Sweep aggregation engine (allocates per invocation).
    #[derive(Clone, Debug)]
    pub struct NaiveCoverEngine {
        arcs: Vec<CoverArc>,
        edges_by_depth: Vec<VertexId>,
        arcs_by_anc_depth: Vec<u32>,
        up: Vec<Vec<u32>>,
        depth: Vec<u32>,
        pre: Vec<u32>,
        post: Vec<u32>,
        n: usize,
    }

    impl NaiveCoverEngine {
        /// Builds the engine (same contract as
        /// [`super::CoverEngine::new`]).
        ///
        /// # Panics
        ///
        /// Panics if any arc is not ancestor-to-descendant.
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
            let mut up = vec![vec![0u32; n]; levels];
            for v in 0..n {
                up[0][v] = tree.parent(VertexId(v as u32)).unwrap_or(tree.root()).0;
            }
            for k in 1..levels {
                for v in 0..n {
                    up[k][v] = up[k - 1][up[k - 1][v] as usize];
                }
            }
            NaiveCoverEngine {
                arcs,
                edges_by_depth,
                arcs_by_anc_depth,
                up,
                depth,
                pre,
                post,
                n,
            }
        }

        /// See [`super::CoverEngine::covering_count`].
        pub fn covering_count(&self, active: &[bool]) -> Vec<u32> {
            let vals: Vec<f64> = active.iter().map(|&a| if a { 1.0 } else { 0.0 }).collect();
            self.covering_sum(active, &vals)
                .into_iter()
                .map(|x| x.round() as u32)
                .collect()
        }

        /// For every tree edge, the sum of `vals[i]` over the active
        /// arcs `i` covering it.
        fn covering_sum(&self, active: &[bool], vals: &[f64]) -> Vec<f64> {
            assert_eq!(active.len(), self.arcs.len());
            assert_eq!(vals.len(), self.arcs.len());
            let mut fen = Fenwick::new(2 * self.n + 2);
            let mut out = vec![0.0f64; self.n];
            let mut j = 0usize;
            for &v in &self.edges_by_depth {
                let d = self.depth[v.index()];
                while j < self.arcs_by_anc_depth.len() {
                    let ai = self.arcs_by_anc_depth[j] as usize;
                    if self.depth[self.arcs[ai].anc.index()] < d {
                        if active[ai] {
                            fen.add(self.pre[self.arcs[ai].desc.index()] as usize, vals[ai]);
                        }
                        j += 1;
                    } else {
                        break;
                    }
                }
                out[v.index()] =
                    fen.range_sum(self.pre[v.index()] as usize, self.post[v.index()] as usize);
            }
            out
        }

        /// See [`super::CoverEngine::covering_argmin`].
        pub fn covering_argmin(&self, active: &[bool], keys: &[u64]) -> Vec<Option<(u64, u32)>> {
            assert_eq!(active.len(), self.arcs.len());
            assert_eq!(keys.len(), self.arcs.len());
            let mut seg = MinSegTree::new(2 * self.n + 2);
            let mut out = vec![None; self.n];
            let mut j = 0usize;
            for &v in &self.edges_by_depth {
                let d = self.depth[v.index()];
                while j < self.arcs_by_anc_depth.len() {
                    let ai = self.arcs_by_anc_depth[j] as usize;
                    if self.depth[self.arcs[ai].anc.index()] < d {
                        if active[ai] {
                            seg.update(
                                self.pre[self.arcs[ai].desc.index()] as usize,
                                (keys[ai], ai as u32),
                            );
                        }
                        j += 1;
                    } else {
                        break;
                    }
                }
                let best =
                    seg.range_min(self.pre[v.index()] as usize, self.post[v.index()] as usize);
                out[v.index()] = best;
            }
            out
        }

        /// See [`super::CoverEngine::covering_argmin_f64`].
        pub fn covering_argmin_f64(
            &self,
            active: &[bool],
            keys: &[f64],
        ) -> Vec<Option<(f64, u32)>> {
            let bit_keys: Vec<u64> = keys.iter().map(|k| k.to_bits()).collect();
            self.covering_argmin(active, &bit_keys)
                .into_iter()
                .map(|o| o.map(|(bits, i)| (f64::from_bits(bits), i)))
                .collect()
        }

        /// See [`super::CoverEngine::covered_sum`].
        pub fn covered_sum(&self, tvals: &[f64]) -> Vec<f64> {
            assert_eq!(tvals.len(), self.n);
            let mut pref = vec![0.0f64; self.n];
            for &v in &self.edges_by_depth {
                let p = self.up[0][v.index()] as usize;
                pref[v.index()] = pref[p] + tvals[v.index()];
            }
            self.arcs
                .iter()
                .map(|a| pref[a.desc.index()] - pref[a.anc.index()])
                .collect()
        }

        /// See [`super::CoverEngine::covered_count`].
        pub fn covered_count(&self, tmask: &[bool]) -> Vec<u32> {
            assert_eq!(tmask.len(), self.n);
            let mut pref = vec![0u32; self.n];
            for &v in &self.edges_by_depth {
                let p = self.up[0][v.index()] as usize;
                pref[v.index()] = pref[p] + u32::from(tmask[v.index()]);
            }
            self.arcs
                .iter()
                .map(|a| pref[a.desc.index()] - pref[a.anc.index()])
                .collect()
        }

        /// See [`super::CoverEngine::covered_min`].
        pub fn covered_min(&self, keys: &[u64]) -> Vec<u64> {
            assert_eq!(keys.len(), self.n);
            let levels = self.up.len();
            let mut lift = vec![vec![u64::MAX; self.n]; levels];
            lift[0].copy_from_slice(keys);
            for k in 1..levels {
                for v in 0..self.n {
                    let mid = self.up[k - 1][v] as usize;
                    lift[k][v] = lift[k - 1][v].min(lift[k - 1][mid]);
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
                            acc = acc.min(lift[k][cur]);
                            cur = self.up[k][cur] as usize;
                        }
                        len >>= 1;
                        k += 1;
                    }
                    acc
                })
                .collect()
        }
    }

    /// Fenwick tree over f64 (point add, range sum), allocated fresh
    /// per invocation.
    #[derive(Clone, Debug)]
    struct Fenwick {
        data: Vec<f64>,
    }

    impl Fenwick {
        fn new(n: usize) -> Self {
            Fenwick { data: vec![0.0; n + 1] }
        }

        fn add(&mut self, mut i: usize, v: f64) {
            i += 1;
            while i < self.data.len() {
                self.data[i] += v;
                i += i & i.wrapping_neg();
            }
        }

        fn prefix(&self, mut i: usize) -> f64 {
            // Sum of [0, i] inclusive.
            i += 1;
            let mut s = 0.0;
            while i > 0 {
                s += self.data[i];
                i -= i & i.wrapping_neg();
            }
            s
        }

        fn range_sum(&self, lo: usize, hi: usize) -> f64 {
            let upper = self.prefix(hi);
            if lo == 0 {
                upper
            } else {
                upper - self.prefix(lo - 1)
            }
        }
    }

    /// Min segment tree over `(u64, u32)` pairs (point update, range
    /// min), allocated fresh per invocation.
    #[derive(Clone, Debug)]
    struct MinSegTree {
        size: usize,
        data: Vec<(u64, u32)>,
    }

    impl MinSegTree {
        fn new(n: usize) -> Self {
            let mut size = 1;
            while size < n {
                size <<= 1;
            }
            MinSegTree { size, data: vec![SEG_EMPTY; 2 * size] }
        }

        fn update(&mut self, i: usize, v: (u64, u32)) {
            let mut i = i + self.size;
            if v < self.data[i] {
                self.data[i] = v;
                i >>= 1;
                while i >= 1 {
                    let best = self.data[2 * i].min(self.data[2 * i + 1]);
                    if self.data[i] == best {
                        break;
                    }
                    self.data[i] = best;
                    i >>= 1;
                }
            }
        }

        fn range_min(&self, lo: usize, hi: usize) -> Option<(u64, u32)> {
            let (mut lo, mut hi) = (lo + self.size, hi + self.size + 1);
            let mut best = SEG_EMPTY;
            while lo < hi {
                if lo & 1 == 1 {
                    best = best.min(self.data[lo]);
                    lo += 1;
                }
                if hi & 1 == 1 {
                    hi -= 1;
                    best = best.min(self.data[hi]);
                }
                lo >>= 1;
                hi >>= 1;
            }
            (best != SEG_EMPTY).then_some(best)
        }
    }
}
