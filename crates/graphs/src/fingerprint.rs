//! Order-independent graph fingerprints with `O(1)`-per-edge
//! incremental updates.
//!
//! The fingerprint hashes each edge's `(u, v, weight)` triple through a
//! splitmix64-style mixer and combines the per-edge hashes with a
//! wrapping sum, then folds in `n` and `m` through a final mix. Because
//! the combine is commutative, the fingerprint is independent of edge
//! id order — and a mutation (insert / delete / reweight) updates it by
//! adding/subtracting only the affected edges' hashes, instead of the
//! `O(m)` rehash a sequential hash would need. That is what lets a
//! delta solve report its mutated graph's fingerprint without rehashing.

use crate::edge::EdgeId;
use crate::graph::Graph;
use crate::weight::Weight;

/// splitmix64 finalizer: a cheap, well-mixed 64-bit permutation.
#[inline]
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Hash of one edge's `(u, v, weight)` triple. Endpoints are ordered
/// `min, max` so the hash is independent of the stored orientation.
#[inline]
fn edge_hash(u: u32, v: u32, weight: Weight) -> u64 {
    let (lo, hi) = if u <= v { (u, v) } else { (v, u) };
    mix(mix(((lo as u64) << 32) | hi as u64) ^ weight)
}

/// Order-independent fingerprint of a graph's `(n, edge multiset)`.
///
/// Two graphs with the same vertex count and the same multiset of
/// `(u, v, weight)` edges fingerprint identically regardless of edge id
/// order. Use [`FingerprintAcc`] to maintain the value across
/// mutations in `O(1)` per changed edge.
pub fn graph_fingerprint(g: &Graph) -> u64 {
    FingerprintAcc::of(g).value()
}

/// A running fingerprint: the commutative per-edge-hash sum plus the
/// vertex/edge counts, updatable in `O(1)` per mutation.
///
/// ```
/// use decss_graphs::fingerprint::{graph_fingerprint, FingerprintAcc};
/// use decss_graphs::Graph;
///
/// let g = Graph::from_edges(3, [(0, 1, 2), (1, 2, 4)]).unwrap();
/// let mut acc = FingerprintAcc::of(&g);
/// acc.remove_edge(1, 2, 4);
/// acc.add_edge(1, 2, 9);
/// let h = Graph::from_edges(3, [(0, 1, 2), (1, 2, 9)]).unwrap();
/// assert_eq!(acc.value(), graph_fingerprint(&h));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FingerprintAcc {
    n: u64,
    m: u64,
    sum: u64,
}

impl FingerprintAcc {
    /// An accumulator for an edgeless graph on `n` vertices.
    pub fn new(n: usize) -> Self {
        FingerprintAcc { n: n as u64, m: 0, sum: 0 }
    }

    /// The accumulator of a whole graph (`O(m)`).
    pub fn of(g: &Graph) -> Self {
        let mut acc = FingerprintAcc::new(g.n());
        for (_, e) in g.edges() {
            acc.add_edge(e.u.0, e.v.0, e.weight);
        }
        acc
    }

    /// Folds in a new edge.
    #[inline]
    pub fn add_edge(&mut self, u: u32, v: u32, weight: Weight) {
        self.sum = self.sum.wrapping_add(edge_hash(u, v, weight));
        self.m += 1;
    }

    /// Removes an edge previously folded in (by its exact triple).
    #[inline]
    pub fn remove_edge(&mut self, u: u32, v: u32, weight: Weight) {
        self.sum = self.sum.wrapping_sub(edge_hash(u, v, weight));
        self.m -= 1;
    }

    /// Replaces the weight of an edge previously folded in.
    #[inline]
    pub fn reweight_edge(&mut self, u: u32, v: u32, old: Weight, new: Weight) {
        self.sum = self
            .sum
            .wrapping_sub(edge_hash(u, v, old))
            .wrapping_add(edge_hash(u, v, new));
    }

    /// Convenience: removes edge `id` of `g` by looking up its triple.
    pub fn remove_edge_of(&mut self, g: &Graph, id: EdgeId) {
        let e = g.edge(id);
        self.remove_edge(e.u.0, e.v.0, e.weight);
    }

    /// The fingerprint value.
    #[inline]
    pub fn value(&self) -> u64 {
        mix(mix(self.sum ^ mix(self.n)) ^ mix(self.m ^ 0xD6E8_FEB8_6659_FD93))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn independent_of_edge_order_and_orientation() {
        let a = Graph::from_edges(4, [(0, 1, 5), (1, 2, 6), (2, 3, 7)]).unwrap();
        let b = Graph::from_edges(4, [(3, 2, 7), (0, 1, 5), (2, 1, 6)]).unwrap();
        assert_eq!(graph_fingerprint(&a), graph_fingerprint(&b));
    }

    #[test]
    fn sensitive_to_n_m_weight_and_endpoints() {
        let base = Graph::from_edges(4, [(0, 1, 5), (1, 2, 6)]).unwrap();
        let fp = graph_fingerprint(&base);
        let more_n = Graph::from_edges(5, [(0, 1, 5), (1, 2, 6)]).unwrap();
        let more_m = Graph::from_edges(4, [(0, 1, 5), (1, 2, 6), (2, 3, 1)]).unwrap();
        let rew = Graph::from_edges(4, [(0, 1, 5), (1, 2, 7)]).unwrap();
        let moved = Graph::from_edges(4, [(0, 1, 5), (1, 3, 6)]).unwrap();
        for other in [&more_n, &more_m, &rew, &moved] {
            assert_ne!(fp, graph_fingerprint(other));
        }
    }

    #[test]
    fn parallel_edges_are_counted_with_multiplicity() {
        let single = Graph::from_edges(2, [(0, 1, 3)]).unwrap();
        let double = Graph::from_edges(2, [(0, 1, 3), (0, 1, 3)]).unwrap();
        assert_ne!(graph_fingerprint(&single), graph_fingerprint(&double));
    }

    #[test]
    fn incremental_updates_match_from_scratch() {
        // A deterministic pseudo-random update sequence: start from a
        // cycle, interleave reweights, deletes, and inserts, and check
        // the accumulator against a from-scratch fingerprint each step.
        let n = 12u32;
        let mut edges: Vec<(u32, u32, Weight)> =
            (0..n).map(|i| (i, (i + 1) % n, 1 + i as Weight)).collect();
        let g = Graph::from_edges(n as usize, edges.iter().copied()).unwrap();
        let mut acc = FingerprintAcc::of(&g);
        let mut state = 0xABCD_1234_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        for step in 0..200 {
            match next() % 3 {
                0 => {
                    // reweight a random edge
                    let k = next() as usize % edges.len();
                    let (u, v, old) = edges[k];
                    let new = 1 + (next() % 50) as Weight;
                    acc.reweight_edge(u, v, old, new);
                    edges[k].2 = new;
                }
                1 if edges.len() > 3 => {
                    let k = next() as usize % edges.len();
                    let (u, v, w) = edges.swap_remove(k);
                    acc.remove_edge(u, v, w);
                }
                _ => {
                    let u = next() % n;
                    let v = (u + 1 + next() % (n - 1)) % n;
                    let w = 1 + (next() % 50) as Weight;
                    acc.add_edge(u, v, w);
                    edges.push((u, v, w));
                }
            }
            let fresh = Graph::from_edges(n as usize, edges.iter().copied()).unwrap();
            assert_eq!(acc.value(), graph_fingerprint(&fresh), "step {step}");
        }
    }
}
