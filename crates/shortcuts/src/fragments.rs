//! The `O(log n)`-level fragment hierarchy over a rooted tree used by
//! the ancestors'/descendants' sum tools (Theorems 5.1 and 5.2).
//!
//! A *fragment* is the subtree hanging below the bottom endpoint of a
//! light edge (or the whole tree, for the root fragment); its *spine* is
//! the heavy path starting at its top. Every vertex lies on exactly one
//! spine; fragments at the same light depth are vertex-disjoint, and
//! light depth is at most `log2 n` — so the hierarchy has `O(log n)`
//! levels, each forming a valid partition for the shortcut framework.
//!
//! Spines live in one flat arena (`spine_verts` + fragment/level offset
//! tables) instead of `Vec<Vec<Fragment>>`: the hierarchy is rebuilt for
//! every [`crate::tools::ScTools`], and at 10⁵ vertices the per-fragment
//! `Vec` churn of the old build path was measurable. The layout is
//! pinned identical to the preserved `fragment_levels` reference in
//! `tests/naive/mod.rs` by the `flat_equivalence` suite.

use crate::partition::Partition;
use decss_graphs::{Graph, VertexId};
use decss_tree::{LcaOracle, RootedTree};

/// The fragment hierarchy: spines grouped by light depth, in one flat
/// arena. Level `d` holds the spines whose tops have `d` light edges on
/// their root path (each spine a connected path — a valid partition
/// part).
#[derive(Clone, Debug)]
pub struct FragmentHierarchy {
    /// Flat arena of spine vertices (each spine top-down), grouped by
    /// level, then by fragment in top-BFS-order. Length `n`.
    spine_verts: Vec<VertexId>,
    /// `frag_offsets[f]..frag_offsets[f+1]` is fragment `f`'s spine.
    frag_offsets: Vec<u32>,
    /// `level_offsets[d]..level_offsets[d+1]` are level `d`'s fragment
    /// indices.
    level_offsets: Vec<u32>,
    /// `spine_of[v]` = (level, index within level) of `v`'s spine.
    pub spine_of: Vec<(u32, u32)>,
}

impl FragmentHierarchy {
    /// Builds the hierarchy from a tree and the heavy paths of its
    /// index. `O(n)` and allocation-flat: spine lengths are counted per
    /// heavy-path head, offset tables prefix-summed, and each vertex
    /// placed into its arena slot.
    pub fn new(tree: &RootedTree, index: &LcaOracle) -> Self {
        let n = tree.n();
        // Heads of heavy paths are exactly the fragment tops; BFS order
        // is depth-sorted, which is the order the naive build processed
        // them in (its sort by depth was stable).
        let mut frags_per_level: Vec<u32> = Vec::new();
        for &v in tree.order() {
            if index.head(v) == v {
                let d = index.light_depth(v) as usize;
                if frags_per_level.len() <= d {
                    frags_per_level.resize(d + 1, 0);
                }
                frags_per_level[d] += 1;
            }
        }
        let num_levels = frags_per_level.len();
        let mut level_offsets = vec![0u32; num_levels + 1];
        for d in 0..num_levels {
            level_offsets[d + 1] = level_offsets[d] + frags_per_level[d];
        }
        let num_frags = level_offsets[num_levels] as usize;

        // Spine length of each heavy path, keyed by its head.
        let mut spine_len = vec![0u32; n];
        for v in 0..n {
            spine_len[index.head(VertexId(v as u32)).index()] += 1;
        }

        // Assign fragment slots in level-grouped top order, then
        // prefix-sum the per-fragment spine extents.
        let mut next_in_level: Vec<u32> = level_offsets[..num_levels].to_vec();
        let mut frag_of_top = vec![0u32; n];
        let mut frag_offsets = vec![0u32; num_frags + 1];
        for &v in tree.order() {
            if index.head(v) == v {
                let d = index.light_depth(v) as usize;
                let f = next_in_level[d];
                next_in_level[d] += 1;
                frag_of_top[v.index()] = f;
                frag_offsets[f as usize + 1] = spine_len[v.index()];
            }
        }
        for f in 0..num_frags {
            frag_offsets[f + 1] += frag_offsets[f];
        }

        // A heavy path has one vertex per depth, so each vertex's slot in
        // its head's spine is its depth below the head.
        let mut spine_verts = vec![VertexId(0); n];
        let mut spine_of = vec![(0u32, 0u32); n];
        for &v in tree.order() {
            let top = index.head(v);
            let f = frag_of_top[top.index()];
            let level = index.light_depth(v);
            let below = index.depth(v) - index.depth(top);
            spine_verts[(frag_offsets[f as usize] + below) as usize] = v;
            spine_of[v.index()] = (level, f - level_offsets[level as usize]);
        }
        FragmentHierarchy { spine_verts, frag_offsets, level_offsets, spine_of }
    }

    /// Number of levels (max light depth + 1).
    pub fn num_levels(&self) -> usize {
        self.level_offsets.len() - 1
    }

    /// Number of fragments at `level`.
    pub fn num_fragments(&self, level: usize) -> usize {
        (self.level_offsets[level + 1] - self.level_offsets[level]) as usize
    }

    /// The spine of fragment `idx` at `level`, top-down.
    pub fn spine(&self, level: usize, idx: usize) -> &[VertexId] {
        let f = self.level_offsets[level] as usize + idx;
        &self.spine_verts[self.frag_offsets[f] as usize..self.frag_offsets[f + 1] as usize]
    }

    /// Top vertex of fragment `idx` at `level` (bottom endpoint of a
    /// light edge, or the root for the level-0 fragment).
    pub fn top(&self, level: usize, idx: usize) -> VertexId {
        self.spine(level, idx)[0]
    }

    /// The spines of one level, in build order.
    pub fn level_spines(&self, level: usize) -> impl Iterator<Item = &[VertexId]> {
        (0..self.num_fragments(level)).map(move |i| self.spine(level, i))
    }

    /// The per-level partitions (spines as parts), built straight from
    /// the flat arena.
    pub fn level_partition(&self, g: &Graph, level: usize) -> Partition {
        Partition::from_slices(g, self.level_spines(level))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decss_graphs::gen;

    fn build(g: &Graph) -> (RootedTree, FragmentHierarchy) {
        let tree = RootedTree::mst(g);
        let h = FragmentHierarchy::new(&tree, &LcaOracle::new(&tree));
        (tree, h)
    }

    #[test]
    fn spines_partition_all_vertices() {
        let g = gen::gnp_two_ec(60, 0.08, 30, 4);
        let (tree, h) = build(&g);
        let total: usize = (0..h.num_levels())
            .flat_map(|d| h.level_spines(d).map(|s| s.len()))
            .sum();
        assert_eq!(total, tree.n());
    }

    #[test]
    fn levels_are_logarithmic() {
        let g = gen::gnp_two_ec(200, 0.03, 30, 5);
        let (_, h) = build(&g);
        assert!(
            h.num_levels() <= 9, // log2(200) ~ 7.6, +1 slack
            "{} levels",
            h.num_levels()
        );
    }

    #[test]
    fn spines_are_tree_paths() {
        let g = gen::grid(6, 6, 10, 6);
        let (tree, h) = build(&g);
        for d in 0..h.num_levels() {
            for (i, spine) in h.level_spines(d).enumerate() {
                for w in spine.windows(2) {
                    assert_eq!(tree.parent(w[1]), Some(w[0]));
                }
                assert_eq!(spine[0], h.top(d, i));
            }
        }
    }

    #[test]
    fn spine_of_points_back_into_the_arena() {
        let g = gen::gnp_two_ec(80, 0.06, 20, 9);
        let (_, h) = build(&g);
        for (vi, &(level, idx)) in h.spine_of.iter().enumerate() {
            let spine = h.spine(level as usize, idx as usize);
            assert!(
                spine.iter().any(|s| s.index() == vi),
                "vertex {vi} missing from its spine ({level}, {idx})"
            );
        }
    }

    #[test]
    fn level_partitions_validate_on_the_graph() {
        // Spines are tree paths of the MST; the MST edges exist in G, so
        // each spine is connected in G.
        let g = gen::gnp_two_ec(40, 0.1, 20, 7);
        let (_, h) = build(&g);
        for d in 0..h.num_levels() {
            let p = h.level_partition(&g, d);
            assert!(!p.is_empty());
        }
    }
}
