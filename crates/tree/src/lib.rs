#![warn(missing_docs)]
#![warn(rustdoc::broken_intra_doc_links)]
//! Tree machinery for the distributed 2-ECSS algorithms.
//!
//! Everything in the paper happens relative to a rooted spanning tree
//! `T` (the MST): non-tree edges *cover* tree paths, the tree is
//! decomposed into **layers** (Section 3.2 / 4.3) and into **segments**
//! (Section 4.2.1), and both algorithms constantly evaluate aggregate
//! functions between tree edges and the non-tree edges covering them
//! (Claims 4.5 / 4.6). This crate implements all of that:
//!
//! * [`RootedTree`] — parent/children/depth structure over a spanning
//!   tree of a [`decss_graphs::Graph`]; tree edges are identified by
//!   their child endpoint,
//! * [`euler::EulerTour`] — pre/post intervals and subtree tests (the
//!   oracle's tour),
//! * [`lca::LcaOracle`] — the one index of the tree that both theorems
//!   share: Euler tour, heavy paths (Definition 5.3), LCA,
//! * [`layering::Layering`] — the junction-contraction layering with
//!   `O(log n)` layers, layer paths, and `leaf(t)` values,
//! * [`segments::SegmentDecomposition`] — `O(√n)` edge-disjoint segments
//!   of diameter `O(√n)` with highways and a skeleton tree,
//! * [`aggregates`] — efficient engines for "each non-tree edge
//!   aggregates over the tree edges it covers" and "each tree edge
//!   aggregates over the non-tree edges covering it".
//!
//! # Example
//!
//! ```
//! use decss_graphs::gen;
//! use decss_tree::{Layering, LcaOracle, RootedTree, SegmentDecomposition};
//!
//! let g = gen::gnp_two_ec(64, 0.06, 32, 1);
//! let tree = RootedTree::mst(&g);
//! let layering = Layering::new(&tree);
//! assert!(layering.num_layers() as f64 <= (g.n() as f64).log2() + 1.0);
//! let lca = LcaOracle::new(&tree);
//! assert!(lca.light_depth(tree.order()[g.n() - 1]) as f64 <= (g.n() as f64).log2());
//! let segments = SegmentDecomposition::new(&tree, lca.euler());
//! assert!(segments.len() as f64 <= 4.0 * (g.n() as f64).sqrt() + 2.0);
//! ```

pub mod aggregates;
pub mod euler;
pub mod layering;
pub mod lca;
pub mod rooted;
pub mod segments;

#[cfg(test)]
pub(crate) mod testutil;

pub use euler::EulerTour;
pub use layering::Layering;
pub use lca::LcaOracle;
pub use rooted::RootedTree;
pub use segments::SegmentDecomposition;
