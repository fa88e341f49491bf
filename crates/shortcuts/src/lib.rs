#![warn(missing_docs)]
#![warn(rustdoc::broken_intra_doc_links)]
//! Low-congestion shortcuts and the `O(log n)`-approximation for
//! weighted 2-ECSS in `Õ(SC(G) + D)` rounds (Theorem 1.2 of Dory &
//! Ghaffari, PODC 2019; framework of Ghaffari & Haeupler, SODA'16).
//!
//! A graph admits an `α`-congestion `β`-dilation shortcut if, for any
//! partition of `V` into vertex-disjoint connected parts `V_1..V_N`,
//! one can pick subgraphs `H_i` such that every `G[V_i] + H_i` has
//! diameter at most `β` and every edge appears in at most `α` of them.
//! The *shortcut complexity* `SC(G) = α + β + γ` is `O(D + √n)` in the
//! worst case but `Õ(D)` for planar / bounded-treewidth / outerplanar
//! networks — which is what makes the second algorithm fast on
//! well-behaved topologies.
//!
//! Crate contents:
//!
//! * [`partition::Partition`] — validated vertex partitions,
//! * [`shortcut`] — two measured constructions (threshold-BFS with the
//!   worst-case `O(D + √n)` guarantee, and tree-restricted Steiner
//!   shortcuts which are near-`D` on well-behaved families); the better
//!   of the two is used per partition,
//! * [`fragments`] — the `O(log n)`-level heavy-path fragment hierarchy
//!   behind Theorems 5.1/5.2,
//! * [`tools`] — descendants' sum, ancestors' sum, and the heavy-light
//!   LCA (Theorems 5.1–5.3) of the tree's one [`decss_tree::LcaOracle`],
//! * [`probes`] — covered-edge detection via XOR fingerprints
//!   (Lemma 5.4), set cover's upfront feasibility check, and
//!   the candidates' LCAs,
//! * [`setcover`] — the parallel greedy set cover of Section 5.1:
//!   Lemma 5.5's marked-cover counts, and its sampling repetitions and
//!   bucket loads evaluated on virtual trees (the dense forms of those
//!   probes are test references),
//! * [`twoecss`] — the public entry point [`shortcut_two_ecss`], and
//!   [`shortcut_two_ecss_with`], which runs the same pipeline on a
//!   caller-held workspace,
//! * [`dynamic`] — incremental re-solves on dynamic graphs: a
//!   [`DynamicInstance`] retains the solved pipeline state and absorbs
//!   edge deltas, re-running only the damaged parts and levels while
//!   staying byte-identical to a fresh solve of the mutated graph,
//! * [`workspace`] — the epoch-stamped flat scratch buffers the hot
//!   paths run on (one [`ShortcutWorkspace`] per pipeline run).
//!
//! The pre-rewrite `HashMap`-based reference implementations live in
//! the test tree, `tests/naive/mod.rs`, where the `flat_equivalence`
//! suite pins the flat paths bit-identical to them.
//!
//! # Example
//!
//! ```
//! use decss_graphs::gen;
//! use decss_shortcuts::{shortcut_two_ecss, ShortcutConfig};
//!
//! // An outerplanar (treewidth-2) network: the O~(D) regime.
//! let g = gen::outerplanar_disk(64, 1.0, 32, 1);
//! let result = shortcut_two_ecss(&g, &ShortcutConfig::default())?;
//! assert!(decss_graphs::algo::two_edge_connected_in(
//!     &g,
//!     result.edges.iter().copied()
//! ));
//! // Measured shortcut complexity stays near the diameter.
//! assert!(result.measured_sc <= 4 * decss_graphs::algo::diameter(&g) as u64 + 8);
//! # Ok::<(), decss_shortcuts::twoecss::NotTwoEdgeConnected>(())
//! ```

pub mod dynamic;
pub mod fragments;
pub mod partition;
pub mod probes;
pub mod setcover;
pub mod shortcut;
pub mod tools;
pub mod twoecss;
pub mod workspace;

pub use dynamic::{
    delta_fingerprint, mutate, DeltaError, DynamicInstance, GraphDelta, IncrementalStats,
};
pub use partition::Partition;
pub use shortcut::{ShortcutQuality, ShortcutScheme};
pub use twoecss::{shortcut_two_ecss, shortcut_two_ecss_with, ShortcutConfig, ShortcutResult};
pub use workspace::ShortcutWorkspace;
