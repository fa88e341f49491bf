//! Incremental re-solve on dynamic graphs: a [`DynamicInstance`]
//! retains the solved state of Theorem 1.2's pipeline and re-runs only
//! what an edge delta touched.
//!
//! The retained state is everything `shortcut_two_ecss_with` derives
//! before the set-cover driver runs: the `(weight, id)`-sorted edge
//! order behind the MST, the rooted MST with its [`LcaOracle`] (the
//! tree index) and fragment hierarchy, the BFS backbone, and — per
//! hierarchy level — both constructions' per-part radii and `α` values,
//! measured in full (a fresh [`crate::shortcut::best_shortcut_ws`]
//! stops the tree-restricted pass once it cannot win, but a delta may
//! need any part's radius) and folded into one [`ShortcutQuality`] by
//! the same tie rule. The reverse index from a delta edge to the
//! damage it does is `FragmentHierarchy::spine_of`: every vertex lies
//! on exactly one spine, a part's radius depends on the graph only
//! through its *intra-part* adjacency, so edge `(u, v)` dirties a part
//! iff `spine_of[u] == spine_of[v]` — at most one part per delta edge.
//!
//! [`DynamicInstance::apply`] classifies a validated delta batch:
//!
//! * **reweight-only** — weights change in place (`O(1)` per edge, the
//!   CSR never moves), the MST is re-derived by merging the few
//!   re-sorted edges into the retained order, and if the tree's edge
//!   set is unchanged *everything* above is reused (radii are
//!   hop-counts, never weights);
//! * **structural** (insert/delete) — edge ids compact, so the graph
//!   is rebuilt and the merged Kruskal scan re-run; if the new tree has
//!   the same endpoint pairs in id order and the BFS backbone has the
//!   same parent array, the decomposition is reused verbatim (both are
//!   vertex-level objects) and only the dirty parts' radii recompute;
//! * **fallback** — a changed tree topology, a changed BFS backbone,
//!   or more than 25% of parts dirty rebuilds everything from scratch
//!   (reported via [`IncrementalStats::fell_back`]).
//!
//! Either way the set-cover driver runs fresh (its sampling RNG is
//! seeded per solve; reusing accepted samples across mutations would
//! break determinism), and the **hard invariant** holds: the returned
//! [`ShortcutResult`] is byte-identical to
//! [`crate::shortcut_two_ecss_with`] on [`mutate`]`(g, deltas)` — the
//! `incremental_equivalence` suite pins this across randomized update
//! sequences, forced fallbacks, and dirty-workspace reuse.

use crate::shortcut::{
    measure_level_radii, part_radius_ws, steiner_into, LevelRadii, ShortcutQuality,
};
use crate::tools::ScTools;
use crate::twoecss::{augment, NotTwoEdgeConnected, ShortcutConfig, ShortcutResult};
use crate::workspace::ShortcutWorkspace;
use decss_graphs::algo::{self, BfsTree};
use decss_graphs::fingerprint::FingerprintAcc;
use decss_graphs::{EdgeId, Graph, VertexId, Weight};
use decss_tree::{LcaOracle, RootedTree};
use std::fmt;

/// One edge mutation. A batch of deltas is applied atomically with
/// **pre-batch ids**: every [`EdgeId`] refers to the graph as it was
/// before the batch, deletes compact the surviving ids (keeping their
/// relative order), and inserts append after the survivors.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum GraphDelta {
    /// Replace the weight of an existing edge.
    Reweight {
        /// The edge to reweight (pre-batch id).
        edge: EdgeId,
        /// Its new weight.
        weight: Weight,
    },
    /// Remove an existing edge.
    Delete {
        /// The edge to remove (pre-batch id).
        edge: EdgeId,
    },
    /// Add a new edge; inserted edges receive the largest ids, in
    /// batch order, after the surviving pre-batch edges.
    Insert {
        /// One endpoint.
        u: VertexId,
        /// The other endpoint (must differ from `u`).
        v: VertexId,
        /// The new edge's weight.
        weight: Weight,
    },
}

/// Error applying a delta batch.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DeltaError {
    /// A delta was malformed; the batch was rejected atomically (the
    /// instance is unchanged).
    Invalid {
        /// Index of the offending delta within the batch.
        index: usize,
        /// What was wrong with it.
        reason: &'static str,
    },
    /// The mutated graph admits no 2-ECSS — the same condition
    /// [`crate::shortcut_two_ecss_with`] reports on it. The mutation
    /// *is* committed; later deltas may repair the graph.
    NotTwoEdgeConnected,
}

impl fmt::Display for DeltaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeltaError::Invalid { index, reason } => {
                write!(f, "invalid delta at index {index}: {reason}")
            }
            DeltaError::NotTwoEdgeConnected => NotTwoEdgeConnected.fmt(f),
        }
    }
}

impl std::error::Error for DeltaError {}

impl From<NotTwoEdgeConnected> for DeltaError {
    fn from(_: NotTwoEdgeConnected) -> Self {
        DeltaError::NotTwoEdgeConnected
    }
}

/// What [`DynamicInstance::apply`] re-ran for one delta batch.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct IncrementalStats {
    /// Parts whose radii were recomputed (0 on a fallback).
    pub parts_redone: u32,
    /// Hierarchy levels containing at least one redone part.
    pub levels_redone: u32,
    /// Whether the damage threshold / an unlocalizable structural
    /// change forced a full rebuild of the retained state.
    pub fell_back: bool,
}

/// Applies a delta batch to a graph, producing the mutated graph —
/// the reference semantics [`DynamicInstance::apply`] is pinned
/// against: surviving edges keep their relative id order with final
/// weights, inserts follow in batch order.
///
/// # Errors
///
/// Returns [`DeltaError::Invalid`] on an out-of-range id, a delete or
/// reweight of an already-deleted edge, or a malformed insert.
pub fn mutate(g: &Graph, deltas: &[GraphDelta]) -> Result<Graph, DeltaError> {
    Ok(DeltaPlan::validate(g, deltas)?.build_graph(g))
}

/// The fingerprint [`mutate`]`(g, deltas)` would have, without building
/// the mutated graph: the base accumulator plus the batch's edge-hash
/// updates. It equals the `fingerprint` a delta solve reports, so a
/// caller can check that echo against the base graph and the batch.
///
/// # Errors
///
/// Rejects the same malformed batches [`mutate`] does.
pub fn delta_fingerprint(g: &Graph, deltas: &[GraphDelta]) -> Result<u64, DeltaError> {
    let plan = DeltaPlan::validate(g, deltas)?;
    let mut fp = FingerprintAcc::of(g);
    plan.update_fingerprint(g, &mut fp);
    Ok(fp.value())
}

/// Checks a delta batch against `g` without applying it: `Ok` exactly
/// when [`mutate`] and [`DynamicInstance::apply`] on `g` accept it.
///
/// # Errors
///
/// Rejects the same malformed batches [`mutate`] does.
pub fn validate_deltas(g: &Graph, deltas: &[GraphDelta]) -> Result<(), DeltaError> {
    DeltaPlan::validate(g, deltas).map(drop)
}

/// A validated delta batch, normalized to per-edge outcomes.
struct DeltaPlan {
    /// Per pre-batch edge: deleted by this batch?
    deleted: Vec<bool>,
    /// Per pre-batch edge: final reweight, if any (last write wins).
    new_weight: Vec<Option<Weight>>,
    /// Inserted edges in batch order.
    inserts: Vec<(VertexId, VertexId, Weight)>,
    n_deleted: usize,
}

impl DeltaPlan {
    fn validate(g: &Graph, deltas: &[GraphDelta]) -> Result<Self, DeltaError> {
        let m = g.m();
        let mut plan = DeltaPlan {
            deleted: vec![false; m],
            new_weight: vec![None; m],
            inserts: Vec::new(),
            n_deleted: 0,
        };
        let invalid = |index, reason| DeltaError::Invalid { index, reason };
        for (i, &d) in deltas.iter().enumerate() {
            match d {
                GraphDelta::Reweight { edge, weight } => {
                    if edge.index() >= m {
                        return Err(invalid(i, "reweight of an edge id out of range"));
                    }
                    if plan.deleted[edge.index()] {
                        return Err(invalid(i, "reweight of an edge deleted earlier in the batch"));
                    }
                    plan.new_weight[edge.index()] = Some(weight);
                }
                GraphDelta::Delete { edge } => {
                    if edge.index() >= m {
                        return Err(invalid(i, "delete of an edge id out of range"));
                    }
                    if plan.deleted[edge.index()] {
                        return Err(invalid(i, "duplicate delete of one edge"));
                    }
                    plan.deleted[edge.index()] = true;
                    plan.new_weight[edge.index()] = None;
                    plan.n_deleted += 1;
                }
                GraphDelta::Insert { u, v, weight } => {
                    if u.index() >= g.n() || v.index() >= g.n() {
                        return Err(invalid(i, "insert endpoint out of range"));
                    }
                    if u == v {
                        return Err(invalid(i, "insert would create a self-loop"));
                    }
                    plan.inserts.push((u, v, weight));
                }
            }
        }
        Ok(plan)
    }

    /// Whether any ids change (delete or insert).
    fn structural(&self) -> bool {
        self.n_deleted > 0 || !self.inserts.is_empty()
    }

    /// The mutated graph per the batch semantics.
    fn build_graph(&self, g: &Graph) -> Graph {
        let survivors = g.edges().filter(|(id, _)| !self.deleted[id.index()]).map(|(id, e)| {
            let w = self.new_weight[id.index()].unwrap_or(e.weight);
            (e.u.0, e.v.0, w)
        });
        let inserts = self.inserts.iter().map(|&(u, v, w)| (u.0, v.0, w));
        Graph::from_edges(g.n(), survivors.chain(inserts)).expect("validated delta batch")
    }

    /// Folds the batch into a fingerprint accumulator: walks all `m` edges
    /// of `g`, hashing the pre-batch triples of touched ones (call first).
    fn update_fingerprint(&self, g: &Graph, fp: &mut FingerprintAcc) {
        for (id, e) in g.edges() {
            if self.deleted[id.index()] {
                fp.remove_edge(e.u.0, e.v.0, e.weight);
            } else if let Some(w) = self.new_weight[id.index()] {
                fp.reweight_edge(e.u.0, e.v.0, e.weight, w);
            }
        }
        for &(u, v, w) in &self.inserts {
            fp.add_edge(u.0, v.0, w);
        }
    }
}

/// The retained pipeline state for the instance's current graph.
#[derive(Clone)]
struct SolvedState {
    /// All edge ids sorted by `(weight, id)` — the Kruskal order.
    sorted: Vec<EdgeId>,
    /// MST edge ids, sorted by id.
    tree_ids: Vec<EdgeId>,
    /// MST edge endpoints in id order (id-compaction-stable identity).
    tree_pairs: Vec<(VertexId, VertexId)>,
    tree: RootedTree,
    /// The tree's index; set cover's virtual trees read its Euler tour.
    index: LcaOracle,
    hierarchy: FragmentHierarchy,
    bfs: BfsTree,
    /// Per-level per-part radii + alphas behind `level_quality`.
    radii: Vec<LevelRadii>,
    level_quality: Vec<ShortcutQuality>,
    bfs_depth: u32,
    /// Total parts across all levels (the damage-threshold base).
    total_parts: usize,
}

use crate::fragments::FragmentHierarchy;

impl SolvedState {
    /// Full build from scratch; `None` if `g` is disconnected.
    fn build(g: &Graph, ws: &mut ShortcutWorkspace) -> Option<SolvedState> {
        let mut sorted: Vec<EdgeId> = g.edge_ids().collect();
        sorted.sort_by_key(|&id| (g.weight(id), id));
        let tree_ids = algo::kruskal_scan(g, &sorted).ok()?;
        Some(SolvedState::from_tree(g, sorted, tree_ids, ws))
    }

    /// Build everything above the MST, given the Kruskal order and the
    /// tree it produces.
    fn from_tree(
        g: &Graph,
        sorted: Vec<EdgeId>,
        tree_ids: Vec<EdgeId>,
        ws: &mut ShortcutWorkspace,
    ) -> SolvedState {
        let tree_pairs = endpoint_pairs(g, &tree_ids);
        let tree = RootedTree::new(g, VertexId(0), &tree_ids);
        let index = LcaOracle::new(&tree);
        let hierarchy = FragmentHierarchy::new(&tree, &index);
        let bfs = algo::bfs_tree(g, tree.root());
        ws.ensure(g);
        let radii: Vec<LevelRadii> = (0..hierarchy.num_levels())
            .map(|d| {
                let partition = hierarchy.level_partition(g, d);
                measure_level_radii(g, &bfs, &partition, ws)
            })
            .collect();
        let level_quality: Vec<ShortcutQuality> = radii.iter().map(LevelRadii::quality).collect();
        let total_parts = (0..hierarchy.num_levels()).map(|d| hierarchy.num_fragments(d)).sum();
        let bfs_depth = bfs.depth();
        SolvedState {
            sorted,
            tree_ids,
            tree_pairs,
            tree,
            index,
            hierarchy,
            bfs,
            radii,
            level_quality,
            bfs_depth,
            total_parts,
        }
    }
}

fn endpoint_pairs(g: &Graph, ids: &[EdgeId]) -> Vec<(VertexId, VertexId)> {
    ids.iter()
        .map(|&id| {
            let e = g.edge(id);
            (e.u, e.v)
        })
        .collect()
}

/// Merges the retained Kruskal order with a small set of changed edges.
///
/// `survivors` must iterate the unchanged edges in `(weight, id)`
/// order and `changed` must be sorted by `(weight, id)`; both in the
/// *new* graph's id space. `O(m + |changed|)`.
fn merge_sorted(
    g: &Graph,
    survivors: impl Iterator<Item = EdgeId>,
    changed: &[EdgeId],
) -> Vec<EdgeId> {
    let key = |id: EdgeId| (g.weight(id), id);
    let mut out = Vec::with_capacity(g.m());
    let mut ci = 0usize;
    for id in survivors {
        while ci < changed.len() && key(changed[ci]) < key(id) {
            out.push(changed[ci]);
            ci += 1;
        }
        out.push(id);
    }
    out.extend_from_slice(&changed[ci..]);
    out
}

/// A solved pipeline instance that absorbs edge deltas incrementally.
///
/// Created over a graph once ([`DynamicInstance::new`], which pays the
/// full decomposition cost), then driven by
/// [`apply`](DynamicInstance::apply) per delta batch. The result of
/// every apply is byte-identical to a fresh
/// [`crate::shortcut_two_ecss_with`] on the mutated graph.
///
/// It holds no scratch: `new` and `apply` allocate a [`ShortcutWorkspace`]
/// per call, so a retained or cloned instance is its graph and state.
///
/// ```
/// use decss_graphs::gen;
/// use decss_shortcuts::dynamic::{DynamicInstance, GraphDelta};
/// use decss_shortcuts::{shortcut_two_ecss_with, ShortcutConfig, ShortcutWorkspace};
/// use decss_tree::RootedTree;
///
/// let g = gen::grid(6, 6, 20, 7);
/// let config = ShortcutConfig::default();
/// let mut inst = DynamicInstance::new(g.clone());
/// // Raising a non-MST edge's weight cannot move the tree, so the
/// // whole retained decomposition survives the delta.
/// let tree = RootedTree::mst(&g);
/// let edge = g.edge_ids().find(|&e| !tree.is_tree_edge(e)).unwrap();
/// let deltas = [GraphDelta::Reweight { edge, weight: g.weight(edge) + 40 }];
/// let (result, stats) = inst.apply(&deltas, &config).unwrap();
/// let mutated = decss_shortcuts::dynamic::mutate(&g, &deltas).unwrap();
/// let fresh =
///     shortcut_two_ecss_with(&mutated, &config, &mut ShortcutWorkspace::new(&mutated)).unwrap();
/// assert_eq!(result.edges, fresh.edges);
/// assert!(!stats.fell_back);
/// ```
#[derive(Clone)]
pub struct DynamicInstance {
    graph: Graph,
    fp: FingerprintAcc,
    state: Option<SolvedState>,
}

impl DynamicInstance {
    /// Builds the retained pipeline state for `graph` (the one full
    /// decomposition this instance pays; no set cover runs yet —
    /// that happens per [`apply`](DynamicInstance::apply)).
    pub fn new(graph: Graph) -> Self {
        let fp = FingerprintAcc::of(&graph);
        let state = SolvedState::build(&graph, &mut ShortcutWorkspace::new(&graph));
        DynamicInstance { graph, fp, state }
    }

    /// The instance's current (post-mutation) graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Order-independent fingerprint of the current graph, carried across
    /// deltas: each apply walks all `m` edges, hashing only touched ones.
    pub fn fingerprint(&self) -> u64 {
        self.fp.value()
    }

    /// Applies a delta batch and re-solves, reusing everything the
    /// batch did not touch. Returns the solve result — byte-identical
    /// to a fresh [`crate::shortcut_two_ecss_with`] on the mutated
    /// graph — and what was redone to get it.
    ///
    /// An empty batch re-runs only the set-cover stage (a plain
    /// re-solve of the current graph).
    ///
    /// # Errors
    ///
    /// [`DeltaError::Invalid`] rejects the batch atomically;
    /// [`DeltaError::NotTwoEdgeConnected`] commits the mutation but
    /// reports that the mutated graph has no 2-ECSS.
    pub fn apply(
        &mut self,
        deltas: &[GraphDelta],
        config: &ShortcutConfig,
    ) -> Result<(ShortcutResult, IncrementalStats), DeltaError> {
        let plan = DeltaPlan::validate(&self.graph, deltas)?;
        plan.update_fingerprint(&self.graph, &mut self.fp);
        // Stamps are epoch-based, so fresh scratch solves like reused scratch.
        let mut ws = ShortcutWorkspace::new(&self.graph);
        let mut stats = IncrementalStats::default();
        if plan.structural() {
            self.apply_structural(&plan, &mut ws, &mut stats);
        } else {
            self.apply_reweights(&plan, &mut ws, &mut stats);
        }
        let state = match &self.state {
            Some(state) => state,
            None => return Err(DeltaError::NotTwoEdgeConnected),
        };
        let result = solve_from_state(&self.graph, state, config, &mut ws)?;
        Ok((result, stats))
    }

    /// Reweight-only batch: weights move in place and the MST is
    /// re-derived by a sorted merge; radii are hop counts, so if the
    /// tree's edge set is unchanged the whole decomposition survives.
    fn apply_reweights(
        &mut self,
        plan: &DeltaPlan,
        ws: &mut ShortcutWorkspace,
        stats: &mut IncrementalStats,
    ) {
        let changed_ids: Vec<EdgeId> = self
            .graph
            .edge_ids()
            .filter(|id| plan.new_weight[id.index()].is_some())
            .collect();
        for &id in &changed_ids {
            self.graph
                .set_weight(id, plan.new_weight[id.index()].expect("filtered"));
        }
        if changed_ids.is_empty() {
            // Nothing mutated (empty batch): keep the state as-is; if
            // there is none (a disconnected predecessor), retry a full
            // build so the error is not sticky for no reason.
            if self.state.is_none() {
                stats.fell_back = true;
                self.state = SolvedState::build(&self.graph, ws);
            }
            return;
        }
        let Some(state) = self.state.take() else {
            stats.fell_back = true;
            self.state = SolvedState::build(&self.graph, ws);
            return;
        };
        let mut changed = changed_ids;
        changed.sort_by_key(|&id| (self.graph.weight(id), id));
        let survivors = state
            .sorted
            .iter()
            .copied()
            .filter(|id| plan.new_weight[id.index()].is_none());
        let sorted = merge_sorted(&self.graph, survivors, &changed);
        match algo::kruskal_scan(&self.graph, &sorted) {
            Ok(tree_ids) if tree_ids == state.tree_ids => {
                // Same tree: reuse the whole decomposition, zero parts
                // dirty (no radius ever reads a weight).
                self.state = Some(SolvedState { sorted, ..state });
            }
            Ok(tree_ids) => {
                stats.fell_back = true;
                self.state = Some(SolvedState::from_tree(&self.graph, sorted, tree_ids, ws));
            }
            Err(_) => {
                // Unreachable for pure reweights (connectivity is
                // weight-blind), but keep the disconnected contract.
                stats.fell_back = true;
                self.state = None;
            }
        }
    }

    /// Structural batch: ids compact, the graph rebuilds, and the
    /// decomposition is reused only when the tree and BFS backbone
    /// provably survived the mutation.
    fn apply_structural(
        &mut self,
        plan: &DeltaPlan,
        ws: &mut ShortcutWorkspace,
        stats: &mut IncrementalStats,
    ) {
        let new_graph = plan.build_graph(&self.graph);
        let updated = self
            .state
            .take()
            .and_then(|state| update_structural(&new_graph, &self.graph, state, plan, ws, stats));
        self.graph = new_graph;
        self.state = match updated {
            Some(state) => state.into(),
            None => {
                *stats = IncrementalStats { fell_back: true, ..IncrementalStats::default() };
                SolvedState::build(&self.graph, ws)
            }
        };
    }
}

/// Attempts the incremental structural update; `None` means "fall back
/// to a full rebuild" (tree or BFS changed shape, damage threshold
/// exceeded, or the mutated graph is disconnected).
fn update_structural(
    g2: &Graph,
    g1: &Graph,
    state: SolvedState,
    plan: &DeltaPlan,
    ws: &mut ShortcutWorkspace,
    stats: &mut IncrementalStats,
) -> Option<SolvedState> {
    // Old-id → new-id map (survivor ranks; deletes compact, order kept).
    let mut id_map = vec![0u32; g1.m()];
    let mut next = 0u32;
    for old in 0..g1.m() {
        id_map[old] = next;
        if !plan.deleted[old] {
            next += 1;
        }
    }
    let survivor_count = next as usize;
    // Changed set: reweighted survivors + inserts, in new-id space.
    let mut changed: Vec<EdgeId> = (0..g1.m())
        .filter(|&old| !plan.deleted[old] && plan.new_weight[old].is_some())
        .map(|old| EdgeId(id_map[old]))
        .collect();
    changed.extend((0..plan.inserts.len()).map(|j| EdgeId((survivor_count + j) as u32)));
    changed.sort_by_key(|&id| (g2.weight(id), id));
    let survivors = state
        .sorted
        .iter()
        .filter(|id| !plan.deleted[id.index()] && plan.new_weight[id.index()].is_none())
        .map(|&id| EdgeId(id_map[id.index()]));
    let sorted = merge_sorted(g2, survivors, &changed);
    let tree_ids = algo::kruskal_scan(g2, &sorted).ok()?;
    let tree_pairs = endpoint_pairs(g2, &tree_ids);
    if tree_pairs != state.tree_pairs {
        return None; // the MST changed shape: unlocalizable
    }
    // Same endpoint pairs in the same order ⇒ RootedTree::new builds
    // the identical topology (its adjacency follows the given edge
    // order), so the vertex-level decomposition (index, hierarchy) is
    // reused verbatim; only the edge-id-carrying objects rebuild.
    let tree = RootedTree::new(g2, VertexId(0), &tree_ids);
    let bfs = algo::bfs_tree(g2, tree.root());
    if bfs.parent != state.bfs.parent {
        return None; // the BFS backbone moved: every level's H_i could change
    }
    // Damage: a delta edge (u, v) affects a part's radius only through
    // intra-part adjacency, i.e. iff both endpoints share a spine.
    let mut dirty: Vec<(u32, u32)> = Vec::new();
    let mut mark = |u: VertexId, v: VertexId| {
        let su = state.hierarchy.spine_of[u.index()];
        if su == state.hierarchy.spine_of[v.index()] {
            dirty.push(su);
        }
    };
    for (id, e) in g1.edges() {
        if plan.deleted[id.index()] {
            mark(e.u, e.v);
        }
    }
    for &(u, v, _) in &plan.inserts {
        mark(u, v);
    }
    dirty.sort_unstable();
    dirty.dedup();
    if dirty.len() * 4 > state.total_parts {
        return None; // > 25% of parts dirty: a fresh sweep is cheaper
    }
    let SolvedState {
        index, hierarchy, mut radii, mut level_quality, total_parts, ..
    } = state;
    ws.ensure(g2);
    let threshold = (g2.n() as f64).sqrt().ceil() as usize;
    let mut k = 0usize;
    while k < dirty.len() {
        let level = dirty[k].0 as usize;
        let partition = hierarchy.level_partition(g2, level);
        // Threshold-BFS radii first: stamp the backbone once per level
        // (steiner_into below overwrites tree-edge stamps).
        let tree_epoch = ws.bump();
        for e in bfs.tree_edges() {
            ws.estamp[e.index()] = tree_epoch;
        }
        let start = k;
        while k < dirty.len() && dirty[k].0 as usize == level {
            let pi = dirty[k].1 as usize;
            let hi = (partition.part(pi).len() >= threshold).then_some(tree_epoch);
            radii[level].thr[pi] = part_radius_ws(g2, &partition, pi, hi, ws);
            k += 1;
        }
        for &(_, idx) in &dirty[start..k] {
            let pi = idx as usize;
            let hi = steiner_into(&bfs, partition.part(pi), ws);
            radii[level].tr[pi] = part_radius_ws(g2, &partition, pi, Some(hi), ws);
        }
        level_quality[level] = radii[level].quality();
        stats.levels_redone += 1;
    }
    stats.parts_redone = dirty.len() as u32;
    let bfs_depth = bfs.depth();
    Some(SolvedState {
        sorted,
        tree_ids,
        tree_pairs,
        tree,
        index,
        hierarchy,
        bfs,
        radii,
        level_quality,
        bfs_depth,
        total_parts,
    })
}

/// The back half of `shortcut_two_ecss_with` — set cover + assembly —
/// over the retained front half, through the same
/// [`crate::twoecss::augment`] the fresh pipeline ends in.
fn solve_from_state(
    g: &Graph,
    state: &SolvedState,
    config: &ShortcutConfig,
    ws: &mut ShortcutWorkspace,
) -> Result<ShortcutResult, NotTwoEdgeConnected> {
    let tools = ScTools::from_parts(
        g,
        &state.tree,
        state.index.clone(),
        state.hierarchy.clone(),
        state.level_quality.clone(),
        state.bfs_depth,
    );
    augment(g, &tools, config, ws)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shortcut_two_ecss_with;
    use decss_graphs::gen;

    fn assert_identical(a: &ShortcutResult, b: &ShortcutResult) {
        assert_eq!(a.edges, b.edges);
        assert_eq!(a.mst_weight, b.mst_weight);
        assert_eq!(a.augmentation_weight, b.augmentation_weight);
        assert_eq!(a.measured_sc, b.measured_sc);
        assert_eq!(a.level_quality, b.level_quality);
        assert_eq!(a.pass_cost, b.pass_cost);
        assert_eq!(a.repetitions, b.repetitions);
        assert_eq!(a.fallbacks, b.fallbacks);
        assert_eq!(
            a.ledger.breakdown().collect::<Vec<_>>(),
            b.ledger.breakdown().collect::<Vec<_>>()
        );
        assert_eq!(a.ledger.total_rounds(), b.ledger.total_rounds());
    }

    fn check_incremental(g: &Graph, deltas: &[GraphDelta], expect_fallback: Option<bool>) {
        let config = ShortcutConfig::default();
        let mut inst = DynamicInstance::new(g.clone());
        let (result, stats) = inst.apply(deltas, &config).expect("incremental solve");
        let mutated = mutate(g, deltas).expect("valid batch");
        let fresh =
            shortcut_two_ecss_with(&mutated, &config, &mut ShortcutWorkspace::new(&mutated))
                .expect("fresh solve");
        assert_identical(&result, &fresh);
        if let Some(fb) = expect_fallback {
            assert_eq!(stats.fell_back, fb, "stats: {stats:?}");
        }
        assert_eq!(
            inst.fingerprint(),
            decss_graphs::fingerprint::graph_fingerprint(&mutated)
        );
    }

    #[test]
    fn empty_batch_resolves_the_same_graph() {
        let g = gen::grid(6, 6, 20, 7);
        check_incremental(&g, &[], Some(false));
    }

    #[test]
    fn reweight_batch_matches_fresh_without_fallback_when_tree_survives() {
        let g = gen::grid(6, 6, 20, 7);
        // Raising a non-tree edge's weight cannot change the MST.
        let tree = RootedTree::mst(&g);
        let non_tree = g.edge_ids().find(|&e| !tree.is_tree_edge(e)).unwrap();
        let w = g.weight(non_tree) + 17;
        check_incremental(&g, &[GraphDelta::Reweight { edge: non_tree, weight: w }], Some(false));
    }

    #[test]
    fn reweight_that_flips_the_tree_falls_back_and_still_matches() {
        let g = gen::grid(6, 6, 20, 3);
        let tree = RootedTree::mst(&g);
        let tree_edge = g.edge_ids().find(|&e| tree.is_tree_edge(e)).unwrap();
        // Make a tree edge enormously expensive: the MST must change.
        check_incremental(
            &g,
            &[GraphDelta::Reweight { edge: tree_edge, weight: 1_000_000 }],
            Some(true),
        );
    }

    #[test]
    fn delete_and_insert_batches_match_fresh() {
        let g = gen::gnp_two_ec(80, 0.08, 24, 5);
        let tree = RootedTree::mst(&g);
        let non_tree: Vec<EdgeId> = g.edge_ids().filter(|&e| !tree.is_tree_edge(e)).collect();
        check_incremental(&g, &[GraphDelta::Delete { edge: non_tree[0] }], None);
        check_incremental(
            &g,
            &[
                GraphDelta::Delete { edge: non_tree[1] },
                GraphDelta::Insert { u: VertexId(0), v: VertexId(40), weight: 7 },
                GraphDelta::Reweight { edge: non_tree[2], weight: 99 },
            ],
            None,
        );
    }

    #[test]
    fn deleting_a_tree_edge_falls_back_and_still_matches() {
        let g = gen::grid(5, 5, 20, 1);
        let tree = RootedTree::mst(&g);
        // Pick a tree edge whose removal keeps the graph 2EC (i.e. not
        // one incident to a degree-2 grid corner).
        let tree_edge = g
            .edge_ids()
            .find(|&e| {
                tree.is_tree_edge(e)
                    && mutate(&g, &[GraphDelta::Delete { edge: e }])
                        .is_ok_and(|m| algo::is_two_edge_connected(&m))
            })
            .unwrap();
        check_incremental(&g, &[GraphDelta::Delete { edge: tree_edge }], Some(true));
    }

    #[test]
    fn repeated_applies_reuse_the_same_instance() {
        // One instance absorbs several batches, each pinned against a
        // fresh solve of its own mutated graph.
        let g = gen::outerplanar_disk(64, 1.0, 24, 9);
        let config = ShortcutConfig::default();
        let mut inst = DynamicInstance::new(g.clone());
        let mut current = g;
        for step in 0..3 {
            let batch: Vec<GraphDelta> = match step {
                0 => {
                    let tree = RootedTree::mst(&current);
                    let e = current.edge_ids().find(|&e| !tree.is_tree_edge(e)).unwrap();
                    vec![GraphDelta::Reweight { edge: e, weight: 1000 }]
                }
                1 => vec![GraphDelta::Insert { u: VertexId(1), v: VertexId(30), weight: 3 }],
                _ => {
                    // Delete an edge whose removal keeps the graph 2EC.
                    let e = current
                        .edge_ids()
                        .find(|&e| {
                            mutate(&current, &[GraphDelta::Delete { edge: e }])
                                .is_ok_and(|m| algo::is_two_edge_connected(&m))
                        })
                        .unwrap();
                    vec![GraphDelta::Delete { edge: e }]
                }
            };
            let (result, _) = inst.apply(&batch, &config).expect("incremental");
            current = mutate(&current, &batch).expect("valid");
            let fresh =
                shortcut_two_ecss_with(&current, &config, &mut ShortcutWorkspace::new(&current))
                    .expect("fresh");
            assert_identical(&result, &fresh);
        }
    }

    #[test]
    fn disconnecting_then_repairing_matches_the_fresh_error_contract() {
        // A 4-cycle: deleting one edge leaves a bridge path (connected,
        // not 2EC); deleting a cut pair disconnects it.
        let g = Graph::from_edges(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)]).unwrap();
        let config = ShortcutConfig::default();
        let mut inst = DynamicInstance::new(g.clone());
        // Bridge: fresh errors with NotTwoEdgeConnected, apply must too.
        let err = inst
            .apply(&[GraphDelta::Delete { edge: EdgeId(0) }], &config)
            .unwrap_err();
        assert_eq!(err, DeltaError::NotTwoEdgeConnected);
        // Mutation committed: repairing the cycle solves again.
        let (result, _) = inst
            .apply(
                &[GraphDelta::Insert { u: VertexId(0), v: VertexId(1), weight: 5 }],
                &config,
            )
            .expect("repaired");
        let repaired = Graph::from_edges(4, [(1, 2, 1), (2, 3, 1), (3, 0, 1), (0, 1, 5)]).unwrap();
        let fresh =
            shortcut_two_ecss_with(&repaired, &config, &mut ShortcutWorkspace::new(&repaired))
                .unwrap();
        assert_identical(&result, &fresh);
        // Disconnect entirely.
        let err = inst
            .apply(
                &[
                    GraphDelta::Delete { edge: EdgeId(0) },
                    GraphDelta::Delete { edge: EdgeId(3) },
                ],
                &config,
            )
            .unwrap_err();
        assert_eq!(err, DeltaError::NotTwoEdgeConnected);
    }

    #[test]
    fn invalid_batches_are_rejected_atomically() {
        let g = gen::grid(4, 4, 10, 2);
        let config = ShortcutConfig::default();
        let mut inst = DynamicInstance::new(g.clone());
        let fp = inst.fingerprint();
        let bad: Vec<(Vec<GraphDelta>, &str)> = vec![
            (vec![GraphDelta::Delete { edge: EdgeId(9999) }], "out of range"),
            (
                vec![
                    GraphDelta::Delete { edge: EdgeId(0) },
                    GraphDelta::Delete { edge: EdgeId(0) },
                ],
                "duplicate delete",
            ),
            (
                vec![
                    GraphDelta::Delete { edge: EdgeId(0) },
                    GraphDelta::Reweight { edge: EdgeId(0), weight: 1 },
                ],
                "deleted earlier",
            ),
            (
                vec![GraphDelta::Insert { u: VertexId(2), v: VertexId(2), weight: 1 }],
                "self-loop",
            ),
            (
                vec![GraphDelta::Insert { u: VertexId(0), v: VertexId(999), weight: 1 }],
                "endpoint out of range",
            ),
        ];
        for (batch, needle) in bad {
            let err = inst.apply(&batch, &config).unwrap_err();
            match err {
                DeltaError::Invalid { reason, .. } => {
                    assert!(reason.contains(needle), "{reason} vs {needle}")
                }
                other => panic!("expected Invalid, got {other:?}"),
            }
            assert_eq!(inst.fingerprint(), fp, "batch must not commit");
            // The instance still solves its unchanged graph correctly.
            let (result, _) = inst.apply(&[], &config).expect("still solvable");
            let fresh = shortcut_two_ecss_with(&g, &config, &mut ShortcutWorkspace::new(&g))
                .expect("fresh");
            assert_identical(&result, &fresh);
        }
    }

    #[test]
    fn mutate_reference_semantics() {
        let g = Graph::from_edges(4, [(0, 1, 1), (1, 2, 2), (2, 3, 3), (3, 0, 4)]).unwrap();
        let out = mutate(
            &g,
            &[
                GraphDelta::Delete { edge: EdgeId(1) },
                GraphDelta::Reweight { edge: EdgeId(3), weight: 40 },
                GraphDelta::Insert { u: VertexId(1), v: VertexId(3), weight: 9 },
            ],
        )
        .unwrap();
        // Survivors keep relative order with final weights; insert last.
        let triples: Vec<(u32, u32, Weight)> =
            out.edges().map(|(_, e)| (e.u.0, e.v.0, e.weight)).collect();
        assert_eq!(triples, vec![(0, 1, 1), (2, 3, 3), (0, 3, 40), (1, 3, 9)]);
    }

    #[test]
    fn cloned_instances_solve_independently() {
        let g = gen::grid(5, 5, 16, 4);
        let config = ShortcutConfig::default();
        let base = DynamicInstance::new(g.clone());
        let mut a = base.clone();
        let mut b = base.clone();
        let (ra, _) = a.apply(&[], &config).unwrap();
        let tree = RootedTree::mst(&g);
        let non_tree = g.edge_ids().find(|&e| !tree.is_tree_edge(e)).unwrap();
        let (rb, _) = b
            .apply(&[GraphDelta::Reweight { edge: non_tree, weight: 500 }], &config)
            .unwrap();
        let fresh = shortcut_two_ecss_with(&g, &config, &mut ShortcutWorkspace::new(&g)).unwrap();
        assert_identical(&ra, &fresh);
        let mutated = mutate(&g, &[GraphDelta::Reweight { edge: non_tree, weight: 500 }]).unwrap();
        let fresh_b =
            shortcut_two_ecss_with(&mutated, &config, &mut ShortcutWorkspace::new(&mutated))
                .unwrap();
        assert_identical(&rb, &fresh_b);
    }
}
