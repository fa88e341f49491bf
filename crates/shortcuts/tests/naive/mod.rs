//! The pre-rewrite `HashMap`/`HashSet`/`VecDeque` shortcut-construction
//! paths, preserved verbatim as reference implementations.
//!
//! These are the implementations the flat scratch-buffer rewrites in
//! [`decss_shortcuts::shortcut`], [`decss_shortcuts::fragments`],
//! [`decss_shortcuts::partition`] and [`decss_shortcuts::setcover`]
//! replaced. The `flat_equivalence` suite pins the rewrites
//! bit-identical to them (same [`ShortcutQuality`], same Steiner edge
//! sets, same hierarchy layout, same set-cover picks and ledger).
//!
//! Nothing here is called on the production path.

use decss_congest::ledger::RoundLedger;
use decss_congest::protocols::convergecast::Agg;
use decss_graphs::algo::BfsTree;
use decss_graphs::{EdgeId, Graph, VertexId};
use decss_shortcuts::partition::Partition;
use decss_shortcuts::probes;
use decss_shortcuts::setcover::{SetCoverConfig, SetCoverResult, REPS_PER_SUBPHASE};
use decss_shortcuts::shortcut::{ShortcutQuality, ShortcutScheme};
use decss_shortcuts::tools::ScTools;
use decss_shortcuts::workspace::ShortcutWorkspace;
use decss_tree::{LcaOracle, RootedTree};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet, VecDeque};

/// The threshold-BFS construction (pre-rewrite reference).
pub fn threshold_bfs(g: &Graph, bfs: &BfsTree, partition: &Partition) -> ShortcutQuality {
    let threshold = (g.n() as f64).sqrt().ceil() as usize;
    let tree_edges: Vec<EdgeId> = bfs.tree_edges().collect();
    let mut edge_load: HashMap<EdgeId, u32> = HashMap::new();
    let mut beta = 0u32;
    let mut big_parts = 0u32;
    for part in partition.parts() {
        let hi: &[EdgeId] = if part.len() >= threshold {
            big_parts += 1;
            &tree_edges
        } else {
            &[]
        };
        for &e in hi {
            *edge_load.entry(e).or_insert(0) += 1;
        }
        beta = beta.max(part_radius(g, partition, part, hi));
    }
    // Induced edges count once for their own part.
    let alpha = edge_load.values().copied().max().unwrap_or(0) + 1;
    let _ = big_parts;
    ShortcutQuality { alpha, beta, scheme: ShortcutScheme::ThresholdBfs }
}

/// The tree-restricted Steiner construction (pre-rewrite reference).
pub fn tree_restricted(g: &Graph, bfs: &BfsTree, partition: &Partition) -> ShortcutQuality {
    let mut edge_load: HashMap<EdgeId, u32> = HashMap::new();
    let mut beta = 0u32;
    for part in partition.parts() {
        let hi = steiner_edges(bfs, part);
        for &e in &hi {
            *edge_load.entry(e).or_insert(0) += 1;
        }
        beta = beta.max(part_radius(g, partition, part, &hi));
    }
    let alpha = edge_load.values().copied().max().unwrap_or(0) + 1;
    ShortcutQuality { alpha, beta, scheme: ShortcutScheme::TreeRestricted }
}

/// Both constructions, better one kept (pre-rewrite reference).
pub fn best_shortcut(g: &Graph, bfs: &BfsTree, partition: &Partition) -> ShortcutQuality {
    let a = threshold_bfs(g, bfs, partition);
    let b = tree_restricted(g, bfs, partition);
    if a.cost() <= b.cost() {
        a
    } else {
        b
    }
}

/// The minimal BFS-tree subtree spanning `part` (pre-rewrite reference:
/// climbs every vertex to the BFS root, then discards the chain above
/// the common ancestor; [`decss_shortcuts::shortcut::steiner_edges`]
/// stops at the ancestor and keeps the same edges in the same order).
pub fn steiner_edges(bfs: &BfsTree, part: &[VertexId]) -> Vec<EdgeId> {
    let mut visited: HashSet<VertexId> = HashSet::new();
    let mut edges: Vec<(VertexId, EdgeId)> = Vec::new(); // (child, edge)
    for &v in part {
        let mut cur = v;
        while visited.insert(cur) {
            match (bfs.parent[cur.index()], bfs.parent_edge[cur.index()]) {
                (Some(p), Some(e)) => {
                    edges.push((cur, e));
                    cur = p;
                }
                _ => break, // reached the BFS root
            }
        }
    }
    // Prune the tail above the subtree actually needed: repeatedly drop
    // a "chain top" edge whose child has exactly one child in the union
    // and is not a part vertex.
    let part_set: HashSet<VertexId> = part.iter().copied().collect();
    let mut child_count: HashMap<VertexId, u32> = HashMap::new();
    let mut parent_of: HashMap<VertexId, (VertexId, EdgeId)> = HashMap::new();
    for &(c, e) in &edges {
        let p = bfs.parent[c.index()].expect("edge has a parent");
        *child_count.entry(p).or_insert(0) += 1;
        parent_of.insert(c, (p, e));
    }
    // Walk down from the BFS root along single chains of non-part
    // vertices, discarding those edges.
    let mut discard: HashSet<EdgeId> = HashSet::new();
    let mut cur = bfs.root;
    loop {
        if part_set.contains(&cur) || child_count.get(&cur).copied().unwrap_or(0) != 1 {
            break;
        }
        // The unique union-child of cur.
        let Some((&child, &(_, e))) = parent_of.iter().find(|(_, &(p, _))| p == cur) else {
            break;
        };
        discard.insert(e);
        cur = child;
    }
    edges
        .into_iter()
        .map(|(_, e)| e)
        .filter(|e| !discard.contains(e))
        .collect()
}

/// Eccentricity of the part's first vertex (its leader) inside
/// `G[V_i] + H_i` (pre-rewrite reference).
fn part_radius(g: &Graph, partition: &Partition, part: &[VertexId], hi: &[EdgeId]) -> u32 {
    let me = partition.part_of(part[0]);
    let hi_set: HashSet<EdgeId> = hi.iter().copied().collect();
    let usable = |e: EdgeId| -> bool {
        if hi_set.contains(&e) {
            return true;
        }
        let edge = g.edge(e);
        partition.part_of(edge.u) == me && partition.part_of(edge.v) == me
    };
    let mut dist: HashMap<VertexId, u32> = HashMap::from([(part[0], 0)]);
    let mut queue = VecDeque::from([part[0]]);
    let mut radius = 0;
    while let Some(v) = queue.pop_front() {
        let d = dist[&v];
        for &(e, w) in g.neighbors(v) {
            if usable(e) && !dist.contains_key(&w) {
                dist.insert(w, d + 1);
                queue.push_back(w);
            }
        }
        radius = radius.max(d);
    }
    // Every part vertex must be reachable (parts are connected).
    debug_assert!(part.iter().all(|v| dist.contains_key(v)));
    // Only count the distance to part vertices: the shortcut is used to
    // communicate within the part.
    part.iter().map(|v| dist[v]).max().unwrap_or(0)
}

/// Per-level spine lists of the naive hierarchy build:
/// `levels[d][i]` is the `i`-th spine at light depth `d`, top-down.
pub type NaiveLevels = Vec<Vec<Vec<VertexId>>>;

/// The pre-rewrite fragment-hierarchy build: per-level `Vec`s of owned
/// spines, plus `spine_of` in the same (level, index-within-level)
/// convention as
/// [`decss_shortcuts::fragments::FragmentHierarchy::spine_of`].
pub fn fragment_levels(tree: &RootedTree, index: &LcaOracle) -> (NaiveLevels, Vec<(u32, u32)>) {
    let n = tree.n();
    let mut levels: Vec<Vec<Vec<VertexId>>> = Vec::new();
    let mut spine_of = vec![(0u32, 0u32); n];
    // Heads of heavy paths are exactly the fragment tops.
    let mut tops: Vec<VertexId> =
        tree.order().iter().copied().filter(|&v| index.head(v) == v).collect();
    // Process tops in BFS order so parents' levels are known.
    tops.sort_by_key(|&v| tree.depth(v));
    for top in tops {
        let level = index.light_depth(top) as usize;
        while levels.len() <= level {
            levels.push(Vec::new());
        }
        // Walk the heavy path downward.
        let mut spine = vec![top];
        let mut cur = top;
        while let Some(&next) = tree.children(cur).iter().find(|&&c| index.is_heavy_above(c)) {
            spine.push(next);
            cur = next;
        }
        let idx = levels[level].len() as u32;
        for &v in &spine {
            spine_of[v.index()] = (level as u32, idx);
        }
        levels[level].push(spine);
    }
    (levels, spine_of)
}

/// The full pre-rewrite shortcut-construction path, end to end: build
/// the per-level spine partitions (owned `Vec`s per spine, re-cloned
/// into the partition) and measure both constructions on each. This is
/// what [`decss_shortcuts::tools::ScTools::new`] cost before the flat
/// rewrites.
pub fn level_quality(
    g: &Graph,
    tree: &RootedTree,
    index: &LcaOracle,
    bfs: &BfsTree,
) -> Vec<ShortcutQuality> {
    let (levels, _) = fragment_levels(tree, index);
    levels
        .iter()
        .map(|spines| {
            let partition = Partition::new(g, spines.clone());
            best_shortcut(g, bfs, &partition)
        })
        .collect()
}

/// Lemma 5.5, dense: for each entry of `candidates`, the number of tree
/// edges with `marked` set that it covers, via `M_u + M_v − 2·M_w`
/// where `M_x` counts marked edges on the root path of `x` (an
/// ancestors' sum) and `lcas` holds each candidate's
/// [`probes::candidate_lcas`] entry `w`.
pub fn marked_cover_counts(
    tools: &ScTools<'_>,
    candidates: &[EdgeId],
    lcas: &[VertexId],
    marked: &[bool],
    ledger: &mut RoundLedger,
) -> Vec<u32> {
    assert_eq!(marked.len(), tools.tree.n());
    assert_eq!(lcas.len(), candidates.len());
    let marks: Vec<u64> = marked.iter().map(|&m| u64::from(m)).collect();
    let mut sums = Vec::new();
    tools.ancestors_sum_into(&marks, Agg::Sum, ledger, &mut sums);
    candidates
        .iter()
        .zip(lcas)
        .map(|(&id, &w)| {
            let e = tools.graph.edge(id);
            (sums[e.u.index()] + sums[e.v.index()] - 2 * sums[w.index()]) as u32
        })
        .collect()
}

/// The transpose of [`marked_cover_counts`]: for each tree edge (child
/// vertex), how many edges of `set` cover it, by two descendants' sums:
/// `Σ_{x ∈ subtree} inc(x) − 2 · Σ_{x ∈ subtree} lca_count(x)`.
/// `lcas` holds each edge's [`probes::candidate_lcas`] entry.
pub fn path_load(
    tools: &ScTools<'_>,
    set: &[EdgeId],
    lcas: &[VertexId],
    ledger: &mut RoundLedger,
) -> Vec<u32> {
    let n = tools.tree.n();
    assert_eq!(lcas.len(), set.len());
    let mut inc = vec![0u64; n];
    let mut at_lca = vec![0u64; n];
    for (&id, &w) in set.iter().zip(lcas) {
        let e = tools.graph.edge(id);
        inc[e.u.index()] += 1;
        inc[e.v.index()] += 1;
        at_lca[w.index()] += 1;
    }
    let (mut inc_sum, mut lca_sum) = (Vec::new(), Vec::new());
    tools.descendants_sum_into(&inc, Agg::Sum, ledger, &mut inc_sum);
    tools.descendants_sum_into(&at_lca, Agg::Sum, ledger, &mut lca_sum);
    (0..n)
        .map(|vi| match tools.tree.parent(VertexId(vi as u32)) {
            None => 0,
            Some(_) => (inc_sum[vi] - 2 * lca_sum[vi]) as u32,
        })
        .collect()
}

/// The pre-rewrite set-cover driver, preserved verbatim: the dense
/// per-repetition cover probe plus full-array marked bookkeeping that
/// [`decss_shortcuts::setcover::parallel_greedy_tap`]'s sparse
/// virtual-tree engine replaced. The `driver_equivalence` tests pin the
/// rewrite bit-identical to this — same chosen edges, same repetition
/// and fallback counts, same ledger breakdown.
pub fn greedy_tap_reference(
    tools: &ScTools<'_>,
    config: &SetCoverConfig,
    ledger: &mut RoundLedger,
    ws: &mut ShortcutWorkspace,
) -> Option<SetCoverResult> {
    let g = tools.graph;
    let tree = tools.tree;
    ws.ensure(g);
    let mut rng = StdRng::seed_from_u64(config.seed);
    let candidates: Vec<EdgeId> = g.edge_ids().filter(|&e| !tree.is_tree_edge(e)).collect();
    let weights: Vec<f64> = candidates.iter().map(|&e| g.weight(e) as f64).collect();
    let cand_lca: Vec<VertexId> = probes::candidate_lcas(tools, &candidates);

    tools.charge_hld_setup(ledger);

    // marked[v] = tree edge above v still uncovered.
    let mut marked: Vec<bool> = (0..tree.n())
        .map(|vi| tree.parent(decss_graphs::VertexId(vi as u32)).is_some())
        .collect();
    let mut chosen_mask = vec![false; candidates.len()];
    let mut repetitions = 0u32;

    let mut covered: Vec<bool> = Vec::new();
    let mut bucket: Vec<u32> = Vec::new();
    let mut bucket_edges: Vec<EdgeId> = Vec::new();
    let mut bucket_lcas: Vec<VertexId> = Vec::new();
    let mut sample: Vec<u32> = Vec::new();
    let mut sample_edges: Vec<EdgeId> = Vec::new();

    // Feasibility check: every tree edge covered by some candidate.
    {
        probes::covered_mask_into(tools, &candidates, &mut rng, ledger, ws, &mut covered);
        if (0..tree.n()).any(|vi| marked[vi] && !covered[vi]) {
            return None;
        }
    }

    let eps = config.epsilon;
    let n = tree.n() as f64;
    let w_max = g.max_weight().max(1) as f64;
    let mut delta = n;
    let delta_min = 1.0 / w_max;

    while delta >= delta_min / (1.0 + eps) {
        loop {
            if !marked.iter().any(|&m| m) {
                break;
            }
            let counts = marked_cover_counts(tools, &candidates, &cand_lca, &marked, ledger);
            ledger.charge("sc.broadcast", 2 * tools.bfs_depth as u64);
            bucket.clear();
            bucket.extend((0..candidates.len() as u32).filter(|&i| {
                let i = i as usize;
                !chosen_mask[i]
                    && counts[i] > 0
                    && counts[i] as f64 / weights[i].max(1.0) >= delta * (1.0 - eps)
            }));
            if bucket.is_empty() {
                break;
            }
            bucket_edges.clear();
            bucket_lcas.clear();
            for &i in &bucket {
                bucket_edges.push(candidates[i as usize]);
                bucket_lcas.push(cand_lca[i as usize]);
            }
            let loads = path_load(tools, &bucket_edges, &bucket_lcas, ledger);
            let d = (0..tree.n())
                .filter(|&vi| marked[vi])
                .map(|vi| loads[vi])
                .max()
                .unwrap_or(0)
                .max(1);

            let p = 1.0 / (2.0 * d as f64);
            let mut progressed = false;
            for _ in 0..REPS_PER_SUBPHASE {
                repetitions += 1;
                sample.clear();
                sample.extend(bucket.iter().copied().filter(|_| rng.gen_bool(p)));
                if sample.is_empty() {
                    continue;
                }
                sample_edges.clear();
                sample_edges.extend(sample.iter().map(|&i| candidates[i as usize]));
                probes::covered_mask_into(tools, &sample_edges, &mut rng, ledger, ws, &mut covered);
                ledger.charge("sc.broadcast", 2 * tools.bfs_depth as u64);
                let newly: u32 =
                    (0..tree.n()).filter(|&vi| marked[vi] && covered[vi]).count() as u32;
                let sample_weight: f64 = sample.iter().map(|&i| weights[i as usize]).sum();
                if (newly as f64) >= delta / 100.0 * sample_weight {
                    for &i in &sample {
                        chosen_mask[i as usize] = true;
                    }
                    for vi in 0..tree.n() {
                        if covered[vi] {
                            marked[vi] = false;
                        }
                    }
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
        delta /= 1.0 + eps;
    }

    let mut fallbacks = 0u32;
    if marked.iter().any(|&m| m) {
        let lca_oracle = decss_tree::LcaOracle::new(tree);
        let covers = |id: EdgeId, v: decss_graphs::VertexId| -> bool {
            let e = g.edge(id);
            let w = lca_oracle.lca(e.u, e.v);
            (lca_oracle.is_ancestor(v, e.u) || lca_oracle.is_ancestor(v, e.v))
                && lca_oracle.is_proper_ancestor(w, v)
        };
        for vi in 0..tree.n() {
            if !marked[vi] {
                continue;
            }
            let v = decss_graphs::VertexId(vi as u32);
            ledger.charge("sc.fallback", tools.pass_cost());
            let (_, i) = candidates
                .iter()
                .enumerate()
                .filter(|&(_, &id)| covers(id, v))
                .map(|(i, &id)| (g.weight(id), i))
                .min()
                .expect("feasibility was checked upfront");
            chosen_mask[i] = true;
            fallbacks += 1;
            for x in 0..tree.n() {
                if marked[x] && covers(candidates[i], decss_graphs::VertexId(x as u32)) {
                    marked[x] = false;
                }
            }
        }
    }

    let chosen: Vec<EdgeId> = (0..candidates.len())
        .filter(|&i| chosen_mask[i])
        .map(|i| candidates[i])
        .collect();
    let weight = g.weight_of(chosen.iter().copied());
    Some(SetCoverResult { chosen, weight, repetitions, fallbacks })
}
