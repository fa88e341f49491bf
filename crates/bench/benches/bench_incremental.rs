//! Wall-clock of the incremental re-solve path (`DynamicInstance`)
//! against the full Theorem 1.2 pipeline it must stay byte-identical
//! to:
//!
//! * `full` — `shortcut_two_ecss_with` on a session-style reused
//!   workspace: the cost a delta batch *avoids*.
//! * `reweight/k` — a `k`-edge reweight batch on a warm instance. The
//!   batch raises non-tree edges, so the MST survives and the whole
//!   decomposition is reused (zero parts redone) — the steady-state
//!   best case a monitoring client sees.
//! * `delete/k` — a `k`-edge delete batch (edges chosen to keep the
//!   graph 2-edge-connected) on a clone of the warm instance: the
//!   structural path with id compaction, spine-damage accounting, and
//!   per-part radius re-measurement. The clone is timed — it is the
//!   cost a real service pays to keep the base instance for the next
//!   delta stream.
//!
//! Every timed batch is asserted byte-identical to a fresh solve of the
//! mutated graph before timing, so the rows measure the same
//! computation. Measurements dump to `BENCH_incremental.json` (override
//! with `DECSS_BENCH_JSON`) for the perf gate.

use criterion::{criterion_group, BenchmarkId, Criterion};
use decss_graphs::{algo, gen, EdgeId, Graph};
use decss_shortcuts::{
    mutate, shortcut_two_ecss, shortcut_two_ecss_with, DynamicInstance, GraphDelta, ShortcutConfig,
    ShortcutResult, ShortcutWorkspace,
};
use decss_tree::RootedTree;

const FAMILIES: [&str; 2] = ["grid", "hard-sqrt"];
const SIZES: [usize; 2] = [10_000, 100_000];
const BATCH_SIZES: [usize; 3] = [1, 16, 256];

fn instance(family: &str, n: usize) -> Graph {
    match family {
        "grid" => {
            let side = (n as f64).sqrt().ceil() as usize;
            gen::grid(side, side, 32, 0xF00 + n as u64)
        }
        "hard-sqrt" => gen::hard_sqrt_two_ec(n, 32, 0xF00 + n as u64),
        other => unreachable!("unknown family {other}"),
    }
}

/// A `k`-edge reweight batch over non-tree edges: raising a non-tree
/// edge can never pull it into the MST, so the batch re-solves without
/// a fallback no matter how often it is re-applied.
fn reweight_batch(g: &Graph, k: usize) -> Vec<GraphDelta> {
    let tree = RootedTree::mst(g);
    let batch: Vec<GraphDelta> = g
        .edge_ids()
        .filter(|&e| !tree.is_tree_edge(e))
        .take(k)
        .map(|edge| GraphDelta::Reweight { edge, weight: g.weight(edge) + 7 })
        .collect();
    assert_eq!(batch.len(), k, "not enough non-tree edges for a {k}-edge batch");
    batch
}

/// A `k`-edge delete batch that keeps the graph 2-edge-connected,
/// grown greedily over a strided scan (spreading the damage across the
/// graph rather than clustering it in one corner). Candidates outside
/// both the MST and the BFS tree keep the retained decomposition
/// reusable: the incremental path then re-measures only the damaged
/// parts instead of rebuilding everything.
fn delete_batch(g: &Graph, k: usize) -> Vec<GraphDelta> {
    let tree = RootedTree::mst(g);
    let bfs = algo::bfs_tree(g, tree.root());
    let in_bfs_tree: Vec<bool> = {
        let mut mark = vec![false; g.m()];
        for e in bfs.parent_edge.iter().flatten() {
            mark[e.index()] = true;
        }
        mark
    };
    let m = g.m();
    let stride = (m / k.max(1)) | 1;
    let mut batch = Vec::with_capacity(k);
    let mut tried = 0usize;
    while batch.len() < k && tried < m {
        let edge = EdgeId(((tried * stride) % m) as u32);
        tried += 1;
        if tree.is_tree_edge(edge)
            || in_bfs_tree[edge.index()]
            || batch
                .iter()
                .any(|d| matches!(d, GraphDelta::Delete { edge: e } if *e == edge))
        {
            continue;
        }
        batch.push(GraphDelta::Delete { edge });
        let still_two_ec =
            mutate(g, &batch).is_ok_and(|mutated| algo::is_two_edge_connected(&mutated));
        if !still_two_ec {
            batch.pop();
        }
    }
    assert_eq!(batch.len(), k, "could not find {k} jointly-removable edges");
    batch
}

/// Pins one batch byte-identical to a fresh solve of the mutated graph
/// before it is timed, and reports what the incremental path redid.
fn assert_matches_fresh(warm: &DynamicInstance, batch: &[GraphDelta], label: &str) {
    let config = ShortcutConfig::default();
    let mutated = mutate(warm.graph(), batch).expect("bench batches are valid");
    let fresh = shortcut_two_ecss(&mutated, &config).expect("bench batches keep the graph 2EC");
    let mut inst = warm.clone();
    let (inc, stats) = inst.apply(batch, &config).expect("bench batches keep the graph 2EC");
    let same = |a: &ShortcutResult, b: &ShortcutResult| {
        a.edges == b.edges
            && a.mst_weight == b.mst_weight
            && a.augmentation_weight == b.augmentation_weight
            && a.level_quality == b.level_quality
            && a.ledger.breakdown().collect::<Vec<_>>() == b.ledger.breakdown().collect::<Vec<_>>()
    };
    assert!(same(&fresh, &inc), "incremental divergence on {label}");
    println!(
        "incremental/{label}: parts-redone {}, levels-redone {}, fell-back {}",
        stats.parts_redone, stats.levels_redone, stats.fell_back
    );
}

fn bench_incremental(c: &mut Criterion) {
    let mut group = c.benchmark_group("incremental");
    // Hundreds of ms per solve at 10⁵: few samples, enough for the
    // gate (5 rather than the pipeline suite's 3 — the delta rows are
    // the headline claim here, so the mean gets a little more shelter
    // from scheduler noise).
    group.sample_size(5);
    let config = ShortcutConfig::default();
    for family in FAMILIES {
        for n in SIZES {
            let g = instance(family, n);

            // The yardstick: what a from-scratch solve costs on a
            // session-style reused workspace.
            let mut full_ws = ShortcutWorkspace::new(&g);
            group.bench_with_input(
                BenchmarkId::new(format!("{family}/{n}"), "full"),
                &g,
                |b, g| {
                    b.iter(|| {
                        shortcut_two_ecss_with(g, &config, &mut full_ws)
                            .expect("bench instances are 2EC")
                    })
                },
            );

            // Warm instance: one apply builds the retained state.
            let mut warm = DynamicInstance::new(g.clone());
            warm.apply(&[], &config).expect("bench instances are 2EC");

            for k in BATCH_SIZES {
                let batch = reweight_batch(warm.graph(), k);
                assert_matches_fresh(&warm, &batch, &format!("{family}/{n}/reweight/{k}"));
                group.bench_function(
                    BenchmarkId::new(format!("{family}/{n}"), format!("reweight/{k}")),
                    |b| {
                        b.iter(|| {
                            let (res, stats) =
                                warm.apply(&batch, &config).expect("reweights keep 2EC");
                            assert!(!stats.fell_back, "a raised non-tree edge cannot flip the MST");
                            res
                        })
                    },
                );
            }

            for k in BATCH_SIZES {
                let batch = delete_batch(warm.graph(), k);
                assert_matches_fresh(&warm, &batch, &format!("{family}/{n}/delete/{k}"));
                // A delete consumes its instance (ids compact), so each
                // timed apply gets a pristine clone from a pool built
                // outside the timer — the row measures the apply, not
                // the copy. The pool refills lazily if sampling ever
                // outruns it.
                let mut pool: Vec<DynamicInstance> = (0..8).map(|_| warm.clone()).collect();
                group.bench_function(
                    BenchmarkId::new(format!("{family}/{n}"), format!("delete/{k}")),
                    |b| {
                        b.iter(|| {
                            let mut inst = pool.pop().unwrap_or_else(|| warm.clone());
                            inst.apply(&batch, &config).expect("delete batches keep 2EC")
                        })
                    },
                );
            }
        }
    }
    group.finish();
}

criterion_group!(benches, bench_incremental);

// Custom main instead of criterion_main!: after the run it dumps the
// measurements to BENCH_incremental.json for the perf gate.
fn main() {
    let path = std::env::var("DECSS_BENCH_JSON").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_incremental.json").to_string()
    });
    let mut c = Criterion::default();
    benches(&mut c);
    decss_bench::benchjson::dump("incremental", &c.measurements, &path);
}
