//! Pins the pooled shortcut pipeline byte-identical to the sequential
//! one: `shortcut_two_ecss_pool` at any pool size must produce the same
//! edges in the same order, the same weight bits, the same per-level
//! `ShortcutQuality` (α/β/winning scheme), and the same round ledger as
//! `shortcut_two_ecss_with`. This is the determinism contract the
//! `shards` request hint advertises — parallelism is an implementation
//! detail a report consumer can never observe.
//!
//! Pools are built with `ShardPool::with_threads(k, k)`, which bypasses
//! the `available_parallelism` clamp, so real OS threads race each
//! other even on a 1-core CI container. `DECSS_POOL_THREADS` overrides
//! the per-pool thread count (CI runs the suite at 1 — pure chunk
//! determinism, no spawns — and at 4 — real interleavings). Workspace
//! arenas are reused dirty across instances (like a live
//! `SolverSession`), so the suite also proves epoch hygiene of the
//! per-slot scratch.
//!
//! Run under `--release` in CI (like `flat_equivalence`); the `*_at_4096`
//! test is `#[ignore]`d so the debug-mode tier-1 run stays fast.

use decss_graphs::{gen, Graph};
use decss_shortcuts::{
    shortcut_two_ecss_pool, shortcut_two_ecss_with, ShardPool, ShortcutConfig, ShortcutResult,
    WorkspaceArena,
};
use proptest::prelude::*;

const FAMILIES: [&str; 5] = ["ladder", "grid", "outerplanar", "hard-sqrt", "gnp"];
const POOLS: [usize; 4] = [1, 2, 4, 8];

fn instance(family: &str, n: usize, seed: u64) -> Graph {
    match family {
        "ladder" => gen::ladder(n, 24, seed),
        "grid" => {
            let side = (n as f64).sqrt().ceil() as usize;
            gen::grid(side, side.max(2), 24, seed)
        }
        "outerplanar" => gen::outerplanar_disk(n.max(3), 1.0, 24, seed),
        "hard-sqrt" => gen::hard_sqrt_two_ec(n.max(16), 24, seed),
        // Random chords over a Hamiltonian cycle (expected degree ~10):
        // exercises partitions with many small parts.
        "gnp" => {
            let n = n.max(8);
            gen::gnp_two_ec(n, (8.0 / n as f64).min(0.5), 24, seed)
        }
        other => unreachable!("unknown family {other}"),
    }
}

/// Full-result comparison: every observable field, bit for bit.
fn assert_same(seq: &ShortcutResult, pooled: &ShortcutResult, what: &str) {
    assert_eq!(seq.edges, pooled.edges, "{what}: edges (ids and order)");
    assert_eq!(seq.mst_weight, pooled.mst_weight, "{what}: mst_weight");
    assert_eq!(
        seq.augmentation_weight, pooled.augmentation_weight,
        "{what}: augmentation_weight"
    );
    assert_eq!(
        seq.level_quality, pooled.level_quality,
        "{what}: α/β/scheme per level"
    );
    assert_eq!(seq.measured_sc, pooled.measured_sc, "{what}: measured_sc");
    assert_eq!(seq.pass_cost, pooled.pass_cost, "{what}: pass_cost");
    assert_eq!(seq.repetitions, pooled.repetitions, "{what}: repetitions");
    assert_eq!(seq.fallbacks, pooled.fallbacks, "{what}: fallbacks");
    let seq_ledger: Vec<_> = seq.ledger.breakdown().collect();
    let pooled_ledger: Vec<_> = pooled.ledger.breakdown().collect();
    assert_eq!(seq_ledger, pooled_ledger, "{what}: round ledger breakdown");
    assert_eq!(
        seq.ledger.total_rounds(),
        pooled.ledger.total_rounds(),
        "{what}: total rounds"
    );
}

/// A `k`-worker pool running on `k` forced threads, unless
/// `DECSS_POOL_THREADS` pins the thread count (the CI matrix knob).
fn pool(k: usize) -> ShardPool {
    let threads = std::env::var("DECSS_POOL_THREADS")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(k);
    ShardPool::with_threads(k, threads)
}

/// One instance through the sequential path and every pool size, all on
/// the caller's (possibly dirty) scratch.
fn assert_pool_equivalent(g: &Graph, arena: &mut WorkspaceArena, seq_arena: &mut WorkspaceArena) {
    let config = ShortcutConfig::default();
    let seq = shortcut_two_ecss_with(g, &config, seq_arena.primary()).expect("2-edge-connected");
    for k in POOLS {
        let pool = pool(k);
        let pooled = shortcut_two_ecss_pool(g, &config, &pool, arena).expect("2-edge-connected");
        assert_same(&seq, &pooled, &format!("pool {pool}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn pooled_pipeline_matches_sequential(
        family in 0usize..FAMILIES.len(),
        n in 64usize..320,
        seed in 0u64..1000,
    ) {
        let g = instance(FAMILIES[family], n, seed);
        let mut arena = WorkspaceArena::for_graph(&g);
        let mut seq_arena = WorkspaceArena::for_graph(&g);
        assert_pool_equivalent(&g, &mut arena, &mut seq_arena);
    }

    /// One arena across differently-sized instances, never cleared
    /// between solves: slot growth and epoch stamping must keep dirty
    /// reuse invisible (this is exactly how `SolverSession` drives it).
    #[test]
    fn one_arena_across_instances(seed in 0u64..500) {
        let mut arena = WorkspaceArena::new();
        let mut seq_arena = WorkspaceArena::new();
        for (family, n) in [("outerplanar", 48usize), ("gnp", 96), ("grid", 144), ("hard-sqrt", 64)] {
            let g = instance(family, n, seed);
            assert_pool_equivalent(&g, &mut arena, &mut seq_arena);
        }
    }
}

/// The headline sizes (release-CI only): hierarchies deep enough that
/// every pool size splits the levels into several chunks.
#[test]
#[ignore = "large instance; run in release CI via --include-ignored"]
fn pooled_pipeline_matches_sequential_at_4096() {
    let mut arena = WorkspaceArena::new();
    let mut seq_arena = WorkspaceArena::new();
    for family in FAMILIES {
        let g = instance(family, 4096, 7);
        assert_pool_equivalent(&g, &mut arena, &mut seq_arena);
    }
}
