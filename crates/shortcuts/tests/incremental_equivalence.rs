//! Pins the incremental pipeline byte-identical to a fresh solve: a
//! [`DynamicInstance`] absorbing any valid delta batch must produce the
//! same edges in the same order, the same weight bits, the same
//! per-level `ShortcutQuality`, and the same round ledger as
//! `shortcut_two_ecss_with` on the mutated graph — at *every* step of a
//! randomized update sequence, including the steps where the engine
//! falls back to a full rebuild and the steps where the mutated graph
//! stops being 2-edge-connected (both sides must then agree on the
//! error, and a later repairing batch must land back on equality).
//!
//! The fresh side runs on one `ShortcutWorkspace` reused dirty across
//! every step (exactly how a live `SolverSession` drives it), so the
//! suite also proves the incremental path never depends on clean
//! scratch; `dirty_workspace_reuse_matches_fresh` pins the same for the
//! full pipeline against solves on fresh workspaces.
//!
//! Run under `--release` in CI (like `flat_equivalence`); the `*_at_2048`
//! test is `#[ignore]`d so the debug-mode tier-1 run stays fast.

use decss_graphs::fingerprint::graph_fingerprint;
use decss_graphs::{gen, EdgeId, Graph, VertexId};
use decss_shortcuts::{
    mutate, shortcut_two_ecss, shortcut_two_ecss_with, DeltaError, DynamicInstance, GraphDelta,
    ShortcutConfig, ShortcutResult, ShortcutWorkspace,
};
use proptest::prelude::*;

const FAMILIES: [&str; 5] = ["ladder", "grid", "outerplanar", "hard-sqrt", "gnp"];

fn instance(family: &str, n: usize, seed: u64) -> Graph {
    match family {
        "ladder" => gen::ladder(n, 24, seed),
        "grid" => {
            let side = (n as f64).sqrt().ceil() as usize;
            gen::grid(side, side.max(2), 24, seed)
        }
        "outerplanar" => gen::outerplanar_disk(n.max(3), 1.0, 24, seed),
        "hard-sqrt" => gen::hard_sqrt_two_ec(n.max(16), 24, seed),
        "gnp" => {
            let n = n.max(8);
            gen::gnp_two_ec(n, (8.0 / n as f64).min(0.5), 24, seed)
        }
        other => unreachable!("unknown family {other}"),
    }
}

/// Full-result comparison: every observable field, bit for bit.
fn assert_same(fresh: &ShortcutResult, inc: &ShortcutResult, what: &str) {
    assert_eq!(fresh.edges, inc.edges, "{what}: edges (ids and order)");
    assert_eq!(fresh.mst_weight, inc.mst_weight, "{what}: mst_weight");
    assert_eq!(
        fresh.augmentation_weight, inc.augmentation_weight,
        "{what}: augmentation_weight"
    );
    assert_eq!(fresh.level_quality, inc.level_quality, "{what}: α/β/scheme per level");
    assert_eq!(fresh.measured_sc, inc.measured_sc, "{what}: measured_sc");
    assert_eq!(fresh.pass_cost, inc.pass_cost, "{what}: pass_cost");
    assert_eq!(fresh.repetitions, inc.repetitions, "{what}: repetitions");
    assert_eq!(fresh.fallbacks, inc.fallbacks, "{what}: fallbacks");
    let fresh_ledger: Vec<_> = fresh.ledger.breakdown().collect();
    let inc_ledger: Vec<_> = inc.ledger.breakdown().collect();
    assert_eq!(fresh_ledger, inc_ledger, "{what}: round ledger breakdown");
    assert_eq!(
        fresh.ledger.total_rounds(),
        inc.ledger.total_rounds(),
        "{what}: total rounds"
    );
}

/// The splitmix64 step: a cheap deterministic stream for shaping delta
/// batches out of one proptest-drawn seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }
}

/// One *valid* random batch against `g`: no duplicate deletes, no
/// reweight of an edge deleted earlier in the batch, no self-loop
/// inserts. (Validity is the generator's job — `invalid_batches_are_
/// rejected_atomically` in the unit suite covers the rejection side.)
fn random_batch(g: &Graph, rng: &mut Rng, len: usize, structural: bool) -> Vec<GraphDelta> {
    let mut touched = vec![false; g.m()];
    let mut batch = Vec::with_capacity(len);
    for _ in 0..len {
        let op = if structural { rng.below(3) } else { 0 };
        match op {
            0 => {
                let edge = EdgeId(rng.below(g.m()) as u32);
                if !touched[edge.index()] {
                    batch.push(GraphDelta::Reweight { edge, weight: 1 + rng.next() % 64 });
                }
            }
            1 => {
                let edge = EdgeId(rng.below(g.m()) as u32);
                if !touched[edge.index()] {
                    touched[edge.index()] = true;
                    batch.push(GraphDelta::Delete { edge });
                }
            }
            _ => {
                let u = rng.below(g.n());
                let v = rng.below(g.n());
                if u != v {
                    batch.push(GraphDelta::Insert {
                        u: VertexId(u as u32),
                        v: VertexId(v as u32),
                        weight: 1 + rng.next() % 64,
                    });
                }
            }
        }
    }
    batch
}

/// Applies one batch to the live instance and pins it against a fresh
/// solve of the independently-mutated graph. Both sides must agree on
/// solvability; on success every observable field matches and the
/// instance's graph and chained fingerprint equal the mutated graph's.
fn check_step(
    inst: &mut DynamicInstance,
    batch: &[GraphDelta],
    config: &ShortcutConfig,
    fresh_ws: &mut ShortcutWorkspace,
    what: &str,
) {
    let mutated = mutate(inst.graph(), batch).expect("generated batches are valid");
    let fresh = shortcut_two_ecss_with(&mutated, config, fresh_ws);
    let inc = inst.apply(batch, config);
    assert_eq!(inst.graph(), &mutated, "{what}: the mutation must commit either way");
    assert_eq!(
        inst.fingerprint(),
        graph_fingerprint(&mutated),
        "{what}: chained fingerprint"
    );
    match (fresh, inc) {
        (Ok(fresh), Ok((inc, _stats))) => assert_same(&fresh, &inc, what),
        (Err(_), Err(DeltaError::NotTwoEdgeConnected)) => {}
        (fresh, inc) => panic!(
            "{what}: solvability disagreement (fresh ok={}, incremental {:?})",
            fresh.is_ok(),
            inc.map(|_| ()),
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Randomized mixed sequences: four batches of inserts, deletes and
    /// reweights applied to one live instance. Steps that disconnect
    /// the graph are part of the contract — both sides must reject, and
    /// the *next* batch re-solves from the committed mutated graph.
    #[test]
    fn random_update_sequences_match_fresh(
        family in 0usize..FAMILIES.len(),
        n in 48usize..200,
        seed in 0u64..1000,
    ) {
        let config = ShortcutConfig::default();
        let g = instance(FAMILIES[family], n, seed);
        let mut inst = DynamicInstance::new(g);
        let mut ws = ShortcutWorkspace::default();
        let mut rng = Rng(seed ^ 0xD1DA);
        for step in 0..4 {
            let len = 1 + rng.below(5);
            let batch = random_batch(inst.graph(), &mut rng, len, true);
            check_step(&mut inst, &batch, &config, &mut ws, &format!("step {step}"));
        }
    }

    /// Reweight-only sequences: the path where the whole decomposition
    /// survives whenever the MST's edge set does. Fallbacks (a batch
    /// that flips the tree) are allowed — equality is not.
    #[test]
    fn reweight_only_sequences_match_fresh(
        family in 0usize..FAMILIES.len(),
        n in 48usize..200,
        seed in 0u64..1000,
    ) {
        let config = ShortcutConfig::default();
        let g = instance(FAMILIES[family], n, seed);
        let mut inst = DynamicInstance::new(g);
        let mut ws = ShortcutWorkspace::default();
        let mut rng = Rng(seed ^ 0x5EED);
        for step in 0..4 {
            let len = 1 + rng.below(8);
            let batch = random_batch(inst.graph(), &mut rng, len, false);
            check_step(&mut inst, &batch, &config, &mut ws, &format!("reweight step {step}"));
        }
    }

    /// Forced fallback: a zero-weight insert is the global minimum, so
    /// it always enters the MST, the tree's endpoint pairs change, and
    /// the engine must take the full-rebuild path — and still match.
    #[test]
    fn forced_fallbacks_still_match_fresh(
        family in 0usize..FAMILIES.len(),
        n in 48usize..160,
        seed in 0u64..1000,
    ) {
        let config = ShortcutConfig::default();
        let g = instance(FAMILIES[family], n, seed);
        let mut rng = Rng(seed ^ 0xFA11);
        let u = VertexId(rng.below(g.n()) as u32);
        let v = VertexId(((u.0 as usize + 1 + rng.below(g.n() - 1)) % g.n()) as u32);
        let batch = vec![GraphDelta::Insert { u, v, weight: 0 }];
        let mutated = mutate(&g, &batch).unwrap();
        let mut inst = DynamicInstance::new(g);
        let fresh = shortcut_two_ecss(&mutated, &config).expect("insert keeps 2EC");
        let (inc, stats) = inst.apply(&batch, &config).expect("insert keeps 2EC");
        prop_assert!(stats.fell_back, "a new global-minimum edge must flip the tree");
        assert_same(&fresh, &inc, "forced fallback");
    }

    /// One workspace across differently-sized instances, never cleared
    /// between solves (how a live `SolverSession` drives it): growth
    /// and epoch stamping must keep the dirty scratch invisible, so
    /// every whole-pipeline result equals a solve on a fresh workspace.
    #[test]
    fn dirty_workspace_reuse_matches_fresh(seed in 0u64..500) {
        let config = ShortcutConfig::default();
        let mut ws = ShortcutWorkspace::default();
        for (family, n) in [("outerplanar", 48usize), ("gnp", 96), ("grid", 144), ("hard-sqrt", 64)] {
            let g = instance(family, n, seed);
            let reused = shortcut_two_ecss_with(&g, &config, &mut ws).expect("2-edge-connected");
            let fresh = shortcut_two_ecss(&g, &config).expect("2-edge-connected");
            assert_same(&fresh, &reused, &format!("{family}/{n} on a dirty workspace"));
        }
    }
}

/// Disconnect-and-repair on every family: a batch that bridges the
/// graph must error exactly like a fresh solve, commit the mutation,
/// and let the repairing insert land back on byte-identical equality.
#[test]
fn disconnecting_batches_error_and_repair_like_fresh() {
    let config = ShortcutConfig::default();
    let mut ws = ShortcutWorkspace::default();
    for family in FAMILIES {
        let g = instance(family, 64, 11);
        // Delete every edge at vertex 0 except its first port: vertex 0
        // becomes degree-1, so the mutated graph cannot be 2EC.
        let cut: Vec<GraphDelta> = g
            .edge_ids()
            .filter(|&e| {
                let edge = g.edge(e);
                edge.u == VertexId(0) || edge.v == VertexId(0)
            })
            .skip(1)
            .map(|edge| GraphDelta::Delete { edge })
            .collect();
        assert!(!cut.is_empty(), "{family}: vertex 0 must have degree >= 2");
        let mut inst = DynamicInstance::new(g);
        check_step(&mut inst, &cut, &config, &mut ws, &format!("{family}: cut"));
        // Repair: ring vertex 0 back in with two fresh parallel routes.
        let n = inst.graph().n() as u32;
        let repair = vec![
            GraphDelta::Insert { u: VertexId(0), v: VertexId(n / 2), weight: 3 },
            GraphDelta::Insert { u: VertexId(0), v: VertexId(n - 1), weight: 5 },
        ];
        check_step(&mut inst, &repair, &config, &mut ws, &format!("{family}: repair"));
    }
}

/// The headline sizes (release-CI only): long mixed sequences at
/// n = 2048 on every family, where the per-part dirty accounting and
/// the damage threshold actually engage.
#[test]
#[ignore = "large instance; run in release CI via --include-ignored"]
fn random_update_sequences_match_fresh_at_2048() {
    let config = ShortcutConfig::default();
    let mut ws = ShortcutWorkspace::default();
    for family in FAMILIES {
        let g = instance(family, 2048, 7);
        let mut inst = DynamicInstance::new(g);
        let mut rng = Rng(0x2048 ^ family.len() as u64);
        for (step, len) in [1usize, 16, 64, 16, 1].into_iter().enumerate() {
            let batch = random_batch(inst.graph(), &mut rng, len, true);
            check_step(&mut inst, &batch, &config, &mut ws, &format!("{family} step {step}"));
        }
    }
}
