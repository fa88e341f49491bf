//! The parity suite: every registry solver is pinned **byte-identical**
//! (same edge ids in the same order, same weights, same certified-ratio
//! bits) to the legacy free-function entry point it wraps — the unified
//! API is a facade, not a fork. One `SolverSession` is reused across
//! every instance and algorithm, so the suite also continuously
//! exercises dirty-scratch reuse; the dedicated dirty-session tests pin
//! it explicitly.

use decss_baselines::{cheapest_cover_tap, exact_two_ecss, greedy_tap};
use decss_core::{approximate_two_ecss, TapConfig, TwoEcssConfig, Variant};
use decss_graphs::{gen, EdgeId, Graph, Weight};
use decss_shortcuts::{shortcut_two_ecss, ShortcutConfig};
use decss_solver::{certified_ratio, SolveReport, SolveRequest, SolverSession};
use decss_tree::RootedTree;
use proptest::prelude::*;
use std::convert::Infallible;

const FAMILIES: [&str; 5] = ["sparse", "grid", "outerplanar", "hard-sqrt", "lollipop"];

fn instance(family: &str, n: usize, seed: u64) -> Graph {
    match family {
        "sparse" => gen::sparse_two_ec(n, n.div_ceil(2), 48, seed),
        "grid" => {
            let side = (n as f64).sqrt().ceil() as usize;
            gen::grid(side, side.max(2), 48, seed)
        }
        "outerplanar" => gen::outerplanar_disk(n.max(3), 1.0, 48, seed),
        "hard-sqrt" => gen::hard_sqrt_two_ec(n.max(16), 48, seed),
        "lollipop" => gen::instance(gen::Family::Lollipop, n, 48, seed),
        other => unreachable!("unknown family {other}"),
    }
}

fn mst_plus(g: &Graph, tree: &RootedTree, aug: &[EdgeId]) -> (Vec<EdgeId>, Weight) {
    let mut edges: Vec<EdgeId> = g.edge_ids().filter(|&e| tree.is_tree_edge(e)).collect();
    let mst_weight = g.weight_of(edges.iter().copied());
    edges.extend(aug.iter().copied());
    edges.sort_unstable();
    (edges, mst_weight)
}

/// Byte-identical: edges in order, weight, and the exact ratio bits.
fn assert_pinned(report: &SolveReport, edges: &[EdgeId], weight: Weight, ratio: f64, what: &str) {
    assert_eq!(report.edges, edges, "{what}: edge set/order");
    assert_eq!(report.weight, weight, "{what}: weight");
    assert_eq!(
        report.certified_ratio().to_bits(),
        ratio.to_bits(),
        "{what}: certified ratio bits ({} vs {ratio})",
        report.certified_ratio()
    );
    assert!(report.valid, "{what}: session must verify the output");
}

/// Runs every registry solver on `g` through `session` and pins each to
/// its legacy entry point.
fn assert_registry_parity(g: &Graph, session: &mut SolverSession, what: &str) {
    // improved / basic — `decss_core::approximate_two_ecss`.
    for (name, variant) in [("improved", Variant::Improved), ("basic", Variant::Basic)] {
        let legacy =
            approximate_two_ecss(g, &TwoEcssConfig { tap: TapConfig { epsilon: 0.25, variant } })
                .expect("2EC instance");
        let report = session.solve(g, &SolveRequest::new(name)).expect("2EC instance");
        assert_pinned(
            &report,
            &legacy.edges,
            legacy.total_weight(),
            legacy.certified_ratio(),
            &format!("{what}/{name}"),
        );
    }

    // shortcut — `decss_shortcuts::shortcut_two_ecss`.
    let legacy = shortcut_two_ecss(g, &ShortcutConfig::default()).expect("2EC instance");
    let report = session
        .solve(g, &SolveRequest::new("shortcut"))
        .expect("2EC instance");
    assert_pinned(
        &report,
        &legacy.edges,
        legacy.total_weight(),
        legacy.certified_ratio(),
        &format!("{what}/shortcut"),
    );
    assert_eq!(report.measured_sc, Some(legacy.measured_sc), "{what}/shortcut: SC");
    assert_eq!(report.level_quality, legacy.level_quality, "{what}/shortcut: levels");

    // greedy / cheapest-cover / unweighted — MST + the baseline TAP.
    let tree = RootedTree::mst(g);
    let (aug, aug_w) = greedy_tap(g, &tree, || Ok::<_, Infallible>(()))
        .expect("the poll never fails")
        .expect("2EC instance");
    let (edges, mst_w) = mst_plus(g, &tree, &aug);
    let report = session.solve(g, &SolveRequest::new("greedy")).expect("2EC instance");
    assert_pinned(
        &report,
        &edges,
        mst_w + aug_w,
        certified_ratio((mst_w + aug_w) as f64, mst_w as f64),
        &format!("{what}/greedy"),
    );

    let (aug, aug_w) = cheapest_cover_tap(g, &tree).expect("2EC instance");
    let (edges, _) = mst_plus(g, &tree, &aug);
    let report = session
        .solve(g, &SolveRequest::new("cheapest-cover"))
        .expect("2EC instance");
    assert_pinned(
        &report,
        &edges,
        mst_w + aug_w,
        certified_ratio((mst_w + aug_w) as f64, mst_w as f64),
        &format!("{what}/cheapest-cover"),
    );

    let legacy = decss_core::algorithm::approximate_tap_unweighted(g, &tree).expect("2EC");
    let (edges, _) = mst_plus(g, &tree, &legacy.augmentation);
    let report = session
        .solve(g, &SolveRequest::new("unweighted"))
        .expect("2EC instance");
    assert_pinned(
        &report,
        &edges,
        mst_w + legacy.weight,
        certified_ratio(
            (mst_w + legacy.weight) as f64,
            (mst_w as f64).max(legacy.dual_lower_bound),
        ),
        &format!("{what}/unweighted"),
    );

    // exact — `decss_baselines::exact_two_ecss` (tiny instances only).
    if g.m() <= decss_baselines::exact_ecss::MAX_EDGES {
        let (edges, weight) = exact_two_ecss(g).expect("2EC instance");
        let report = session.solve(g, &SolveRequest::new("exact")).expect("2EC instance");
        assert_pinned(&report, &edges, weight, 1.0, &format!("{what}/exact"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Every registry solver, every family, one long-lived session.
    #[test]
    fn registry_matches_legacy_entry_points(
        family in 0usize..FAMILIES.len(),
        n in 24usize..72,
        seed in 0u64..1000,
    ) {
        let g = instance(FAMILIES[family], n, seed);
        let mut session = SolverSession::new();
        assert_registry_parity(&g, &mut session, FAMILIES[family]);
    }

    /// Dirty-session proptest: two consecutive solves on *different*
    /// graphs through one session match fresh-session solves exactly
    /// (the epoch-stamped scratch must not leak state across solves).
    #[test]
    fn dirty_session_matches_fresh_session(seed in 0u64..500) {
        let small = instance("outerplanar", 32, seed);
        let big = instance("grid", 100, seed.wrapping_add(1));
        let mut dirty = SolverSession::new();
        for algorithm in ["shortcut", "improved", "greedy"] {
            // Grow the scratch on `big`, then solve `small` with the
            // oversized dirty buffers, then `big` again.
            let b1 = dirty.solve(&big, &SolveRequest::new(algorithm)).expect("2EC");
            let s1 = dirty.solve(&small, &SolveRequest::new(algorithm)).expect("2EC");
            let b2 = dirty.solve(&big, &SolveRequest::new(algorithm)).expect("2EC");

            let mut fresh = SolverSession::new();
            let fb = fresh.solve(&big, &SolveRequest::new(algorithm)).expect("2EC");
            let fs = fresh.solve(&small, &SolveRequest::new(algorithm)).expect("2EC");

            for (got, want, what) in [(&b1, &fb, "big/1st"), (&s1, &fs, "small"), (&b2, &fb, "big/2nd")] {
                assert_pinned(got, &want.edges, want.weight, want.certified_ratio(),
                    &format!("{algorithm} dirty-session {what}"));
            }
        }
    }
}

/// The tiny-instance exact-solver path, deterministically covered (the
/// proptest families above are usually too big for it).
#[test]
fn exact_parity_on_tiny_instances() {
    let mut session = SolverSession::new();
    for seed in 0..6 {
        let g = gen::sparse_two_ec(8, 3, 12, seed);
        if g.m() > decss_baselines::exact_ecss::MAX_EDGES {
            continue;
        }
        let (edges, weight) = exact_two_ecss(&g).expect("2EC");
        let report = session.solve(&g, &SolveRequest::new("exact")).expect("2EC");
        assert_pinned(&report, &edges, weight, 1.0, "tiny/exact");
        assert_eq!(report.guarantee, Some(1.0));
    }
}

/// Two consecutive solves on different graphs through one session — the
/// issue's named dirty-session case, deterministic.
#[test]
fn dirty_session_two_graphs_deterministic() {
    let g1 = instance("hard-sqrt", 64, 3);
    let g2 = instance("outerplanar", 40, 4);
    let mut session = SolverSession::new();
    let r1 = session.solve(&g1, &SolveRequest::new("shortcut")).expect("2EC");
    let r2 = session.solve(&g2, &SolveRequest::new("shortcut")).expect("2EC");

    let l1 = shortcut_two_ecss(&g1, &ShortcutConfig::default()).expect("2EC");
    let l2 = shortcut_two_ecss(&g2, &ShortcutConfig::default()).expect("2EC");
    assert_pinned(
        &r1,
        &l1.edges,
        l1.total_weight(),
        l1.certified_ratio(),
        "session graph 1",
    );
    assert_pinned(
        &r2,
        &l2.edges,
        l2.total_weight(),
        l2.certified_ratio(),
        "session graph 2",
    );
}
