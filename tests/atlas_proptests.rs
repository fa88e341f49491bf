//! Property-based pins on the workload atlas: every family must emit a
//! 2-edge-connected graph for *every* `(n, seed)` the generator
//! accepts, the output must be a pure function of its parameters, and
//! the fingerprint must see through edge-id order (so cache keys agree
//! on atlas instances no matter which path built them).

use decss::graphs::fingerprint::graph_fingerprint;
use decss::graphs::{algo, gen, GraphBuilder};
use proptest::prelude::*;

fn any_family() -> impl Strategy<Value = gen::AtlasFamily> {
    (0usize..gen::ATLAS_ALL.len()).prop_map(|i| gen::ATLAS_ALL[i])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every atlas family, at every accepted size and seed, is simple,
    /// connected, and bridgeless — the contract the solvers assume.
    #[test]
    fn atlas_families_are_always_two_edge_connected(
        family in any_family(),
        n in 64usize..200,
        seed in 0u64..1_000,
    ) {
        let g = family.instance(n, 32, seed);
        // RoadMesh rounds to a rows*cols grid and Adversarial to whole
        // gadgets, so the realised size may undershoot slightly — but
        // never collapse.
        prop_assert!(g.n() >= n.saturating_sub(n / 3), "{family:?} shrank too far: {}", g.n());
        prop_assert!(
            algo::is_two_edge_connected(&g),
            "{family:?} n={n} seed={seed} is not 2EC"
        );
    }

    /// Generators are pure functions of `(n, max_weight, seed)`: two
    /// calls fingerprint identically, and a different seed gives a
    /// different graph (collisions at these sizes would mean the seed
    /// is being ignored).
    #[test]
    fn atlas_families_are_seed_deterministic(
        family in any_family(),
        n in 64usize..160,
        seed in 0u64..1_000,
    ) {
        let a = graph_fingerprint(&family.instance(n, 32, seed));
        let b = graph_fingerprint(&family.instance(n, 32, seed));
        prop_assert_eq!(a, b, "{:?} is not deterministic", family);
        let c = graph_fingerprint(&family.instance(n, 32, seed.wrapping_add(1)));
        prop_assert_ne!(a, c, "{:?} ignores its seed", family);
    }

    /// The fingerprint that keys caches is independent of edge
    /// insertion order: rebuilding an atlas instance with its edge list
    /// reversed fingerprints identically.
    #[test]
    fn atlas_fingerprints_ignore_edge_order(
        family in any_family(),
        n in 64usize..128,
        seed in 0u64..200,
    ) {
        let g = family.instance(n, 32, seed);
        let mut rebuilt = GraphBuilder::new(g.n());
        for id in (0..g.m()).rev() {
            let e = g.edge(decss::graphs::EdgeId(id as u32));
            rebuilt
                .add_edge(e.u.index() as u32, e.v.index() as u32, e.weight)
                .expect("edges re-add cleanly");
        }
        let rebuilt = rebuilt.build().expect("rebuild succeeds");
        prop_assert_eq!(
            graph_fingerprint(&g),
            graph_fingerprint(&rebuilt),
            "{:?} fingerprint depends on edge order", family
        );
    }

    /// The skip-sampled G(n, p) generator honours the same contract:
    /// always 2EC, always deterministic per seed.
    #[test]
    fn gnp_skip_is_two_ec_and_deterministic(
        n in 8usize..120,
        seed in 0u64..1_000,
    ) {
        let p = 2.0 / n as f64;
        let g = gen::gnp_two_ec_skip(n, p, 32, seed);
        prop_assert!(algo::is_two_edge_connected(&g));
        let again = gen::gnp_two_ec_skip(n, p, 32, seed);
        prop_assert_eq!(graph_fingerprint(&g), graph_fingerprint(&again));
    }
}

/// Exact fingerprint pins: these values must never drift, because
/// committed trace files and warm-state snapshots key on them. A failure
/// here means a generator's RNG stream changed — which silently
/// invalidates every committed fixture.
#[test]
fn atlas_fingerprints_are_pinned() {
    let pins: Vec<(String, u64)> = gen::ATLAS_ALL
        .iter()
        .map(|f| (f.label().to_string(), graph_fingerprint(&f.instance(96, 32, 7))))
        .collect();
    let rendered = pins
        .iter()
        .map(|(l, fp)| format!("{l}:{fp:#018x}"))
        .collect::<Vec<_>>()
        .join(", ");
    assert_eq!(
        rendered,
        "powerlaw:0x9bf5d77080d10bbc, roadmesh:0xba9719768e9270ad, \
         expander:0x687d7585be4ca7ec, nearclique:0xb795d3b1332b83cb, \
         adversarial:0xc50ac39554905438",
        "atlas RNG streams drifted — committed traces/fixtures are stale"
    );
    assert_eq!(
        graph_fingerprint(&gen::gnp_two_ec_skip(200, 0.03, 32, 7)),
        0xdf7a588291cc0f76,
        "gnp_two_ec_skip RNG stream drifted"
    );
}
