//! Ledger-vs-simulator calibration. The pipelines compute their answers
//! centrally and charge each communication primitive to a round ledger
//! by formula; that is sound only while the formulas track genuine
//! message-level executions on the same instances, which these tests
//! check.

use decss::congest::ledger::CostParams;
use decss::congest::protocols::{bfs, boruvka, broadcast, convergecast, pipeline};
use decss::graphs::{algo, gen, VertexId};
use decss::tree::{EulerTour, RootedTree, SegmentDecomposition};

fn params_for(g: &decss::graphs::Graph) -> (CostParams, RootedTree) {
    let tree = RootedTree::mst(g);
    let euler = EulerTour::new(&tree);
    let segs = SegmentDecomposition::new(&tree, &euler);
    let p = CostParams {
        n: g.n(),
        bfs_depth: algo::bfs_tree(g, VertexId(0)).depth(),
        num_segments: segs.len(),
        max_segment_diameter: segs.max_diameter(),
    };
    (p, tree)
}

#[test]
fn bfs_simulation_within_ledger_budget() {
    for seed in 0..4 {
        let g = gen::gnp_two_ec(60, 0.06, 20, seed);
        let (p, _) = params_for(&g);
        let (tree, report) = bfs::distributed_bfs(&g, VertexId(0));
        assert!(tree.spans_all());
        // The ledger charges 2*depth per broadcast; a BFS wave needs
        // depth + O(1) rounds.
        assert!(
            report.rounds <= p.broadcast() + 2,
            "seed {seed}: BFS took {} rounds vs budget {}",
            report.rounds,
            p.broadcast()
        );
    }
}

#[test]
fn tree_aggregation_within_ledger_budget() {
    let g = gen::grid(7, 7, 20, 1);
    let (p, tree) = params_for(&g);
    let mst_edges: Vec<_> = g.edge_ids().filter(|&e| tree.is_tree_edge(e)).collect();
    let overlay = broadcast::TreeOverlay::from_edges(&g, VertexId(0), &mst_edges);
    let (_, bc) = broadcast::broadcast(&g, &overlay, 7);
    let values = vec![1u64; g.n()];
    let (total, cc) = convergecast::convergecast(&g, &overlay, &values, convergecast::Agg::Sum);
    assert_eq!(total, g.n() as u64);
    // One broadcast + one convergecast over the MST is at most the
    // aggregate budget (which also includes segment scans + pipelining).
    assert!(bc.rounds + cc.rounds <= p.aggregate() + 4);
}

#[test]
fn per_segment_pipelining_within_budget() {
    let g = gen::gnp_two_ec(100, 0.04, 20, 2);
    let (p, tree) = params_for(&g);
    let euler = EulerTour::new(&tree);
    let segs = SegmentDecomposition::new(&tree, &euler);
    // The ledger's per-segment-broadcast formula (2*bfs_depth + #segments)
    // models pipelining over the *BFS tree*, as in Claim 4.4 — the MST can
    // be arbitrarily deeper, so it is not a valid overlay for this budget.
    let bfs_edges: Vec<_> = algo::bfs_tree(&g, VertexId(0)).tree_edges().collect();
    let overlay = broadcast::TreeOverlay::from_edges(&g, VertexId(0), &bfs_edges);
    // One item per segment, emitted at each segment's descendant — the
    // Claim 4.4 pattern.
    let mut items: Vec<Vec<u64>> = vec![Vec::new(); g.n()];
    for (i, seg) in segs.segments().iter().enumerate() {
        items[seg.descendant.index()].push(i as u64);
    }
    let (collected, report) = pipeline::collect_items(&g, &overlay, &items);
    assert_eq!(collected.len(), segs.len());
    assert!(
        report.rounds <= p.per_segment_broadcast() + 4,
        "pipeline took {} vs budget {}",
        report.rounds,
        p.per_segment_broadcast()
    );
}

#[test]
fn parallel_segment_scans_within_budget() {
    // The message-level per-segment convergecast over the *real* segment
    // decomposition must finish within the ledger's segment-scan budget
    // (max segment diameter plus constant) and agree with naive sums.
    use decss::congest::protocols::convergecast::Agg;
    use decss::congest::protocols::segment_scan::segment_convergecast;
    for seed in 0..3 {
        let g = gen::gnp_two_ec(120, 0.04, 30, seed);
        let tree = RootedTree::mst(&g);
        let euler = EulerTour::new(&tree);
        let segs = SegmentDecomposition::new(&tree, &euler);
        let n = g.n();
        let parent: Vec<Option<VertexId>> =
            (0..n).map(|v| tree.parent(VertexId(v as u32))).collect();
        let parent_edge = (0..n)
            .map(|v| tree.parent_edge(VertexId(v as u32)))
            .collect::<Vec<_>>();
        let seg_of: Vec<u32> = (0..n)
            .map(|v| {
                let v = VertexId(v as u32);
                if tree.parent(v).is_none() {
                    u32::MAX
                } else {
                    segs.segment_of_edge(v).0
                }
            })
            .collect();
        let values: Vec<u64> = (0..n as u64).map(|i| i % 23).collect();
        let (results, report) =
            segment_convergecast(&g, &parent, &parent_edge, &seg_of, &values, Agg::Sum);
        // Agreement with naive per-segment sums.
        for (i, seg) in segs.segments().iter().enumerate() {
            let expect: u64 = seg.edges.iter().map(|v| values[v.index()]).sum();
            assert_eq!(results.get(&(i as u32)).copied().unwrap_or(0), expect, "seed {seed}");
        }
        // Rounds within the ledger's segment-scan budget.
        assert!(
            report.rounds <= segs.max_diameter() as u64 + 3,
            "seed {seed}: {} rounds vs max segment diameter {}",
            report.rounds,
            segs.max_diameter()
        );
        // And far below the tree height when the tree is stringy.
        let height = g.vertices().map(|v| tree.depth(v)).max().unwrap() as u64;
        assert!(report.rounds <= height.max(segs.max_diameter() as u64) + 3);
    }
}

#[test]
fn boruvka_agrees_with_the_logical_mst() {
    for seed in 0..3 {
        let g = gen::gnp_two_ec(24, 0.15, 100_000, seed);
        let (dist, report) = boruvka::distributed_mst(&g);
        let oracle = algo::minimum_spanning_tree(&g).unwrap();
        assert_eq!(dist, oracle, "seed {seed}");
        assert!(report.rounds > 0);
        // Bandwidth discipline held throughout.
        assert!(report.max_edge_load <= decss::congest::DEFAULT_BANDWIDTH as u64);
    }
}
