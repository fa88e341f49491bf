//! Distributed BFS-tree construction by flooding.
//!
//! The root starts a wave; every vertex adopts the first sender as its
//! parent and forwards the wave. Takes `depth + O(1)` rounds.

use crate::message::Message;
use crate::metrics::SimReport;
use crate::network::{Network, NodeLogic, RoundCtx};
use decss_graphs::algo::BfsTree;
use decss_graphs::{EdgeId, Graph, VertexId};

const TAG_WAVE: u8 = 1;

struct BfsNode {
    is_root: bool,
    dist: Option<u32>,
    parent: Option<VertexId>,
    parent_edge: Option<EdgeId>,
}

impl NodeLogic for BfsNode {
    fn on_round(&mut self, ctx: &mut RoundCtx<'_>) {
        if ctx.round == 0 && self.is_root {
            self.dist = Some(0);
            ctx.send_all(&Message::new(TAG_WAVE, [0]));
            return;
        }
        if self.dist.is_some() {
            return;
        }
        // Adopt the first wave heard; ties broken by port order, which is
        // deterministic.
        if let Some(&(e, from, ref msg)) = ctx.inbox.first() {
            debug_assert_eq!(msg.tag, TAG_WAVE);
            let d = msg.words[0] as u32 + 1;
            self.dist = Some(d);
            self.parent = Some(from);
            self.parent_edge = Some(e);
            ctx.send_all(&Message::new(TAG_WAVE, [d as u64]));
        }
    }
}

/// Builds a BFS tree from `root` by message passing.
///
/// Returns the tree and the simulation metrics. The tree's hop distances
/// equal the centralized oracle's (asserted in tests), though parent
/// choices may differ among equal-distance candidates.
pub fn distributed_bfs(g: &Graph, root: VertexId) -> (BfsTree, SimReport) {
    let mut net = Network::new(g, |v| BfsNode {
        is_root: v == root,
        dist: None,
        parent: None,
        parent_edge: None,
    });
    let report = net.run(2 * g.n() as u64 + 4);
    let mut parent = vec![None; g.n()];
    let mut parent_edge = vec![None; g.n()];
    let mut dist = vec![None; g.n()];
    for (v, node) in net.nodes() {
        parent[v.index()] = node.parent;
        parent_edge[v.index()] = node.parent_edge;
        dist[v.index()] = node.dist;
    }
    (BfsTree { root, parent, parent_edge, dist }, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use decss_graphs::{algo, gen};

    #[test]
    fn distributed_bfs_matches_oracle_distances() {
        let g = gen::gnp_two_ec(40, 0.08, 30, 5);
        let (tree, _) = distributed_bfs(&g, VertexId(3));
        let oracle = algo::bfs_distances(&g, VertexId(3));
        assert_eq!(tree.dist, oracle);
        assert!(tree.spans_all());
    }

    #[test]
    fn distributed_bfs_rounds_track_depth() {
        let g = gen::cycle(64, 1, 0);
        let (tree, report) = distributed_bfs(&g, VertexId(0));
        assert_eq!(tree.depth(), 32);
        // Wave: depth rounds of propagation + constant overhead.
        assert!(
            report.rounds >= 32 && report.rounds <= 36,
            "rounds = {}",
            report.rounds
        );
    }

    #[test]
    fn bfs_respects_bandwidth() {
        let g = gen::complete(12, 5, 1);
        let (_, report) = distributed_bfs(&g, VertexId(0));
        assert!(report.max_edge_load <= crate::message::DEFAULT_BANDWIDTH as u64);
    }
}
