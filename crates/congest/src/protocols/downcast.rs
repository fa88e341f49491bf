//! Pipelined downcast: the root pushes `k` items to every vertex, one
//! item per edge per round — `depth + k + O(1)` rounds.
//!
//! Together with [`super::pipeline`] (the upward direction) this is the
//! communication pattern behind Claim 4.4: all vertices learn one
//! `O(log n)`-word record per segment by pipelining the `O(√n)` records
//! down the BFS tree.

use crate::message::Message;
use crate::metrics::SimReport;
use crate::network::{Network, NodeLogic, RoundCtx};
use crate::protocols::broadcast::TreeOverlay;
use decss_graphs::{EdgeId, Graph, VertexId};

const TAG_DOWN: u8 = 7;

struct DownNode {
    children: Vec<(EdgeId, VertexId)>,
    /// Items still to forward, in order.
    queue: std::collections::VecDeque<u64>,
    received: Vec<u64>,
}

impl NodeLogic for DownNode {
    fn on_round(&mut self, ctx: &mut RoundCtx<'_>) {
        for (_, _, msg) in ctx.inbox {
            debug_assert_eq!(msg.tag, TAG_DOWN);
            self.received.push(msg.words[0]);
            self.queue.push_back(msg.words[0]);
        }
        if let Some(item) = self.queue.pop_front() {
            for &(e, c) in &self.children.clone() {
                ctx.send(e, c, Message::new(TAG_DOWN, [item]));
            }
        }
    }

    fn wants_tick(&self) -> bool {
        !self.queue.is_empty()
    }
}

/// Pushes `items` from the overlay root to every vertex, pipelined.
///
/// Returns the per-vertex received sequences (all must equal `items`)
/// and the metrics.
pub fn downcast_items(
    g: &Graph,
    overlay: &TreeOverlay,
    items: &[u64],
) -> (Vec<Vec<u64>>, SimReport) {
    let mut net = Network::new(g, |v| DownNode {
        children: overlay.children[v.index()].clone(),
        queue: if v == overlay.root {
            items.iter().copied().collect()
        } else {
            Default::default()
        },
        received: if v == overlay.root {
            items.to_vec()
        } else {
            Vec::new()
        },
    });
    let report = net.run((2 * g.n() + 2 * items.len() + 8) as u64);
    let received = net.nodes().map(|(_, n)| n.received.clone()).collect();
    (received, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use decss_graphs::{algo, gen};

    #[test]
    fn everyone_receives_everything_in_order() {
        let g = gen::grid(4, 5, 10, 0);
        let mst = algo::minimum_spanning_tree(&g).unwrap();
        let overlay = TreeOverlay::from_edges(&g, VertexId(0), &mst);
        let items: Vec<u64> = (100..112).collect();
        let (received, _) = downcast_items(&g, &overlay, &items);
        for (v, seq) in received.iter().enumerate() {
            assert_eq!(seq, &items, "vertex {v}");
        }
    }

    #[test]
    fn downcast_is_pipelined() {
        // On a path of length L with k items: about L + k rounds, not L*k.
        let g = gen::path(40);
        let overlay = TreeOverlay::from_edges(&g, VertexId(0), &g.edge_ids().collect::<Vec<_>>());
        let items: Vec<u64> = (0..25).collect();
        let (received, report) = downcast_items(&g, &overlay, &items);
        assert!(received.iter().all(|seq| seq.len() == 25));
        assert!(
            report.rounds <= (39 + 25 + 4) as u64,
            "rounds = {} not pipelined",
            report.rounds
        );
    }

    #[test]
    fn empty_downcast_quiesces() {
        let g = gen::cycle(5, 1, 0);
        let mst = algo::minimum_spanning_tree(&g).unwrap();
        let overlay = TreeOverlay::from_edges(&g, VertexId(0), &mst);
        let (_, report) = downcast_items(&g, &overlay, &[]);
        assert!(report.rounds <= 2);
    }
}
