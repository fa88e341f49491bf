//! Pipelined collection of many items to the overlay root.
//!
//! Each vertex holds a list of `O(log n)`-bit items; the root must learn
//! all of them. One item crosses each tree edge per round, so the run
//! takes `depth + k + O(1)` rounds for `k` total items — the pipelining
//! pattern behind Claim 4.4's "learn one value per segment" step.

use crate::message::Message;
use crate::metrics::SimReport;
use crate::network::{Network, NodeLogic, RoundCtx};
use crate::protocols::broadcast::TreeOverlay;
use decss_graphs::{EdgeId, Graph, VertexId};

const TAG_ITEM: u8 = 4;

struct PipeNode {
    parent: Option<(EdgeId, VertexId)>,
    queue: std::collections::VecDeque<u64>,
    collected: Vec<u64>,
    is_root: bool,
}

impl NodeLogic for PipeNode {
    fn on_round(&mut self, ctx: &mut RoundCtx<'_>) {
        for (_, _, msg) in ctx.inbox {
            debug_assert_eq!(msg.tag, TAG_ITEM);
            if self.is_root {
                self.collected.push(msg.words[0]);
            } else {
                self.queue.push_back(msg.words[0]);
            }
        }
        if let Some((e, p)) = self.parent {
            if let Some(item) = self.queue.pop_front() {
                ctx.send(e, p, Message::new(TAG_ITEM, [item]));
            }
        }
    }

    fn wants_tick(&self) -> bool {
        !self.queue.is_empty()
    }
}

/// Collects all items of all vertices at the overlay root, one item per
/// edge per round.
///
/// Returns the collected items (sorted, since arrival order is a
/// scheduling artifact) and the metrics.
pub fn collect_items(
    g: &Graph,
    overlay: &TreeOverlay,
    items: &[Vec<u64>],
) -> (Vec<u64>, SimReport) {
    assert_eq!(items.len(), g.n(), "one item list per vertex");
    let total: usize = items.iter().map(|v| v.len()).sum();
    let mut net = Network::new(g, |v| {
        let is_root = v == overlay.root;
        PipeNode {
            parent: overlay.parent[v.index()],
            // The root's own items are collected directly; everyone else
            // queues theirs for upward forwarding.
            queue: if is_root {
                Default::default()
            } else {
                items[v.index()].iter().copied().collect()
            },
            collected: if is_root {
                items[v.index()].clone()
            } else {
                Vec::new()
            },
            is_root,
        }
    });
    let report = net.run((2 * g.n() + 2 * total + 8) as u64);
    let mut collected = net.node(overlay.root).collected.clone();
    collected.sort_unstable();
    (collected, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use decss_graphs::{algo, gen};

    fn overlay_of(g: &Graph) -> TreeOverlay {
        let mst = algo::minimum_spanning_tree(g).unwrap();
        TreeOverlay::from_edges(g, VertexId(0), &mst)
    }

    #[test]
    fn collects_everything() {
        let g = gen::grid(4, 4, 10, 1);
        let overlay = overlay_of(&g);
        let items: Vec<Vec<u64>> =
            (0..g.n()).map(|v| vec![v as u64 * 10, v as u64 * 10 + 1]).collect();
        let mut expected: Vec<u64> = items.iter().flatten().copied().collect();
        expected.sort_unstable();
        let (got, _) = collect_items(&g, &overlay, &items);
        assert_eq!(got, expected);
    }

    #[test]
    fn pipelining_beats_sequential() {
        // On a path of length L with k items at the far end, rounds must
        // be about L + k, not L * k.
        let g = gen::path(30);
        let overlay = TreeOverlay::from_edges(&g, VertexId(0), &g.edge_ids().collect::<Vec<_>>());
        let k = 20usize;
        let mut items: Vec<Vec<u64>> = vec![Vec::new(); g.n()];
        items[29] = (0..k as u64).collect();
        let (got, report) = collect_items(&g, &overlay, &items);
        assert_eq!(got.len(), k);
        assert!(
            report.rounds <= (29 + k + 4) as u64,
            "rounds = {} not pipelined",
            report.rounds
        );
    }

    #[test]
    fn empty_items_quiesce_fast() {
        let g = gen::cycle(6, 1, 0);
        let overlay = overlay_of(&g);
        let items = vec![Vec::new(); g.n()];
        let (got, report) = collect_items(&g, &overlay, &items);
        assert!(got.is_empty());
        assert!(report.rounds <= 2);
    }
}
