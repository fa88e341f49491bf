//! Convergecast: aggregating one word from every vertex to the overlay
//! root, combining along the way. Takes `depth + O(1)` rounds.

use crate::message::Message;
use crate::metrics::SimReport;
use crate::network::{Network, NodeLogic, RoundCtx};
use crate::protocols::broadcast::TreeOverlay;
use decss_graphs::{EdgeId, Graph, VertexId};

/// The commutative, associative combine operations a convergecast can use.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Agg {
    /// Wrapping sum.
    Sum,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Bitwise XOR (used by the Lemma 5.4 cover test).
    Xor,
}

impl Agg {
    /// Applies the operation.
    pub fn combine(self, a: u64, b: u64) -> u64 {
        match self {
            Agg::Sum => a.wrapping_add(b),
            Agg::Min => a.min(b),
            Agg::Max => a.max(b),
            Agg::Xor => a ^ b,
        }
    }

    /// The identity element.
    pub fn identity(self) -> u64 {
        match self {
            Agg::Sum | Agg::Xor => 0,
            Agg::Min => u64::MAX,
            Agg::Max => 0,
        }
    }
}

const TAG_UP: u8 = 3;

struct CcNode {
    parent: Option<(EdgeId, VertexId)>,
    pending_children: usize,
    acc: u64,
    op: Agg,
    sent: bool,
}

impl NodeLogic for CcNode {
    fn on_round(&mut self, ctx: &mut RoundCtx<'_>) {
        for (_, _, msg) in ctx.inbox {
            debug_assert_eq!(msg.tag, TAG_UP);
            self.acc = self.op.combine(self.acc, msg.words[0]);
            self.pending_children -= 1;
        }
        if !self.sent && self.pending_children == 0 {
            self.sent = true;
            if let Some((e, p)) = self.parent {
                ctx.send(e, p, Message::new(TAG_UP, [self.acc]));
            }
        }
    }
}

/// Aggregates `values[v]` over all vertices to the overlay root with `op`.
///
/// Returns the aggregate and the metrics.
pub fn convergecast(g: &Graph, overlay: &TreeOverlay, values: &[u64], op: Agg) -> (u64, SimReport) {
    assert_eq!(values.len(), g.n(), "one value per vertex");
    let mut net = Network::new(g, |v| CcNode {
        parent: overlay.parent[v.index()],
        pending_children: overlay.children[v.index()].len(),
        acc: values[v.index()],
        op,
        sent: false,
    });
    let report = net.run(2 * g.n() as u64 + 4);
    (net.node(overlay.root).acc, report)
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
    fn sum_over_grid() {
        let g = gen::grid(4, 6, 10, 1);
        let overlay = overlay_of(&g);
        let values: Vec<u64> = (0..g.n() as u64).collect();
        let (total, report) = convergecast(&g, &overlay, &values, Agg::Sum);
        assert_eq!(total, (0..g.n() as u64).sum());
        assert!(report.rounds as u32 <= overlay.depth() + 2);
    }

    #[test]
    fn min_max_xor() {
        let g = gen::cycle(9, 5, 3);
        let overlay = overlay_of(&g);
        let values: Vec<u64> = (0..9u64).map(|i| i * 7 % 11).collect();
        let (mn, _) = convergecast(&g, &overlay, &values, Agg::Min);
        let (mx, _) = convergecast(&g, &overlay, &values, Agg::Max);
        let (xr, _) = convergecast(&g, &overlay, &values, Agg::Xor);
        assert_eq!(mn, *values.iter().min().unwrap());
        assert_eq!(mx, *values.iter().max().unwrap());
        assert_eq!(xr, values.iter().fold(0, |a, &b| a ^ b));
    }

    #[test]
    fn identities_are_neutral() {
        for op in [Agg::Sum, Agg::Min, Agg::Max, Agg::Xor] {
            assert_eq!(op.combine(op.identity(), 17), 17);
        }
    }
}
