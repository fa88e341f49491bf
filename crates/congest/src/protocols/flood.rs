//! Gossip flooding: every vertex broadcasts an accumulator to all
//! neighbours for a fixed number of bursts, folding in everything heard.
//!
//! This is the all-to-all "everyone talks every round" stress pattern —
//! the densest per-round message volume the simulator faces (`2m`
//! messages per round) — and therefore the round-engine microbenchmark
//! workload: its wall-clock is dominated by message plumbing, not by
//! protocol logic.

use crate::message::Message;
use crate::metrics::SimReport;
use crate::network::{Network, NodeLogic, RoundCtx};
use decss_graphs::Graph;

const TAG_FLOOD: u8 = 9;

struct FloodNode {
    acc: u64,
    remaining: u32,
}

impl NodeLogic for FloodNode {
    fn on_round(&mut self, ctx: &mut RoundCtx<'_>) {
        for (_, _, msg) in ctx.inbox {
            debug_assert_eq!(msg.tag, TAG_FLOOD);
            self.acc ^= msg.words[0].rotate_left((ctx.round % 63) as u32);
        }
        if self.remaining > 0 {
            self.remaining -= 1;
            ctx.send_all(&Message::new(TAG_FLOOD, [self.acc]));
        }
    }

    fn wants_tick(&self) -> bool {
        self.remaining > 0
    }
}

/// Floods every vertex's accumulator to all neighbours for `bursts`
/// rounds; each vertex starts from its own id and xor-folds (with a
/// round-dependent rotation, so message order mistakes cannot cancel
/// out) everything it hears.
///
/// Returns the per-vertex accumulators and the metrics.
pub fn gossip_flood(g: &Graph, bursts: u32) -> (Vec<u64>, SimReport) {
    let mut net = Network::new(g, |v| FloodNode { acc: v.0 as u64, remaining: bursts });
    let report = net.run(bursts as u64 + 4);
    let accs = net.nodes().map(|(_, n)| n.acc).collect();
    (accs, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use decss_graphs::gen;

    #[test]
    fn flood_quiesces_after_bursts() {
        let g = gen::cycle(16, 1, 0);
        let (accs, report) = gossip_flood(&g, 5);
        assert_eq!(accs.len(), 16);
        // 5 send rounds + 1 delivery round (+ quiescence detection).
        assert_eq!(report.rounds, 6);
        assert_eq!(report.messages, 5 * 2 * g.m() as u64);
    }

    #[test]
    fn zero_bursts_is_silent() {
        let g = gen::cycle(4, 1, 0);
        let (accs, report) = gossip_flood(&g, 0);
        assert_eq!(accs, vec![0, 1, 2, 3]);
        assert_eq!(report.messages, 0);
        assert!(report.rounds <= 1);
    }

    #[test]
    fn flood_is_deterministic() {
        let g = gen::gnp_two_ec(30, 0.1, 10, 7);
        let (a, ra) = gossip_flood(&g, 6);
        let (b, rb) = gossip_flood(&g, 6);
        assert_eq!(a, b);
        assert_eq!(ra, rb);
    }
}
