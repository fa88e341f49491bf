//! The synchronous round simulator.
//!
//! [`Network::step`] drives one round: every vertex, in increasing id
//! order, runs [`NodeLogic::on_round`] against its inbox, and its sends
//! are checked against the bandwidth budget and appended to one flat
//! send buffer in send order. Once every vertex has run, a counting sort
//! on the recipient delivers that buffer into the inbox arena, which
//! holds all inboxes back to back in increasing recipient id, each in
//! send order. That is the order a queue per recipient would hold, and
//! protocols rely on it: BFS adopts the first wave in its inbox.
//!
//! # Per-round cost
//!
//! Delivery costs two linear passes over the round's messages plus work
//! in `k`, the number of distinct recipients, rather than in `n`: the
//! recipients are listed as their counts leave zero and sorted when the
//! round is sparse, or collected by one scan of the count table when it
//! is dense (`k ≥ n / DENSE`). Borůvka at n = 1024, whose 12 317 rounds
//! average 7 messages each, thus pays almost nothing for delivery, while
//! flood's all-to-all rounds pay one scan instead of a sort.
//!
//! # Steady-state allocation
//!
//! The send buffer and the arena form a double buffer: sends accumulate
//! while the arena is read, and the arena is rebuilt from them once the
//! round's last vertex has run. Both, the count table and the per-edge
//! load table are allocated once and recycled, so rounds allocate
//! nothing beyond what spilled payloads need (see
//! [`crate::message::WordVec`]).

use crate::message::{Message, DEFAULT_BANDWIDTH};
use crate::metrics::SimReport;
use decss_graphs::{EdgeId, Graph, VertexId};

/// One in-flight message: `(edge, sender, message)`, as its recipient's
/// inbox lists it.
pub(crate) type Delivery = (EdgeId, VertexId, Message);

/// A round is delivered by one scan of the count table, instead of by
/// sorting its recipient list, once it reaches `n / DENSE` recipients.
const DENSE: usize = 32;

/// Behaviour of one vertex in a protocol.
///
/// A node is driven once per round with the messages delivered that round
/// and may enqueue messages for the next round. The simulator terminates
/// when a round is *quiescent*: no messages were delivered, none were
/// sent, and no node asked to keep ticking.
pub trait NodeLogic {
    /// One synchronous round. Inspect [`RoundCtx::inbox`] and send via
    /// [`RoundCtx::send`].
    fn on_round(&mut self, ctx: &mut RoundCtx<'_>);

    /// Whether this node wants another round even without traffic
    /// (e.g. it is counting down a pipeline delay). Defaults to `false`.
    fn wants_tick(&self) -> bool {
        false
    }
}

/// Tallies of the current node's sends, used to pick the accounting
/// path: a node whose sends all came from [`RoundCtx::send_all`] loads
/// every incident edge uniformly, so its bandwidth check is a single
/// comparison instead of a per-message edge-table walk.
#[derive(Clone, Copy, Default)]
struct SendTally {
    /// Total words per edge contributed by uniform bursts.
    burst_cost: u64,
    /// Messages enqueued by bursts.
    burst_msgs: u64,
    /// Words enqueued by bursts (over all edges).
    burst_words: u64,
    /// Messages enqueued by targeted [`RoundCtx::send`] calls; if any,
    /// the node falls back to exact per-edge accounting.
    singles: u64,
}

/// Per-round view handed to a node.
pub struct RoundCtx<'a> {
    /// This node's id.
    pub me: VertexId,
    /// Current round number (starting at 0).
    pub round: u64,
    /// Incident `(edge, neighbour)` ports, as in the underlying graph.
    pub ports: &'a [(EdgeId, VertexId)],
    /// Messages delivered this round as `(edge, sender, message)`.
    pub inbox: &'a [Delivery],
    sends: &'a mut Vec<(VertexId, Delivery)>,
    tally: SendTally,
}

impl RoundCtx<'_> {
    /// Sends `msg` over `edge` to `to` at the end of this round; it is
    /// delivered at the start of the next round.
    pub fn send(&mut self, edge: EdgeId, to: VertexId, msg: Message) {
        self.tally.singles += 1;
        self.sends.push((to, (edge, self.me, msg)));
    }

    /// Sends `msg` to every neighbour.
    pub fn send_all(&mut self, msg: &Message) {
        let cost = msg.cost() as u64;
        self.tally.burst_cost += cost;
        self.tally.burst_msgs += self.ports.len() as u64;
        self.tally.burst_words += cost * self.ports.len() as u64;
        for &(e, w) in self.ports {
            self.sends.push((w, (e, self.me, msg.clone())));
        }
    }
}

/// One round's deliveries, grouped by recipient in increasing id order:
/// the inbox of `recipients[i]` is `data[offsets[i]..offsets[i + 1]]`,
/// in send order. A vertex not listed received nothing.
#[derive(Default)]
struct InboxArena {
    recipients: Vec<VertexId>,
    offsets: Vec<usize>,
    data: Vec<Delivery>,
}

/// The simulator: owns the per-vertex node states and runs rounds until
/// quiescence or a round cap.
pub struct Network<'g, N> {
    graph: &'g Graph,
    nodes: Vec<N>,
    bandwidth: usize,
    report: SimReport,
    /// This round's inboxes, delivered at the end of the previous round.
    inboxes: InboxArena,
    /// This round's sends as `(recipient, delivery)`, in send order.
    sends: Vec<(VertexId, Delivery)>,
    /// Per-recipient message counts of `sends`, reused as write cursors
    /// by the delivery; all zero between rounds.
    counts: Vec<usize>,
    /// Recipients whose count left zero this round.
    touched: Vec<VertexId>,
    /// Flat per-edge word counts for the node currently being driven
    /// (index = edge id); only the entries listed in `loaded` are live.
    edge_load: Vec<u64>,
    /// Edges the current node has sent over, used to reset `edge_load`
    /// without scanning all `m` entries.
    loaded: Vec<EdgeId>,
}

impl<'g, N: NodeLogic> Network<'g, N> {
    /// Builds a network where vertex `v` runs `make(v)`.
    pub fn new(graph: &'g Graph, make: impl FnMut(VertexId) -> N) -> Self {
        let nodes: Vec<N> = graph.vertices().map(make).collect();
        Network {
            graph,
            nodes,
            bandwidth: DEFAULT_BANDWIDTH,
            report: SimReport::default(),
            inboxes: InboxArena::default(),
            sends: Vec::new(),
            counts: vec![0; graph.n()],
            touched: Vec::new(),
            edge_load: vec![0; graph.m()],
            loaded: Vec::new(),
        }
    }

    /// Overrides the per-edge per-direction per-round word budget.
    pub fn with_bandwidth(mut self, words: usize) -> Self {
        self.bandwidth = words;
        self
    }

    /// Immutable access to a node's state (e.g. to read results out).
    pub fn node(&self, v: VertexId) -> &N {
        &self.nodes[v.index()]
    }

    /// Iterates over all node states.
    pub fn nodes(&self) -> impl Iterator<Item = (VertexId, &N)> {
        self.nodes.iter().enumerate().map(|(i, n)| (VertexId(i as u32), n))
    }

    /// Executes a single round; returns whether the round was quiescent
    /// (nothing delivered, nothing sent, nobody wants a tick).
    ///
    /// # Panics
    ///
    /// Panics if a vertex exceeds the bandwidth budget on an edge or
    /// sends over an edge it is not an endpoint of.
    pub fn step(&mut self, round: u64) -> bool {
        let delivered = self.inboxes.data.len();
        let any_tick = self.nodes.iter().any(|nd| nd.wants_tick());
        let mut sent_any = false;
        // Cursor into the arena's recipient list, which is in id order.
        let mut next = 0;
        for v in 0..self.graph.n() {
            let me = VertexId(v as u32);
            let arena = &self.inboxes;
            let inbox: &[Delivery] = if arena.recipients.get(next) == Some(&me) {
                next += 1;
                &arena.data[arena.offsets[next - 1]..arena.offsets[next]]
            } else {
                &[]
            };
            let start = self.sends.len();
            let mut ctx = RoundCtx {
                me,
                round,
                ports: self.graph.neighbors(me),
                inbox,
                sends: &mut self.sends,
                tally: SendTally::default(),
            };
            self.nodes[v].on_round(&mut ctx);
            let tally = ctx.tally;
            if self.sends.len() > start {
                sent_any = true;
                self.account(me, tally, start);
            }
        }
        if delivered == 0 && !sent_any && !any_tick {
            return true;
        }
        self.report.rounds += 1;
        self.deliver();
        false
    }

    /// Validates and accounts the sends `me` appended from `start` on,
    /// and counts them per recipient for the delivery.
    ///
    /// Two paths, identical semantics:
    /// * every send came from [`RoundCtx::send_all`]
    ///   (`tally.singles == 0`): each incident edge carries exactly
    ///   `burst_cost` words and incidence holds by construction, so one
    ///   budget comparison covers them all;
    /// * otherwise: exact per-edge accounting on the flat `edge_load`
    ///   table, with `loaded` recording which entries to reset so the
    ///   next node starts clean without an O(m) wipe.
    fn account(&mut self, me: VertexId, tally: SendTally, start: usize) {
        let graph = self.graph;
        let bandwidth = self.bandwidth as u64;
        let report = &mut self.report;
        let sends = &self.sends[start..];
        if tally.singles == 0 {
            assert!(
                tally.burst_cost <= bandwidth,
                "bandwidth exceeded on {} by {me}: {} > {} words",
                graph.neighbors(me)[0].0,
                tally.burst_cost,
                bandwidth
            );
            report.messages += tally.burst_msgs;
            report.words += tally.burst_words;
            report.max_edge_load = report.max_edge_load.max(tally.burst_cost);
        } else {
            for &(to, (e, _, ref msg)) in sends {
                let edge = graph.edge(e);
                assert!(
                    edge.has_endpoint(me) && edge.other(me) == to,
                    "{me} tried to send over non-incident edge {e} to {to}"
                );
                let load = &mut self.edge_load[e.index()];
                if *load == 0 {
                    self.loaded.push(e);
                }
                *load += msg.cost() as u64;
                assert!(
                    *load <= bandwidth,
                    "bandwidth exceeded on {e} by {me}: {} > {} words",
                    *load,
                    bandwidth
                );
                report.messages += 1;
                report.words += msg.cost() as u64;
                report.max_edge_load = report.max_edge_load.max(*load);
            }
            for e in self.loaded.drain(..) {
                self.edge_load[e.index()] = 0;
            }
        }
        for &(to, _) in sends {
            let count = &mut self.counts[to.index()];
            if *count == 0 {
                self.touched.push(to);
            }
            *count += 1;
        }
    }

    /// Delivers this round's sends into the inbox arena by a counting
    /// sort on the recipient. The sort is stable, so each inbox keeps
    /// send order.
    fn deliver(&mut self) {
        let arena = &mut self.inboxes;
        let counts = &mut self.counts;
        arena.recipients.clear();
        if self.touched.len() * DENSE >= counts.len() {
            let listed = counts.iter().enumerate().filter(|&(_, &c)| c > 0);
            arena.recipients.extend(listed.map(|(v, _)| VertexId(v as u32)));
        } else {
            self.touched.sort_unstable();
            std::mem::swap(&mut arena.recipients, &mut self.touched);
        }
        self.touched.clear();
        // Prefix sums turn each count into its recipient's write cursor.
        arena.offsets.clear();
        arena.offsets.push(0);
        let mut total = 0;
        for &r in &arena.recipients {
            let count = std::mem::replace(&mut counts[r.index()], total);
            total += count;
            arena.offsets.push(total);
        }
        // Every slot below `total` is assigned exactly once by the
        // scatter, so last round's entries are simply overwritten.
        arena.data.resize(total, (EdgeId(0), VertexId(0), Message::signal(0)));
        for (to, delivery) in self.sends.drain(..) {
            let cursor = &mut counts[to.index()];
            arena.data[*cursor] = delivery;
            *cursor += 1;
        }
        for &r in &arena.recipients {
            counts[r.index()] = 0;
        }
    }

    /// Runs rounds until quiescence or `max_rounds`.
    ///
    /// Returns the metrics of the run.
    ///
    /// # Panics
    ///
    /// Panics if any vertex exceeds the bandwidth budget on an edge, or if
    /// the protocol fails to quiesce within `max_rounds` (a protocol bug).
    pub fn run(&mut self, max_rounds: u64) -> SimReport {
        for round in 0..max_rounds {
            if self.step(round) {
                return self.report;
            }
        }
        panic!("protocol did not quiesce within {max_rounds} rounds");
    }

    /// The metrics accumulated so far.
    pub fn report(&self) -> SimReport {
        self.report
    }

    /// The underlying graph.
    pub fn graph(&self) -> &'g Graph {
        self.graph
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decss_graphs::gen;

    /// Every node floods a token once; network must quiesce after 2 rounds.
    struct Flood {
        fired: bool,
        heard: usize,
    }

    impl NodeLogic for Flood {
        fn on_round(&mut self, ctx: &mut RoundCtx<'_>) {
            if !self.fired {
                self.fired = true;
                ctx.send_all(&Message::signal(1));
            }
            self.heard += ctx.inbox.len();
        }
    }

    #[test]
    fn flood_quiesces_and_counts() {
        let g = gen::cycle(5, 1, 0);
        let mut net = Network::new(&g, |_| Flood { fired: false, heard: 0 });
        let report = net.run(10);
        // 5 vertices x 2 neighbours, one burst.
        assert_eq!(report.messages, 10);
        assert!(report.rounds <= 3);
        for (_, node) in net.nodes() {
            assert_eq!(node.heard, 2);
        }
    }

    /// A node that sends too much in one round must trip the budget.
    struct Hog;
    impl NodeLogic for Hog {
        fn on_round(&mut self, ctx: &mut RoundCtx<'_>) {
            if ctx.round == 0 {
                let (e, w) = ctx.ports[0];
                for _ in 0..10 {
                    ctx.send(e, w, Message::signal(0));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "bandwidth exceeded")]
    fn bandwidth_is_enforced() {
        let g = gen::cycle(3, 1, 0);
        let mut net = Network::new(&g, |_| Hog);
        net.run(5);
    }

    /// Budget accounting must reset between nodes and between rounds:
    /// sending exactly the budget every round on the same edge is legal.
    struct BudgetEdge;
    impl NodeLogic for BudgetEdge {
        fn on_round(&mut self, ctx: &mut RoundCtx<'_>) {
            if ctx.round < 3 {
                let (e, w) = ctx.ports[0];
                for _ in 0..DEFAULT_BANDWIDTH {
                    ctx.send(e, w, Message::signal(0));
                }
            }
        }
        fn wants_tick(&self) -> bool {
            false
        }
    }

    #[test]
    fn budget_resets_per_node_and_per_round() {
        let g = gen::cycle(3, 1, 0);
        let mut net = Network::new(&g, |_| BudgetEdge);
        let report = net.run(10);
        assert_eq!(report.max_edge_load, DEFAULT_BANDWIDTH as u64);
        // 3 vertices x 3 rounds x budget messages.
        assert_eq!(report.messages, 3 * 3 * DEFAULT_BANDWIDTH as u64);
    }

    /// Sending over a non-incident edge is a protocol bug.
    struct Liar;
    impl NodeLogic for Liar {
        fn on_round(&mut self, ctx: &mut RoundCtx<'_>) {
            if ctx.round == 0 && ctx.me == VertexId(0) {
                // Edge 1 is {1,2}; vertex 0 is not an endpoint.
                ctx.send(EdgeId(1), VertexId(2), Message::signal(0));
            }
        }
    }

    #[test]
    #[should_panic(expected = "non-incident")]
    fn non_incident_send_rejected() {
        let g = gen::cycle(3, 1, 0);
        let mut net = Network::new(&g, |_| Liar);
        net.run(5);
    }

    struct Never;
    impl NodeLogic for Never {
        fn on_round(&mut self, _: &mut RoundCtx<'_>) {}
        fn wants_tick(&self) -> bool {
            true
        }
    }

    #[test]
    #[should_panic(expected = "did not quiesce")]
    fn runaway_protocol_is_detected() {
        let g = gen::cycle(3, 1, 0);
        let mut net = Network::new(&g, |_| Never);
        net.run(4);
    }
}
