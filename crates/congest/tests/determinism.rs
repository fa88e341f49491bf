//! Pins the round engine's semantics: for each of the ten protocols
//! over eight seeded random graphs, the exact [`SimReport`] and a digest
//! of the protocol's output, recorded from the per-recipient-`Vec`
//! sequential engine the counting-sort delivery replaced.
//!
//! Most of these outputs depend on inbox *order*, not just on inbox
//! contents: BFS adopts the first wave it hears, the flood accumulator
//! rotates each delivery by the round number, and the pipeline,
//! downcast, label and segment payloads are reassembled in arrival
//! order. A delivery that regrouped same-round messages differently
//! (recipient order, or send order within one inbox) would change a
//! digest here. The assertion tests at the bottom keep the bandwidth,
//! incidence and spilled-payload rules pinned on the same engine.

use decss_congest::protocols::broadcast::TreeOverlay;
use decss_congest::protocols::convergecast::Agg;
use decss_congest::protocols::{
    bfs, boruvka, broadcast, convergecast, downcast, flood, label_exchange, leader, pipeline,
    segment_scan,
};
use decss_congest::{Message, Network, NodeLogic, RoundCtx, SimReport};
use decss_graphs::{algo, gen, EdgeId, Graph, VertexId};

/// The pinned instances: connected, 2-edge-connected, irregular degrees,
/// with plenty of equal-distance ties for BFS to break by inbox order.
const GRAPHS: [(usize, u64); 8] = [
    (8, 11),
    (13, 22),
    (17, 33),
    (22, 44),
    (26, 55),
    (31, 66),
    (35, 77),
    (39, 88),
];

fn graph(i: usize) -> Graph {
    let (n, seed) = GRAPHS[i];
    gen::gnp_two_ec(n, 0.12, 50, seed)
}

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn words(&mut self, ws: impl IntoIterator<Item = u64>) {
        for w in ws {
            self.word(w);
        }
    }

    /// `None` and `Some(x)` never collide: a tag word precedes the value.
    fn opt(&mut self, x: Option<u64>) {
        match x {
            None => self.word(0),
            Some(x) => {
                self.word(1);
                self.word(x);
            }
        }
    }
}

fn overlay_of(g: &Graph) -> TreeOverlay {
    let mst = algo::minimum_spanning_tree(g).unwrap();
    TreeOverlay::from_edges(g, VertexId(0), &mst)
}

/// Rooted-tree arrays plus a depth-band segmentation, for segment_scan.
fn segmentation(g: &Graph) -> (Vec<Option<VertexId>>, Vec<Option<EdgeId>>, Vec<u32>) {
    let overlay = overlay_of(g);
    let n = g.n();
    let parent: Vec<Option<VertexId>> = (0..n).map(|v| overlay.parent[v].map(|(_, p)| p)).collect();
    let parent_edge: Vec<Option<EdgeId>> =
        (0..n).map(|v| overlay.parent[v].map(|(e, _)| e)).collect();
    let s = (n as f64).sqrt().ceil() as u32;
    let mut depth = vec![0u32; n];
    let mut order = vec![VertexId(0)];
    let mut i = 0;
    while i < order.len() {
        let v = order[i];
        i += 1;
        for &(_, c) in &overlay.children[v.index()] {
            depth[c.index()] = depth[v.index()] + 1;
            order.push(c);
        }
    }
    let seg_of: Vec<u32> = (0..n)
        .map(|v| {
            if parent[v].is_none() {
                u32::MAX
            } else {
                depth[v] / s
            }
        })
        .collect();
    (parent, parent_edge, seg_of)
}

/// Runs protocol `name` on `g`: its (composed) report and output digest.
fn run_protocol(name: &str, g: &Graph) -> (SimReport, u64) {
    let mut d = Digest::new();
    let report = match name {
        "bfs" => {
            let (tree, report) = bfs::distributed_bfs(g, VertexId(1));
            // Parent *choices*, not just distances: they follow inbox order.
            d.words(tree.parent.iter().map(|p| p.map_or(u64::MAX, |p| p.0 as u64)));
            d.words(tree.parent_edge.iter().map(|e| e.map_or(u64::MAX, |e| e.0 as u64)));
            for &dist in &tree.dist {
                d.opt(dist.map(u64::from));
            }
            report
        }
        "boruvka" => {
            let (edges, report) = boruvka::distributed_mst(g);
            d.words(edges.iter().map(|e| e.0 as u64));
            report
        }
        "broadcast" => {
            let (values, report) = broadcast::broadcast(g, &overlay_of(g), 77);
            d.words(values);
            report
        }
        "convergecast" => {
            let overlay = overlay_of(g);
            let values: Vec<u64> = (0..g.n() as u64).map(|i| i * 13 % 29).collect();
            let mut total = SimReport::default();
            for op in [Agg::Sum, Agg::Min, Agg::Max, Agg::Xor] {
                let (acc, report) = convergecast::convergecast(g, &overlay, &values, op);
                d.word(acc);
                total = total.then(report);
            }
            total
        }
        "pipeline" => {
            let items: Vec<Vec<u64>> = (0..g.n())
                .map(|v| (0..(v % 4) as u64).map(|i| (v as u64) * 10 + i).collect())
                .collect();
            let (got, report) = pipeline::collect_items(g, &overlay_of(g), &items);
            d.words(got);
            report
        }
        "segment_scan" => {
            let (parent, parent_edge, seg_of) = segmentation(g);
            let values: Vec<u64> = (0..g.n() as u64).map(|i| i * 7 % 23).collect();
            let (results, report) = segment_scan::segment_convergecast(
                g,
                &parent,
                &parent_edge,
                &seg_of,
                &values,
                Agg::Sum,
            );
            let mut results: Vec<(u32, u64)> = results.into_iter().collect();
            results.sort_unstable();
            for (seg, v) in results {
                d.words([seg as u64, v]);
            }
            report
        }
        "downcast" => {
            let items: Vec<u64> = (0..7).collect();
            let (received, report) = downcast::downcast_items(g, &overlay_of(g), &items);
            for r in received {
                d.word(r.len() as u64);
                d.words(r);
            }
            report
        }
        "label_exchange" => {
            let labels: Vec<Vec<u64>> = (0..g.n())
                .map(|v| (0..(v % 5)).map(|i| (v * 100 + i) as u64).collect())
                .collect();
            let (received, report) = label_exchange::exchange_labels(g, &labels);
            for per_vertex in received {
                let mut entries: Vec<(VertexId, Vec<u64>)> = per_vertex.into_iter().collect();
                entries.sort_unstable();
                d.word(entries.len() as u64);
                for (from, label) in entries {
                    d.words([from.0 as u64, label.len() as u64]);
                    d.words(label);
                }
            }
            report
        }
        "leader" => {
            let (l, report) = leader::elect_leader(g);
            d.word(l.0 as u64);
            report
        }
        "flood" => {
            let (accs, report) = flood::gossip_flood(g, 6);
            d.words(accs);
            report
        }
        other => unreachable!("unknown protocol {other}"),
    };
    (report, d.0)
}

const PROTOCOLS: [&str; 10] = [
    "bfs",
    "boruvka",
    "broadcast",
    "convergecast",
    "pipeline",
    "segment_scan",
    "downcast",
    "label_exchange",
    "leader",
    "flood",
];

/// `protocol graph: rounds messages words max-edge-load digest`, one line
/// per (protocol, graph) pair in [`PROTOCOLS`] × [`GRAPHS`] order.
const PINS: &str = "\
bfs 0: 6 16 32 2 0874c73d0c4ebe76
bfs 1: 6 42 84 2 c6147e173b301536
bfs 2: 4 66 132 2 1b195c03a115f0db
bfs 3: 5 100 200 2 aad779b6fe588646
bfs 4: 6 112 224 2 1fe2c65cf9ee4936
bfs 5: 5 154 308 2 503171eb38dc68db
bfs 6: 5 210 420 2 af5b05775d5abba1
bfs 7: 5 236 472 2 e9a243f4a4698ec0
boruvka 0: 62 118 238 3 6dc27cb753b1b2a4
boruvka 1: 123 364 783 3 5e75c376fc7f366a
boruvka 2: 116 388 815 3 be0c586e02c41dbd
boruvka 3: 195 785 1695 3 6387b2f60aac5f2c
boruvka 4: 227 912 1992 3 bff07433cc0679c8
boruvka 5: 267 1203 2605 3 bcee71d0e8406617
boruvka 6: 299 1517 3277 3 02be6c8e687024f7
boruvka 7: 331 1681 3612 3 be3df8cf46d08e04
broadcast 0: 7 7 14 2 8332fb7f511041a5
broadcast 1: 10 12 24 2 d5c75d814b8165a8
broadcast 2: 7 16 32 2 18b3563baa8efd68
broadcast 3: 12 21 42 2 5dde8c1ac71cd305
broadcast 4: 9 25 50 2 ee7112b8b0b51245
broadcast 5: 11 30 60 2 973e87178460dac8
broadcast 6: 7 34 68 2 97f36ae80a6bb188
broadcast 7: 15 38 76 2 e943b14ff06e2948
convergecast 0: 28 28 56 2 24c76e1e977dd965
convergecast 1: 40 48 96 2 361d699654eb71e0
convergecast 2: 28 64 128 2 9c0a135c51705aaa
convergecast 3: 48 84 168 2 cd184ebbb51ed01c
convergecast 4: 36 100 200 2 98ae188f6df0e05a
convergecast 5: 44 120 240 2 5c74605f3416346c
convergecast 6: 28 136 272 2 a241b43de9d58996
convergecast 7: 60 152 304 2 199508bcbb9cdb59
pipeline 0: 12 38 76 2 649654c9b046e9f5
pipeline 1: 14 76 152 2 d47577442a21a49f
pipeline 2: 26 88 176 2 1ee15c6a87138845
pipeline 3: 30 151 302 2 0e3c102fe9eb831d
pipeline 4: 38 168 336 2 ee6106aac7fd5a4f
pipeline 5: 43 239 478 2 2069dd9258cbedf0
pipeline 6: 28 173 346 2 334a8711057646ca
pipeline 7: 58 399 798 2 dcc6dabb54b5d660
segment_scan 0: 4 7 14 2 aabbcc4b752badb3
segment_scan 1: 5 12 24 2 7f2a7d4eed26d80c
segment_scan 2: 5 16 32 2 bdc43fc963c242f9
segment_scan 3: 6 21 42 2 19f3288e9214c90b
segment_scan 4: 6 25 50 2 d696ef939e7a6ac6
segment_scan 5: 6 30 60 2 c274d106f91c384a
segment_scan 6: 6 34 68 2 2cd2e5c8c7785e8f
segment_scan 7: 8 38 76 2 9e6cb1123190ae7a
downcast 0: 13 49 98 2 eb30e248d6b6fb25
downcast 1: 16 84 168 2 a682e3b1cce18225
downcast 2: 13 112 224 2 aa9700b2afcfee25
downcast 3: 18 147 294 2 13b4700003f97525
downcast 4: 15 175 350 2 c9300d62e1b3e125
downcast 5: 17 210 420 2 3c9034abcadc6825
downcast 6: 13 238 476 2 87a5e162cf62d425
downcast 7: 21 266 532 2 afe3a64bf9994025
label_exchange 0: 4 26 68 3 949c95bb461581f9
label_exchange 1: 4 70 182 3 1c16e4b9c3b5bd6a
label_exchange 2: 4 109 287 3 1455c6644e39e77c
label_exchange 3: 4 170 452 3 b2ae65c71348b5cf
label_exchange 4: 4 202 539 3 a65916c0b139522a
label_exchange 5: 4 261 690 3 0292a60a9bbcac43
label_exchange 6: 4 369 981 3 61d2d6a2c14d9f3a
label_exchange 7: 4 413 1100 3 56ee7b65245299e1
leader 0: 6 48 96 2 a8c7f832281a39c5
leader 1: 5 109 218 2 a8c7f832281a39c5
leader 2: 5 170 340 2 a8c7f832281a39c5
leader 3: 6 292 584 2 a8c7f832281a39c5
leader 4: 6 365 730 2 a8c7f832281a39c5
leader 5: 6 489 978 2 a8c7f832281a39c5
leader 6: 6 608 1216 2 a8c7f832281a39c5
leader 7: 5 740 1480 2 a8c7f832281a39c5
flood 0: 7 96 192 2 e78f34fe389a6505
flood 1: 7 252 504 2 9ffa46492d57c38d
flood 2: 7 396 792 2 8df38259a6f3b30c
flood 3: 7 600 1200 2 8a7f038527e6dca1
flood 4: 7 672 1344 2 e3771afa43e88632
flood 5: 7 924 1848 2 49a7a76fe39a345f
flood 6: 7 1260 2520 2 844023931a3c4f7a
flood 7: 7 1416 2832 2 17ce6167dab76fec
";

fn render(name: &str, i: usize, report: SimReport, digest: u64) -> String {
    format!(
        "{name} {i}: {} {} {} {} {digest:016x}",
        report.rounds, report.messages, report.words, report.max_edge_load
    )
}

#[test]
fn every_protocol_matches_its_pinned_run() {
    let mut actual = Vec::new();
    for name in PROTOCOLS {
        for i in 0..GRAPHS.len() {
            let (report, digest) = run_protocol(name, &graph(i));
            actual.push(render(name, i, report, digest));
        }
    }
    let pinned: Vec<&str> = PINS.lines().collect();
    let diverged: Vec<String> = actual
        .iter()
        .zip(pinned.iter().copied().chain(std::iter::repeat("<missing>")))
        .filter(|(a, p)| a != p)
        .map(|(a, p)| format!("  got  {a}\n  want {p}"))
        .collect();
    assert!(
        diverged.is_empty() && pinned.len() == actual.len(),
        "{} of {} protocol runs diverged from their pins:\n{}\nfull table:\n{}",
        diverged.len(),
        actual.len(),
        diverged.join("\n"),
        actual.join("\n")
    );
}

/// A node that answers every delivery with two targeted replies: heavy
/// `send`-path (exact per-edge accounting) traffic with per-node state
/// that folds in the order of its inbox.
struct Echo {
    seen: u64,
    budget: u32,
}

impl NodeLogic for Echo {
    fn on_round(&mut self, ctx: &mut RoundCtx<'_>) {
        if ctx.round == 0 && ctx.me.0.is_multiple_of(3) {
            ctx.send_all(&Message::new(1, [ctx.me.0 as u64]));
            return;
        }
        let inbox = ctx.inbox;
        for &(e, from, ref msg) in inbox {
            self.seen = self.seen.wrapping_mul(31).wrapping_add(msg.words[0] ^ e.0 as u64);
            if self.budget > 0 {
                self.budget -= 1;
                ctx.send(e, from, Message::new(2, [self.seen]));
            }
        }
    }
}

/// Pinned per-node *states* (not just protocol outputs) under
/// targeted-send accounting.
const ECHO_PINS: &str = "\
echo 0: 5 157 314 2 714ba814fd140128
echo 1: 5 163 326 2 9dadc6f79a130644
echo 2: 5 167 334 2 c86359bc218019dd
echo 3: 5 161 322 2 d32ec79c03125018
echo 4: 5 154 308 2 3747d812882c7174
echo 5: 5 171 342 2 ce469e30cb53c6ed
";

#[test]
fn per_node_states_match_their_pins() {
    let mut actual = Vec::new();
    for seed in 0..6 {
        let g = gen::gnp_two_ec(33, 0.15, 40, seed);
        let mut net = Network::new(&g, |v| Echo { seen: v.0 as u64, budget: 3 });
        let report = net.run(100);
        let mut d = Digest::new();
        for (_, node) in net.nodes() {
            d.words([node.seen, node.budget as u64]);
        }
        actual.push(render("echo", seed as usize, report, d.0));
    }
    assert_eq!(actual.join("\n"), ECHO_PINS.trim_end(), "echo states diverged");
}

/// A protocol-level bandwidth hog on the targeted-send path.
struct Hog;

impl NodeLogic for Hog {
    fn on_round(&mut self, ctx: &mut RoundCtx<'_>) {
        if ctx.round == 1 {
            let (e, w) = ctx.ports[0];
            for i in 0..8 {
                ctx.send(e, w, Message::new(0, [i]));
            }
        } else if ctx.round == 0 {
            ctx.send_all(&Message::signal(7));
        }
    }
}

#[test]
#[should_panic(expected = "bandwidth exceeded")]
fn targeted_sends_enforce_bandwidth() {
    let g = gen::cycle(24, 1, 0);
    let mut net = Network::new(&g, |_| Hog);
    net.run(10);
}

/// Oversending purely via `send_all` exercises the uniform-burst fast
/// path's budget check.
struct BurstHog;

impl NodeLogic for BurstHog {
    fn on_round(&mut self, ctx: &mut RoundCtx<'_>) {
        if ctx.round == 0 {
            // Three 2-word messages to every neighbour: 6 > 4 words.
            for _ in 0..3 {
                ctx.send_all(&Message::new(0, [1]));
            }
        }
    }
}

#[test]
#[should_panic(expected = "bandwidth exceeded")]
fn burst_path_enforces_bandwidth() {
    let g = gen::cycle(8, 1, 0);
    let mut net = Network::new(&g, |_| BurstHog);
    net.run(10);
}

/// Sending over a non-incident edge is a protocol bug.
struct Liar;

impl NodeLogic for Liar {
    fn on_round(&mut self, ctx: &mut RoundCtx<'_>) {
        if ctx.round == 0 && ctx.me == VertexId(0) {
            ctx.send(EdgeId(2), VertexId(3), Message::signal(0));
        }
    }
}

#[test]
#[should_panic(expected = "non-incident")]
fn non_incident_sends_are_rejected() {
    let g = gen::cycle(6, 1, 0);
    let mut net = Network::new(&g, |_| Liar);
    net.run(10);
}

/// Multi-round chunked transfers: labels longer than a round's budget.
#[test]
fn chunked_label_transfer_matches_its_pin() {
    let g = gen::gnp_two_ec(20, 0.2, 10, 11);
    let labels: Vec<Vec<u64>> = (0..g.n())
        .map(|v| (0..6).map(|i| (v * 7 + i) as u64).collect())
        .collect();
    let (received, report) = label_exchange::exchange_labels(&g, &labels);
    // Every neighbour's full label arrives intact.
    for v in g.vertices() {
        for &(_, w) in g.neighbors(v) {
            assert_eq!(received[v.index()][&w], labels[w.index()], "{w} -> {v}");
        }
    }
    assert_eq!(
        report.to_string(),
        "5 rounds, 312 messages, 858 words, max edge load 3"
    );
}

/// A node that ships one wide (heap-spilled) message under a raised
/// bandwidth budget; spilled payloads must survive delivery intact and
/// in order.
struct Wide {
    got: Vec<u64>,
}

impl NodeLogic for Wide {
    fn on_round(&mut self, ctx: &mut RoundCtx<'_>) {
        if ctx.round == 0 {
            let payload: Vec<u64> = (0..6).map(|i| ctx.me.0 as u64 * 100 + i).collect();
            ctx.send_all(&Message::new(3, payload));
        }
        for (_, _, msg) in ctx.inbox {
            self.got.extend(msg.words.as_slice());
        }
    }
}

#[test]
fn spilled_payloads_match_their_pin() {
    let g = gen::gnp_two_ec(18, 0.25, 10, 4);
    let mut net = Network::new(&g, |_| Wide { got: Vec::new() }).with_bandwidth(8);
    let report = net.run(10);
    let mut d = Digest::new();
    for (v, node) in net.nodes() {
        // One whole six-word payload per incident edge.
        assert_eq!(node.got.len(), 6 * g.neighbors(v).len(), "vertex {v}");
        for payload in node.got.chunks(6) {
            let base = payload[0];
            assert!(
                payload.iter().zip(base..).all(|(&w, x)| w == x),
                "vertex {v}: {payload:?}"
            );
        }
        d.word(node.got.len() as u64);
        d.words(node.got.iter().copied());
    }
    assert_eq!(
        render("wide", 0, report, d.0),
        WIDE_PIN,
        "spilled payload run diverged"
    );
}

const WIDE_PIN: &str = "wide 0: 2 120 840 7 eec234be99d1cd09";
