//! Round accounting for the first algorithm.
//!
//! The logical implementation charges every communication primitive to a
//! [`RoundLedger`] using the instance's measured structural parameters:
//! the algorithm's answers are computed centrally, and each primitive
//! costs the rounds its distributed form takes by the paper's bound. The
//! message-level protocols of `decss-congest` calibrate these formulas
//! (`tests/calibration.rs`). Operation names used across the phases:
//!
//! | op | meaning | cost |
//! |----|---------|------|
//! | `setup.mst` | Kutten–Peleg MST | `O(D + √n log*n)` |
//! | `setup.lca-labels` | LCA labelling (Lemma 4.2) | `O(D + √n log*n)` |
//! | `setup.segments` | segment decomposition (Claim 4.3) | `O(D + √n)` |
//! | `setup.layering` | layering (Claim 4.10) | `O((D+√n) log n)` |
//! | `forward.iteration` | one forward iteration (Lemma 4.12) | `O(D + √n)` |
//! | `reverse.petals` | petals of a layer (Claim 4.11) | `O(D + √n)` |
//! | `reverse.global-mis` | learn `O(log n)`/segment + local sim | `O(D + √n)` |
//! | `reverse.local-mis` | per-segment scans | `O(√n)` |
//! | `reverse.refresh` | Y-membership + coverage updates | `O(D + √n)` |
//! | `reverse.cleaning` | cleaning phase (Section 4.6.1) | `O(D + √n)` |

use decss_congest::ledger::{CostParams, RoundLedger};
use decss_graphs::{algo, Graph, VertexId};
use decss_tree::SegmentDecomposition;

/// Measures the cost parameters of an instance: BFS depth of the
/// communication graph from `root`, and the segment statistics.
pub fn measure(g: &Graph, root: VertexId, segments: &SegmentDecomposition) -> CostParams {
    let bfs = algo::bfs_tree(g, root);
    CostParams {
        n: g.n(),
        bfs_depth: bfs.depth(),
        num_segments: segments.len(),
        max_segment_diameter: segments.max_diameter(),
    }
}

/// Charges the setup phase: MST, LCA labels, segments, layering.
pub fn charge_setup(ledger: &mut RoundLedger, params: &CostParams, num_layers: u32) {
    ledger.charge("setup.mst", params.mst());
    ledger.charge("setup.lca-labels", params.mst());
    ledger.charge("setup.segments", params.aggregate());
    for _ in 0..num_layers {
        // Claim 4.10: one aggregate-ish sweep per layer.
        ledger.charge("setup.layering", params.aggregate());
    }
}

/// Charges one forward-phase iteration: a constant number of aggregate
/// computations plus a termination broadcast (Lemma 4.12).
pub fn charge_forward_iteration(ledger: &mut RoundLedger, params: &CostParams) {
    ledger.charge("forward.iteration", 4 * params.aggregate() + params.broadcast());
}

/// Charges the petal computation of one reverse-delete iteration
/// (Claim 4.11: two aggregates).
pub fn charge_petals(ledger: &mut RoundLedger, params: &CostParams) {
    ledger.charge("reverse.petals", 2 * params.aggregate());
}

/// Charges the global-MIS part of one iteration: every vertex learns
/// `O(log n)` bits per segment (Claim 4.4) and simulates the greedy MIS
/// locally.
pub fn charge_global_mis(ledger: &mut RoundLedger, params: &CostParams) {
    ledger.charge("reverse.global-mis", params.per_segment_broadcast());
}

/// Charges the local-MIS scans (all segments in parallel).
pub fn charge_local_mis(ledger: &mut RoundLedger, params: &CostParams) {
    ledger.charge("reverse.local-mis", params.segment_scan());
}

/// Charges the end-of-iteration refresh: arcs learn Y-membership, tree
/// edges learn coverage (two aggregates).
pub fn charge_refresh(ledger: &mut RoundLedger, params: &CostParams) {
    ledger.charge("reverse.refresh", 2 * params.aggregate());
}

/// Charges one cleaning pass (Section 4.6.1): one aggregate plus a
/// per-segment broadcast of the removed global anchors.
pub fn charge_cleaning(ledger: &mut RoundLedger, params: &CostParams) {
    ledger.charge(
        "reverse.cleaning",
        params.aggregate() + params.per_segment_broadcast(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use decss_graphs::gen;
    use decss_tree::{EulerTour, RootedTree};

    #[test]
    fn measured_params_reflect_instance() {
        let g = gen::grid(8, 8, 10, 0);
        let tree = RootedTree::mst(&g);
        let euler = EulerTour::new(&tree);
        let segs = SegmentDecomposition::new(&tree, &euler);
        let p = measure(&g, tree.root(), &segs);
        assert_eq!(p.n, 64);
        assert_eq!(p.bfs_depth, 14); // corner-to-corner on an 8x8 grid
        assert!(p.num_segments >= 1);
        assert!(p.max_segment_diameter >= 1);
    }

    #[test]
    fn charges_accumulate_by_phase() {
        let g = gen::cycle(16, 5, 1);
        let tree = RootedTree::mst(&g);
        let euler = EulerTour::new(&tree);
        let segs = SegmentDecomposition::new(&tree, &euler);
        let p = measure(&g, tree.root(), &segs);
        let mut ledger = RoundLedger::new();
        charge_setup(&mut ledger, &p, 3);
        charge_forward_iteration(&mut ledger, &p);
        charge_petals(&mut ledger, &p);
        charge_global_mis(&mut ledger, &p);
        charge_local_mis(&mut ledger, &p);
        charge_refresh(&mut ledger, &p);
        charge_cleaning(&mut ledger, &p);
        assert_eq!(ledger.invocations_of("setup.layering"), 3);
        assert!(ledger.total_rounds() > 0);
        assert!(ledger.rounds_for("forward.iteration") > ledger.rounds_for("reverse.local-mis"));
    }
}
