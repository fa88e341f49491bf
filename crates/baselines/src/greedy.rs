//! Centralized greedy set-cover TAP — the `O(log n)`-approximation that
//! Dory's PODC'18 distributed algorithm parallelizes. Used as the
//! quality baseline the paper's constant-factor algorithm is compared
//! against (Experiment E10).

use crate::cover::{Bits, TapInstance};
use decss_graphs::{EdgeId, Graph, Weight};
use decss_tree::RootedTree;

/// Runs the greedy algorithm: repeatedly add the candidate maximizing
/// (newly covered tree edges) / weight until everything is covered.
///
/// `poll` runs before each pick, and its error ends the run (a solve's
/// deadline or cancellation checkpoint). It sees no state of the run,
/// so the picks do not depend on it.
///
/// Returns `Ok(None)` if the instance is infeasible (graph not
/// 2-edge-connected). Zero-weight candidates are taken eagerly.
pub fn greedy_tap<E>(
    g: &Graph,
    tree: &RootedTree,
    mut poll: impl FnMut() -> Result<(), E>,
) -> Result<Option<(Vec<EdgeId>, Weight)>, E> {
    let inst = TapInstance::new(g, tree);
    let mut covered = Bits::zero(tree.n());
    let mut chosen: Vec<usize> = Vec::new();
    let mut total = 0u64;
    while inst.first_uncovered(&covered).is_some() {
        poll()?;
        let mut best: Option<(f64, usize, u32)> = None;
        for i in 0..inst.candidates.len() {
            // Chosen candidates cover nothing new, so `new == 0` skips them.
            let new = covered.missing_from(&inst.cover[i]);
            if new == 0 {
                continue;
            }
            let eff = if inst.weights[i] == 0 {
                f64::INFINITY
            } else {
                new as f64 / inst.weights[i] as f64
            };
            let better = match best {
                None => true,
                Some((beff, bi, _)) => eff > beff || (eff == beff && i < bi),
            };
            if better {
                best = Some((eff, i, new));
            }
        }
        let Some((_, i, _)) = best else {
            return Ok(None); // no candidate helps => infeasible
        };
        chosen.push(i);
        covered.or_assign(&inst.cover[i]);
        total += inst.weights[i];
    }
    let mut edges: Vec<EdgeId> = chosen.iter().map(|&i| inst.candidates[i]).collect();
    edges.sort_unstable();
    Ok(Some((edges, total)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use decss_graphs::gen;
    use std::convert::Infallible;

    fn never() -> Result<(), Infallible> {
        Ok(())
    }

    #[test]
    fn greedy_covers_everything() {
        for seed in 0..5 {
            let g = gen::sparse_two_ec(30, 24, 30, seed);
            let tree = RootedTree::mst(&g);
            let (edges, w) = greedy_tap(&g, &tree, never).unwrap().unwrap();
            assert!(!edges.is_empty());
            assert_eq!(w, g.weight_of(edges.iter().copied()));
            // The tree plus the augmentation is 2-edge-connected.
            let tree_edges = g.edge_ids().filter(|&e| tree.is_tree_edge(e));
            let all: Vec<EdgeId> = tree_edges.chain(edges.iter().copied()).collect();
            assert!(decss_graphs::algo::two_edge_connected_in(&g, all));
        }
    }

    #[test]
    fn greedy_is_within_log_factor_of_exact() {
        for seed in 0..5 {
            let g = gen::sparse_two_ec(12, 8, 20, seed);
            let tree = RootedTree::mst(&g);
            let (_, exact) = crate::exact_tap(&g, &tree).unwrap();
            let (_, greedy) = greedy_tap(&g, &tree, never).unwrap().unwrap();
            let hn = (tree.num_tree_edges() as f64).ln() + 1.0;
            assert!(
                greedy as f64 <= hn * exact as f64 + 1e-9,
                "seed {seed}: greedy {greedy} vs exact {exact}"
            );
        }
    }

    #[test]
    fn infeasible_returns_none() {
        let g = decss_graphs::Graph::from_edges(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 2, 5)])
            .unwrap();
        let tree =
            RootedTree::new(&g, decss_graphs::VertexId(0), &[EdgeId(0), EdgeId(1), EdgeId(2)]);
        assert_eq!(greedy_tap(&g, &tree, never), Ok(None));
    }

    /// Every poll precedes one pick: a poll that fails on its `k`-th call
    /// ends the run after exactly `k − 1` picks, with the poll's error.
    #[test]
    fn failing_poll_stops_before_the_next_pick() {
        let g = gen::sparse_two_ec(30, 24, 30, 2);
        let tree = RootedTree::mst(&g);
        let mut calls = 0;
        let (edges, _) = greedy_tap(&g, &tree, || {
            calls += 1;
            never()
        })
        .unwrap()
        .unwrap();
        let picks = calls;
        assert_eq!(edges.len(), picks);
        assert!(picks >= 3, "{picks} picks");
        for k in 1..=picks {
            let mut calls = 0;
            let got = greedy_tap(&g, &tree, || {
                calls += 1;
                if calls == k {
                    Err(calls - 1)
                } else {
                    Ok(())
                }
            });
            assert_eq!(got, Err(k - 1), "poll failing on call {k}");
            assert_eq!(calls, k, "poll failing on call {k}");
        }
    }
}
