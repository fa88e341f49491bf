//! [`SolveReport`]: the one result schema every solver produces.

use crate::json::escape;
use decss_core::algorithm::TapStats;
use decss_graphs::{weight, EdgeId, Weight};
use decss_shortcuts::{IncrementalStats, ShortcutQuality};
use std::fmt::Write as _;

/// The unified result of a solve: what used to be four incompatible
/// result types (`TwoEcssResult`, `ShortcutResult`, `TapResult`, the
/// baseline tuples) in one schema. Fields that only some pipelines can
/// fill are `Option`s / possibly-empty vectors; everything a consumer
/// (CLI, scenario sweeps, experiments, future services) prints comes
/// from here, through [`SolveReport::render_text`] or
/// [`SolveReport::to_json`].
#[derive(Clone, Debug, Default)]
pub struct SolveReport {
    /// Registry name of the algorithm that ran (echo).
    pub algorithm: String,
    /// Human-readable label (e.g. `"shortcut (Theorem 1.2)"`).
    pub label: String,
    /// Request-config echo (`key=value` list).
    pub params: String,
    /// Vertices of the solved instance (after failure injection).
    pub n: usize,
    /// Edges of the solved instance (after failure injection).
    pub m: usize,
    /// The chosen subgraph (sorted, deduplicated edge ids). Always in
    /// the id space of the graph the caller handed in — when failure
    /// injection damaged the graph, the session translates the solver's
    /// choices back to the surviving original ids, so the list
    /// round-trips against the input (e.g. `decss verify --edges ...`).
    pub edges: Vec<EdgeId>,
    /// Total weight of the chosen subgraph.
    pub weight: Weight,
    /// Weight of the MST part, for MST + augmentation pipelines.
    pub mst_weight: Option<Weight>,
    /// Weight of the augmentation part.
    pub augmentation_weight: Option<Weight>,
    /// Certified lower bound on the optimal 2-ECSS weight (each solver
    /// reports the strongest bound it can vouch for; at minimum the MST
    /// weight).
    pub lower_bound: f64,
    /// A-priori guarantee against the true optimum, where the algorithm
    /// has one (`5+ε`, `9+ε`, `1.0` for exact; `None` for heuristics
    /// and the `O(log n)` pipelines whose constant is instance-sized).
    pub guarantee: Option<f64>,
    /// Simulated CONGEST rounds at bandwidth 1, for distributed
    /// pipelines (`None` for centralized baselines).
    pub rounds: Option<u64>,
    /// Bandwidth the request asked effective rounds to be scaled by.
    pub bandwidth: u32,
    /// Worst per-level `α + β` (shortcut pipeline only).
    pub measured_sc: Option<u64>,
    /// Per-level shortcut quality (empty for non-shortcut pipelines).
    pub level_quality: Vec<ShortcutQuality>,
    /// One full shortcut tool-pass cost (shortcut pipeline only).
    pub pass_cost: Option<u64>,
    /// Deterministic set-cover fallbacks used (shortcut pipeline only).
    pub fallbacks: Option<u32>,
    /// Structural statistics of the inner TAP run (Theorem 1.1
    /// pipelines only).
    pub tap_stats: Option<TapStats>,
    /// Edges removed by failure injection, as ids of the *original*
    /// graph (empty when the request asked for none).
    pub failed_edges: Vec<EdgeId>,
    /// What the incremental engine re-ran, for delta-stream `shortcut`
    /// solves (`None` for every other solve).
    pub incremental: Option<IncrementalStats>,
    /// Order-independent fingerprint of the solved (mutated) graph, echoed
    /// for delta requests: [`delta_fingerprint`](crate::delta_fingerprint)
    /// of the base graph and the batch.
    pub fingerprint: Option<u64>,
    /// Whether the chosen subgraph was verified 2-edge-connected and
    /// spanning (the session re-checks every output).
    pub valid: bool,
    /// Wall-clock time of the solve call, in milliseconds.
    pub wall_ms: f64,
    /// Per-phase trace lines (populated per the request's
    /// [`TraceLevel`](crate::TraceLevel)).
    pub trace: Vec<String>,
}

impl SolveReport {
    /// `weight / lower_bound` via the one shared
    /// [`certified_ratio`](weight::certified_ratio) helper (pins to
    /// `1.0` on a non-positive bound).
    pub fn certified_ratio(&self) -> f64 {
        weight::certified_ratio(self.weight as f64, self.lower_bound)
    }

    /// Rounds rescaled to the requested bandwidth: `ceil(rounds / B)`
    /// (aggregation/pipelining primitives move `B` words per edge per
    /// round).
    pub fn effective_rounds(&self) -> Option<u64> {
        self.rounds.map(|r| r.div_ceil(self.bandwidth.max(1) as u64))
    }

    /// The worst hierarchy level by `α + β`, when the shortcut pipeline
    /// produced one.
    pub fn worst_level(&self) -> Option<&ShortcutQuality> {
        self.level_quality.iter().max_by_key(|q| q.cost())
    }

    /// Renders the human-readable report the CLI prints: one `key: value`
    /// line per populated field, stable keys.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let label = if self.label.is_empty() {
            &self.algorithm
        } else {
            &self.label
        };
        let _ = writeln!(out, "algorithm: {label}");
        if !self.params.is_empty() {
            let _ = writeln!(out, "params: {}", self.params);
        }
        let _ = writeln!(out, "instance: n={} m={}", self.n, self.m);
        if !self.failed_edges.is_empty() {
            let _ = writeln!(out, "failed-edges: {}", ids_csv(&self.failed_edges));
        }
        let _ = writeln!(out, "edges: {}", ids_csv(&self.edges));
        let _ = writeln!(out, "weight: {}", self.weight);
        if let (Some(mst), Some(aug)) = (self.mst_weight, self.augmentation_weight) {
            let _ = writeln!(out, "weight-split: mst={mst} augmentation={aug}");
        }
        if let Some(r) = self.rounds {
            let _ = writeln!(out, "simulated-rounds: {r}");
        }
        if self.bandwidth > 1 {
            if let Some(er) = self.effective_rounds() {
                let _ = writeln!(out, "effective-rounds: {er} (bandwidth {})", self.bandwidth);
            }
        }
        let _ = writeln!(out, "valid-2ecss: {}", self.valid);
        if self.lower_bound > 0.0 {
            let _ = writeln!(out, "certified-ratio: {:.3}", self.certified_ratio());
        } else {
            // No certificate (e.g. `verify` on an ad-hoc edge set, or an
            // all-zero-weight instance): don't print a number that reads
            // as "within 1.0x of optimal".
            let _ = writeln!(out, "certified-ratio: n/a (no lower bound)");
        }
        if let Some(g) = self.guarantee {
            let _ = writeln!(out, "guarantee: {g:.3}");
        }
        if let Some(sc) = self.measured_sc {
            let _ = writeln!(out, "measured-sc: {sc}");
        }
        if let Some(worst) = self.worst_level() {
            let _ = writeln!(
                out,
                "worst-level: alpha={} beta={} scheme={:?} ({} levels)",
                worst.alpha,
                worst.beta,
                worst.scheme,
                self.level_quality.len()
            );
        }
        if let Some(inc) = self.incremental {
            let _ = writeln!(
                out,
                "incremental: parts-redone={} levels-redone={} fell-back={}",
                inc.parts_redone, inc.levels_redone, inc.fell_back
            );
        }
        if let Some(fp) = self.fingerprint {
            let _ = writeln!(out, "fingerprint: {fp:#018x}");
        }
        let _ = writeln!(out, "wall-clock: {:.3} ms", self.wall_ms);
        for line in &self.trace {
            let _ = writeln!(out, "trace: {line}");
        }
        out
    }

    /// The report's JSON fields *without* the surrounding braces or the
    /// full edge-id list — the building block sweep writers embed in
    /// their own row objects (`"family": ..., <json_fields>`).
    pub fn json_fields(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "\"algorithm\": \"{}\", \"n\": {}, \"m\": {}, \"edges\": {}, \"weight\": {}, \
             \"lower_bound\": {:.4}, \"certified_ratio\": {:.4}, \"valid\": {}",
            escape(&self.algorithm),
            self.n,
            self.m,
            self.edges.len(),
            self.weight,
            self.lower_bound,
            self.certified_ratio(),
            self.valid,
        );
        if let Some(r) = self.rounds {
            let _ = write!(out, ", \"rounds\": {r}");
        }
        if self.bandwidth > 1 {
            if let Some(er) = self.effective_rounds() {
                let _ =
                    write!(out, ", \"bandwidth\": {}, \"effective_rounds\": {er}", self.bandwidth);
            }
        }
        if let Some(g) = self.guarantee {
            let _ = write!(out, ", \"guarantee\": {g:.4}");
        }
        if let Some(sc) = self.measured_sc {
            let _ = write!(out, ", \"measured_sc\": {sc}");
        }
        if let Some(worst) = self.worst_level() {
            let _ = write!(out, ", \"alpha\": {}, \"beta\": {}", worst.alpha, worst.beta);
        }
        if let Some(pc) = self.pass_cost {
            let _ = write!(out, ", \"pass_cost\": {pc}");
        }
        if let Some(fb) = self.fallbacks {
            let _ = write!(out, ", \"fallbacks\": {fb}");
        }
        if !self.failed_edges.is_empty() {
            let _ = write!(
                out,
                ", \"failed_edges\": [{}]",
                self.failed_edges
                    .iter()
                    .map(|e| e.0.to_string())
                    .collect::<Vec<_>>()
                    .join(", ")
            );
        }
        if let Some(inc) = self.incremental {
            let _ = write!(
                out,
                ", \"incremental\": {{\"parts_redone\": {}, \"levels_redone\": {}, \
                 \"fell_back\": {}}}",
                inc.parts_redone, inc.levels_redone, inc.fell_back
            );
        }
        if let Some(fp) = self.fingerprint {
            let _ = write!(out, ", \"fingerprint\": {fp}");
        }
        // Listed in `json::NONDETERMINISTIC_FIELDS`: comparisons strip it
        // by key, so its position does not matter.
        let _ = write!(out, ", \"wall_ms\": {:.3}", self.wall_ms);
        out
    }

    /// Renders the whole report as one JSON object (the
    /// [`json_fields`](SolveReport::json_fields) plus the full edge-id
    /// list and the params echo).
    pub fn to_json(&self) -> String {
        format!(
            "{{{}, \"params\": \"{}\", \"edge_ids\": [{}]}}",
            self.json_fields(),
            escape(&self.params),
            self.edges
                .iter()
                .map(|e| e.0.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        )
    }
}

fn ids_csv(ids: &[EdgeId]) -> String {
    ids.iter().map(|e| e.0.to_string()).collect::<Vec<_>>().join(",")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SolveReport {
        SolveReport {
            algorithm: "improved".into(),
            label: "improved".into(),
            params: "epsilon=0.25".into(),
            n: 4,
            m: 5,
            edges: vec![EdgeId(0), EdgeId(2), EdgeId(4)],
            weight: 12,
            lower_bound: 8.0,
            rounds: Some(100),
            bandwidth: 4,
            valid: true,
            wall_ms: 1.5,
            ..SolveReport::default()
        }
    }

    #[test]
    fn ratio_uses_the_shared_helper() {
        let mut r = sample();
        assert!((r.certified_ratio() - 1.5).abs() < 1e-12);
        // The 0-lower-bound edge case pins to 1.0 (all-zero-weight
        // instances are trivially optimal, not infinitely bad).
        r.lower_bound = 0.0;
        assert_eq!(r.certified_ratio(), 1.0);
        r.lower_bound = -3.0;
        assert_eq!(r.certified_ratio(), 1.0);
    }

    #[test]
    fn effective_rounds_scale_and_round_up() {
        let mut r = sample();
        assert_eq!(r.effective_rounds(), Some(25));
        r.rounds = Some(101);
        assert_eq!(r.effective_rounds(), Some(26));
        r.bandwidth = 1;
        assert_eq!(r.effective_rounds(), Some(101));
        r.rounds = None;
        assert_eq!(r.effective_rounds(), None);
    }

    #[test]
    fn text_render_has_the_stable_lines() {
        let text = sample().render_text();
        assert!(text.contains("algorithm: improved\n"));
        assert!(text.contains("edges: 0,2,4\n"));
        assert!(text.contains("weight: 12\n"));
        assert!(text.contains("valid-2ecss: true\n"));
        assert!(text.contains("certified-ratio: 1.500\n"));
        assert!(text.contains("effective-rounds: 25 (bandwidth 4)\n"));
    }

    #[test]
    fn text_render_does_not_claim_a_ratio_without_a_bound() {
        // A report with no lower bound (`verify` on an ad-hoc set) must
        // not print "certified-ratio: 1.000" as if optimality were shown.
        let mut r = sample();
        r.lower_bound = 0.0;
        let text = r.render_text();
        assert!(text.contains("certified-ratio: n/a"), "{text}");
        assert!(!text.contains("certified-ratio: 1.000"), "{text}");
    }

    #[test]
    fn incremental_block_and_fingerprint_render_before_wall_ms() {
        let mut r = sample();
        r.incremental =
            Some(IncrementalStats { parts_redone: 3, levels_redone: 2, fell_back: false });
        r.fingerprint = Some(42);
        let fields = r.json_fields();
        let inc = fields
            .find("\"incremental\": {\"parts_redone\": 3, \"levels_redone\": 2, \"fell_back\": false}")
            .expect("incremental block present");
        let fp = fields.find("\"fingerprint\": 42").expect("fingerprint present");
        let wall = fields.find("\"wall_ms\"").expect("wall_ms present");
        assert!(inc < fp && fp < wall, "{fields}");
        let text = r.render_text();
        assert!(text.contains("incremental: parts-redone=3 levels-redone=2 fell-back=false"));
        // Absent for non-delta solves.
        let plain = sample();
        assert!(!plain.json_fields().contains("incremental"));
        assert!(!plain.json_fields().contains("fingerprint"));
    }

    #[test]
    fn json_fields_embed_and_full_json_closes() {
        let r = sample();
        let fields = r.json_fields();
        assert!(fields.contains("\"algorithm\": \"improved\""));
        assert!(fields.contains("\"certified_ratio\": 1.5000"));
        assert!(fields.contains("\"effective_rounds\": 25"));
        assert!(!fields.contains("edge_ids"));
        let json = r.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"edge_ids\": [0, 2, 4]"));
    }
}
