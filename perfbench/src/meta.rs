//! The benchmark's frozen facts. `BENCHMARK.json` names each metric
//! and its unit; `perfbench/meta.json` holds the nominal host reference
//! time, the pinned instance fingerprints, and which time or rate
//! metrics are reported host-scaled.

use crate::json::{self, Value};

/// Both are read by path from this package's manifest, so the benchmark
/// finds them from any working directory of the checkout it was built in.
const META_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/meta.json");
const BENCHMARK_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

pub struct Meta {
    doc: Value,
    pub ref_nominal_ms: f64,
    /// `(name, unit)` of each end-to-end metric, in `BENCHMARK.json`
    /// order.
    pub end_to_end: Vec<(String, String)>,
    /// `(name, unit)` of each per-layer metric, in `BENCHMARK.json`
    /// order.
    pub per_layer: Vec<(String, String)>,
}

fn read(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("parsing {path}: {e}"))
}

/// The `(name, unit)` pairs of one metric list of `BENCHMARK.json`.
fn metric_list(bench: &Value, key: &str) -> Result<Vec<(String, String)>, String> {
    bench
        .get(key)
        .and_then(Value::as_arr)
        .ok_or(format!("BENCHMARK.json lacks its {key} list"))?
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Value::as_str).map(str::to_string);
            field("name")
                .zip(field("unit"))
                .ok_or(format!("a {key} metric of BENCHMARK.json lacks its name or unit"))
        })
        .collect()
}

impl Meta {
    pub fn load() -> Result<Meta, String> {
        let doc = read(META_PATH)?;
        let ref_nominal_ms = doc
            .get("ref_nominal_ms")
            .and_then(Value::as_f64)
            .filter(|x| *x > 0.0)
            .ok_or("meta.json lacks a positive ref_nominal_ms")?;
        let bench = read(BENCHMARK_PATH)?;
        Ok(Meta {
            doc,
            ref_nominal_ms,
            end_to_end: metric_list(&bench, "end_to_end")?,
            per_layer: metric_list(&bench, "per_layer")?,
        })
    }

    /// The unit `BENCHMARK.json` gives end-to-end metric `name`.
    pub fn unit(&self, name: &str) -> &str {
        self.end_to_end
            .iter()
            .find(|(n, _)| n == name)
            .map_or("", |(_, unit)| unit)
    }

    /// Fails unless `fingerprint` is the value pinned for `label`.
    pub fn check_pin(&self, label: &str, fingerprint: u64) -> Result<(), String> {
        let got = format!("{fingerprint:016x}");
        match self
            .doc
            .get("pins")
            .and_then(|p| p.get(label))
            .and_then(Value::as_str)
        {
            Some(pinned) if pinned == got => Ok(()),
            Some(pinned) => Err(format!(
                "instance {label} has fingerprint {got}, pinned {pinned}: the generator changed"
            )),
            None => Err(format!("no pinned fingerprint for instance {label} (it has {got})")),
        }
    }

    /// Whether `metric` of `workload` is reported host-scaled: the
    /// `"form"` of its `"<workload>/<metric>"` entry in `"scaling"`.
    pub fn scaled(&self, workload: &str, metric: &str) -> bool {
        self.doc
            .get("scaling")
            .and_then(|s| s.get(&format!("{workload}/{metric}")))
            .and_then(|v| v.get("form"))
            .and_then(Value::as_str)
            == Some("scaled")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::e2e::Workload;

    #[test]
    fn benchmark_json_and_meta_json_agree() {
        let meta = Meta::load().unwrap();
        assert_eq!(meta.unit("op_ms"), "ms");
        assert_eq!(meta.unit("setup_s"), "s");
        assert!(meta
            .per_layer
            .iter()
            .any(|(name, unit)| name == "host.ref_ms" && unit == "ms"));
        // A time or rate metric without a recorded form would silently
        // report raw.
        for w in Workload::ALL {
            for metric in ["op_ms", "op_ms.tail", "ops_per_s", "setup_s"] {
                let key = format!("{}/{metric}", w.name());
                let form = meta
                    .doc
                    .get("scaling")
                    .and_then(|s| s.get(&key))
                    .and_then(|e| e.get("form"))
                    .and_then(Value::as_str);
                assert!(matches!(form, Some("raw" | "scaled")), "{key}: {form:?}");
            }
        }
    }
}
