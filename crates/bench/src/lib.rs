//! The experiment harness: prints every table and figure to stdout
//! (`cargo run -p decss-bench --bin experiments -- all`), hosts the
//! Criterion wall-clock benches, and owns the `BENCH_*.json`
//! writer/parser behind the perf regression gate (`bench_gate`).

pub mod benchjson;
pub mod experiments;
pub mod table;
