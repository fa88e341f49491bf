//! `perfbench`: runs one named workload of the decss benchmark, checks
//! every output, and prints its metrics; the last line of standard
//! output is the JSON result.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics through the front doors;
//! `--trace 1` is the separate traced run that gives the per-layer
//! metrics. Workloads and metrics are documented in `meta.json` beside
//! this package.

mod e2e;
mod host;
mod http;
mod json;
mod load;
mod meta;
mod spans;
mod stats;
mod traced;

use e2e::{Opts, Run, Workload};
use host::{HostRef, Scale};
use meta::Meta;

const USAGE: &str =
    "usage: perfbench --workload <thm11-solve|thm12-solve|delta-reweight|serve-http> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<(Opts, bool), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => {
                seed = Some(value.parse::<u64>().map_err(|_| format!("bad seed {value:?}"))?)
            }
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0 && *s <= 600.0)
                        .ok_or_else(|| format!("bad seconds {value:?}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let opts = Opts {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
    };
    Ok((opts, trace.ok_or("missing --trace")?))
}

/// `VmHWM` of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The end-to-end metrics of a run, in `BENCHMARK.json` order and with
/// its units, each in its recorded form (host-scaled or raw); the raw
/// forms are printed as `wall.*` lines. A listed metric the run does not
/// compute reads `NaN`, which fails the run.
fn end_to_end(opts: Opts, meta: &Meta, host: &HostRef, run: &Run) -> Vec<(String, f64, String)> {
    let scale = Scale { nominal_ms: meta.ref_nominal_ms, ref_ms: host.median_ms() };
    let name = opts.workload.name();
    let tail = stats::tail(&run.op_samples);
    let setup_s = stats::median(&run.setup_s);
    let tail_ms = tail.map_or(f64::NAN, |t| t.value);
    println!("workload {name} seed {} seconds {}", opts.seed, opts.seconds);
    for note in &run.notes {
        println!("  {note}");
    }
    if let Some(t) = tail {
        println!(
            "  op_ms.tail is p{} of {} samples ({} beyond)",
            t.percentile,
            run.op_samples.len(),
            t.beyond
        );
    }
    println!(
        "  host.ref_ms {:.4} (median of {}, nominal {}) -> scale factor {:.4}",
        scale.ref_ms,
        host.samples().len(),
        scale.nominal_ms,
        scale.factor()
    );
    let mut values: Vec<(&str, f64)> = Vec::new();
    let mut timed = |metric: &'static str, raw: f64, rate: bool, note: &str| {
        let scaled = if rate {
            scale.rate(raw)
        } else {
            scale.time(raw)
        };
        let form = meta.scaled(name, metric);
        let unit = meta.unit(metric);
        println!(
            "  wall.{metric} {raw:.4} {unit}{note}; scaled {scaled:.4} {unit}; reported {}",
            if form { "scaled" } else { "raw" }
        );
        values.push((metric, if form { scaled } else { raw }));
    };
    timed("op_ms", stats::median(&run.op_samples), false, "");
    timed("op_ms.tail", tail_ms, false, "");
    timed("ops_per_s", run.ops_per_s, true, "");
    let setups = format!(" (median of {})", run.setup_s.len());
    timed("setup_s", setup_s, false, &setups);
    let ok = run.attempted - run.failures.len() as u64;
    values.push(("ok_pct", 100.0 * ok as f64 / run.attempted.max(1) as f64));
    values.push(("certified_ratio", stats::mean(&run.ratios)));
    values.push(("rounds", stats::mean(&run.rounds)));
    values.push(("peak_rss_mb", peak_rss_mb()));
    meta.end_to_end
        .iter()
        .map(|(metric, unit)| {
            let value = values.iter().find(|(m, _)| m == metric).map_or(f64::NAN, |&(_, v)| v);
            (metric.clone(), value, unit.clone())
        })
        .collect()
}

fn fail(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    std::process::exit(2);
}

fn main() {
    let (opts, trace) = parse_args().unwrap_or_else(|e| fail(&format!("{e}\n{USAGE}")));
    let meta = Meta::load().unwrap_or_else(|e| fail(&e));
    let mut host = HostRef::new();
    let (attempted, failures, metrics) = if trace {
        match traced::run(opts, &meta, &mut host) {
            Ok(t) => (t.attempted, t.failures, t.metrics),
            Err(e) => fail(&e),
        }
    } else {
        let run = match opts.workload {
            Workload::Thm11 | Workload::Thm12 => e2e::run_solve_loop(opts, &meta, &mut host),
            Workload::Delta => e2e::run_delta_loop(opts, &meta, &mut host),
            Workload::Serve => e2e::run_serve(opts, &mut host),
        }
        .unwrap_or_else(|e| fail(&e));
        let metrics = end_to_end(opts, &meta, &host, &run);
        (run.attempted, run.failures, metrics)
    };
    for failure in failures.iter().take(10) {
        eprintln!("perfbench: FAILED {failure}");
    }
    let correct =
        failures.is_empty() && attempted > 0 && metrics.iter().all(|(_, v, _)| v.is_finite());
    println!(
        "{}",
        json::result_line(correct, attempted, failures.len() as u64, &metrics)
    );
    std::process::exit(if correct { 0 } else { 1 });
}
