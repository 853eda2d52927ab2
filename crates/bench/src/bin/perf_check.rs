//! Compares two `perf_snapshot` JSON files and fails (exit code 1) on a
//! regression of the gated metrics:
//!
//! * `train_epoch` / `evaluate_test_split` — more than `--max-ratio`
//!   (default 1.2×) slower;
//! * `serve_v1_p50_us` / `serve_v1_p99_us` / `serve_v1_qps` — the
//!   serving-layer metrics merged in by `serve_bench`, gated at the
//!   *lenient* `--serve-max-ratio` (default 1.5×, CI machines are noisy
//!   about socket latency). `serve_v1_qps` is a throughput: it fails when
//!   it *drops* by the ratio, not when it rises.
//!
//! A metric new in the candidate is reported and never fails (snapshots
//! grow new metrics across generations). A **gated** baseline metric
//! missing from the candidate fails, unless [`RETIRED`] names it *and*
//! its replacement is gated in this comparison (present in both
//! snapshots) — so a gate can only be retired in favour of another one,
//! never silently dropped. Metric entries may carry their magnitude as
//! `seconds` (timings) or `value` + `unit` (anything else).
//!
//! ```text
//! cargo run --release -p tspn-bench --bin perf_check -- BENCH_2.json BENCH_3.json
//! cargo run --release -p tspn-bench --bin perf_check -- BENCH_2.json BENCH_3.json \
//!     --max-ratio 1.1 --serve-max-ratio 2.0
//! ```

use serde::{Deserialize, Error, Value};

/// One metric, tolerant of schema differences across generations: the
/// magnitude lives in `seconds` (timings, implied unit `s`) or `value`
/// (with an optional `unit` tag); other fields are ignored.
#[derive(Debug, Clone)]
struct Metric {
    name: String,
    magnitude: f64,
    unit: String,
}

impl Deserialize for Metric {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let name = v
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| serde::err("metric entry without a name"))?
            .to_string();
        let (magnitude, default_unit) = if let Some(s) = v.get("seconds") {
            (s.as_f64(), "s")
        } else {
            (v.get("value").and_then(Value::as_f64), "")
        };
        let magnitude =
            magnitude.ok_or_else(|| serde::err(format!("metric {name:?} has no seconds/value")))?;
        let unit = v
            .get("unit")
            .and_then(Value::as_str)
            .unwrap_or(default_unit)
            .to_string();
        Ok(Metric {
            name,
            magnitude,
            unit,
        })
    }
}

/// A deserialised snapshot (unknown fields ignored, so older and newer
/// generations both parse).
#[derive(Debug, Clone)]
struct Snapshot {
    generation: f64,
    threads: f64,
    metrics: Vec<Metric>,
}

impl Deserialize for Snapshot {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let num = |name: &str| v.get(name).and_then(Value::as_f64).unwrap_or(0.0);
        let metrics = match v.get("metrics") {
            Some(Value::Array(items)) => items
                .iter()
                .map(Metric::from_value)
                .collect::<Result<_, _>>()?,
            _ => return Err(serde::err("snapshot without a metrics array")),
        };
        Ok(Snapshot {
            generation: num("generation"),
            threads: num("threads"),
            metrics,
        })
    }
}

/// Gate direction for a metric.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Gate {
    /// Strictly timed hot paths: fail above `max_ratio`.
    LowerIsBetter,
    /// Serving latencies: fail above the lenient `serve_max_ratio`.
    ServeLowerIsBetter,
    /// Serving throughput: fail when it *drops* below `1/serve_max_ratio`.
    ServeHigherIsBetter,
    /// Context only: report, never fail.
    Informational,
}

fn gate_for(name: &str) -> Gate {
    match name {
        "train_epoch" | "evaluate_test_split" => Gate::LowerIsBetter,
        "serve_v1_p50_us" | "serve_v1_p99_us" => Gate::ServeLowerIsBetter,
        "serve_v1_qps" => Gate::ServeHigherIsBetter,
        _ => Gate::Informational,
    }
}

/// Gated metrics that are no longer produced, each with the gated metric
/// that replaced it. The `serve_*` trio timed the index-addressed
/// `POST /predict` load, which was retired with that endpoint; the same
/// load on `/v1/predict` gates `serve_v1_*` at the same bound.
const RETIRED: &[(&str, &str)] = &[
    ("serve_p50_us", "serve_v1_p50_us"),
    ("serve_p99_us", "serve_v1_p99_us"),
    ("serve_qps", "serve_v1_qps"),
];

fn has(snapshot: &Snapshot, name: &str) -> bool {
    snapshot.metrics.iter().any(|m| m.name == name)
}

/// Verdict on a baseline metric the candidate lacks: `Ok` with a note
/// when nothing is lost (the metric was never gated, or it is retired and
/// its replacement is gated in this comparison), `Err` with the reason
/// otherwise.
fn check_dropped(name: &str, base: &Snapshot, cand: &Snapshot) -> Result<String, String> {
    let gated = |n: &str| gate_for(n) != Gate::Informational && has(base, n) && has(cand, n);
    match RETIRED.iter().find(|(old, _)| *old == name) {
        Some((_, new)) if gated(new) => Ok(format!("retired; gated as {new}")),
        Some((_, new)) => Err(format!("retired, but {new} is not gated here")),
        None if gate_for(name) == Gate::Informational => Ok("dropped; not gated".into()),
        None => Err("gated metric missing from candidate".into()),
    }
}

fn load(path: &str) -> Snapshot {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read snapshot {path}: {e}"));
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("cannot parse snapshot {path}: {e}"))
}

/// Pretty magnitude with its unit (`seconds` entries print as ms).
fn fmt_magnitude(m: &Metric) -> String {
    match m.unit.as_str() {
        "s" => format!("{:.3} ms", m.magnitude * 1e3),
        "" => format!("{:.3}", m.magnitude),
        unit => format!("{:.1} {unit}", m.magnitude),
    }
}

fn flag_value(args: &[String], flag: &str, default: f64) -> f64 {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse::<f64>().ok())
        .unwrap_or(default)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut paths = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if args[i].starts_with("--") {
            i += 2; // every flag takes a value
        } else {
            paths.push(args[i].clone());
            i += 1;
        }
    }
    assert!(
        paths.len() == 2,
        "usage: perf_check <baseline.json> <candidate.json> [--max-ratio R] [--serve-max-ratio R]"
    );
    let max_ratio = flag_value(&args, "--max-ratio", 1.2);
    let serve_max_ratio = flag_value(&args, "--serve-max-ratio", 1.5);

    let base = load(&paths[0]);
    let cand = load(&paths[1]);
    println!(
        "baseline {} (gen {}, {} threads) vs candidate {} (gen {}, {} threads)",
        paths[0], base.generation, base.threads, paths[1], cand.generation, cand.threads
    );
    if base.threads != cand.threads {
        println!("warning: thread counts differ; wall-clock ratios are not like-for-like");
    }

    let mut failed = false;
    for new in &cand.metrics {
        let Some(old) = base.metrics.iter().find(|m| m.name == new.name) else {
            println!(
                "{:<24} {:>14}  (new metric, no baseline)",
                new.name,
                fmt_magnitude(new)
            );
            continue;
        };
        if old.magnitude <= 0.0 {
            println!("{:<24} baseline magnitude is zero; skipping", new.name);
            continue;
        }
        let ratio = new.magnitude / old.magnitude;
        let gate = gate_for(&new.name);
        let (ok, threshold) = match gate {
            Gate::LowerIsBetter => (ratio <= max_ratio, max_ratio),
            Gate::ServeLowerIsBetter => (ratio <= serve_max_ratio, serve_max_ratio),
            Gate::ServeHigherIsBetter => (ratio >= 1.0 / serve_max_ratio, serve_max_ratio),
            Gate::Informational => (ratio <= max_ratio, max_ratio),
        };
        let verdict = if ok {
            "ok"
        } else if gate == Gate::Informational {
            "warn"
        } else {
            failed = true;
            "FAIL"
        };
        println!(
            "{:<24} {:>14} -> {:>14}  ({ratio:>5.2}x, gate {threshold:.2}) {verdict}",
            new.name,
            fmt_magnitude(old),
            fmt_magnitude(new),
        );
    }
    for old in base.metrics.iter().filter(|o| !has(&cand, &o.name)) {
        let (note, verdict) = match check_dropped(&old.name, &base, &cand) {
            Ok(note) => (note, "ok"),
            Err(reason) => (reason, "FAIL"),
        };
        failed |= verdict == "FAIL";
        println!(
            "{:<24} {:>14}  ({note}) {verdict}",
            old.name,
            fmt_magnitude(old)
        );
    }
    if failed {
        eprintln!(
            "perf_check: gated metric regressed (time gate {:.2}x, serve gate {:.2}x)",
            max_ratio, serve_max_ratio
        );
        std::process::exit(1);
    }
    println!(
        "perf_check: no gated regressions (time gate {max_ratio:.2}x, serve gate {serve_max_ratio:.2}x)"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot(names: &[&str]) -> Snapshot {
        Snapshot {
            generation: 0.0,
            threads: 1.0,
            metrics: names
                .iter()
                .map(|n| Metric {
                    name: (*n).to_string(),
                    magnitude: 1.0,
                    unit: "us".to_string(),
                })
                .collect(),
        }
    }

    #[test]
    fn a_missing_gated_metric_fails() {
        let base = snapshot(&["train_epoch", "serve_v1_p99_us"]);
        let cand = snapshot(&["serve_v1_p99_us"]);
        assert!(check_dropped("train_epoch", &base, &cand).is_err());
        let cand = snapshot(&["train_epoch"]);
        assert!(check_dropped("serve_v1_p99_us", &base, &cand).is_err());
    }

    #[test]
    fn a_missing_informational_metric_passes() {
        let base = snapshot(&["gemm_128"]);
        assert!(check_dropped("gemm_128", &base, &snapshot(&[])).is_ok());
    }

    #[test]
    fn a_retired_metric_passes_only_with_its_replacement_gated() {
        let base = snapshot(&["serve_p99_us", "serve_v1_p99_us", "serve_qps"]);
        let cand = snapshot(&["serve_v1_p99_us"]);
        let note = check_dropped("serve_p99_us", &base, &cand).expect("replacement gated");
        assert!(note.contains("serve_v1_p99_us"), "{note}");
        // Replacement missing from the candidate.
        assert!(check_dropped("serve_qps", &base, &cand).is_err());
        // Replacement in the candidate but with no baseline to gate against.
        let base = snapshot(&["serve_qps"]);
        let cand = snapshot(&["serve_v1_qps"]);
        assert!(check_dropped("serve_qps", &base, &cand).is_err());
    }
}
