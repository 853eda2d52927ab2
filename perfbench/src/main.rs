//! `perfbench` — the repository benchmark (see `perfbench/README.md`).
//!
//! ```text
//! perfbench --workload serve_repeat --seed 7 --seconds 10 --trace 0 \
//!           --serve-bin path/to/tspn-serve
//! perfbench --self-check --serve-bin path/to/tspn-serve
//! ```
//!
//! Every run prints descriptor and per-step JSON lines, then, as its last
//! line, one JSON object `{"correct","attempted","failed","metrics"}`:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`.

mod fleet;
mod layers;
mod openloop;
mod serve;
mod util;

use std::time::Duration;

use serde::Value;
use tspn_core::SpatialContext;
use tspn_metrics::RankingMetrics;

use util::{jnum, jobj, jstr};

pub const WORKLOADS: [&str; 2] = ["serve_repeat", "serve_session_cold"];

pub struct Env {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    pub serve_bin: String,
}

/// One run's outcome: extra JSON lines (descriptors, ladder steps) and
/// the metrics of the final result line.
#[derive(Default)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64, &'static str)>,
    pub lines: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// The end-to-end metrics every workload reports.
    #[allow(clippy::too_many_arguments)]
    pub fn e2e(
        &mut self,
        setup_s: f64,
        latency: &serve::Window,
        max_qps_at_slo: f64,
        peak_rss_mb: f64,
        train_samples_per_s: f64,
        eval_queries_per_s: f64,
        quality: &RankingMetrics,
    ) {
        self.metric("setup_s", setup_s, "s");
        self.metric("p25_ms", latency.p25, "ms");
        self.metric("peak_rss_mb", peak_rss_mb, "MiB");
        // The median, the tail and the throughputs move 15-90% between
        // runs on a shared two-vCPU VM (host steal preempts client and
        // server alike, and the capacity flips between ladder rungs), wider
        // than any regression bound can be: they are reported, not gated.
        // Steal only ever adds delay, so the lower quartile stays on the
        // undisturbed requests and carries the latency gate.
        self.lines.push(jobj(&[(
            "ungated",
            jobj(&[
                ("p50_ms", jnum(latency.p50)),
                ("p99_ms", jnum(latency.p99)),
                ("max_qps_at_slo", jnum(max_qps_at_slo)),
                ("train_samples_per_s", jnum(train_samples_per_s)),
                ("eval_queries_per_s", jnum(eval_queries_per_s)),
            ]),
        )]));
        self.metric("recall_at_5", quality.recall[0], "frac");
        self.metric("recall_at_10", quality.recall[1], "frac");
        self.metric("recall_at_20", quality.recall[2], "frac");
        self.metric("mrr", quality.mrr, "frac");
    }

    fn result_line(&self) -> String {
        let metrics: Vec<(&str, String)> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                (
                    name.as_str(),
                    jobj(&[("value", jnum(*value)), ("unit", jstr(unit))]),
                )
            })
            .collect();
        jobj(&[
            ("correct", self.correct.to_string()),
            ("attempted", self.attempted.to_string()),
            ("failed", self.failed.to_string()),
            ("metrics", jobj(&metrics)),
        ])
    }
}

/// The workload descriptor line recorded with every result.
pub fn descriptor(
    env: &Env,
    workload: &str,
    ctx: &SpatialContext,
    extra: &[(&str, String)],
) -> String {
    let ds = &ctx.dataset;
    let mut fields = vec![
        ("workload", jstr(workload)),
        ("seed", env.seed.to_string()),
        ("trace", env.trace.to_string()),
        ("dataset", jstr(&ds.name)),
        ("scale", jnum(fleet::SCALE)),
        ("days", fleet::DAYS.to_string()),
        ("pois", ds.pois.len().to_string()),
        ("users", ds.users.len().to_string()),
        ("samples", ds.all_samples().len().to_string()),
    ];
    fields.extend(extra.iter().map(|(k, v)| (*k, v.clone())));
    jobj(&[("descriptor", jobj(&fields))])
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload {} --seed N --seconds N --trace 0|1 --serve-bin PATH\n       \
         perfbench --self-check --serve-bin PATH",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn run(env: &Env) -> Result<Report, String> {
    let flavor = match env.workload.as_str() {
        "serve_repeat" => serve::Flavor::Repeat,
        "serve_session_cold" => serve::Flavor::SessionCold,
        w => return Err(format!("unknown workload {w:?}")),
    };
    if env.trace {
        layers::run(env, flavor)
    } else {
        serve::run(env, flavor)
    }
}

/// Metric names a run must report, from `BENCHMARK.json` in the
/// working directory.
fn declared_metrics(trace: bool) -> Result<Vec<String>, String> {
    let text =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let v: Value = serde_json::from_str(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let key = if trace { "per_layer" } else { "end_to_end" };
    v.get(key)
        .and_then(Value::as_array)
        .ok_or_else(|| format!("BENCHMARK.json has no {key} list"))?
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("{key} entry without a name"))
        })
        .collect()
}

/// The benchmark's own test: each workload briefly, traced and untraced,
/// with the result schema checked against `BENCHMARK.json`, plus a check
/// that verification flags a wrong ranking.
fn self_check(serve_bin: &str) -> Result<(), String> {
    serve::check_verifier()?;
    println!("self-check: verifier rejects a corrupted ranking");
    for workload in WORKLOADS {
        for trace in [false, true] {
            let env = Env {
                workload: workload.to_string(),
                seed: 1,
                seconds: Duration::from_secs(1),
                trace,
                serve_bin: serve_bin.to_string(),
            };
            let report = run(&env)?;
            let line = report.result_line();
            let parsed: Value =
                serde_json::from_str(&line).map_err(|e| format!("result line: {e}"))?;
            let keys: Vec<&str> = match &parsed {
                Value::Object(pairs) => pairs.iter().map(|(k, _)| k.as_str()).collect(),
                _ => Vec::new(),
            };
            if keys != ["correct", "attempted", "failed", "metrics"] {
                return Err(format!("{workload}: result keys {keys:?}"));
            }
            let got: Vec<&str> = report.metrics.iter().map(|(n, _, _)| n.as_str()).collect();
            let want = declared_metrics(trace)?;
            if got != want {
                return Err(format!(
                    "{workload} trace={trace}: metrics {got:?}, declared {want:?}"
                ));
            }
            if let Some((name, _, _)) = report.metrics.iter().find(|(_, v, _)| !v.is_finite()) {
                return Err(format!("{workload} trace={trace}: {name} is not finite"));
            }
            if !report.correct || report.failed != 0 || report.attempted == 0 {
                return Err(format!(
                    "{workload} trace={trace}: correct={} attempted={} failed={}",
                    report.correct, report.attempted, report.failed
                ));
            }
            println!(
                "self-check: {workload} trace={trace} ok ({} ops)",
                report.attempted
            );
        }
    }
    Ok(())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut serve_bin = None;
    let mut check = false;
    let mut args = argv.iter();
    while let Some(flag) = args.next() {
        let mut value = || args.next().cloned().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(value()),
            "--seed" => seed = Some(value().parse::<u64>().unwrap_or_else(|_| usage())),
            "--seconds" => seconds = Some(value().parse::<u64>().unwrap_or_else(|_| usage())),
            "--trace" => trace = Some(value() == "1"),
            "--serve-bin" => serve_bin = Some(value()),
            "--self-check" => check = true,
            _ => usage(),
        }
    }
    let serve_bin = serve_bin.unwrap_or_else(|| usage());
    if check {
        match self_check(&serve_bin) {
            Ok(()) => println!("self-check: ok"),
            Err(e) => {
                eprintln!("perfbench self-check failed: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        usage()
    };
    let env = Env {
        workload,
        seed,
        seconds: Duration::from_secs(seconds.max(1)),
        trace,
        serve_bin,
    };
    match run(&env) {
        Ok(report) => {
            for line in &report.lines {
                println!("{line}");
            }
            println!("{}", report.result_line());
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
