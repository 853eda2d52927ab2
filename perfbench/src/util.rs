//! Small shared helpers: order statistics, seeded arrival schedules,
//! process memory, and the JSON text the benchmark prints.

use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The `p`-quantile (0..=1) of `values` by nearest rank; `NaN` when empty.
pub fn quantile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let idx = ((v.len() as f64 * p).ceil() as usize).clamp(1, v.len()) - 1;
    v[idx]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// A reproducible generator for one named stream of one workload seed, so
/// adding a consumer of randomness never shifts another one's draws.
pub fn rng_for(seed: u64, stream: &str) -> StdRng {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in stream.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ h)
}

/// Arrival offsets of a Poisson process at `rate` per second over
/// `duration`, conditioned on exactly `round(rate · duration)` arrivals
/// (exponential gaps rescaled to end at `duration`). Fixing the count
/// keeps the offered load identical across seeds while the spacing stays
/// Poisson-shaped.
pub fn poisson_schedule(rng: &mut StdRng, rate: f64, duration: Duration) -> Vec<Duration> {
    let n = (rate * duration.as_secs_f64()).round().max(1.0) as usize;
    let mut t = 0.0f64;
    let mut times: Vec<f64> = (0..n)
        .map(|_| {
            t += -(1.0 - rng.gen::<f64>()).ln();
            t
        })
        .collect();
    let end = t - (1.0 - rng.gen::<f64>()).ln();
    let scale = duration.as_secs_f64() / end;
    for x in &mut times {
        *x *= scale;
    }
    times.into_iter().map(Duration::from_secs_f64).collect()
}

/// Peak resident set (`VmHWM`) of a process in MiB, from `/proc`.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// A JSON string literal.
pub fn jstr(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number; non-finite values (which JSON cannot carry) become
/// `null` so a broken measurement fails schema checks instead of parsing.
pub fn jnum(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// A flat JSON object from already-rendered values.
pub fn jobj(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}:{v}", jstr(k)))
        .collect();
    format!("{{{}}}", body.join(","))
}

pub fn secs_ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
