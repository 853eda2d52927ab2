//! Fault injection for overload and crash-recovery testing.
//!
//! The chaos layer is compiled unconditionally but inert unless activated
//! through `TSPN_SERVE_FAULT_*` environment knobs (or direct
//! [`ChaosConfig`] construction in tests). It can make a flush panic on a
//! schedule, stretch every flush by a fixed latency (a deterministic way
//! to pin serving capacity for saturation tests), and corrupt checkpoints
//! *after* handler-side validation but before publication — proving the
//! batcher's own re-validation is what actually protects the serving
//! parameters.
//!
//! Injected faults flow through the exact production paths: an injected
//! panic unwinds through the batcher's `catch_unwind` and is repaired by
//! the same supervisor that handles a real model crash.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use tspn_tensor::serialize::Checkpoint;

/// Which faults to inject, resolved once at server start.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChaosConfig {
    /// Panic on every Nth flush (1 = every flush). `None` disables.
    pub flush_panic_every: Option<u64>,
    /// Stop injecting panics after this many (`None` = unlimited). Lets a
    /// test drive the server through a crash storm and then assert clean
    /// recovery once the storm ends.
    pub flush_panic_budget: Option<u64>,
    /// Added latency at the start of every flush. Serving capacity becomes
    /// ~`max_batch / flush_delay`, which makes "4× saturation" a number a
    /// test can compute instead of guess.
    pub flush_delay: Option<Duration>,
    /// Corrupt every published checkpoint (NaN poison) after the handler's
    /// validation passes. The batcher must refuse to apply it and keep
    /// serving its current parameters.
    pub corrupt_publish: bool,
    /// Restrict flush faults to one batcher lane (`None` = every lane).
    /// Lets a chaos drill kill a single lane and assert the other lanes
    /// keep serving their shards untouched.
    pub fault_lane: Option<usize>,
}

impl ChaosConfig {
    /// Reads the fault knobs from the environment:
    /// `TSPN_SERVE_FAULT_FLUSH_PANIC_EVERY`,
    /// `TSPN_SERVE_FAULT_FLUSH_PANIC_BUDGET`,
    /// `TSPN_SERVE_FAULT_FLUSH_DELAY_MS`,
    /// `TSPN_SERVE_FAULT_CORRUPT_PUBLISH` (`1`/`true`),
    /// `TSPN_SERVE_FAULT_LANE` (a lane index; faults then arm on that
    /// lane only). Unparseable values deactivate that knob — chaos must
    /// never be able to break a healthy boot.
    pub fn resolve(env: impl Fn(&str) -> Option<String>) -> ChaosConfig {
        let num = |key: &str| {
            env(key)
                .and_then(|v| v.trim().parse::<u64>().ok())
                .filter(|&n| n >= 1)
        };
        let truthy = |key: &str| {
            env(key)
                .map(|v| {
                    let v = v.trim();
                    v == "1" || v.eq_ignore_ascii_case("true")
                })
                .unwrap_or(false)
        };
        ChaosConfig {
            flush_panic_every: num("TSPN_SERVE_FAULT_FLUSH_PANIC_EVERY"),
            flush_panic_budget: num("TSPN_SERVE_FAULT_FLUSH_PANIC_BUDGET"),
            flush_delay: num("TSPN_SERVE_FAULT_FLUSH_DELAY_MS").map(Duration::from_millis),
            corrupt_publish: truthy("TSPN_SERVE_FAULT_CORRUPT_PUBLISH"),
            // Lane 0 is a valid target, so this knob has no ≥1 filter.
            fault_lane: env("TSPN_SERVE_FAULT_LANE").and_then(|v| v.trim().parse().ok()),
        }
    }

    /// Whether any fault is armed.
    pub fn is_active(&self) -> bool {
        self.flush_panic_every.is_some() || self.flush_delay.is_some() || self.corrupt_publish
    }

    /// The config lane `lane` of a multi-lane server should arm: this one
    /// when unscoped or scoped to `lane`, otherwise inert. Publish
    /// corruption is process-wide (it happens before any lane sees the
    /// checkpoint), so it always survives the scoping.
    pub fn for_lane(&self, lane: usize) -> ChaosConfig {
        if self.fault_lane.is_none_or(|l| l == lane) {
            *self
        } else {
            ChaosConfig {
                corrupt_publish: self.corrupt_publish,
                ..ChaosConfig::default()
            }
        }
    }
}

/// Live fault-injection state shared between the batcher thread (flush
/// faults) and handler threads (publish corruption, stats).
#[derive(Debug, Default)]
pub struct Chaos {
    cfg: ChaosConfig,
    flushes: AtomicU64,
    injected_panics: AtomicU64,
    corrupted_publishes: AtomicU64,
}

/// Marker embedded in injected panic payloads so logs distinguish chaos
/// from a genuine model crash.
pub const INJECTED_PANIC_MARK: &str = "chaos: injected flush panic";

impl Chaos {
    /// Chaos state for the given (possibly inert) config.
    pub fn new(cfg: ChaosConfig) -> Self {
        Chaos {
            cfg,
            ..Chaos::default()
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &ChaosConfig {
        &self.cfg
    }

    /// Called by the batcher at the top of every flush: applies the
    /// configured delay, then panics if this flush is scheduled to die and
    /// the panic budget is not exhausted.
    pub fn on_flush(&self) {
        if let Some(delay) = self.cfg.flush_delay {
            std::thread::sleep(delay);
        }
        let Some(every) = self.cfg.flush_panic_every else {
            return;
        };
        let flush = self.flushes.fetch_add(1, Ordering::Relaxed) + 1;
        if !flush.is_multiple_of(every) {
            return;
        }
        if let Some(budget) = self.cfg.flush_panic_budget {
            if self.injected_panics.load(Ordering::Relaxed) >= budget {
                return;
            }
        }
        self.injected_panics.fetch_add(1, Ordering::Relaxed);
        panic!("{INJECTED_PANIC_MARK} (flush {flush})");
    }

    /// Poisons a checkpoint about to be published, if configured. Returns
    /// `true` when corruption was applied (so the caller can log it).
    pub fn corrupt(&self, ckpt: &mut Checkpoint) -> bool {
        if !self.cfg.corrupt_publish {
            return false;
        }
        let Some(value) = ckpt.tensors.iter_mut().find_map(|t| t.data.first_mut()) else {
            return false;
        };
        *value = f32::NAN;
        self.corrupted_publishes.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Total panics injected so far.
    pub fn injected_panics(&self) -> u64 {
        self.injected_panics.load(Ordering::Relaxed)
    }

    /// Total checkpoint publications poisoned so far.
    pub fn corrupted_publishes(&self) -> u64 {
        self.corrupted_publishes.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tspn_tensor::serialize::TensorRecord;

    #[test]
    fn resolve_parses_knobs_and_ignores_garbage() {
        let env = |k: &str| match k {
            "TSPN_SERVE_FAULT_FLUSH_PANIC_EVERY" => Some("3".to_string()),
            "TSPN_SERVE_FAULT_FLUSH_PANIC_BUDGET" => Some("2".to_string()),
            "TSPN_SERVE_FAULT_FLUSH_DELAY_MS" => Some("15".to_string()),
            "TSPN_SERVE_FAULT_CORRUPT_PUBLISH" => Some("true".to_string()),
            "TSPN_SERVE_FAULT_LANE" => Some("0".to_string()),
            _ => None,
        };
        let cfg = ChaosConfig::resolve(env);
        assert_eq!(cfg.flush_panic_every, Some(3));
        assert_eq!(cfg.flush_panic_budget, Some(2));
        assert_eq!(cfg.flush_delay, Some(Duration::from_millis(15)));
        assert!(cfg.corrupt_publish);
        assert_eq!(cfg.fault_lane, Some(0), "lane 0 is a valid fault target");
        assert!(cfg.is_active());
        // Scoped to lane 0: lane 0 arms everything, lane 1 keeps only the
        // process-wide publish corruption.
        assert_eq!(cfg.for_lane(0).flush_panic_every, Some(3));
        let other = cfg.for_lane(1);
        assert_eq!(other.flush_panic_every, None);
        assert_eq!(other.flush_delay, None);
        assert!(other.corrupt_publish);

        let bad = |k: &str| match k {
            "TSPN_SERVE_FAULT_FLUSH_PANIC_EVERY" => Some("0".to_string()),
            "TSPN_SERVE_FAULT_FLUSH_DELAY_MS" => Some("soon".to_string()),
            "TSPN_SERVE_FAULT_CORRUPT_PUBLISH" => Some("maybe".to_string()),
            _ => None,
        };
        let cfg = ChaosConfig::resolve(bad);
        assert!(!cfg.is_active(), "garbage knobs deactivate, never crash");
        assert!(!ChaosConfig::resolve(|_| None).is_active());
    }

    #[test]
    fn panic_schedule_honours_cadence_and_budget() {
        let chaos = Chaos::new(ChaosConfig {
            flush_panic_every: Some(2),
            flush_panic_budget: Some(2),
            ..ChaosConfig::default()
        });
        let mut died = Vec::new();
        for flush in 1..=8 {
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                chaos.on_flush();
            }));
            if outcome.is_err() {
                died.push(flush);
            }
        }
        assert_eq!(died, vec![2, 4], "every 2nd flush dies until the budget");
        assert_eq!(chaos.injected_panics(), 2);
    }

    #[test]
    fn inert_chaos_does_nothing() {
        let chaos = Chaos::new(ChaosConfig::default());
        for _ in 0..16 {
            chaos.on_flush();
        }
        let mut ckpt = Checkpoint {
            tensors: vec![TensorRecord {
                name: "w".to_string(),
                shape: vec![1],
                data: vec![0.5],
            }],
        };
        assert!(!chaos.corrupt(&mut ckpt));
        assert_eq!(ckpt.tensors[0].data[0], 0.5);
    }

    #[test]
    fn corrupt_publish_poisons_the_first_value() {
        let chaos = Chaos::new(ChaosConfig {
            corrupt_publish: true,
            ..ChaosConfig::default()
        });
        let mut ckpt = Checkpoint {
            tensors: vec![TensorRecord {
                name: "w".to_string(),
                shape: vec![2],
                data: vec![0.5, 1.5],
            }],
        };
        assert!(chaos.corrupt(&mut ckpt));
        assert!(ckpt.tensors[0].data[0].is_nan());
        assert_eq!(chaos.corrupted_publishes(), 1);
    }
}
