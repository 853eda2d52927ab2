//! Repeated evaluations reuse the worker replicas' history encodings.
//!
//! With two or more threads, `Trainer::evaluate` shards a large enough
//! sample set across per-thread model replicas. A replica keeps its copied
//! parameters and batch tables while the owner's `(param version, ctx
//! revision)` is unchanged, so its history-encoding memo, which is keyed
//! by the tables, survives between calls: each replica encodes a history
//! at most once per parameter version.
//!
//! Which pool thread draws which shard is decided at run time, so a
//! second call can still meet a replica that has not seen a history yet
//! (say, when the calling thread answered every shard of the first call).
//! The schedule-free form of the contract is a bound: a replica misses
//! each history at most once, and every call looks each history up at
//! least once, so any number of identical evaluations together miss at
//! most `threads ×` one call's lookups. Without the reuse every lookup
//! misses on every call, and six calls exceed the bound.
//!
//! The thread count is fixed once per process, so the test re-runs itself
//! as child processes with `TSPN_NUM_THREADS=2` and `=3`.

use std::process::Command;

use tspn_core::{Partition, SpatialContext, Trainer, TspnConfig};
use tspn_data::presets::nyc_mini;
use tspn_data::synth::generate_dataset;
use tspn_data::Sample;
use tspn_tensor::parallel;

const CHILD_ENV: &str = "TSPN_REPLICA_MEMO_CHILD";

/// Identical evaluations per run; more than `threads` so the bound bites.
const CALLS: usize = 6;

fn checked_evaluations() {
    let mut dcfg = nyc_mini(0.1);
    dcfg.days = 12;
    let (ds, world) = generate_dataset(dcfg);
    let cfg = TspnConfig {
        dm: 16,
        image_size: 8,
        top_k: 4,
        attn_blocks: 1,
        hgat_layers: 1,
        max_prefix: 6,
        max_history: 16,
        partition: Partition::QuadTree {
            max_depth: 5,
            leaf_capacity: 10,
        },
        ..TspnConfig::default()
    };
    let ctx = SpatialContext::build(ds, world, &cfg);
    // Large enough to leave the owner's model at any thread count here.
    let eval: Vec<Sample> = ctx.dataset.all_samples().into_iter().take(64).collect();
    let trainer = Trainer::new(cfg, ctx);
    let threads = parallel::num_threads() as u64;
    assert!(threads >= 2, "the child must run the sharded path");

    let evaluate = || {
        let before = trainer.model.history_memo_counts();
        let outcomes = trainer.evaluate(&eval);
        (outcomes, trainer.model.history_memo_counts().since(before))
    };
    let (first, cold) = evaluate();
    assert!(cold.misses > 0, "the first call encodes: {cold:?}");
    let lookups = cold.hits + cold.misses;
    let (mut misses, mut later_hits) = (cold.misses, 0);
    for _ in 1..CALLS {
        let (again, counts) = evaluate();
        assert_eq!(first, again);
        misses += counts.misses;
        later_hits += counts.hits;
    }
    assert!(
        misses <= threads * lookups,
        "{CALLS} identical calls missed {misses} times, more than \
         {threads} threads × {lookups} lookups per call"
    );
    assert!(later_hits > 0, "later calls never hit the memo");

    // New parameters re-sync the replicas and start a fresh memo.
    trainer.mark_model_dirty();
    let (resynced_outcomes, resynced) = evaluate();
    assert_eq!(first, resynced_outcomes);
    assert!(
        resynced.misses > 0,
        "a stale replica kept its memo: {resynced:?}"
    );
}

/// Child mode: runs the checks in a process with its own
/// `TSPN_NUM_THREADS`. A no-op in the ordinary sweep.
#[test]
fn child_evaluations() {
    if std::env::var(CHILD_ENV).is_ok() {
        checked_evaluations();
    }
}

#[test]
fn repeated_evaluations_encode_each_history_once_per_replica() {
    if std::env::var(CHILD_ENV).is_ok() {
        return;
    }
    let exe = std::env::current_exe().expect("test binary path");
    for threads in ["2", "3"] {
        let child = Command::new(&exe)
            .args(["child_evaluations", "--exact", "--test-threads=1"])
            .env(CHILD_ENV, "1")
            .env("TSPN_NUM_THREADS", threads)
            .output()
            .expect("spawn child test process");
        assert!(
            child.status.success(),
            "child at {threads} threads failed: {}\n{}\n{}",
            child.status,
            String::from_utf8_lossy(&child.stdout),
            String::from_utf8_lossy(&child.stderr)
        );
    }
}
