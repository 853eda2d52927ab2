//! Cross-thread-count bitwise-determinism test for training.
//!
//! Every training step runs on the owner's model on the calling thread,
//! with its dropout RNG seeded from `(seed, step)`, and every kernel inside
//! the step runs on that thread too. A run must therefore produce
//! bitwise-identical parameters whatever `TSPN_NUM_THREADS` says, at any
//! batch size; this test uses `batch_size: 4`, so every step is a
//! multi-sample batch.
//!
//! The thread count is fixed once per process, so this test spawns the
//! test binary as child processes (`TSPN_NUM_THREADS=1`, `=2` and `=3`),
//! has each train and hash the parameter bits, and asserts the hashes are
//! equal.

use std::process::Command;

use tspn_core::{Partition, SpatialContext, Trainer, TspnConfig};
use tspn_data::presets::nyc_mini;
use tspn_data::synth::generate_dataset;
use tspn_data::Sample;

const CHILD_OUT_ENV: &str = "TSPN_XTHREAD_OUT";

/// Trains a small model with batch size 4 for two epochs and returns an
/// FNV-1a hash of every parameter's bits, in `params()` order.
fn trained_param_hash() -> u64 {
    let mut dcfg = nyc_mini(0.1);
    dcfg.days = 12;
    let (ds, world) = generate_dataset(dcfg);
    let cfg = TspnConfig {
        dm: 16,
        image_size: 8,
        top_k: 4,
        attn_blocks: 1,
        hgat_layers: 1,
        batch_size: 4,
        lr: 5e-3,
        max_prefix: 6,
        max_history: 16,
        partition: Partition::QuadTree {
            max_depth: 5,
            leaf_capacity: 10,
        },
        ..TspnConfig::default()
    };
    let ctx = SpatialContext::build(ds, world, &cfg);
    // 14 samples: three full batches and a ragged one of two.
    let train: Vec<Sample> = ctx.dataset.all_samples().into_iter().take(14).collect();
    let mut trainer = Trainer::new(cfg, ctx);
    trainer.fit_epochs(&train, 2);
    let mut hash = 0xcbf29ce484222325u64;
    for p in trainer.model.params() {
        for v in p.to_vec() {
            for byte in v.to_bits().to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x100000001b3);
            }
        }
    }
    hash
}

/// Child mode: invoked by the parent test below in a fresh process with
/// its own `TSPN_NUM_THREADS`. Writes the parameter hash to the path in
/// `TSPN_XTHREAD_OUT`. A no-op when run as part of the ordinary sweep.
#[test]
fn child_emit() {
    let Ok(path) = std::env::var(CHILD_OUT_ENV) else {
        return;
    };
    std::fs::write(&path, format!("{:016x}", trained_param_hash())).expect("write child output");
}

#[test]
fn training_is_bitwise_identical_across_thread_counts() {
    // Guard against recursing when this test runs inside a child.
    if std::env::var(CHILD_OUT_ENV).is_ok() {
        return;
    }
    let exe = std::env::current_exe().expect("test binary path");
    let dir = std::env::temp_dir();
    let hashes: Vec<String> = ["1", "2", "3"]
        .iter()
        .map(|threads| {
            let path = dir.join(format!(
                "tspn_xthread_train_{}_{threads}.txt",
                std::process::id()
            ));
            let child = Command::new(&exe)
                .args(["child_emit", "--exact", "--test-threads=1"])
                .env(CHILD_OUT_ENV, &path)
                .env("TSPN_NUM_THREADS", threads)
                .output()
                .expect("spawn child test process");
            assert!(
                child.status.success(),
                "child at {threads} threads failed: {}\n{}",
                child.status,
                String::from_utf8_lossy(&child.stdout)
            );
            let hash = std::fs::read_to_string(&path).expect("child output written");
            let _ = std::fs::remove_file(&path);
            hash
        })
        .collect();
    assert!(!hashes[0].is_empty(), "child produced an empty hash");
    for (threads, hash) in ["2", "3"].iter().zip(&hashes[1..]) {
        assert_eq!(
            &hashes[0], hash,
            "training diverged between 1 and {threads} threads"
        );
    }
}
