//! Performance snapshot: times the hot paths (quad-tree build, HGAT
//! forward, GEMM 256³, the batched tile-embedding CNN, one end-to-end
//! prediction, the shared-tables tape build, the delta parameter sync
//! round-trip, the fused optimizer update, a training epoch, and a full
//! test-split evaluation) and records them as JSON so successive PRs
//! have a wall-clock trajectory to compare against. The two gated
//! timings, `train_epoch` and `evaluate_test_split`, are each the median
//! of [`GATED_REPEATS`] runs: at about 10 ms and 5 ms a single run, or a
//! best of three, is too noisy to gate on. `pool_hit_rate` is measured
//! over the steady-state training/evaluation section only (stats are
//! reset after warm-up), so it reflects the recycling behaviour the
//! allocation-free contract is about.
//!
//! Compare two snapshots with the `perf_check` binary.
//!
//! ```text
//! cargo run --release -p tspn-bench --bin perf_snapshot            # writes BENCH_13.json
//! cargo run --release -p tspn-bench --bin perf_snapshot -- --check # quick run, no file
//! cargo run --release -p tspn-bench --bin perf_snapshot -- --out results/bench.json
//! ```
//!
//! The serving-layer metrics (`serve_p50_us`/`serve_p99_us`/`serve_qps`)
//! are appended into the same snapshot file by the `serve_bench` binary
//! (`--merge BENCH_13.json`), which drives a real `tspn-serve` socket loop.

use std::collections::BTreeSet;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

use tspn_core::embed::Me1;
use tspn_core::{Partition, SpatialContext, Trainer, TspnConfig};
use tspn_data::presets::nyc_mini;
use tspn_data::synth::generate_dataset;
use tspn_data::Visit;
use tspn_geo::{NodeId, QuadTree, QuadTreeConfig};
use tspn_graph::{build_qrp, Hgat, QrpOptions};
use tspn_tensor::nn::LayerNorm;
use tspn_tensor::{
    fused_attention, gemm, init, kernel_tier, optim, parallel, pool, FusedAttnSpec, Tensor,
};

/// One timed metric: wall-clock seconds, the best of `repeats` runs (the
/// median for the gated timings).
#[derive(Debug, Clone, Serialize)]
struct Metric {
    name: String,
    seconds: f64,
    repeats: usize,
}

/// The whole snapshot, serialised to `BENCH_13.json`.
#[derive(Debug, Clone, Serialize)]
struct Snapshot {
    /// Snapshot schema/PR generation marker.
    generation: usize,
    threads: usize,
    /// Active compute-kernel tier (`avx2-fma` or `scalar`) — wall-clock
    /// numbers are only comparable within one tier.
    kernel_tier: String,
    metrics: Vec<Metric>,
    pool_hit_rate: f64,
}

/// Runs behind each gated timing's median: enough that a few slow runs
/// inside one process cannot move it. A median never reads lower than
/// the best of the same runs, so this never loosens `perf_check`'s gate.
const GATED_REPEATS: usize = 9;

/// Best-of-`repeats` timing.
fn time_best(repeats: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..repeats {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// Median-of-`repeats` timing — for long metrics where best-of hides
/// real cost and a single shot is too noisy to gate on.
fn time_median(repeats: usize, mut f: impl FnMut()) -> f64 {
    let mut times: Vec<f64> = (0..repeats)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let check_only = args.iter().any(|a| a == "--check");
    // `run_all` forwards its flags verbatim: `--out` names a *directory*
    // there, so accept either a directory (snapshot lands inside it) or a
    // file path; `--quick` shrinks the workload without skipping the write.
    let quick = check_only || args.iter().any(|a| a == "--quick");
    let out_arg = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_13.json".to_string());
    let out_path = if std::path::Path::new(&out_arg).is_dir() {
        std::path::Path::new(&out_arg)
            .join("BENCH_13.json")
            .to_string_lossy()
            .into_owned()
    } else {
        out_arg
    };
    let repeats = if quick { 2 } else { 5 };
    let scale = if quick { 0.15 } else { 0.35 };

    let mut metrics = Vec::new();
    let mut record = |name: &str, seconds: f64, repeats: usize| {
        println!("{name:<28} {:>10.3} ms", seconds * 1e3);
        metrics.push(Metric {
            name: name.to_string(),
            seconds,
            repeats,
        });
    };

    // --- Quad-tree construction ---
    let mut dcfg = nyc_mini(scale);
    dcfg.days = if quick { 8 } else { 15 };
    let (ds, world) = generate_dataset(dcfg);
    let locs = ds.poi_locations();
    let qt_secs = time_best(repeats, || {
        std::hint::black_box(QuadTree::build(
            ds.region,
            &locs,
            QuadTreeConfig {
                max_depth: 7,
                leaf_capacity: 6,
            },
        ));
    });
    record("quadtree_build", qt_secs, repeats);

    // --- HGAT forward ---
    let tree = QuadTree::build(
        ds.region,
        &locs,
        QuadTreeConfig {
            max_depth: 6,
            leaf_capacity: 10,
        },
    );
    let leaves = tree.leaves();
    let mut road: BTreeSet<(NodeId, NodeId)> = BTreeSet::new();
    for w in leaves.windows(2) {
        road.insert((w[0].min(w[1]), w[0].max(w[1])));
    }
    let visits: Vec<Visit> = ds.users[0]
        .trajectories
        .iter()
        .flat_map(|t| t.visits.iter().copied())
        .collect();
    let graph = build_qrp(&tree, &road, &visits, &ds, QrpOptions::default());
    let mut rng = StdRng::seed_from_u64(1);
    let hgat = Hgat::new(&mut rng, 32, 2);
    let h0 = init::normal(&mut rng, 0.0, 0.5, vec![graph.num_nodes(), 32]).detach();
    let hgat_secs = time_best(repeats, || {
        std::hint::black_box(hgat.forward_union(&[&graph], &h0));
    });
    record("hgat_forward_2layer", hgat_secs, repeats);

    // --- GEMM 256³ ---
    let n = 256usize;
    let a: Vec<f32> = (0..n * n).map(|i| (i % 17) as f32 * 0.1).collect();
    let b: Vec<f32> = (0..n * n).map(|i| (i % 13) as f32 * 0.1).collect();
    let mut c = vec![0.0f32; n * n];
    let gemm_secs = time_best(repeats.max(3), || {
        c.fill(0.0);
        gemm(&a, &b, &mut c, n, n, n);
        std::hint::black_box(&c);
    });
    record("gemm_256", gemm_secs, repeats.max(3));
    let gflops = 2.0 * (n * n * n) as f64 / gemm_secs / 1e9;
    println!("{:<28} {gflops:>10.2} GFLOP/s", "  (gemm_256 throughput)");

    // --- Vectorised row kernels: softmax and layer-norm over a tall
    // activation-shaped matrix ---
    let (rows, width) = (2048usize, 256usize);
    let logits: Vec<f32> = (0..rows * width)
        .map(|i| (i % 29) as f32 * 0.17 - 2.0)
        .collect();
    let softmax_secs = time_best(repeats.max(3), || {
        Tensor::no_grad(|| {
            let x = Tensor::from_vec(logits.clone(), vec![rows, width]);
            std::hint::black_box(x.softmax_rows());
        });
    });
    record("softmax_rows", softmax_secs, repeats.max(3));
    let ln = LayerNorm::new(width);
    let ln_secs = time_best(repeats.max(3), || {
        Tensor::no_grad(|| {
            let x = Tensor::from_vec(logits.clone(), vec![rows, width]);
            std::hint::black_box(ln.forward(&x));
        });
    });
    record("layer_norm_rows", ln_secs, repeats.max(3));

    // --- Fused flash-style attention stage: a jagged causal batch shaped
    // like the fusion module's self-attention (32 samples × 48 positions,
    // dm 64) through the single fused node ---
    {
        let (batch, seq, dm) = (32usize, 48usize, 64usize);
        let total = batch * seq;
        let qkv: Vec<f32> = (0..total * dm)
            .map(|i| (i % 23) as f32 * 0.09 - 1.0)
            .collect();
        let starts: Vec<usize> = (0..batch).map(|b| b * seq).collect();
        let lens = vec![seq; batch];
        let fused_secs = time_best(repeats.max(3), || {
            Tensor::no_grad(|| {
                let x = Tensor::from_vec(qkv.clone(), vec![total, dm]);
                let out = fused_attention(
                    &x,
                    &x,
                    &x,
                    &FusedAttnSpec {
                        dm,
                        q_col: 0,
                        k_col: 0,
                        v_col: 0,
                        q_starts: &starts,
                        q_lens: &lens,
                        k_starts: &starts,
                        k_lens: &lens,
                        scale: 1.0 / (dm as f32).sqrt(),
                        causal: true,
                    },
                );
                std::hint::black_box(out);
            });
        });
        record("fused_attention_stage", fused_secs, repeats.max(3));
    }

    // --- End-to-end model paths ---
    let cfg = TspnConfig {
        dm: 16,
        image_size: 8,
        attn_blocks: 1,
        hgat_layers: 1,
        batch_size: 8,
        partition: Partition::QuadTree {
            max_depth: 5,
            leaf_capacity: 12,
        },
        ..TspnConfig::default()
    };
    let ctx = SpatialContext::build(ds, world, &cfg);
    let mut trainer = Trainer::new(cfg, ctx);
    let samples = trainer.ctx.dataset.all_samples();
    let sample = samples[samples.len() / 2];

    // --- Batch tables tape (built once per training step) ---
    let tables_secs = time_best(repeats.max(3), || {
        std::hint::black_box(trainer.model.batch_tables(&trainer.ctx));
    });
    record("tables_build", tables_secs, repeats.max(3));

    // --- One query: a batch of one through `predict_many` (the only
    // inference path); the metric keeps its name so the BENCH trajectory
    // stays comparable ---
    let tables = trainer.model.batch_tables(&trainer.ctx);
    let predict_secs = time_best(repeats, || {
        std::hint::black_box(trainer.model.predict(&trainer.ctx, &sample, &tables));
    });
    record("predict_one", predict_secs, repeats);

    // --- Padded batched forward (one [batch, seq, dm] tape) ---
    let fb_batch: Vec<_> = samples
        .iter()
        .take(if quick { 32 } else { 64 })
        .copied()
        .collect();
    let fb_secs = time_best(repeats, || {
        tspn_tensor::Tensor::no_grad(|| {
            std::hint::black_box(trainer.model.forward_batch(
                &trainer.ctx,
                &fb_batch,
                &tables,
                false,
            ));
        });
    });
    drop(tables);
    record("forward_batch", fb_secs, repeats);

    // --- Batched CNN tile embedding (the Me1 hot path) ---
    let mut rng = StdRng::seed_from_u64(2);
    let me1 = Me1::new(
        &mut rng,
        trainer.model.config.image_size,
        trainer.model.config.dm,
    );
    let embed_secs = time_best(repeats, || {
        std::hint::black_box(me1.embed_tiles_chw(&trainer.ctx.image_chw));
    });
    record("conv_batch_embed", embed_secs, repeats);

    // --- Fused optimizer update: the single-pass Adam kernel over
    // model-shaped parameters with live gradients (grad scale + decay +
    // update in one sweep) ---
    {
        let params = trainer.model.params();
        for p in &params {
            p.mul(p).sum_all().backward();
        }
        let mut adam = optim::Adam::new(1e-3);
        let opt_secs = time_best(repeats.max(3), || {
            adam.step_scaled(&params, 0.5, |_| {});
        });
        record("optimizer_step", opt_secs, repeats.max(3));
        optim::zero_grad(&params);
    }

    // Warm the buffer pool and the model's caches (evaluation runs on this
    // thread, on the owner's model), then reset the pool counters so the
    // reported hit rate is the steady-state one.
    let train: Vec<_> = samples
        .iter()
        .take(if quick { 16 } else { 64 })
        .copied()
        .collect();
    let eval: Vec<_> = samples
        .iter()
        .take(if quick { 32 } else { 256 })
        .copied()
        .collect();
    trainer.fit_epochs(&train, 1);
    std::hint::black_box(trainer.evaluate(&eval));
    pool::reset_stats();

    let train_secs = time_median(GATED_REPEATS, || {
        trainer.fit_epochs(&train, 1);
    });
    record("train_epoch", train_secs, GATED_REPEATS);

    let eval_secs = time_median(GATED_REPEATS, || {
        std::hint::black_box(trainer.evaluate(&eval));
    });
    record("evaluate_test_split", eval_secs, GATED_REPEATS);

    let snapshot = Snapshot {
        generation: 13,
        threads: parallel::num_threads(),
        kernel_tier: kernel_tier().to_string(),
        metrics,
        pool_hit_rate: pool::stats().hit_rate(),
    };
    let json = serde_json::to_string(&snapshot).expect("serialise snapshot");
    if check_only {
        println!(
            "--check: snapshot not written ({} metrics ok)",
            snapshot.metrics.len()
        );
    } else {
        std::fs::write(&out_path, &json).expect("write snapshot file");
        println!("wrote {out_path}");
    }
}
