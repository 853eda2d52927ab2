//! Acceptance test for the buffer pool: a steady-state training step must
//! perform **zero** heap allocation on the tensor data path.
//!
//! This lives in its own integration binary so the process-global pool
//! counters see only this test's traffic (the library unit tests run many
//! pool users concurrently).

use std::sync::Mutex;

use rand::rngs::StdRng;
use rand::SeedableRng;
use tspn_tensor::nn::{Conv2d, LayerNorm, Linear, Module};
use tspn_tensor::{jagged_causal_mask, jagged_key_padding_mask, optim, pool, Tensor};

/// The pool counters are process-global; the steady-state tests must
/// not interleave their reset/assert windows.
static COUNTER_LOCK: Mutex<()> = Mutex::new(());

#[test]
fn steady_state_batched_forward_training_step_allocates_nothing() {
    let _guard = COUNTER_LOCK.lock().expect("counter lock");
    // A padded, masked batched-forward step built from the batched
    // primitives (padded gather, bmm_jagged/bmm_nt_jagged, causal +
    // key-padding masks, grouped cosine, row-wise arcface): every pad/mask
    // scratch buffer must come from the pool, so a warmed step allocates
    // nothing.
    let mut rng = StdRng::seed_from_u64(3);
    let (b, s, dm) = (4usize, 5usize, 12usize);
    let table = Tensor::param(
        (0..20 * dm)
            .map(|i| ((i % 13) as f32 - 6.0) * 0.05)
            .collect(),
        vec![20, dm],
    );
    let wq = Linear::new(&mut rng, dm, dm);
    let wk = Linear::new(&mut rng, dm, dm);
    let wv = Linear::new(&mut rng, dm, dm);
    let params = [vec![table.clone()], wq.params(), wk.params(), wv.params()].concat();
    let mut adam = optim::Adam::new(1e-3);

    let groups: Vec<Vec<usize>> = vec![vec![0, 1, 2], vec![3, 4], vec![5, 6, 7, 8, 9], vec![1, 3]];
    let lens: Vec<usize> = groups.iter().map(Vec::len).collect();
    let last_rows: Vec<usize> = lens
        .iter()
        .enumerate()
        .map(|(bi, &l)| bi * s + l - 1)
        .collect();
    let cand_groups: Vec<Vec<usize>> = vec![vec![2, 5, 9], vec![0, 7], vec![11, 3, 4, 6], vec![8]];
    let cand_lens: Vec<usize> = cand_groups.iter().map(Vec::len).collect();
    // Every block is `s` rows of the padded gather.
    let starts: Vec<usize> = (0..b).map(|i| i * s).collect();
    let full = vec![s; b];

    let mut step = || {
        optim::zero_grad(&params);
        let h = table.gather_rows_padded(&groups, s);
        let q = wq.forward(&h);
        let k = wk.forward(&h);
        let v = wv.forward(&h);
        // Self-attention under the per-block causal mask…
        let att = q
            .bmm_nt_jagged(&k, s, &starts, &full, &starts, &full)
            .scale(0.3)
            .softmax_rows_masked(Some(&jagged_causal_mask(&full, s)));
        let z = att.bmm_jagged(&v, &starts, &full, &full, &starts);
        // …and a key-padding-masked cross product over the same blocks.
        let att2 = q
            .bmm_nt_jagged(&z, s, &starts, &full, &starts, &full)
            .scale(0.3)
            .softmax_rows_masked(Some(&jagged_key_padding_mask(&full, &lens, s)));
        let mixed = att2.bmm_jagged(&v, &starts, &full, &full, &starts);
        let queries = mixed.gather_rows(&last_rows);
        let cands = table.gather_rows_padded(&cand_groups, 4);
        let cos = queries.cosine_grouped(&cands, &cand_lens);
        let loss = cos
            .arcface_loss_rows(&[0, 1, 2, 0], &cand_lens, 8.0, 0.2)
            .sum_all()
            .scale(0.25);
        loss.backward();
        optim::clip_grad_norm(&params, 5.0);
        adam.step(&params);
    };

    for _ in 0..3 {
        step();
    }

    pool::reset_stats();
    for _ in 0..20 {
        step();
    }
    let stats = pool::stats();
    assert!(
        stats.hits > 400,
        "expected real pool traffic, saw {stats:?}"
    );
    assert_eq!(
        stats.misses, 0,
        "steady-state batched forward must not allocate tensor buffers: {stats:?}"
    );
    assert_eq!(
        stats.discarded, 0,
        "steady-state batched buffers must all be retained: {stats:?}"
    );
}

#[test]
fn steady_state_conv_training_step_allocates_nothing() {
    let _guard = COUNTER_LOCK.lock().expect("counter lock");
    // The batched im2col + GEMM convolution draws all its scratch (the
    // column matrix, GEMM staging, packed panels) from the pool; a warmed
    // conv-bearing training step must therefore be allocation-free too.
    let mut rng = StdRng::seed_from_u64(7);
    let conv1 = Conv2d::new(&mut rng, 3, 4, 3, 2, 1);
    let conv2 = Conv2d::new(&mut rng, 4, 8, 3, 2, 1);
    let head = Linear::new(&mut rng, 8 * 4 * 4, 6);
    let params = [conv1.params(), conv2.params(), head.params()].concat();
    let mut adam = optim::Adam::new(1e-3);

    let mut step = || {
        optim::zero_grad(&params);
        let x = Tensor::full(0.3, vec![5, 3, 16, 16]);
        let h1 = conv1.forward_batch(&x).relu();
        let h2 = conv2.forward_batch(&h1).relu();
        let flat = h2.reshape(vec![5, 8 * 4 * 4]);
        let out = head.forward(&flat).tanh();
        let loss = out.square().sum_all().scale(0.1);
        loss.backward();
        optim::clip_grad_norm(&params, 5.0);
        adam.step(&params);
    };

    for _ in 0..3 {
        step();
    }

    pool::reset_stats();
    for _ in 0..20 {
        step();
    }
    let stats = pool::stats();
    assert!(
        stats.hits > 200,
        "expected real pool traffic, saw {stats:?}"
    );
    assert_eq!(
        stats.misses, 0,
        "steady-state conv training must not allocate tensor buffers: {stats:?}"
    );
    assert_eq!(
        stats.discarded, 0,
        "steady-state conv buffers must all be retained: {stats:?}"
    );
}

#[test]
fn steady_state_fused_optimizer_step_allocates_nothing() {
    let _guard = COUNTER_LOCK.lock().expect("counter lock");
    // The PR-9 fused hot path: residual + layer norm folded into one
    // node (`forward_residual`) and the clip-folded single-pass Adam
    // update (`grad_global_norm` + `clip_scale` + `step_scaled`). Once
    // warmed, the whole step — forward, backward, norm, update — must
    // be served from recycled buffers.
    let mut rng = StdRng::seed_from_u64(11);
    let l1 = Linear::new(&mut rng, 16, 16);
    let l2 = Linear::new(&mut rng, 16, 16);
    let ln = LayerNorm::new(16);
    let params = [l1.params(), l2.params(), ln.params()].concat();
    let mut adam = optim::Adam::new(1e-3);

    let mut step = || {
        optim::zero_grad(&params);
        let x = Tensor::full(0.25, vec![6, 16]);
        let h = l1.forward(&x).relu();
        let z = l2.forward(&h);
        // Fused residual + layer norm in one tape node.
        let y = ln.forward_residual(&h, &z);
        let loss = y.square().sum_all().scale(0.1);
        loss.backward();
        // Fused clip + update: the norm is read without mutating the
        // gradients, and the scale folds into the single Adam pass.
        let scale = optim::clip_scale(optim::grad_global_norm(&params), 5.0);
        let mut touched = 0usize;
        adam.step_scaled(&params, scale, |_| touched += 1);
        assert_eq!(touched, params.len(), "every parameter has a gradient");
    };

    for _ in 0..3 {
        step();
    }

    pool::reset_stats();
    for _ in 0..20 {
        step();
    }
    let stats = pool::stats();
    assert!(
        stats.hits > 200,
        "expected real pool traffic, saw {stats:?}"
    );
    assert_eq!(
        stats.misses, 0,
        "steady-state fused step must not allocate tensor buffers: {stats:?}"
    );
    assert_eq!(
        stats.discarded, 0,
        "steady-state fused-step buffers must all be retained: {stats:?}"
    );
}

#[test]
fn steady_state_training_step_allocates_nothing() {
    let _guard = COUNTER_LOCK.lock().expect("counter lock");
    let mut rng = StdRng::seed_from_u64(1);
    let l1 = Linear::new(&mut rng, 16, 32);
    let l2 = Linear::new(&mut rng, 32, 8);
    let params = [l1.params(), l2.params()].concat();
    let mut adam = optim::Adam::new(1e-3);

    let mut step = || {
        optim::zero_grad(&params);
        // All tensor constructors here draw from the pool; shapes repeat
        // every step, so after warm-up every checkout must hit.
        let x = Tensor::full(0.25, vec![4, 16]);
        let target = Tensor::full(0.5, vec![4, 8]);
        let hidden = l1.forward(&x).relu();
        let out = l2.forward(&hidden).tanh();
        let loss = out.sub(&target).square().sum_all().scale(0.125);
        loss.backward();
        optim::clip_grad_norm(&params, 5.0);
        adam.step(&params);
    };

    // Warm-up: first-seen buffer lengths and Adam moments allocate here.
    for _ in 0..3 {
        step();
    }

    pool::reset_stats();
    for _ in 0..20 {
        step();
    }
    let stats = pool::stats();
    assert!(
        stats.hits > 100,
        "expected real pool traffic, saw {stats:?}"
    );
    assert_eq!(
        stats.misses, 0,
        "steady-state training must not allocate tensor buffers: {stats:?}"
    );
    assert_eq!(
        stats.discarded, 0,
        "steady-state buffers must all be retained: {stats:?}"
    );
}
