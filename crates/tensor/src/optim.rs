//! Optimizers: SGD and Adam (the paper trains with Adam + decaying LR).
//!
//! The training hot path uses [`Adam::step_scaled`]: gradient clipping is
//! *folded into* the update as a pre-scale (computed read-only by
//! [`grad_global_norm`]) and the whole per-parameter update runs as one
//! fused pass ([`crate::simd::adam_update`], bitwise identical on both
//! kernel tiers). `scale·g` rounds identically to the retired in-place
//! `g *= scale` rewrite, so the fused step reproduces the two-pass
//! clip-then-update sequence bit for bit.

use std::collections::HashMap;

use crate::simd::{adam_update, AdamKernel};
use crate::tensor::Tensor;

/// Clears the gradient of every parameter.
pub fn zero_grad(params: &[Tensor]) {
    for p in params {
        p.zero_grad();
    }
}

/// Global L2 gradient norm, read-only (the accumulation order matches
/// [`clip_grad_norm`]'s first pass exactly). Pair with
/// [`Adam::step_scaled`] to clip without rewriting gradient buffers.
pub fn grad_global_norm(params: &[Tensor]) -> f32 {
    let mut total = 0.0f32;
    for p in params {
        p.with_grad_ref(|g| {
            if let Some(g) = g {
                for gi in g {
                    total += gi * gi;
                }
            }
        });
    }
    total.sqrt()
}

/// The gradient pre-scale that caps the global norm at `max_norm`
/// (`1.0` when no clipping applies — multiplying by it is a bitwise
/// no-op, matching the old conditional rewrite).
pub fn clip_scale(norm: f32, max_norm: f32) -> f32 {
    if norm > max_norm && norm > 0.0 {
        max_norm / norm
    } else {
        1.0
    }
}

/// Global L2 gradient-norm clipping. Returns the pre-clip norm.
pub fn clip_grad_norm(params: &[Tensor], max_norm: f32) -> f32 {
    let norm = grad_global_norm(params);
    if norm > max_norm && norm > 0.0 {
        let scale = max_norm / norm;
        for p in params {
            p.with_grad_mut(|g| {
                for gi in g.iter_mut() {
                    *gi *= scale;
                }
            });
        }
    }
    norm
}

/// Plain stochastic gradient descent with optional momentum.
pub struct Sgd {
    /// Learning rate.
    pub lr: f32,
    /// Momentum factor (0 disables).
    pub momentum: f32,
    velocity: HashMap<u64, Vec<f32>>,
}

impl Sgd {
    /// Creates an SGD optimizer.
    pub fn new(lr: f32, momentum: f32) -> Self {
        Sgd {
            lr,
            momentum,
            velocity: HashMap::new(),
        }
    }

    /// Applies one update step to every parameter.
    ///
    /// Gradients are read in place (no copies); a parameter with no
    /// accumulated gradient is treated as having gradient zero, exactly
    /// as before.
    pub fn step(&mut self, params: &[Tensor]) {
        let (lr, momentum) = (self.lr, self.momentum);
        for p in params {
            if momentum > 0.0 {
                let v = self
                    .velocity
                    .entry(p.id())
                    .or_insert_with(|| vec![0.0; p.len()]);
                p.with_data_grad_mut(|data, grad| {
                    for i in 0..data.len() {
                        let gi = grad.map_or(0.0, |g| g[i]);
                        v[i] = momentum * v[i] + gi;
                        data[i] -= lr * v[i];
                    }
                });
            } else {
                p.with_data_grad_mut(|data, grad| {
                    if let Some(g) = grad {
                        for (d, gi) in data.iter_mut().zip(g) {
                            *d -= lr * gi;
                        }
                    }
                });
            }
        }
    }
}

/// Per-parameter Adam state: the two moment buffers plus an *activity*
/// marker — sticky-true once the parameter has ever seen a gradient, at
/// which point its moments are non-zero forever (they only decay) and
/// every subsequent step moves the parameter.
struct Moments {
    m: Vec<f32>,
    v: Vec<f32>,
    active: bool,
}

/// Adam optimizer (Kingma & Ba) with optional multiplicative LR decay per
/// epoch, matching the paper's `lr = 2e-5 with 0.95 decay`.
pub struct Adam {
    /// Current learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical-stability epsilon.
    pub eps: f32,
    /// Decoupled weight decay (0 disables).
    pub weight_decay: f32,
    t: u64,
    moments: HashMap<u64, Moments>,
}

impl Adam {
    /// Creates an Adam optimizer with standard betas.
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
            t: 0,
            moments: HashMap::new(),
        }
    }

    /// Builder-style weight decay.
    pub fn with_weight_decay(mut self, wd: f32) -> Self {
        self.weight_decay = wd;
        self
    }

    /// Number of steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Multiplies the learning rate by `factor` (the paper uses 0.95/epoch).
    pub fn decay_lr(&mut self, factor: f32) {
        self.lr *= factor;
    }

    /// Applies one Adam update to every parameter (no gradient pre-scale).
    pub fn step(&mut self, params: &[Tensor]) {
        self.step_scaled(params, 1.0, |_| {});
    }

    /// Applies one Adam update with the global-norm clip factor folded in
    /// as `grad_scale` (see [`grad_global_norm`]/[`clip_scale`]): each
    /// parameter runs one fused [`crate::simd::adam_update`] pass over
    /// data, gradient and both moments — bitwise identical to clipping in
    /// place and then updating, on both kernel tiers.
    ///
    /// `on_touched(i)` fires for every parameter whose data this step may
    /// have changed: one with a gradient buffer, non-zero weight decay, or
    /// non-zero moments from an earlier step. Untouched parameters are
    /// skipped entirely — their zero moments would decay to exactly zero
    /// and the update term is exactly `0.0`, so skipping is bitwise
    /// equivalent, and a parameter `on_touched` never reports still holds
    /// its value from before the step.
    pub fn step_scaled(
        &mut self,
        params: &[Tensor],
        grad_scale: f32,
        mut on_touched: impl FnMut(usize),
    ) {
        self.t += 1;
        let k = AdamKernel {
            lr: self.lr,
            beta1: self.beta1,
            beta2: self.beta2,
            c1: 1.0 - self.beta1,
            c2: 1.0 - self.beta2,
            b1t: 1.0 - self.beta1.powi(self.t as i32),
            b2t: 1.0 - self.beta2.powi(self.t as i32),
            eps: self.eps,
            wd: self.weight_decay,
            grad_scale,
        };
        for (i, p) in params.iter().enumerate() {
            let slot = self.moments.entry(p.id()).or_insert_with(|| Moments {
                m: vec![0.0; p.len()],
                v: vec![0.0; p.len()],
                active: false,
            });
            let Moments { m, v, active } = slot;
            p.with_data_grad_mut(|data, grad| match grad {
                Some(g) => {
                    *active = true;
                    adam_update(data, g, m, v, &k);
                }
                None => {
                    if k.wd != 0.0 || *active {
                        // No gradient buffer: g = wd·data (the old loop's
                        // `0.0 + wd·data[i]`), still one fused-shape pass.
                        for i in 0..data.len() {
                            let g = k.wd * data[i];
                            m[i] = k.beta1 * m[i] + k.c1 * g;
                            v[i] = k.beta2 * v[i] + (k.c2 * g) * g;
                            let m_hat = m[i] / k.b1t;
                            let v_hat = v[i] / k.b2t;
                            data[i] -= (k.lr * m_hat) / (v_hat.sqrt() + k.eps);
                        }
                    }
                }
            });
            if k.wd != 0.0 || slot.active {
                on_touched(i);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quadratic_loss(p: &Tensor) -> Tensor {
        // loss = Σ (p − 3)²
        let target = Tensor::full(3.0, p.shape().clone());
        p.sub(&target).square().sum_all()
    }

    #[test]
    fn sgd_descends_quadratic() {
        let p = Tensor::param(vec![0.0, 10.0], vec![2]);
        let mut opt = Sgd::new(0.1, 0.0);
        for _ in 0..100 {
            zero_grad(std::slice::from_ref(&p));
            let loss = quadratic_loss(&p);
            loss.backward();
            opt.step(std::slice::from_ref(&p));
        }
        for v in p.to_vec() {
            assert!((v - 3.0).abs() < 1e-3, "did not converge: {v}");
        }
    }

    #[test]
    fn sgd_momentum_converges() {
        let p = Tensor::param(vec![-5.0], vec![1]);
        let mut opt = Sgd::new(0.05, 0.9);
        for _ in 0..200 {
            zero_grad(std::slice::from_ref(&p));
            quadratic_loss(&p).backward();
            opt.step(std::slice::from_ref(&p));
        }
        assert!((p.item() - 3.0).abs() < 1e-2);
    }

    #[test]
    fn adam_descends_quadratic() {
        let p = Tensor::param(vec![20.0], vec![1]);
        let mut opt = Adam::new(0.5);
        for _ in 0..300 {
            zero_grad(std::slice::from_ref(&p));
            quadratic_loss(&p).backward();
            opt.step(std::slice::from_ref(&p));
        }
        assert!(
            (p.item() - 3.0).abs() < 1e-2,
            "adam did not converge: {}",
            p.item()
        );
    }

    #[test]
    fn adam_lr_decay() {
        let mut opt = Adam::new(1.0);
        opt.decay_lr(0.95);
        opt.decay_lr(0.95);
        assert!((opt.lr - 0.9025).abs() < 1e-6);
    }

    #[test]
    fn clip_grad_norm_rescales() {
        let p = Tensor::param(vec![0.0, 0.0], vec![2]);
        p.accumulate_grad(&[3.0, 4.0]); // norm 5
        let norm = clip_grad_norm(std::slice::from_ref(&p), 1.0);
        assert!((norm - 5.0).abs() < 1e-5);
        let g = p.grad();
        let new_norm = (g[0] * g[0] + g[1] * g[1]).sqrt();
        assert!((new_norm - 1.0).abs() < 1e-5);
    }

    #[test]
    fn clip_grad_norm_noop_below_threshold() {
        let p = Tensor::param(vec![0.0], vec![1]);
        p.accumulate_grad(&[0.5]);
        clip_grad_norm(std::slice::from_ref(&p), 1.0);
        assert_eq!(p.grad(), vec![0.5]);
    }

    #[test]
    fn step_scaled_matches_clip_then_step_bitwise() {
        // Folding the clip factor into the fused step must reproduce the
        // two-pass clip-then-step sequence bit for bit.
        let mk = || {
            let a = Tensor::param(vec![0.25, -1.5, 3.0, 0.0, 7.25], vec![5]);
            let b = Tensor::param(vec![-2.0, 0.5], vec![2]);
            a.accumulate_grad(&[30.0, -40.0, 1.0, 2.0, -3.0]);
            b.accumulate_grad(&[5.0, -12.0]);
            vec![a, b]
        };
        let reference = mk();
        let fused = mk();
        let mut opt_ref = Adam::new(0.05).with_weight_decay(0.01);
        let mut opt_fused = Adam::new(0.05).with_weight_decay(0.01);

        clip_grad_norm(&reference, 1.0);
        opt_ref.step(&reference);

        let norm = grad_global_norm(&fused);
        let scale = clip_scale(norm, 1.0);
        assert!(scale < 1.0, "test should exercise an active clip");
        let mut touched = Vec::new();
        opt_fused.step_scaled(&fused, scale, |i| touched.push(i));
        assert_eq!(touched, vec![0, 1]);

        for (r, f) in reference.iter().zip(&fused) {
            let (rv, fv) = (r.to_vec(), f.to_vec());
            for (x, y) in rv.iter().zip(&fv) {
                assert_eq!(x.to_bits(), y.to_bits(), "fused step diverged");
            }
        }
    }

    #[test]
    fn step_scaled_skips_untouched_params_and_reports_active_ones() {
        let seen = Tensor::param(vec![1.0], vec![1]);
        let never = Tensor::param(vec![2.0], vec![1]);
        let params = vec![seen.clone(), never.clone()];
        let mut opt = Adam::new(0.1); // wd == 0
        seen.accumulate_grad(&[0.5]);
        let mut touched = Vec::new();
        opt.step_scaled(&params, 1.0, |i| touched.push(i));
        assert_eq!(touched, vec![0], "gradient-free param must not report");
        assert_eq!(never.to_vec(), vec![2.0], "untouched param moved");

        // `seen` is now sticky-active: even with no new gradient its
        // moments keep decaying and it must report touched again.
        zero_grad(&params);
        seen.with_grad_mut(|_| {}); // grad buffer exists but is zero
        let before = seen.item();
        touched.clear();
        opt.step_scaled(&params, 1.0, |i| touched.push(i));
        assert_eq!(touched, vec![0]);
        assert_ne!(seen.item(), before, "active param should keep moving");
    }

    #[test]
    fn zero_grad_clears_all() {
        let a = Tensor::param(vec![0.0], vec![1]);
        let b = Tensor::param(vec![0.0], vec![1]);
        a.accumulate_grad(&[1.0]);
        b.accumulate_grad(&[2.0]);
        zero_grad(&[a.clone(), b.clone()]);
        assert_eq!(a.grad(), vec![0.0]);
        assert_eq!(b.grad(), vec![0.0]);
    }
}
