//! Elementwise unary and binary operators with restricted broadcasting.

use crate::pool;
use crate::shape::{Broadcast, Shape};
use crate::tensor::Tensor;

/// Builds an elementwise binary op with broadcast support.
///
/// `f` computes the forward value; `dfa`/`dfb` give ∂out/∂lhs and ∂out/∂rhs
/// as functions of the operand values.
fn ew_binary<F, Da, Db>(a: &Tensor, b: &Tensor, f: F, dfa: Da, dfb: Db) -> Tensor
where
    F: Fn(f32, f32) -> f32,
    Da: Fn(f32, f32) -> f32 + 'static,
    Db: Fn(f32, f32) -> f32 + 'static,
{
    let bc = Broadcast::infer(a.shape(), b.shape());
    let cols = a.shape().cols();
    // Same-length operands never broadcast; the dedicated loop drops the
    // per-element index mapping so the compiler vectorises the pass. The
    // per-element arithmetic is identical, so both paths agree bitwise.
    let same = b.len() == a.len();
    let mut out = pool::take_uninit(a.len());
    {
        let av = a.data();
        let bv = b.data();
        if same {
            for (o, (&x, &y)) in out.iter_mut().zip(av.iter().zip(bv.iter())) {
                *o = f(x, y);
            }
        } else {
            for (i, (o, &x)) in out.iter_mut().zip(av.iter()).enumerate() {
                *o = f(x, bv[bc.rhs_index(i, cols)]);
            }
        }
    }
    let (pa, pb) = (a.clone(), b.clone());
    Tensor::from_op(
        out,
        a.shape().clone(),
        vec![a.clone(), b.clone()],
        Box::new(move |o: &Tensor| {
            let og = o.inner.grad.borrow();
            let g = og.as_ref().expect("output grad present in backward");
            let av = pa.data();
            let bv = pb.data();
            if pa.requires_grad() {
                pa.with_grad_mut(|ga| {
                    if same {
                        for (i, gi) in g.iter().enumerate() {
                            ga[i] += gi * dfa(av[i], bv[i]);
                        }
                    } else {
                        for (i, gi) in g.iter().enumerate() {
                            ga[i] += gi * dfa(av[i], bv[bc.rhs_index(i, cols)]);
                        }
                    }
                });
            }
            if pb.requires_grad() {
                pb.with_grad_mut(|gb| {
                    if same {
                        for (i, gi) in g.iter().enumerate() {
                            gb[i] += gi * dfb(av[i], bv[i]);
                        }
                    } else {
                        for (i, gi) in g.iter().enumerate() {
                            let j = bc.rhs_index(i, cols);
                            gb[j] += gi * dfb(av[i], bv[j]);
                        }
                    }
                });
            }
        }),
    )
}

/// Builds an elementwise unary op.
fn ew_unary<F, Df>(a: &Tensor, f: F, df: Df) -> Tensor
where
    F: Fn(f32) -> f32,
    Df: Fn(f32, f32) -> f32 + 'static, // (input, output) -> d out / d in
{
    let mut out = pool::take_uninit(a.len());
    for (o, &x) in out.iter_mut().zip(a.data().iter()) {
        *o = f(x);
    }
    let pa = a.clone();
    let saved_out = pool::scratch_copied(&out);
    Tensor::from_op(
        out,
        a.shape().clone(),
        vec![a.clone()],
        Box::new(move |o: &Tensor| {
            let og = o.inner.grad.borrow();
            let g = og.as_ref().expect("output grad present in backward");
            let av = pa.data();
            if pa.requires_grad() {
                pa.with_grad_mut(|ga| {
                    for (i, gi) in g.iter().enumerate() {
                        ga[i] += gi * df(av[i], saved_out[i]);
                    }
                });
            }
        }),
    )
}

impl Tensor {
    /// Elementwise addition (`rhs` may broadcast per [`Broadcast`]).
    pub fn add(&self, rhs: &Tensor) -> Tensor {
        ew_binary(self, rhs, |a, b| a + b, |_, _| 1.0, |_, _| 1.0)
    }

    /// Elementwise subtraction.
    pub fn sub(&self, rhs: &Tensor) -> Tensor {
        ew_binary(self, rhs, |a, b| a - b, |_, _| 1.0, |_, _| -1.0)
    }

    /// Elementwise multiplication.
    pub fn mul(&self, rhs: &Tensor) -> Tensor {
        ew_binary(self, rhs, |a, b| a * b, |_, b| b, |a, _| a)
    }

    /// Elementwise division.
    pub fn div(&self, rhs: &Tensor) -> Tensor {
        ew_binary(self, rhs, |a, b| a / b, |_, b| 1.0 / b, |a, b| -a / (b * b))
    }

    /// Negation.
    pub fn neg(&self) -> Tensor {
        ew_unary(self, |x| -x, |_, _| -1.0)
    }

    /// Multiplies every element by a constant.
    pub fn scale(&self, c: f32) -> Tensor {
        ew_unary(self, move |x| x * c, move |_, _| c)
    }

    /// Adds a constant to every element.
    pub fn add_scalar(&self, c: f32) -> Tensor {
        ew_unary(self, move |x| x + c, |_, _| 1.0)
    }

    /// Rectified linear unit.
    pub fn relu(&self) -> Tensor {
        ew_unary(self, |x| x.max(0.0), |x, _| if x > 0.0 { 1.0 } else { 0.0 })
    }

    /// Leaky ReLU with the given negative slope (the paper's HGAT uses 0.2).
    pub fn leaky_relu(&self, slope: f32) -> Tensor {
        ew_unary(
            self,
            move |x| if x > 0.0 { x } else { slope * x },
            move |x, _| if x > 0.0 { 1.0 } else { slope },
        )
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&self) -> Tensor {
        ew_unary(self, |x| 1.0 / (1.0 + (-x).exp()), |_, y| y * (1.0 - y))
    }

    /// Hyperbolic tangent.
    ///
    /// The forward pass runs the tier's vector kernel
    /// (`simd::tanh_slice`): a rational approximation on the
    /// AVX2 arm, libm `tanhf` on the scalar arm — the tiers agree to
    /// tolerance, not bitwise, exactly like the softmax `exp`. At the
    /// HGAT sizes the libm per-element call was the single most
    /// expensive elementwise op on the profile, ~13× the cost of `add`.
    pub fn tanh(&self) -> Tensor {
        let mut out = pool::take_uninit(self.len());
        crate::simd::tanh_slice(&self.data(), &mut out);
        let pa = self.clone();
        let saved_out = pool::scratch_copied(&out);
        Tensor::from_op(
            out,
            self.shape().clone(),
            vec![self.clone()],
            Box::new(move |o: &Tensor| {
                let og = o.inner.grad.borrow();
                let g = og.as_ref().expect("output grad present in backward");
                if pa.requires_grad() {
                    pa.with_grad_mut(|ga| {
                        for (i, gi) in g.iter().enumerate() {
                            let y = saved_out[i];
                            ga[i] += gi * (1.0 - y * y);
                        }
                    });
                }
            }),
        )
    }

    /// Elementwise exponential.
    pub fn exp(&self) -> Tensor {
        ew_unary(self, |x| x.exp(), |_, y| y)
    }

    /// Natural logarithm (inputs are clamped to ≥ 1e-12 for stability).
    pub fn ln(&self) -> Tensor {
        ew_unary(self, |x| x.max(1e-12).ln(), |x, _| 1.0 / x.max(1e-12))
    }

    /// Elementwise square root (inputs clamped to ≥ 0).
    pub fn sqrt(&self) -> Tensor {
        ew_unary(
            self,
            |x| x.max(0.0).sqrt(),
            |_, y| if y > 0.0 { 0.5 / y } else { 0.0 },
        )
    }

    /// Elementwise square.
    pub fn square(&self) -> Tensor {
        ew_unary(self, |x| x * x, |x, _| 2.0 * x)
    }

    /// Clamps values into `[lo, hi]`; gradient is blocked outside the range.
    pub fn clamp(&self, lo: f32, hi: f32) -> Tensor {
        ew_unary(
            self,
            move |x| x.clamp(lo, hi),
            move |x, _| if x > lo && x < hi { 1.0 } else { 0.0 },
        )
    }
}

impl std::ops::Add for &Tensor {
    type Output = Tensor;
    fn add(self, rhs: &Tensor) -> Tensor {
        Tensor::add(self, rhs)
    }
}

impl std::ops::Sub for &Tensor {
    type Output = Tensor;
    fn sub(self, rhs: &Tensor) -> Tensor {
        Tensor::sub(self, rhs)
    }
}

impl std::ops::Mul for &Tensor {
    type Output = Tensor;
    fn mul(self, rhs: &Tensor) -> Tensor {
        Tensor::mul(self, rhs)
    }
}

/// Re-export used by other op modules: normalised output shape for row ops.
pub(crate) fn matrix_shape(rows: usize, cols: usize) -> Shape {
    Shape::new(vec![rows, cols])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_same_shape() {
        let a = Tensor::from_vec(vec![1.0, 2.0], vec![2]);
        let b = Tensor::from_vec(vec![3.0, 4.0], vec![2]);
        assert_eq!(a.add(&b).to_vec(), vec![4.0, 6.0]);
    }

    #[test]
    fn add_row_broadcast() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], vec![2, 2]);
        let b = Tensor::from_vec(vec![10.0, 20.0], vec![2]);
        assert_eq!(a.add(&b).to_vec(), vec![11.0, 22.0, 13.0, 24.0]);
    }

    #[test]
    fn add_col_broadcast() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], vec![2, 2]);
        let b = Tensor::from_vec(vec![10.0, 20.0], vec![2, 1]);
        assert_eq!(a.add(&b).to_vec(), vec![11.0, 12.0, 23.0, 24.0]);
    }

    #[test]
    fn mul_backward_same_shape() {
        let a = Tensor::param(vec![2.0, 3.0], vec![2]);
        let b = Tensor::param(vec![5.0, 7.0], vec![2]);
        let loss = a.mul(&b).sum_all();
        loss.backward();
        assert_eq!(a.grad(), vec![5.0, 7.0]);
        assert_eq!(b.grad(), vec![2.0, 3.0]);
    }

    #[test]
    fn row_broadcast_backward_sums_group() {
        // loss = sum(A + r); dr = column sums of ones = [n, n].
        let a = Tensor::param(vec![0.0; 6], vec![3, 2]);
        let r = Tensor::param(vec![0.0, 0.0], vec![2]);
        let loss = a.add(&r).sum_all();
        loss.backward();
        assert_eq!(r.grad(), vec![3.0, 3.0]);
        assert_eq!(a.grad(), vec![1.0; 6]);
    }

    #[test]
    fn scalar_broadcast_backward() {
        let a = Tensor::param(vec![1.0, 2.0, 3.0], vec![3]);
        let s = Tensor::param(vec![2.0], vec![1]);
        let loss = a.mul(&s).sum_all();
        loss.backward();
        assert_eq!(s.grad(), vec![6.0]); // sum of a
        assert_eq!(a.grad(), vec![2.0, 2.0, 2.0]);
    }

    #[test]
    fn self_multiplication_accumulates_both_sides() {
        // d(x*x)/dx = 2x even though both parents alias the same node.
        let x = Tensor::param(vec![3.0], vec![1]);
        let y = x.mul(&x);
        y.backward();
        assert_eq!(x.grad(), vec![6.0]);
    }

    #[test]
    fn relu_grad_gates() {
        let x = Tensor::param(vec![-1.0, 2.0], vec![2]);
        let loss = x.relu().sum_all();
        loss.backward();
        assert_eq!(x.grad(), vec![0.0, 1.0]);
    }

    #[test]
    fn leaky_relu_values() {
        let x = Tensor::from_vec(vec![-2.0, 2.0], vec![2]);
        assert_eq!(x.leaky_relu(0.1).to_vec(), vec![-0.2, 2.0]);
    }

    #[test]
    fn sigmoid_midpoint() {
        let x = Tensor::from_vec(vec![0.0], vec![1]);
        assert!((x.sigmoid().item() - 0.5).abs() < 1e-6);
    }

    #[test]
    fn chain_rule_through_tanh() {
        let x = Tensor::param(vec![0.5], vec![1]);
        let y = x.tanh().square().sum_all();
        y.backward();
        let t = 0.5f32.tanh();
        let expected = 2.0 * t * (1.0 - t * t);
        assert!((x.grad()[0] - expected).abs() < 1e-5);
    }

    #[test]
    fn clamp_blocks_gradient_outside_range() {
        let x = Tensor::param(vec![-2.0, 0.5, 2.0], vec![3]);
        let loss = x.clamp(-1.0, 1.0).sum_all();
        loss.backward();
        assert_eq!(x.grad(), vec![0.0, 1.0, 0.0]);
    }

    #[test]
    fn operator_overloads() {
        let a = Tensor::from_vec(vec![1.0], vec![1]);
        let b = Tensor::from_vec(vec![2.0], vec![1]);
        assert_eq!((&a + &b).item(), 3.0);
        assert_eq!((&a - &b).item(), -1.0);
        assert_eq!((&a * &b).item(), 2.0);
    }

    #[test]
    fn div_backward() {
        let a = Tensor::param(vec![6.0], vec![1]);
        let b = Tensor::param(vec![3.0], vec![1]);
        let loss = a.div(&b).sum_all();
        loss.backward();
        assert!((a.grad()[0] - 1.0 / 3.0).abs() < 1e-6);
        assert!((b.grad()[0] + 6.0 / 9.0).abs() < 1e-6);
    }
}
