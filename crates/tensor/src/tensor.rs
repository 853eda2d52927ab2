//! Core tensor type and the reverse-mode autodiff tape.
//!
//! [`Tensor`] is a cheap-to-clone handle (an `Rc`) to a node in a dynamically
//! built computation DAG. Each op allocates a fresh node that records its
//! parents and a backward closure; calling [`Tensor::backward`] on a scalar
//! loss walks the DAG in reverse topological order, accumulating gradients
//! into every node that requires them.
//!
//! The design deliberately mirrors the "define-by-run" style of mainstream
//! deep-learning frameworks so the model code in `tspn-core` reads like the
//! equations in the paper.

use std::cell::{Cell, Ref, RefCell};
use std::collections::HashSet;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::pool;
use crate::shape::Shape;

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

fn fresh_id() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

/// Multiplicative hasher for node ids (sequential `u64`s): the default
/// SipHash dominates the backward pass's visited-set bookkeeping on big
/// tapes, and ids need no DoS resistance.
#[derive(Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.wrapping_mul(0x9E3779B97F4A7C15) ^ b as u64;
        }
    }
    fn write_u64(&mut self, n: u64) {
        self.0 = n.wrapping_mul(0x9E3779B97F4A7C15);
    }
}

type IdSet = HashSet<u64, BuildHasherDefault<IdHasher>>;

thread_local! {
    /// When > 0, op outputs record no tape (see [`Tensor::no_grad`]).
    static NO_GRAD_DEPTH: Cell<u32> = const { Cell::new(0) };
}

/// Backward closure: given the finished output node, scatter its gradient
/// into the gradients of its parents.
pub(crate) type BackwardFn = Box<dyn Fn(&Tensor)>;

pub(crate) struct Inner {
    pub(crate) id: u64,
    pub(crate) shape: Shape,
    pub(crate) data: RefCell<Vec<f32>>,
    pub(crate) grad: RefCell<Option<Vec<f32>>>,
    pub(crate) parents: Vec<Tensor>,
    pub(crate) backward: Option<BackwardFn>,
    pub(crate) requires_grad: bool,
}

impl Drop for Inner {
    fn drop(&mut self) {
        // Recycle both buffers: with the ops drawing from the pool, a
        // steady-state training step allocates nothing on the data path.
        pool::give(std::mem::take(self.data.get_mut()));
        if let Some(g) = self.grad.get_mut().take() {
            pool::give(g);
        }
    }
}

/// A dense `f32` tensor participating in a reverse-mode autodiff graph.
///
/// Cloning a `Tensor` clones the handle, not the storage; two clones always
/// observe the same data and gradient.
#[derive(Clone)]
pub struct Tensor {
    pub(crate) inner: Rc<Inner>,
}

impl Tensor {
    // ------------------------------------------------------------------
    // Construction
    // ------------------------------------------------------------------

    /// Creates a non-differentiable tensor from raw data.
    ///
    /// # Panics
    /// Panics when `data.len()` disagrees with the shape.
    pub fn from_vec(data: Vec<f32>, shape: impl Into<Shape>) -> Tensor {
        let shape = shape.into();
        assert_eq!(
            data.len(),
            shape.len(),
            "data length {} does not match shape {shape}",
            data.len()
        );
        Tensor {
            inner: Rc::new(Inner {
                id: fresh_id(),
                shape,
                data: RefCell::new(data),
                grad: RefCell::new(None),
                parents: Vec::new(),
                backward: None,
                requires_grad: false,
            }),
        }
    }

    /// Creates a trainable parameter (a leaf that accumulates gradients).
    pub fn param(data: Vec<f32>, shape: impl Into<Shape>) -> Tensor {
        let shape = shape.into();
        assert_eq!(
            data.len(),
            shape.len(),
            "data length {} does not match shape {shape}",
            data.len()
        );
        Tensor {
            inner: Rc::new(Inner {
                id: fresh_id(),
                shape,
                data: RefCell::new(data),
                grad: RefCell::new(None),
                parents: Vec::new(),
                backward: None,
                requires_grad: true,
            }),
        }
    }

    /// Runs `f` with tape recording suspended: every op inside produces
    /// plain data tensors (no parents, no backward closures), so
    /// intermediates free their buffers as soon as they go out of scope.
    /// Inference paths (evaluation, prediction) use this to skip autograd
    /// bookkeeping entirely. Nests; parameters created inside still have
    /// `requires_grad == true` — only op *outputs* are detached.
    pub fn no_grad<T>(f: impl FnOnce() -> T) -> T {
        struct Guard;
        impl Drop for Guard {
            fn drop(&mut self) {
                NO_GRAD_DEPTH.with(|d| d.set(d.get() - 1));
            }
        }
        NO_GRAD_DEPTH.with(|d| d.set(d.get() + 1));
        let _restore = Guard;
        f()
    }

    /// True while a [`Tensor::no_grad`] scope is active on this thread.
    pub fn grad_suspended() -> bool {
        NO_GRAD_DEPTH.with(Cell::get) > 0
    }

    /// Internal: creates an op output node.
    pub(crate) fn from_op(
        data: Vec<f32>,
        shape: Shape,
        parents: Vec<Tensor>,
        backward: BackwardFn,
    ) -> Tensor {
        assert_eq!(data.len(), shape.len());
        let requires_grad =
            !Self::grad_suspended() && parents.iter().any(|p| p.inner.requires_grad);
        Tensor {
            inner: Rc::new(Inner {
                id: fresh_id(),
                shape,
                data: RefCell::new(data),
                grad: RefCell::new(None),
                parents: if requires_grad { parents } else { Vec::new() },
                backward: if requires_grad { Some(backward) } else { None },
                requires_grad,
            }),
        }
    }

    /// All-zeros tensor.
    pub fn zeros(shape: impl Into<Shape>) -> Tensor {
        let shape = shape.into();
        let n = shape.len();
        Tensor::from_vec(pool::take_zeroed(n), shape)
    }

    /// All-ones tensor.
    pub fn ones(shape: impl Into<Shape>) -> Tensor {
        Tensor::full(1.0, shape)
    }

    /// Constant-filled tensor.
    pub fn full(value: f32, shape: impl Into<Shape>) -> Tensor {
        let shape = shape.into();
        let n = shape.len();
        let mut data = pool::take_uninit(n);
        data.fill(value);
        Tensor::from_vec(data, shape)
    }

    /// Single-element tensor.
    pub fn scalar(value: f32) -> Tensor {
        Tensor::from_vec(vec![value], Shape::scalar())
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// Stable identity of this node within the autodiff graph.
    pub fn id(&self) -> u64 {
        self.inner.id
    }

    /// Tensor shape.
    pub fn shape(&self) -> &Shape {
        &self.inner.shape
    }

    /// Total element count.
    pub fn len(&self) -> usize {
        self.inner.shape.len()
    }

    /// Tensors are never empty (scalars hold one element).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Number of matrix rows (see [`Shape::rows`]).
    pub fn rows(&self) -> usize {
        self.inner.shape.rows()
    }

    /// Number of matrix columns (see [`Shape::cols`]).
    pub fn cols(&self) -> usize {
        self.inner.shape.cols()
    }

    /// Whether gradients flow into this node.
    pub fn requires_grad(&self) -> bool {
        self.inner.requires_grad
    }

    /// Immutable view of the underlying data.
    pub fn data(&self) -> Ref<'_, Vec<f32>> {
        self.inner.data.borrow()
    }

    /// Copies the data out.
    pub fn to_vec(&self) -> Vec<f32> {
        self.inner.data.borrow().clone()
    }

    /// The single element of a scalar tensor.
    ///
    /// # Panics
    /// Panics when the tensor is not a scalar.
    pub fn item(&self) -> f32 {
        assert!(
            self.inner.shape.is_scalar(),
            "item() on non-scalar tensor of shape {}",
            self.inner.shape
        );
        self.inner.data.borrow()[0]
    }

    /// Element at flat index `i`.
    pub fn at(&self, i: usize) -> f32 {
        self.inner.data.borrow()[i]
    }

    /// Overwrites the data in place (used by optimizers and data loaders).
    ///
    /// # Panics
    /// Panics when the replacement length differs from the tensor length.
    pub fn set_data(&self, data: &[f32]) {
        let mut d = self.inner.data.borrow_mut();
        assert_eq!(d.len(), data.len(), "set_data length mismatch");
        d.copy_from_slice(data);
    }

    /// Applies `f` to the underlying data buffer in place.
    pub fn update_data(&self, f: impl FnOnce(&mut [f32])) {
        f(&mut self.inner.data.borrow_mut());
    }

    // ------------------------------------------------------------------
    // Gradients
    // ------------------------------------------------------------------

    /// A copy of the accumulated gradient, or zeros when none has been set.
    pub fn grad(&self) -> Vec<f32> {
        self.inner
            .grad
            .borrow()
            .clone()
            .unwrap_or_else(|| vec![0.0; self.len()])
    }

    /// Adds `delta` into this node's gradient buffer. Public so external
    /// drivers (e.g. the data-parallel trainer merging shard gradients)
    /// can feed gradients computed elsewhere.
    pub fn accumulate_grad(&self, delta: &[f32]) {
        debug_assert_eq!(delta.len(), self.len());
        let mut slot = self.inner.grad.borrow_mut();
        match slot.as_mut() {
            Some(g) => {
                for (gi, di) in g.iter_mut().zip(delta) {
                    *gi += di;
                }
            }
            None => *slot = Some(pool::take_copied(delta)),
        }
    }

    /// Adds into the gradient through a callback, avoiding a temporary buffer.
    pub(crate) fn with_grad_mut(&self, f: impl FnOnce(&mut [f32])) {
        let mut slot = self.inner.grad.borrow_mut();
        if slot.is_none() {
            *slot = Some(pool::take_zeroed(self.len()));
        }
        f(slot.as_mut().expect("grad allocated above"));
    }

    /// Borrows the gradient without copying (`None` when no gradient has
    /// accumulated). Used by the optimizers to stay allocation-free.
    pub fn with_grad_ref<T>(&self, f: impl FnOnce(Option<&[f32]>) -> T) -> T {
        f(self.inner.grad.borrow().as_deref())
    }

    /// Borrows the data mutably together with the gradient immutably —
    /// the optimizer update-step access pattern. The gradient is `None`
    /// when nothing has accumulated since the last [`Tensor::zero_grad`].
    pub fn with_data_grad_mut(&self, f: impl FnOnce(&mut [f32], Option<&[f32]>)) {
        let grad = self.inner.grad.borrow();
        let mut data = self.inner.data.borrow_mut();
        f(&mut data, grad.as_deref());
    }

    /// Clears the gradient buffer (recycling it through the pool).
    pub fn zero_grad(&self) {
        if let Some(g) = self.inner.grad.borrow_mut().take() {
            pool::give(g);
        }
    }

    /// Cuts this tensor out of the autodiff graph: the result shares no
    /// history (but copies the data).
    pub fn detach(&self) -> Tensor {
        Tensor::from_vec(pool::take_copied(&self.data()), self.inner.shape.clone())
    }

    /// Runs reverse-mode differentiation from this scalar.
    ///
    /// Gradients accumulate into every reachable node with
    /// `requires_grad == true`; call [`Tensor::zero_grad`] (or
    /// `optim::zero_grad`) between steps.
    ///
    /// # Panics
    /// Panics when invoked on a non-scalar tensor.
    pub fn backward(&self) {
        assert!(
            self.inner.shape.is_scalar(),
            "backward() must start from a scalar loss, got shape {}",
            self.inner.shape
        );
        self.accumulate_grad(&[1.0]);
        let order = self.topo_order();
        for node in order.iter().rev() {
            if let Some(back) = &node.inner.backward {
                // Skip nodes that never received gradient (unreachable from loss).
                if node.inner.grad.borrow().is_some() {
                    back(node);
                }
            }
        }
    }

    /// Topological order of the reachable subgraph (parents before children).
    fn topo_order(&self) -> Vec<Tensor> {
        let mut order: Vec<Tensor> = Vec::new();
        let mut visited: IdSet = IdSet::default();
        // Iterative post-order DFS to avoid stack overflow on long chains
        // (RNN unrolls produce graphs thousands of nodes deep).
        enum Frame {
            Enter(Tensor),
            Exit(Tensor),
        }
        let mut stack = vec![Frame::Enter(self.clone())];
        while let Some(frame) = stack.pop() {
            match frame {
                Frame::Enter(t) => {
                    if !visited.insert(t.inner.id) {
                        continue;
                    }
                    stack.push(Frame::Exit(t.clone()));
                    for p in &t.inner.parents {
                        if p.inner.requires_grad && !visited.contains(&p.inner.id) {
                            stack.push(Frame::Enter(p.clone()));
                        }
                    }
                }
                Frame::Exit(t) => order.push(t),
            }
        }
        order
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let data = self.inner.data.borrow();
        let preview: Vec<f32> = data.iter().take(8).copied().collect();
        write!(
            f,
            "Tensor(id={}, shape={}, grad={}, data≈{:?}{})",
            self.inner.id,
            self.inner.shape,
            self.inner.requires_grad,
            preview,
            if data.len() > 8 { "…" } else { "" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_roundtrip() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], vec![2, 2]);
        assert_eq!(t.to_vec(), vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(t.rows(), 2);
        assert_eq!(t.cols(), 2);
        assert!(!t.requires_grad());
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_rejects_bad_shape() {
        Tensor::from_vec(vec![1.0, 2.0], vec![3]);
    }

    #[test]
    fn param_requires_grad() {
        let p = Tensor::param(vec![0.5], vec![1]);
        assert!(p.requires_grad());
    }

    #[test]
    fn clone_shares_storage() {
        let t = Tensor::zeros(vec![3]);
        let u = t.clone();
        t.set_data(&[1.0, 2.0, 3.0]);
        assert_eq!(u.to_vec(), vec![1.0, 2.0, 3.0]);
        assert_eq!(t.id(), u.id());
    }

    #[test]
    fn detach_copies() {
        let t = Tensor::param(vec![1.0], vec![1]);
        let d = t.detach();
        assert!(!d.requires_grad());
        assert_ne!(t.id(), d.id());
        assert_eq!(d.item(), 1.0);
    }

    #[test]
    fn grad_defaults_to_zeros() {
        let t = Tensor::param(vec![1.0, 2.0], vec![2]);
        assert_eq!(t.grad(), vec![0.0, 0.0]);
    }

    #[test]
    fn accumulate_and_zero_grad() {
        let t = Tensor::param(vec![1.0, 2.0], vec![2]);
        t.accumulate_grad(&[0.5, 0.5]);
        t.accumulate_grad(&[0.25, 0.75]);
        assert_eq!(t.grad(), vec![0.75, 1.25]);
        t.zero_grad();
        assert_eq!(t.grad(), vec![0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "backward() must start from a scalar")]
    fn backward_requires_scalar() {
        let t = Tensor::param(vec![1.0, 2.0], vec![2]);
        t.backward();
    }

    #[test]
    fn item_on_scalar() {
        assert_eq!(Tensor::scalar(3.5).item(), 3.5);
    }

    #[test]
    fn fills() {
        assert_eq!(Tensor::ones(vec![2]).to_vec(), vec![1.0, 1.0]);
        assert_eq!(Tensor::full(2.5, vec![2]).to_vec(), vec![2.5, 2.5]);
        assert_eq!(Tensor::zeros(vec![2]).to_vec(), vec![0.0, 0.0]);
    }
}
