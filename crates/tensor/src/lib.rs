//! # tspn-tensor
//!
//! A small, self-contained reverse-mode automatic-differentiation tensor
//! library — the deep-learning substrate for the TSPN-RA reproduction.
//!
//! The published system was built on a GPU deep-learning framework that is
//! unavailable in this environment, so this crate recreates exactly the
//! functionality the paper's model needs:
//!
//! * dense `f32` tensors with restricted broadcasting ([`Shape`], [`Tensor`]),
//! * the operator set behind Eqs. 2–8 of the paper (matmul, strided conv2d,
//!   masked row softmax, layer-norm building blocks, embedding gathers,
//!   L2 normalisation / cosine similarity, ArcFace margin loss),
//! * NN modules ([`nn::Linear`], [`nn::EmbeddingTable`], [`nn::Conv2d`],
//!   [`nn::LayerNorm`], [`nn::GruCell`], [`nn::LstmCell`], [`nn::Dropout`]),
//! * optimizers ([`optim::Adam`], [`optim::Sgd`]) and gradient clipping,
//! * JSON checkpoints ([`serialize::Checkpoint`]),
//! * finite-difference gradient checking ([`gradcheck`]) used heavily by the
//!   property-test suite.
//!
//! ## Example
//!
//! ```
//! use tspn_tensor::{Tensor, optim};
//!
//! // Minimise (x − 3)² with Adam.
//! let x = Tensor::param(vec![0.0], vec![1]);
//! let mut adam = optim::Adam::new(0.2);
//! for _ in 0..200 {
//!     optim::zero_grad(&[x.clone()]);
//!     let loss = x.add_scalar(-3.0).square().sum_all();
//!     loss.backward();
//!     adam.step(&[x.clone()]);
//! }
//! assert!((x.item() - 3.0).abs() < 1e-2);
//! ```

#![warn(missing_docs)]

pub mod gradcheck;
pub mod init;
pub mod nn;
pub mod ops;
pub mod optim;
pub mod parallel;
pub mod pool;
pub mod serialize;
mod shape;
pub mod simd;
mod tensor;

pub use ops::matmul::{gemm, gemm_ex, GemmLayout};
pub use ops::{
    causal_mask, conv_out_dim, cosine_scores, fused_attention, jagged_causal_mask,
    jagged_key_padding_mask, FusedAttnSpec,
};
pub use shape::{Broadcast, Shape};
pub use simd::{kernel_tier, KernelTier};
pub use tensor::Tensor;
