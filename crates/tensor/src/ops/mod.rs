//! Tensor operators, grouped by family. All ops are methods on
//! [`crate::Tensor`] so model code composes them fluently.

pub mod batched;
pub mod conv;
pub mod elementwise;
pub mod fused;
pub mod loss;
pub mod matmul;
pub mod norm;
pub mod reduce;
pub mod shapeops;
pub mod softmax;

pub use batched::{jagged_causal_mask, jagged_key_padding_mask};
pub use conv::conv_out_dim;
pub use fused::{fused_attention, FusedAttnSpec};
pub use norm::cosine_scores;
pub use softmax::causal_mask;
