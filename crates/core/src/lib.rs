//! # tspn-core
//!
//! The TSPN-RA model — the paper's primary contribution: a Two-Step
//! Prediction Network with Remote sensing Augmentation for next-POI
//! prediction (ICDE 2024).
//!
//! Pipeline (paper Fig. 5):
//!
//! 1. **Data extraction** — [`SpatialContext`] prepares the quad-tree
//!    partition, per-tile remote-sensing imagery, road-derived tile
//!    adjacency, and POI↔tile mappings for a dataset.
//! 2. **Feature embedding** — [`embed::Me1`] (stride-2 CNN over tile
//!    imagery), [`embed::Me2`] (id⊕category POI embeddings),
//!    [`embed::SpatialEncoder`] (Eq. 4 sinusoids),
//!    [`embed::TemporalEncoder`] (48 half-hour slots), and the HGAT
//!    encoding of the QR-P graph into historical knowledge.
//! 3. **Two-step prediction** — [`fusion::FusionModule`] (`MP1`/`MP2`)
//!    fuses the prefix sequence with historical knowledge; the model ranks
//!    leaf tiles by cosine similarity, keeps the top-K, then ranks the
//!    POIs inside them (Sec. V-B), trained with the ArcFace margin loss
//!    (Eq. 8).
//!
//! [`TspnConfig`] carries every hyper-parameter, and [`TspnVariant`] the
//! Table IV ablation switches. [`Trainer`] drives Adam training with the
//! paper's batch-shared embedding tables and decaying learning rate.

#![warn(missing_docs)]

pub mod batch;
mod config;
mod context;
pub mod embed;
pub mod fusion;
mod model;
mod predictor;
mod subject;
mod trainer;

pub use batch::BatchForward;
pub use config::{Partition, TspnConfig, TspnVariant};
pub use context::SpatialContext;
pub use model::{descending_order, top_k_indices, BatchTables, MemoCounts, Prediction, TspnRa};
pub use predictor::{Predictor, Query, TopK};
pub use subject::Subject;
pub use trainer::{EpochStats, EvalOutcome, Trainer};
