//! # tspn-serve
//!
//! The long-lived online serving layer for the TSPN-RA next-POI model:
//! a single-threaded `poll(2)` HTTP/1.1 multiplexer (no tokio — the
//! offline build vendors everything), a request micro-batcher that
//! coalesces concurrent predictions into single batched `no_grad`
//! forwards over the persistent worker pool, and an atomic checkpoint
//! hot-swap path (`/admin/reload`) that can never mix parameters within
//! one batch.
//!
//! The client-facing surface is the versioned **`/v1` API**:
//! `POST /v1/predict` is *payload-addressed* (the request carries the raw
//! check-in sequence), and the `POST /v1/sessions` family maintains
//! per-user trajectory state server-side with incremental appends over a
//! bounded, TTL-evicting [`session::SessionStore`]. Both feed the same
//! batched prediction path; every prediction enters as a check-in
//! stream. Errors are typed
//! (`{"error":{"code":…,"message":…}}` with 400/404/405/410/422).
//!
//! See `crates/serve/README.md` for the full API reference, the batching
//! deadline semantics and the hot-swap contract; `serve_bench` in
//! `tspn-bench` is the matching load generator / smoke driver.

#![warn(missing_docs)]

pub mod batcher;
pub mod chaos;
pub mod client;
pub mod http;
pub mod mux;
pub mod protocol;
pub mod router;
pub mod server;
pub mod session;
pub mod shard;
pub mod snapshot;

pub use batcher::{Answered, BatchConfig, Batcher, Completion, SubmitError, Verdict};
pub use chaos::{Chaos, ChaosConfig};
pub use client::{Client, Response, RetryPolicy};
pub use protocol::{ApiError, LaneStats, StatsSnapshot, Topology};
pub use router::{start_router, RouterConfig, RouterHandle};
pub use server::{
    default_model_config, preset_dataset_config, start, ServeStats, ServerConfig, ServerHandle,
    MAX_DEADLINE_MS,
};
pub use session::{SessionConfig, SessionError, SessionInfo, SessionStats, SessionStore};
pub use shard::SHARD_FN_ID;
pub use snapshot::{PublishedCheckpoint, SnapshotHandle, BOOT_VERSION};
