//! The prediction **subject**: what a query addresses.
//!
//! Until the v1 API redesign every prediction addressed a
//! [`Sample`] — an index triple into the server-side dataset. The online
//! setting (and any real client) instead supplies the raw check-in
//! sequence itself. [`Subject`] unifies the two: an *indexed* subject
//! resolves its prefix and history from the dataset, an *ad-hoc* subject
//! carries them in the query ([`AdHocTrajectory`]). Every forward path
//! resolves a subject to the same `(prefix, history)` pair of visit runs,
//! so an ad-hoc subject built from a sample's own raw stream
//! ([`tspn_data::LbsnDataset::sample_checkins`]) predicts **bitwise**
//! identically to the indexed sample.

use std::sync::Arc;

use tspn_data::{AdHocTrajectory, Sample, Visit};

use crate::context::SpatialContext;

/// What one prediction query addresses: a dataset-indexed sample or an
/// owned ad-hoc trajectory. Cheap to clone (ad-hoc payloads are behind an
/// `Arc`, so fan-out across batcher and worker threads shares one copy).
#[derive(Debug, Clone, PartialEq)]
pub enum Subject {
    /// A `(user, trajectory, prefix_len)` index into the dataset.
    Indexed(Sample),
    /// A client-supplied check-in sequence, split into history + prefix.
    AdHoc(Arc<AdHocTrajectory>),
}

impl From<Sample> for Subject {
    fn from(sample: Sample) -> Self {
        Subject::Indexed(sample)
    }
}

impl Subject {
    /// The indexed sample, when this subject is one.
    pub fn indexed(&self) -> Option<Sample> {
        match self {
            Subject::Indexed(s) => Some(*s),
            Subject::AdHoc(_) => None,
        }
    }

    /// The current-trajectory prefix (untruncated; the model applies its
    /// `max_prefix` window).
    pub fn prefix<'a>(&'a self, ctx: &'a SpatialContext) -> &'a [Visit] {
        match self {
            Subject::Indexed(s) => ctx.dataset.sample_prefix(s),
            Subject::AdHoc(t) => &t.current,
        }
    }

    /// True when the subject carries historical trajectories (drives the
    /// cross-attention row partition; grouping alike subjects keeps
    /// batches homogeneous).
    pub fn has_history(&self) -> bool {
        match self {
            // Dataset trajectories are non-empty by construction, so any
            // prior trajectory means non-empty history.
            Subject::Indexed(s) => s.traj_index > 0,
            Subject::AdHoc(t) => !t.history.is_empty(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Partition, TspnConfig};
    use tspn_data::presets::nyc_mini;
    use tspn_data::synth::generate_dataset;
    use tspn_data::{UserId, DEFAULT_GAP_SECS};

    fn tiny_ctx() -> SpatialContext {
        let mut dcfg = nyc_mini(0.1);
        dcfg.days = 10;
        let (ds, world) = generate_dataset(dcfg);
        let cfg = TspnConfig {
            dm: 16,
            image_size: 8,
            partition: Partition::QuadTree {
                max_depth: 5,
                leaf_capacity: 12,
            },
            ..TspnConfig::default()
        };
        SpatialContext::build(ds, world, &cfg)
    }

    #[test]
    fn indexed_and_adhoc_resolve_the_same_prefix() {
        let ctx = tiny_ctx();
        let s = ctx.dataset.all_samples()[0];
        let indexed = Subject::Indexed(s);
        let stream = ctx.dataset.sample_checkins(&s);
        let adhoc = Subject::AdHoc(Arc::new(
            AdHocTrajectory::from_checkins(UserId(s.user_index), &stream, DEFAULT_GAP_SECS)
                .unwrap(),
        ));
        assert_eq!(indexed.prefix(&ctx), adhoc.prefix(&ctx));
        assert_eq!(indexed.has_history(), adhoc.has_history());
    }
}
