//! Trajectory windowing and prediction-sample extraction.
//!
//! Following Sec. II-A: a user's check-in stream is cut into disjoint
//! trajectories wherever the gap between consecutive records is at least
//! `Δt` (72 hours in the paper). For a prediction sample at position `j`
//! of trajectory `i`, the *historical trajectories* are `S_T1 … S_T(i−1)`
//! and the *current prefix* is `S_Ti[1 : j−1]`.

use serde::{Deserialize, Serialize};

use crate::poi::{PoiId, Timestamp, UserId};

/// The paper's inter-trajectory gap Δt = 72 hours.
pub const DEFAULT_GAP_SECS: i64 = 72 * 3600;

/// A single visit inside a trajectory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Visit {
    /// Visited POI.
    pub poi: PoiId,
    /// Visit time.
    pub time: Timestamp,
}

/// A maximal run of visits with no ≥ Δt gap.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trajectory {
    /// Owning user.
    pub user: UserId,
    /// Time-ordered visits.
    pub visits: Vec<Visit>,
}

impl Trajectory {
    /// Number of visits.
    pub fn len(&self) -> usize {
        self.visits.len()
    }

    /// True when the trajectory holds no visits.
    pub fn is_empty(&self) -> bool {
        self.visits.is_empty()
    }
}

/// Splits a time-ordered visit stream into trajectories at ≥ `gap_secs`
/// breaks.
///
/// # Panics
/// Panics (debug) if the input is not sorted by time.
pub fn split_trajectories(user: UserId, visits: &[Visit], gap_secs: i64) -> Vec<Trajectory> {
    if visits.is_empty() {
        return Vec::new();
    }
    debug_assert!(
        visits.windows(2).all(|w| w[0].time <= w[1].time),
        "visit stream must be time-ordered"
    );
    let mut out = Vec::new();
    let mut current = vec![visits[0]];
    for pair in visits.windows(2) {
        if pair[1].time - pair[0].time >= gap_secs {
            out.push(Trajectory {
                user,
                visits: std::mem::take(&mut current),
            });
        }
        current.push(pair[1]);
    }
    out.push(Trajectory {
        user,
        visits: current,
    });
    out
}

/// All trajectories of one user, in chronological order.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct UserHistory {
    /// The user.
    pub user: UserId,
    /// Chronologically ordered trajectories.
    pub trajectories: Vec<Trajectory>,
}

impl UserHistory {
    /// Builds a history by splitting the user's visit stream.
    pub fn from_visits(user: UserId, visits: &[Visit], gap_secs: i64) -> Self {
        UserHistory {
            user,
            trajectories: split_trajectories(user, visits, gap_secs),
        }
    }

    /// Total check-in count.
    pub fn num_checkins(&self) -> usize {
        self.trajectories.iter().map(Trajectory::len).sum()
    }
}

/// A next-POI prediction sample: predict visit `prefix_len` of trajectory
/// `traj_index`, given that trajectory's first `prefix_len` visits and all
/// earlier trajectories as history.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Sample {
    /// Index of the user in the dataset's user table.
    pub user_index: usize,
    /// Which trajectory within the user's history.
    pub traj_index: usize,
    /// Prefix length (≥ 1); the target is the visit at this position.
    pub prefix_len: usize,
}

/// Why a raw check-in stream cannot form a prediction subject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckinStreamError {
    /// The stream holds no visits — there is nothing to predict from.
    Empty,
    /// Visit `index` is earlier than its predecessor; streams must be
    /// time-ordered (the trajectory gap rule is meaningless otherwise).
    Unordered {
        /// 0-based index of the out-of-order visit.
        index: usize,
    },
}

impl std::fmt::Display for CheckinStreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckinStreamError::Empty => write!(f, "check-in stream is empty"),
            CheckinStreamError::Unordered { index } => {
                write!(f, "check-in {index} is earlier than its predecessor")
            }
        }
    }
}

/// An **owned** prediction subject: a client-supplied check-in stream,
/// decoupled from any preset dataset. The stream is split at the paper's
/// trajectory gap exactly like [`split_trajectories`]: everything before
/// the final gap is `history` (flattened — models consume historical
/// trajectories as one concatenated visit run), everything after it is the
/// `current` prefix whose next visit is to be predicted.
///
/// Built from the same visits a dataset sample addresses
/// ([`crate::LbsnDataset::sample_checkins`]), the split reproduces that
/// sample's `(history, prefix)` decomposition exactly — the invariant the
/// payload-addressed serving API's bitwise contract rests on.
#[derive(Debug, Clone, PartialEq)]
pub struct AdHocTrajectory {
    /// Client-supplied user identity (opaque to the model; sessions and
    /// response echoing key on it, vocabulary bounds do not apply).
    pub user: UserId,
    /// Flattened visits of every trajectory before the current one,
    /// untruncated (consumers apply their own history windows).
    pub history: Vec<Visit>,
    /// The current trajectory prefix (non-empty, no internal ≥ gap break).
    pub current: Vec<Visit>,
}

impl AdHocTrajectory {
    /// Splits a raw time-ordered check-in stream into `(history, current)`
    /// at the last ≥ `gap_secs` break.
    ///
    /// # Errors
    /// [`CheckinStreamError::Empty`] on an empty stream,
    /// [`CheckinStreamError::Unordered`] when any visit precedes the one
    /// before it.
    pub fn from_checkins(
        user: UserId,
        visits: &[Visit],
        gap_secs: i64,
    ) -> Result<Self, CheckinStreamError> {
        if visits.is_empty() {
            return Err(CheckinStreamError::Empty);
        }
        for (i, pair) in visits.windows(2).enumerate() {
            if pair[1].time < pair[0].time {
                return Err(CheckinStreamError::Unordered { index: i + 1 });
            }
        }
        // Index of the first visit of the current (final) trajectory.
        let mut start = 0usize;
        for (i, pair) in visits.windows(2).enumerate() {
            if pair[1].time - pair[0].time >= gap_secs {
                start = i + 1;
            }
        }
        Ok(AdHocTrajectory {
            user,
            history: visits[..start].to_vec(),
            current: visits[start..].to_vec(),
        })
    }

    /// Total visit count (history + current).
    pub fn num_checkins(&self) -> usize {
        self.history.len() + self.current.len()
    }
}

/// Index of the first visit naming a POI outside a vocabulary of `vocab`
/// ids, if any — the one bound check shared by every consumer validating
/// client-supplied check-in streams (core subjects, the serving layer).
pub fn first_invalid_poi(visits: &[Visit], vocab: usize) -> Option<usize> {
    visits.iter().position(|v| v.poi.0 >= vocab)
}

/// Enumerates every prediction sample a user history offers: all positions
/// `j ≥ 1` of all trajectories with at least two visits.
pub fn enumerate_samples(user_index: usize, history: &UserHistory) -> Vec<Sample> {
    let mut out = Vec::new();
    for (ti, traj) in history.trajectories.iter().enumerate() {
        for j in 1..traj.len() {
            out.push(Sample {
                user_index,
                traj_index: ti,
                prefix_len: j,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(poi: usize, hours: i64) -> Visit {
        Visit {
            poi: PoiId(poi),
            time: hours * 3600,
        }
    }

    #[test]
    fn empty_stream_no_trajectories() {
        assert!(split_trajectories(UserId(0), &[], DEFAULT_GAP_SECS).is_empty());
    }

    #[test]
    fn no_gap_single_trajectory() {
        let visits = vec![v(1, 0), v(2, 5), v(3, 20)];
        let ts = split_trajectories(UserId(0), &visits, DEFAULT_GAP_SECS);
        assert_eq!(ts.len(), 1);
        assert_eq!(ts[0].len(), 3);
    }

    #[test]
    fn splits_at_72h_gap() {
        let visits = vec![v(1, 0), v(2, 10), v(3, 10 + 72), v(4, 10 + 73)];
        let ts = split_trajectories(UserId(0), &visits, DEFAULT_GAP_SECS);
        assert_eq!(ts.len(), 2);
        assert_eq!(ts[0].len(), 2);
        assert_eq!(ts[1].len(), 2);
    }

    #[test]
    fn gap_just_below_threshold_does_not_split() {
        let visits = vec![v(1, 0), v(2, 71)];
        let ts = split_trajectories(UserId(0), &visits, DEFAULT_GAP_SECS);
        assert_eq!(ts.len(), 1);
    }

    #[test]
    fn multiple_gaps_produce_multiple_windows() {
        let visits = vec![v(1, 0), v(2, 100), v(3, 200), v(4, 300)];
        let ts = split_trajectories(UserId(0), &visits, DEFAULT_GAP_SECS);
        assert_eq!(ts.len(), 4);
        for t in &ts {
            assert_eq!(t.len(), 1);
        }
    }

    #[test]
    fn samples_skip_singleton_trajectories() {
        let h = UserHistory {
            user: UserId(3),
            trajectories: vec![
                Trajectory {
                    user: UserId(3),
                    visits: vec![v(1, 0)],
                },
                Trajectory {
                    user: UserId(3),
                    visits: vec![v(2, 100), v(3, 101), v(4, 102)],
                },
            ],
        };
        let samples = enumerate_samples(7, &h);
        assert_eq!(samples.len(), 2);
        assert!(samples.iter().all(|s| s.traj_index == 1));
        assert_eq!(samples[0].prefix_len, 1);
        assert_eq!(samples[1].prefix_len, 2);
        assert!(samples.iter().all(|s| s.user_index == 7));
    }

    #[test]
    fn adhoc_splits_at_the_last_gap() {
        // Two gaps: history is everything before the final one, flattened.
        let visits = vec![v(1, 0), v(2, 100), v(3, 200), v(4, 201), v(5, 300)];
        let t = AdHocTrajectory::from_checkins(UserId(3), &visits, DEFAULT_GAP_SECS).unwrap();
        assert_eq!(t.history, &visits[..4]);
        assert_eq!(t.current, &visits[4..]);
        assert_eq!(t.num_checkins(), 5);

        // No gap at all: the whole stream is the current prefix.
        let single = vec![v(1, 0), v(2, 5), v(3, 20)];
        let t = AdHocTrajectory::from_checkins(UserId(0), &single, DEFAULT_GAP_SECS).unwrap();
        assert!(t.history.is_empty());
        assert_eq!(t.current, single);
    }

    #[test]
    fn adhoc_matches_split_trajectories_decomposition() {
        // The ad-hoc split must agree with split_trajectories: history =
        // all but the last trajectory (flattened), current = the last.
        let visits = vec![v(1, 0), v(2, 71), v(3, 71 + 72), v(4, 150), v(5, 300)];
        let trajs = split_trajectories(UserId(9), &visits, DEFAULT_GAP_SECS);
        let t = AdHocTrajectory::from_checkins(UserId(9), &visits, DEFAULT_GAP_SECS).unwrap();
        let flat_history: Vec<Visit> = trajs[..trajs.len() - 1]
            .iter()
            .flat_map(|t| t.visits.iter().copied())
            .collect();
        assert_eq!(t.history, flat_history);
        assert_eq!(t.current, trajs.last().unwrap().visits);
    }

    #[test]
    fn adhoc_rejects_empty_and_unordered_streams() {
        assert_eq!(
            AdHocTrajectory::from_checkins(UserId(0), &[], DEFAULT_GAP_SECS),
            Err(CheckinStreamError::Empty)
        );
        let unordered = vec![v(1, 10), v(2, 5)];
        assert_eq!(
            AdHocTrajectory::from_checkins(UserId(0), &unordered, DEFAULT_GAP_SECS),
            Err(CheckinStreamError::Unordered { index: 1 })
        );
        // Equal timestamps are ordered (check-ins can share a second).
        let ties = vec![v(1, 10), v(2, 10)];
        assert!(AdHocTrajectory::from_checkins(UserId(0), &ties, DEFAULT_GAP_SECS).is_ok());
    }

    #[test]
    fn history_checkin_count() {
        let visits = vec![v(1, 0), v(2, 10), v(3, 200)];
        let h = UserHistory::from_visits(UserId(0), &visits, DEFAULT_GAP_SECS);
        assert_eq!(h.num_checkins(), 3);
        assert_eq!(h.trajectories.len(), 2);
    }
}
