//! Shard routing: which lane — and, in a fleet, which backend — owns a
//! request.
//!
//! Everything that fans the serving layer out agrees on one hash: the
//! server picks a lane and the router picks a backend. The function is
//! FNV-1a 64 (tiny, dependency-free, deterministic across processes),
//! advertised by `GET /v1/topology` as [`SHARD_FN_ID`] so a router can
//! refuse a backend speaking a different hash.
//!
//! Session ids carry their placement arithmetically instead of through a
//! lookup table: lane `l` of `L` (on backend `b` of `N`) issues ids from
//! the stride-partitioned sequence `first = b + l·N + 1`,
//! `stride = N·L`, so `(id − 1) mod N` recovers the backend and
//! `((id − 1 − b) / N) mod L` the lane — no coordination, no id ever
//! issued twice across the fleet, and the single-process single-lane
//! layout degenerates to the historical `1, 2, 3, …` sequence exactly.

use tspn_data::Visit;

/// Identifier of the shard hash advertised by `/v1/topology`. A router,
/// backend, and client must agree on this before routing by hash.
pub const SHARD_FN_ID: &str = "fnv1a64";

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64 over a byte stream, seedable so hashes compose.
fn fnv1a(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state ^= u64::from(b);
        state = state.wrapping_mul(FNV_PRIME);
    }
    state
}

/// Hash of a user id — the shard key for sessions (creation pins a
/// session's lane, and every later call follows the id).
pub fn hash_user(user: usize) -> u64 {
    fnv1a(FNV_OFFSET, &(user as u64).to_le_bytes())
}

/// Hash of an ad-hoc payload (user + full check-in stream) — the shard
/// key for `POST /v1/predict`, which carries no server-side state and so
/// may spread one user's payloads across lanes for throughput.
pub fn hash_content(user: usize, checkins: &[Visit]) -> u64 {
    let mut state = fnv1a(FNV_OFFSET, &(user as u64).to_le_bytes());
    for v in checkins {
        state = fnv1a(state, &(v.poi.0 as u64).to_le_bytes());
        state = fnv1a(state, &v.time.to_le_bytes());
    }
    state
}

/// Lane (or backend) index for a user-keyed request.
pub fn shard_of_user(user: usize, shards: usize) -> usize {
    (hash_user(user) % shards.max(1) as u64) as usize
}

/// Lane (or backend) index for a payload-keyed request.
pub fn shard_of_content(user: usize, checkins: &[Visit], shards: usize) -> usize {
    (hash_content(user, checkins) % shards.max(1) as u64) as usize
}

/// A stride-partitioned slice of the session/batch id space: ids
/// `first, first + stride, first + 2·stride, …`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IdPartition {
    /// First id this partition may issue (≥ 1).
    pub first: u64,
    /// Distance between consecutive ids (≥ 1).
    pub stride: u64,
}

impl IdPartition {
    /// The id space of lane `lane` of `lanes` on backend `shard_index` of
    /// `shard_count`. A standalone server is backend 0 of 1.
    pub fn new(shard_index: usize, shard_count: usize, lane: usize, lanes: usize) -> IdPartition {
        let (b, n) = (shard_index as u64, shard_count.max(1) as u64);
        let (l, lanes) = (lane as u64, lanes.max(1) as u64);
        assert!(b < n, "shard index {b} out of range for {n} backends");
        assert!(l < lanes, "lane {l} out of range for {lanes} lanes");
        IdPartition {
            first: b + l * n + 1,
            stride: n * lanes,
        }
    }

    /// Whether `id` belongs to this partition's residue class.
    pub fn owns(&self, id: u64) -> bool {
        id >= self.first && (id - self.first).is_multiple_of(self.stride)
    }
}

/// Which backend of `shard_count` issued session id `id`. Ids the fleet
/// never issued still resolve to *some* backend, whose per-lane store
/// reports them `404 unknown` — misrouting is impossible, only rejection.
pub fn backend_of_session_id(id: u64, shard_count: usize) -> usize {
    (id.saturating_sub(1) % shard_count.max(1) as u64) as usize
}

/// Which lane of `lanes` (on backend `shard_index` of `shard_count`)
/// issued session id `id`. Ids from a foreign residue class resolve to an
/// arbitrary local lane, whose store rejects them as unknown.
pub fn lane_of_session_id(id: u64, shard_index: usize, shard_count: usize, lanes: usize) -> usize {
    let r = id.saturating_sub(1).saturating_sub(shard_index as u64);
    ((r / shard_count.max(1) as u64) % lanes.max(1) as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use tspn_data::PoiId;

    fn visit(poi: usize, time: i64) -> Visit {
        Visit {
            poi: PoiId(poi),
            time,
        }
    }

    #[test]
    fn user_hash_is_stable_and_spreads() {
        // Pinned value: the topology contract says fnv1a64 over 8 LE
        // bytes; a silent change here would strand every client.
        assert_eq!(hash_user(0), fnv1a(FNV_OFFSET, &[0u8; 8]));
        let mut lanes_hit = [false; 4];
        for user in 0..64 {
            lanes_hit[shard_of_user(user, 4)] = true;
        }
        assert!(lanes_hit.iter().all(|&h| h), "64 users cover 4 lanes");
    }

    #[test]
    fn content_hash_depends_on_every_checkin() {
        let a = vec![visit(1, 100), visit(2, 200)];
        let mut b = a.clone();
        b[1].time += 1;
        assert_ne!(hash_content(7, &a), hash_content(7, &b));
        assert_ne!(hash_content(7, &a), hash_content(8, &a));
        assert_eq!(hash_content(7, &a), hash_content(7, &a.clone()));
    }

    #[test]
    fn partitions_tile_the_id_space_without_overlap() {
        let (n, lanes) = (2usize, 3usize);
        let mut owners = std::collections::HashMap::new();
        for b in 0..n {
            for l in 0..lanes {
                let p = IdPartition::new(b, n, l, lanes);
                let mut id = p.first;
                for _ in 0..8 {
                    assert!(p.owns(id));
                    assert_eq!(owners.insert(id, (b, l)), None, "id {id} double-issued");
                    assert_eq!(backend_of_session_id(id, n), b);
                    assert_eq!(lane_of_session_id(id, b, n, lanes), l);
                    id += p.stride;
                }
            }
        }
        // Every id 1..=48 is owned by exactly one (backend, lane).
        for id in 1..=48u64 {
            assert!(owners.contains_key(&id), "id {id} unowned");
        }
    }

    #[test]
    fn single_process_single_lane_is_the_historical_sequence() {
        let p = IdPartition::new(0, 1, 0, 1);
        assert_eq!(
            p,
            IdPartition {
                first: 1,
                stride: 1
            }
        );
        assert!(p.owns(1) && p.owns(2) && p.owns(3));
        assert_eq!(lane_of_session_id(999, 0, 1, 1), 0);
        assert_eq!(backend_of_session_id(999, 1), 0);
    }
}
