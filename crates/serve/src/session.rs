//! The server-side session store for the stateful v1 flow.
//!
//! A **session** is a per-user trajectory accumulated incrementally:
//! `POST /v1/sessions` creates one, `POST /v1/sessions/{id}/checkins`
//! appends observed visits, and `POST /v1/sessions/{id}/predict` runs the
//! model on the accumulated sequence — so a client streams check-ins as
//! they happen instead of re-sending its whole history per prediction.
//!
//! The store is **bounded** two ways:
//!
//! * **TTL** — a session idle longer than `ttl` is expired (lazily, on
//!   the next store operation; no background thread). Any touch —
//!   append, predict, info — refreshes the clock.
//! * **Capacity** — at `max_sessions` live sessions, creating another
//!   evicts the longest-idle one (LRU by last touch).
//!
//! Session ids are issued from a monotonic counter (`"s1"`, `"s2"`, …),
//! which makes *gone* distinguishable from *never existed* without
//! tombstones: an id below the counter that is no longer live was
//! expired/evicted/deleted (HTTP `410 Gone`), an id at or above it was
//! never issued (`404 Not Found`).
//!
//! Per-session visit history is also bounded (`max_visits`, FIFO): the
//! model windows its inputs to `max_history + max_prefix` visits anyway,
//! so dropping the far past never changes a prediction as long as the
//! cap comfortably exceeds that window.

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use tspn_data::Visit;

/// Session-store knobs.
#[derive(Debug, Clone, Copy)]
pub struct SessionConfig {
    /// Idle time after which a session expires.
    pub ttl: Duration,
    /// Most live sessions held at once; creation past this evicts the
    /// longest-idle session.
    pub max_sessions: usize,
    /// Most visits retained per session (oldest dropped first).
    pub max_visits: usize,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            ttl: Duration::from_secs(15 * 60),
            max_sessions: 4096,
            max_visits: 1024,
        }
    }
}

/// Why a session operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionError {
    /// The id was never issued by this store.
    Unknown,
    /// The id existed but has expired, been evicted, or been deleted.
    Gone,
    /// An appended visit is earlier than the session's newest visit (or
    /// the appended run is internally unordered) — names the offending
    /// 0-based index within the appended run.
    Unordered(usize),
}

/// One live session.
#[derive(Debug)]
struct Session {
    user: usize,
    visits: Vec<Visit>,
    last_touch: Instant,
}

/// A session's client-visible state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionInfo {
    /// The session's user id (opaque to the model).
    pub user: usize,
    /// Retained visit count.
    pub checkins: usize,
    /// Milliseconds since the last touch.
    pub idle_ms: u64,
}

/// Occupancy and lifecycle counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Live sessions right now.
    pub live: usize,
    /// Sessions ever created.
    pub created: u64,
    /// TTL expirations so far.
    pub expired: u64,
    /// Capacity (LRU) evictions so far.
    pub evicted: u64,
}

struct Inner {
    sessions: HashMap<u64, Session>,
    /// Next id to issue; issued ids that are not live are Gone.
    next_id: u64,
    /// First id this store may issue — see [`crate::shard::IdPartition`].
    first_id: u64,
    /// Distance between consecutive issued ids. A lane-partitioned server
    /// gives each lane's store a disjoint residue class so an id names
    /// its lane (and, across a fleet, its backend) arithmetically.
    id_stride: u64,
    created: u64,
    expired: u64,
    evicted: u64,
}

/// The bounded, TTL-evicting session store (thread-safe; handler threads
/// share it directly — no model state lives here).
pub struct SessionStore {
    cfg: SessionConfig,
    inner: Mutex<Inner>,
}

impl SessionStore {
    /// An empty store issuing ids `1, 2, 3, …`.
    pub fn new(cfg: SessionConfig) -> Self {
        SessionStore::with_ids(cfg, 1, 1)
    }

    /// An empty store issuing ids from the stride-partitioned sequence
    /// `first, first + stride, …`. Ids from a foreign residue class are
    /// always [`SessionError::Unknown`] here — they belong to another
    /// lane or backend and were never issued by this store.
    pub fn with_ids(cfg: SessionConfig, first: u64, stride: u64) -> Self {
        assert!(cfg.max_sessions >= 1, "max_sessions must be positive");
        assert!(cfg.max_visits >= 1, "max_visits must be positive");
        assert!(first >= 1, "session ids start at 1");
        assert!(stride >= 1, "session id stride must be positive");
        SessionStore {
            cfg,
            inner: Mutex::new(Inner {
                sessions: HashMap::new(),
                next_id: first,
                first_id: first,
                id_stride: stride,
                created: 0,
                expired: 0,
                evicted: 0,
            }),
        }
    }

    /// The configured knobs.
    pub fn config(&self) -> SessionConfig {
        self.cfg
    }

    /// Creates a session for `user`, atomically seeded with `seed` (which
    /// may be empty), evicting the longest-idle session first when at
    /// capacity. Returns `(issued id, retained visit count)`. Creation is
    /// all-or-nothing: an invalid seed issues no id and evicts nothing.
    ///
    /// # Errors
    /// [`SessionError::Unordered`] when the seed run regresses in time.
    pub fn create(&self, user: usize, seed: &[Visit]) -> Result<(u64, usize), SessionError> {
        check_run_order(seed, None)?;
        let mut inner = self.lock_full_sweep();
        if inner.sessions.len() >= self.cfg.max_sessions {
            if let Some((&victim, _)) = inner.sessions.iter().min_by_key(|(_, s)| s.last_touch) {
                inner.sessions.remove(&victim);
                inner.evicted += 1;
            }
        }
        let id = inner.next_id;
        inner.next_id += inner.id_stride;
        inner.created += 1;
        let mut visits = seed.to_vec();
        if visits.len() > self.cfg.max_visits {
            let overflow = visits.len() - self.cfg.max_visits;
            visits.drain(..overflow);
        }
        let count = visits.len();
        inner.sessions.insert(
            id,
            Session {
                user,
                visits,
                last_touch: Instant::now(),
            },
        );
        Ok((id, count))
    }

    /// Appends a time-ordered visit run to a session, returning the total
    /// retained visit count. Refreshes the TTL clock.
    ///
    /// # Errors
    /// [`SessionError::Unknown`]/[`SessionError::Gone`] for bad ids;
    /// [`SessionError::Unordered`] when the run regresses in time (the
    /// session is left untouched — appends are all-or-nothing).
    pub fn append(&self, id: u64, visits: &[Visit]) -> Result<usize, SessionError> {
        let mut inner = self.lock_expiring(id);
        let status = Self::status_of(&inner, id);
        let session = inner.sessions.get_mut(&id).ok_or(status)?;
        check_run_order(visits, session.visits.last().map(|v| v.time))?;
        session.visits.extend_from_slice(visits);
        if session.visits.len() > self.cfg.max_visits {
            let overflow = session.visits.len() - self.cfg.max_visits;
            session.visits.drain(..overflow);
        }
        session.last_touch = Instant::now();
        Ok(session.visits.len())
    }

    /// The session's user and a snapshot of its visits (what a predict
    /// runs on). Refreshes the TTL clock.
    ///
    /// # Errors
    /// [`SessionError::Unknown`] or [`SessionError::Gone`].
    pub fn snapshot(&self, id: u64) -> Result<(usize, Vec<Visit>), SessionError> {
        let mut inner = self.lock_expiring(id);
        let status = Self::status_of(&inner, id);
        let session = inner.sessions.get_mut(&id).ok_or(status)?;
        session.last_touch = Instant::now();
        Ok((session.user, session.visits.clone()))
    }

    /// Client-visible session state. Does **not** refresh the TTL clock
    /// (peeking at a session should not keep it alive).
    ///
    /// # Errors
    /// [`SessionError::Unknown`] or [`SessionError::Gone`].
    pub fn info(&self, id: u64) -> Result<SessionInfo, SessionError> {
        let inner = self.lock_expiring(id);
        let status = Self::status_of(&inner, id);
        let session = inner.sessions.get(&id).ok_or(status)?;
        Ok(SessionInfo {
            user: session.user,
            checkins: session.visits.len(),
            idle_ms: session.last_touch.elapsed().as_millis() as u64,
        })
    }

    /// Deletes a session (it subsequently reports [`SessionError::Gone`]).
    ///
    /// # Errors
    /// [`SessionError::Unknown`] or [`SessionError::Gone`].
    pub fn delete(&self, id: u64) -> Result<(), SessionError> {
        let mut inner = self.lock_expiring(id);
        let status = Self::status_of(&inner, id);
        inner.sessions.remove(&id).map(|_| ()).ok_or(status)
    }

    /// Occupancy and lifecycle counters (full sweep first, so `live`
    /// never counts sessions that are already past their TTL).
    pub fn stats(&self) -> SessionStats {
        let inner = self.lock_full_sweep();
        SessionStats {
            live: inner.sessions.len(),
            created: inner.created,
            expired: inner.expired,
            evicted: inner.evicted,
        }
    }

    /// Error for a missing id: an id this store issued (in its residue
    /// class, below the counter) once existed and is Gone; anything else
    /// — including another lane's ids — was never issued here.
    fn status_of(inner: &Inner, id: u64) -> SessionError {
        let issued_here = id >= inner.first_id
            && id < inner.next_id
            && (id - inner.first_id).is_multiple_of(inner.id_stride);
        if issued_here {
            SessionError::Gone
        } else {
            SessionError::Unknown
        }
    }

    /// Locks the store, expiring only the accessed session when it is
    /// past its TTL — O(1), so the per-request session operations never
    /// scan the whole store under the global mutex. Other expired
    /// sessions linger until a create or stats call sweeps them; they
    /// can never be *observed* alive, because every access path expires
    /// its own id first.
    fn lock_expiring(&self, id: u64) -> std::sync::MutexGuard<'_, Inner> {
        let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        if inner
            .sessions
            .get(&id)
            .is_some_and(|s| s.last_touch.elapsed() > self.cfg.ttl)
        {
            inner.sessions.remove(&id);
            inner.expired += 1;
        }
        inner
    }

    /// Locks the store and expires every over-TTL session — the
    /// O(live-sessions) path, reserved for creation (so capacity
    /// eviction never victimises a live session while expired ones
    /// linger) and stats reporting.
    fn lock_full_sweep(&self) -> std::sync::MutexGuard<'_, Inner> {
        let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        let ttl = self.cfg.ttl;
        let before = inner.sessions.len();
        inner.sessions.retain(|_, s| s.last_touch.elapsed() <= ttl);
        inner.expired += (before - inner.sessions.len()) as u64;
        inner
    }
}

/// Validates that `visits` is internally time-ordered and does not
/// regress below `floor` (the session's newest visit, for appends).
///
/// # Errors
/// [`SessionError::Unordered`] naming the offending 0-based index.
fn check_run_order(visits: &[Visit], floor: Option<i64>) -> Result<(), SessionError> {
    let mut last = floor;
    for (i, v) in visits.iter().enumerate() {
        if last.is_some_and(|t| v.time < t) {
            return Err(SessionError::Unordered(i));
        }
        last = Some(v.time);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tspn_data::PoiId;

    fn v(poi: usize, t: i64) -> Visit {
        Visit {
            poi: PoiId(poi),
            time: t,
        }
    }

    fn store(ttl_ms: u64, max_sessions: usize, max_visits: usize) -> SessionStore {
        SessionStore::new(SessionConfig {
            ttl: Duration::from_millis(ttl_ms),
            max_sessions,
            max_visits,
        })
    }

    #[test]
    fn create_append_snapshot_roundtrip() {
        let s = store(60_000, 8, 64);
        let id = s.create(42, &[]).unwrap().0;
        assert_eq!(s.append(id, &[v(1, 0), v(2, 10)]).unwrap(), 2);
        assert_eq!(s.append(id, &[v(3, 10)]).unwrap(), 3); // ties are ordered
        let (user, visits) = s.snapshot(id).unwrap();
        assert_eq!(user, 42);
        assert_eq!(visits, vec![v(1, 0), v(2, 10), v(3, 10)]);
        let info = s.info(id).unwrap();
        assert_eq!((info.user, info.checkins), (42, 3));
    }

    #[test]
    fn unordered_appends_are_rejected_atomically() {
        let s = store(60_000, 8, 64);
        let id = s.create(0, &[]).unwrap().0;
        s.append(id, &[v(1, 100)]).unwrap();
        // Regresses against the stored tail.
        assert_eq!(s.append(id, &[v(2, 50)]), Err(SessionError::Unordered(0)));
        // Internally unordered run: nothing of it lands.
        assert_eq!(
            s.append(id, &[v(2, 200), v(3, 150)]),
            Err(SessionError::Unordered(1))
        );
        assert_eq!(s.snapshot(id).unwrap().1, vec![v(1, 100)]);
    }

    #[test]
    fn unknown_vs_gone_distinction() {
        let s = store(60_000, 8, 64);
        assert_eq!(s.info(1), Err(SessionError::Unknown)); // never issued
        let id = s.create(0, &[]).unwrap().0;
        s.delete(id).unwrap();
        assert_eq!(s.info(id), Err(SessionError::Gone));
        assert_eq!(s.delete(id), Err(SessionError::Gone));
        assert_eq!(s.append(id, &[v(1, 0)]), Err(SessionError::Gone));
        assert_eq!(s.info(id + 1), Err(SessionError::Unknown));
        assert_eq!(s.info(0), Err(SessionError::Unknown));
    }

    #[test]
    fn concurrent_churn_never_loses_appends_and_keeps_gone_vs_unknown() {
        // Four threads churn sessions through a 4-slot store, so capacity
        // eviction races every create/append/snapshot. The contract under
        // fire: an append either lands atomically (the returned total is
        // exactly the previous total plus one) or fails typed `Gone`;
        // a snapshot observes the exact ordered prefix of successful
        // appends (no torn or lost writes); and evicted ids stay `Gone`
        // (410) while never-issued ids stay `Unknown` (404).
        let s = store(60_000, 4, 64);
        let threads = 4usize;
        let per_thread = 50usize;
        let all_ids: Vec<u64> = std::thread::scope(|scope| {
            let mut joins = Vec::new();
            for t in 0..threads {
                let s = &s;
                joins.push(scope.spawn(move || {
                    let mut ids = Vec::new();
                    for _ in 0..per_thread {
                        let id = s.create(t, &[]).expect("create always succeeds").0;
                        ids.push(id);
                        let mut appended = 0usize;
                        for j in 0..5usize {
                            match s.append(id, &[v(j + 1, j as i64 * 10)]) {
                                Ok(total) => {
                                    assert_eq!(total, appended + 1, "torn append count");
                                    appended += 1;
                                }
                                Err(SessionError::Gone) => break, // racing eviction
                                Err(e) => panic!("append failed untyped: {e:?}"),
                            }
                        }
                        match s.snapshot(id) {
                            Ok((user, visits)) => {
                                assert_eq!(user, t);
                                let expect: Vec<Visit> =
                                    (0..appended).map(|j| v(j + 1, j as i64 * 10)).collect();
                                assert_eq!(visits, expect, "lost or torn appends");
                            }
                            Err(SessionError::Gone) => {}
                            Err(e) => panic!("snapshot failed untyped: {e:?}"),
                        }
                    }
                    ids
                }));
            }
            joins
                .into_iter()
                .flat_map(|j| j.join().expect("churn thread"))
                .collect()
        });

        // Ids are never reused and never forgotten: every issued id is
        // either still live or typed Gone — present-tense Unknown is
        // reserved for ids the store never issued.
        assert_eq!(all_ids.len(), threads * per_thread);
        let mut unique = all_ids.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), all_ids.len(), "session ids were reused");
        for id in &all_ids {
            match s.info(*id) {
                Ok(_) | Err(SessionError::Gone) => {}
                Err(e) => panic!("issued id {id} reports {e:?}"),
            }
        }
        assert_eq!(s.info(u64::MAX), Err(SessionError::Unknown));

        let stats = s.stats();
        assert_eq!(stats.created as usize, threads * per_thread);
        assert!(stats.live <= 4, "live {} exceeds capacity", stats.live);
        assert!(stats.evicted > 0, "churn never evicted through capacity");
    }

    #[test]
    fn ttl_expires_idle_sessions() {
        let s = store(30, 8, 64);
        let id = s.create(7, &[]).unwrap().0;
        s.append(id, &[v(1, 0)]).unwrap();
        std::thread::sleep(Duration::from_millis(60));
        assert_eq!(s.snapshot(id), Err(SessionError::Gone));
        let stats = s.stats();
        assert_eq!((stats.live, stats.expired), (0, 1));
        // A touched session survives its original deadline.
        let id2 = s.create(8, &[]).unwrap().0;
        for _ in 0..4 {
            std::thread::sleep(Duration::from_millis(15));
            assert!(s.snapshot(id2).is_ok(), "touches must refresh the TTL");
        }
    }

    #[test]
    fn capacity_evicts_the_longest_idle_session() {
        let s = store(60_000, 2, 64);
        let a = s.create(1, &[]).unwrap().0;
        std::thread::sleep(Duration::from_millis(5));
        let b = s.create(2, &[]).unwrap().0;
        std::thread::sleep(Duration::from_millis(5));
        // Touch `a` so `b` is now the longest idle.
        s.snapshot(a).unwrap();
        let c = s.create(3, &[]).unwrap().0;
        assert!(s.info(a).is_ok());
        assert_eq!(s.info(b), Err(SessionError::Gone));
        assert!(s.info(c).is_ok());
        let stats = s.stats();
        assert_eq!((stats.live, stats.evicted, stats.created), (2, 1, 3));
    }

    #[test]
    fn seeded_create_is_atomic() {
        let s = store(60_000, 1, 4);
        // A valid seed lands in one store operation (no create/append
        // window a racing eviction could split).
        let (id, count) = s.create(5, &[v(1, 0), v(2, 10)]).unwrap();
        assert_eq!(count, 2);
        assert_eq!(s.snapshot(id).unwrap().1.len(), 2);
        // An unordered seed issues no id and evicts nothing.
        let before = s.stats();
        assert_eq!(
            s.create(6, &[v(1, 10), v(2, 5)]),
            Err(SessionError::Unordered(1))
        );
        let after = s.stats();
        assert_eq!(before, after, "failed create must not change the store");
        assert!(s.info(id).is_ok(), "existing session untouched");
        // Oversized seeds truncate like appends (oldest dropped).
        let run: Vec<Visit> = (0..6).map(|i| v(i, i as i64)).collect();
        let (id2, count) = s.create(7, &run).unwrap();
        assert_eq!(count, 4);
        assert_eq!(s.snapshot(id2).unwrap().1, run[2..].to_vec());
    }

    #[test]
    fn visit_cap_drops_the_oldest() {
        let s = store(60_000, 2, 4);
        let id = s.create(0, &[]).unwrap().0;
        let run: Vec<Visit> = (0..6).map(|i| v(i, i as i64)).collect();
        assert_eq!(s.append(id, &run).unwrap(), 4);
        let (_, visits) = s.snapshot(id).unwrap();
        assert_eq!(visits, run[2..].to_vec());
    }

    #[test]
    fn stride_partitioned_stores_distinguish_gone_from_foreign_ids() {
        // Lane 1 of 2: issues 2, 4, 6, …
        let s = SessionStore::with_ids(
            SessionConfig {
                ttl: Duration::from_millis(60_000),
                max_sessions: 8,
                max_visits: 64,
            },
            2,
            2,
        );
        let a = s.create(7, &[]).unwrap().0;
        let b = s.create(9, &[]).unwrap().0;
        assert_eq!((a, b), (2, 4));
        s.delete(a).unwrap();
        assert_eq!(s.info(a).unwrap_err(), SessionError::Gone);
        // Odd ids belong to lane 0 — never issued here, so Unknown even
        // though they sit below this store's counter.
        assert_eq!(s.info(3).unwrap_err(), SessionError::Unknown);
        assert_eq!(s.info(1).unwrap_err(), SessionError::Unknown);
        // Beyond the counter is Unknown as always.
        assert_eq!(s.info(6).unwrap_err(), SessionError::Unknown);
    }
}
