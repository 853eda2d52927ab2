//! The request micro-batcher: a bounded queue that coalesces concurrent
//! predict requests into one batched `no_grad` forward.
//!
//! Callers [`Batcher::submit`] a query together with its **completion**:
//! a callback the batcher thread calls once with the query's
//! [`Verdict`]. Nobody blocks waiting for it — the server's completion
//! renders the answer and hands it to the connection's reply, so a
//! prediction crosses from the mux thread to the lane and back, and no
//! thread in between. [`Batcher::try_submit`] is the channel-shaped
//! adapter over the same queue for callers that do want to block. The
//! single batcher thread collects a batch and answers it with one
//! `Predictor::predict_batch` call (which shards across the persistent
//! worker pool). Batching is **work-conserving**: there is no flush
//! timer. An idle batcher flushes a query the moment it arrives, and a
//! busy one's next flush takes whatever queued during the current
//! forward, up to `max_batch` — so batch size grows with load by itself,
//! amortising the per-flush costs (parameter checks, table reuse, pool
//! dispatch) exactly when there is a backlog to amortise them over.
//!
//! The queue is bounded (`queue_cap`) and is the server's **admission
//! control** point: a submission is refused immediately with
//! [`SubmitError::QueueFull`] when the server is `queue_cap` requests
//! behind, so overload is shed as a typed `429` instead of growing memory
//! without limit.
//!
//! Every queued query may carry a **deadline**: entries whose deadline
//! passes while they wait are swept out *before* the flush and completed
//! with [`Verdict::Expired`] — the model never spends a forward pass on
//! an answer nobody is waiting for.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use tspn_core::{Query, TopK};

/// Micro-batching knobs (defaults 32 / 1024).
#[derive(Debug, Clone, Copy)]
pub struct BatchConfig {
    /// Largest batch one flush may take. A flush is one batched forward,
    /// so this caps how much backlog one forward absorbs.
    pub max_batch: usize,
    /// Bound on queued (not yet flushed) queries: how far behind the
    /// server may fall before `try_submit` sheds.
    pub queue_cap: usize,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            max_batch: 32,
            queue_cap: 1024,
        }
    }
}

/// The answer a completion receives for a served query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Answered {
    /// The prediction.
    pub topk: TopK,
    /// The parameter-snapshot version the whole batch ran under.
    pub snapshot: u64,
    /// The flush sequence number (all queries of one flush share it).
    pub batch: u64,
}

/// What a query's completion is called with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// The query ran in a flush and this is its prediction.
    Answered(Answered),
    /// The query's deadline passed while it sat in the queue; it was
    /// dropped *before* the flush, so the model never ran it. Handlers
    /// answer `503 deadline_exceeded`; retrying is always safe.
    Expired,
}

impl Verdict {
    /// The answer, if the query was served (test/diagnostic convenience).
    pub fn answered(self) -> Option<Answered> {
        match self {
            Verdict::Answered(a) => Some(a),
            Verdict::Expired => None,
        }
    }
}

/// Why a submission was not accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The batcher has been closed (server shutting down).
    Closed,
    /// The admission queue is at `queue_cap`; the request was shed
    /// without queuing. Handlers answer `429 overloaded` + `Retry-After`.
    QueueFull,
}

/// How one supervised run of the serve loop ended; see
/// [`Batcher::run_supervised`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoopExit {
    /// The batcher was closed and the queue fully drained.
    Drained,
    /// `serve` panicked. That batch's completions were dropped uncalled
    /// (each request answers 500); the queue and any later submissions
    /// are intact. The caller may rebuild state and re-enter.
    Panicked,
}

/// Where a queued query's verdict goes: the batcher thread calls
/// [`Completion::complete`] once, or drops the completion uncalled when
/// the query's batch panics. Any `FnOnce(Verdict)` closure is one.
pub trait Completion: Send + 'static {
    /// Delivers the verdict.
    fn complete(self: Box<Self>, verdict: Verdict);
}

impl<F: FnOnce(Verdict) + Send + 'static> Completion for F {
    fn complete(self: Box<Self>, verdict: Verdict) {
        (*self)(verdict);
    }
}

struct Waiting {
    query: Query,
    done: Box<dyn Completion>,
    /// Hard per-request deadline; entries past it are swept pre-flush.
    deadline: Option<Instant>,
}

struct Shared {
    queue: Mutex<State>,
    /// Signalled when the queue gains an element or closes.
    nonempty: Condvar,
    /// Queries dropped pre-flush because their deadline expired in queue.
    shed_expired: AtomicU64,
}

struct State {
    waiting: VecDeque<Waiting>,
    open: bool,
    /// Next flush id to issue; lives here (not in the run loop) so batch
    /// ids stay monotonic across supervisor restarts.
    next_batch: u64,
    /// Distance between consecutive batch ids. A multi-lane server gives
    /// lane `l` of `L` the partition `first = l + 1, stride = L`, so
    /// every batch id is unique across lanes without coordination.
    batch_stride: u64,
}

/// Takes every queued entry whose deadline has passed out of the queue.
/// Called with the queue lock held; the caller completes them with
/// [`Verdict::Expired`] after releasing it, so no completion runs under
/// the lock.
fn sweep_expired(state: &mut State, shed: &AtomicU64) -> VecDeque<Waiting> {
    let now = Instant::now();
    let expired = |w: &Waiting| w.deadline.is_some_and(|d| d <= now);
    if !state.waiting.iter().any(expired) {
        return VecDeque::new();
    }
    let (dead, live): (VecDeque<Waiting>, VecDeque<Waiting>) =
        state.waiting.drain(..).partition(expired);
    state.waiting = live;
    shed.fetch_add(dead.len() as u64, Ordering::Relaxed);
    dead
}

fn complete_expired(expired: VecDeque<Waiting>) {
    for w in expired {
        w.done.complete(Verdict::Expired);
    }
}

/// Handle to the shared batching queue (clone-cheap).
#[derive(Clone)]
pub struct Batcher {
    cfg: BatchConfig,
    shared: Arc<Shared>,
}

impl Batcher {
    /// A new, open batcher issuing batch ids `1, 2, 3, …`.
    pub fn new(cfg: BatchConfig) -> Self {
        Batcher::with_ids(cfg, 1, 1)
    }

    /// A new, open batcher issuing batch ids from the stride-partitioned
    /// sequence `first, first + stride, …` — see
    /// [`crate::shard::IdPartition`]. Lanes of one server (and backends
    /// of one fleet) get disjoint partitions so a batch id names one
    /// flush globally.
    pub fn with_ids(cfg: BatchConfig, first: u64, stride: u64) -> Self {
        assert!(cfg.max_batch >= 1, "max_batch must be positive");
        assert!(cfg.queue_cap >= 1, "queue_cap must be positive");
        assert!(first >= 1, "batch ids start at 1");
        assert!(stride >= 1, "batch id stride must be positive");
        Batcher {
            cfg,
            shared: Arc::new(Shared {
                queue: Mutex::new(State {
                    waiting: VecDeque::new(),
                    open: true,
                    next_batch: first,
                    batch_stride: stride,
                }),
                nonempty: Condvar::new(),
                shed_expired: AtomicU64::new(0),
            }),
        }
    }

    /// Admission-controlled enqueue: never blocks. Refuses immediately
    /// when the queue is at `queue_cap` (after sweeping entries whose
    /// deadline already passed — a queue full of dead requests must not
    /// shed live ones). The batcher thread calls `done` once with the
    /// query's verdict: its answer, or [`Verdict::Expired`] when it was
    /// still queued at `deadline`. A panicking flush drops `done` uncalled.
    ///
    /// # Errors
    /// [`SubmitError::Closed`] after [`Batcher::close`];
    /// [`SubmitError::QueueFull`] when at capacity. Either way `done` is
    /// handed back uncalled, so the caller can answer the refusal itself.
    pub fn submit<C: Completion>(
        &self,
        query: Query,
        deadline: Option<Instant>,
        done: C,
    ) -> Result<(), (SubmitError, C)> {
        let mut state = self.shared.queue.lock().unwrap_or_else(|p| p.into_inner());
        if !state.open {
            return Err((SubmitError::Closed, done));
        }
        let expired = if state.waiting.len() >= self.cfg.queue_cap {
            sweep_expired(&mut state, &self.shared.shed_expired)
        } else {
            VecDeque::new()
        };
        let admitted = state.waiting.len() < self.cfg.queue_cap;
        let result = if admitted {
            state.waiting.push_back(Waiting {
                query,
                done: Box::new(done),
                deadline,
            });
            Ok(())
        } else {
            Err((SubmitError::QueueFull, done))
        };
        drop(state);
        if admitted {
            self.shared.nonempty.notify_all();
        }
        complete_expired(expired);
        result
    }

    /// [`Batcher::submit`] with a channel for a completion: the returned
    /// receiver yields the verdict, or disconnects if the query's batch
    /// panics.
    ///
    /// # Errors
    /// As [`Batcher::submit`].
    pub fn try_submit(
        &self,
        query: Query,
        deadline: Option<Instant>,
    ) -> Result<mpsc::Receiver<Verdict>, SubmitError> {
        let (tx, rx) = mpsc::sync_channel(1);
        self.submit(query, deadline, move |verdict| {
            let _ = tx.send(verdict);
        })
        .map(|()| rx)
        .map_err(|(e, _)| e)
    }

    /// Number of queries currently queued (diagnostics only).
    pub fn queue_len(&self) -> usize {
        self.shared
            .queue
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .waiting
            .len()
    }

    /// Total queries ever dropped in-queue past their deadline.
    pub fn shed_expired_total(&self) -> u64 {
        self.shared.shed_expired.load(Ordering::Relaxed)
    }

    /// Closes the queue: pending queries still flush, new submissions are
    /// refused, and [`Batcher::run_loop`] returns once drained.
    pub fn close(&self) {
        self.shared
            .queue
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .open = false;
        self.shared.nonempty.notify_all();
    }

    /// The batcher thread's main loop. `serve` answers one batch of
    /// queries and names the parameter-snapshot version it ran under; it
    /// is invoked strictly between flush boundaries, so one batch can
    /// never observe two snapshots. Returns when the batcher is closed and
    /// the queue has drained.
    ///
    /// A panicking `serve` call fails only its own batch (its completions
    /// are dropped uncalled, surfacing an error to each request); the loop keeps
    /// serving subsequent batches. Callers that need to *repair* state
    /// after a panic (rebuild the model, count crashes) should use
    /// [`Batcher::run_supervised`] directly — this is the unsupervised
    /// convenience wrapper over it.
    pub fn run_loop(&self, mut serve: impl FnMut(&[Query]) -> (Vec<TopK>, u64)) {
        while self.run_supervised(&mut serve, || {}) == LoopExit::Panicked {}
    }

    /// Runs the serve loop until the batcher drains ([`LoopExit::Drained`])
    /// or one `serve` call panics ([`LoopExit::Panicked`]). On a panic the
    /// poisoned batch's completions have already been dropped and the queue is
    /// otherwise intact, so a supervisor can rebuild whatever the panic may
    /// have corrupted (e.g. the model, from the last good checkpoint) and
    /// call this again; queued requests keep their places.
    ///
    /// `after_flush` runs on this thread once per answered batch, after
    /// every completion of the batch has been called — housekeeping there
    /// delays no reply of that batch.
    pub fn run_supervised(
        &self,
        mut serve: impl FnMut(&[Query]) -> (Vec<TopK>, u64),
        mut after_flush: impl FnMut(),
    ) -> LoopExit {
        loop {
            let Some((batch_id, pending)) = self.collect_batch() else {
                return LoopExit::Drained;
            };
            let queries: Vec<Query> = pending.iter().map(|w| w.query.clone()).collect();
            let outcome =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| serve(&queries)));
            match outcome {
                Ok((answers, snapshot)) => {
                    debug_assert_eq!(answers.len(), pending.len());
                    for (w, topk) in pending.into_iter().zip(answers) {
                        w.done.complete(Verdict::Answered(Answered {
                            topk,
                            snapshot,
                            batch: batch_id,
                        }));
                    }
                    after_flush();
                }
                Err(_) => {
                    // Dropping the completions uncalled answers 500 for
                    // exactly this batch.
                    drop(pending);
                    return LoopExit::Panicked;
                }
            }
        }
    }

    /// Blocks until at least one live query is queued, then takes up to
    /// `max_batch` of them in arrival order under the next batch id; `None`
    /// once the batcher is closed and drained. Expired entries are swept
    /// first, so a flush never spends model time on them.
    fn collect_batch(&self) -> Option<(u64, Vec<Waiting>)> {
        let mut state = self.shared.queue.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            let expired = sweep_expired(&mut state, &self.shared.shed_expired);
            if !expired.is_empty() {
                drop(state);
                complete_expired(expired);
                state = self.shared.queue.lock().unwrap_or_else(|p| p.into_inner());
                continue;
            }
            if !state.waiting.is_empty() {
                break;
            }
            if !state.open {
                return None;
            }
            state = self
                .shared
                .nonempty
                .wait(state)
                .unwrap_or_else(|p| p.into_inner());
        }
        let take = state.waiting.len().min(self.cfg.max_batch);
        let batch = state.waiting.drain(..take).collect();
        let id = state.next_batch;
        state.next_batch += state.batch_stride;
        Some((id, batch))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use tspn_data::{PoiId, Sample};

    fn query(tag: usize) -> Query {
        // Encode an identity in the sample so the fake server can echo it.
        Query::with_top(
            Sample {
                user_index: tag,
                traj_index: 0,
                prefix_len: 1,
            },
            1,
            4,
        )
    }

    /// Fake model: answers each query with its tag as a PoiId.
    fn echo(queries: &[Query]) -> (Vec<TopK>, u64) {
        let answers = queries
            .iter()
            .map(|q| TopK {
                pois: vec![PoiId(
                    q.indexed_sample()
                        .expect("test queries are indexed")
                        .user_index,
                )],
                tiles: Vec::new(),
                candidate_count: 1,
            })
            .collect();
        (answers, 7)
    }

    /// Submits through the completion API; the channel stands in for the
    /// connection reply a server completion would send to.
    fn submit(
        batcher: &Batcher,
        q: Query,
        deadline: Option<Instant>,
    ) -> Result<mpsc::Receiver<Verdict>, SubmitError> {
        let (tx, rx) = mpsc::channel();
        batcher
            .submit(q, deadline, move |verdict| {
                let _ = tx.send(verdict);
            })
            .map(|()| rx)
            .map_err(|(e, _)| e)
    }

    #[test]
    fn queued_backlog_flushes_in_max_batch_chunks_in_order() {
        let batcher = Batcher::new(BatchConfig {
            max_batch: 4,
            queue_cap: 64,
        });
        let receivers: Vec<_> = (0..10)
            .map(|i| submit(&batcher, query(i), None).expect("open"))
            .collect();
        batcher.close();
        let mut sizes = Vec::new();
        batcher.run_loop(|qs| {
            sizes.push(qs.len());
            echo(qs)
        });
        assert_eq!(sizes, vec![4, 4, 2], "backlog drains in max_batch chunks");
        for (i, rx) in receivers.into_iter().enumerate() {
            let answered = rx
                .recv()
                .expect("answered before close finished")
                .answered()
                .expect("no deadline, so served");
            assert_eq!(answered.topk.pois, vec![PoiId(i)], "answers follow queries");
            assert_eq!(answered.snapshot, 7);
        }
    }

    #[test]
    fn batch_ids_partition_the_backlog() {
        let batcher = Batcher::new(BatchConfig {
            max_batch: 3,
            queue_cap: 64,
        });
        let receivers: Vec<_> = (0..7)
            .map(|i| submit(&batcher, query(i), None).expect("open"))
            .collect();
        batcher.close();
        batcher.run_loop(echo);
        let batches: Vec<u64> = receivers
            .into_iter()
            .map(|rx| rx.recv().unwrap().answered().unwrap().batch)
            .collect();
        assert_eq!(batches, vec![1, 1, 1, 2, 2, 2, 3]);
    }

    #[test]
    fn an_idle_batcher_flushes_a_lone_query_at_once() {
        let batcher = Batcher::new(BatchConfig {
            max_batch: 64,
            queue_cap: 64,
        });
        let sizes = std::thread::scope(|scope| {
            let lane = &batcher;
            let serving = scope.spawn(move || {
                let mut sizes = Vec::new();
                lane.run_loop(|qs| {
                    sizes.push(qs.len());
                    echo(qs)
                });
                sizes
            });
            // No companion is ever sent: the lone query must flush alone.
            let rx = submit(&batcher, query(42), None).expect("open");
            let answered = rx
                .recv_timeout(Duration::from_secs(30))
                .expect("an idle batcher flushes a lone query")
                .answered()
                .expect("served");
            assert_eq!(answered.topk.pois, vec![PoiId(42)]);
            assert_eq!(answered.batch, 1);
            batcher.close();
            serving.join().expect("loop exits after close")
        });
        assert_eq!(sizes, vec![1], "a batch of one, never held for company");
    }

    #[test]
    fn a_busy_batcher_takes_what_queued_during_the_forward() {
        let batcher = Batcher::new(BatchConfig {
            max_batch: 4,
            queue_cap: 64,
        });
        let (entered_tx, entered_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let flushes = std::thread::scope(|scope| {
            let lane = &batcher;
            let serving = scope.spawn(move || {
                let mut flushes: Vec<Vec<usize>> = Vec::new();
                lane.run_loop(|qs| {
                    if flushes.is_empty() {
                        // Hold the first flush open until the test has
                        // queued the backlog behind it.
                        entered_tx.send(()).expect("test is listening");
                        release_rx.recv().expect("test releases the flush");
                    }
                    flushes.push(
                        qs.iter()
                            .map(|q| q.indexed_sample().expect("indexed").user_index)
                            .collect(),
                    );
                    echo(qs)
                });
                flushes
            });
            let first = submit(&batcher, query(0), None).expect("open");
            entered_rx.recv().expect("first flush starts");
            let backlog: Vec<_> = (1..=6)
                .map(|i| submit(&batcher, query(i), None).expect("open"))
                .collect();
            release_tx.send(()).expect("flush is waiting");
            for rx in std::iter::once(first).chain(backlog) {
                rx.recv().expect("answered").answered().expect("served");
            }
            batcher.close();
            serving.join().expect("loop exits after close")
        });
        assert_eq!(
            flushes,
            vec![vec![0], vec![1, 2, 3, 4], vec![5, 6]],
            "the next flush takes min(backlog, max_batch) in submission order"
        );
    }

    #[test]
    fn close_refuses_new_submissions() {
        let batcher = Batcher::new(BatchConfig::default());
        batcher.close();
        assert_eq!(
            submit(&batcher, query(0), None).unwrap_err(),
            SubmitError::Closed
        );
    }

    #[test]
    fn a_panicking_batch_fails_only_its_own_waiters() {
        let batcher = Batcher::new(BatchConfig {
            max_batch: 2,
            queue_cap: 64,
        });
        let rx_bad: Vec<_> = (0..2)
            .map(|i| submit(&batcher, query(i), None).unwrap())
            .collect();
        let rx_good: Vec<_> = (10..12)
            .map(|i| submit(&batcher, query(i), None).unwrap())
            .collect();
        batcher.close();
        let mut first = true;
        batcher.run_loop(|qs| {
            if std::mem::take(&mut first) {
                panic!("poisoned batch");
            }
            echo(qs)
        });
        for rx in rx_bad {
            assert!(
                rx.recv().is_err(),
                "poisoned batch waiters see a dropped channel"
            );
        }
        for (i, rx) in rx_good.into_iter().enumerate() {
            assert_eq!(
                rx.recv().unwrap().answered().unwrap().topk.pois,
                vec![PoiId(10 + i)]
            );
        }
    }

    #[test]
    fn try_submit_sheds_at_capacity_without_blocking() {
        let batcher = Batcher::new(BatchConfig {
            max_batch: 8,
            queue_cap: 2,
        });
        let _a = batcher.try_submit(query(0), None).expect("admitted");
        let _b = batcher.try_submit(query(1), None).expect("admitted");
        assert_eq!(
            batcher.try_submit(query(2), None).unwrap_err(),
            SubmitError::QueueFull,
            "third admission over a cap of 2 is shed immediately"
        );
        // A queue full of *expired* entries must not shed live requests:
        // the sweep runs before the verdict.
        let past = Instant::now() - Duration::from_millis(1);
        let dead = Batcher::new(BatchConfig {
            max_batch: 8,
            queue_cap: 2,
        });
        let d0 = dead.try_submit(query(0), Some(past)).expect("admitted");
        let d1 = dead.try_submit(query(1), Some(past)).expect("admitted");
        let live = dead.try_submit(query(2), None);
        assert!(live.is_ok(), "sweep frees seats held by expired entries");
        assert_eq!(d0.recv().unwrap(), Verdict::Expired);
        assert_eq!(d1.recv().unwrap(), Verdict::Expired);
        assert_eq!(dead.shed_expired_total(), 2);
        // Closed still wins over full.
        batcher.close();
        assert_eq!(
            batcher.try_submit(query(3), None).unwrap_err(),
            SubmitError::Closed
        );
    }

    #[test]
    fn a_refused_submission_hands_its_completion_back_uncalled() {
        let batcher = Batcher::new(BatchConfig {
            max_batch: 8,
            queue_cap: 1,
        });
        let (tx, rx) = mpsc::channel::<Verdict>();
        let _seat = submit(&batcher, query(0), None).expect("admitted");
        let (err, done) = batcher
            .submit(query(1), None, move |v| {
                let _ = tx.send(v);
            })
            .expect_err("over capacity");
        assert_eq!(err, SubmitError::QueueFull);
        assert!(
            rx.try_recv().is_err(),
            "refusal does not call the completion"
        );
        // The caller still owns it and can complete the request itself.
        done(Verdict::Expired);
        assert_eq!(rx.recv().unwrap(), Verdict::Expired);
    }

    #[test]
    fn expired_entries_are_dropped_before_the_flush() {
        let batcher = Batcher::new(BatchConfig {
            max_batch: 8,
            queue_cap: 64,
        });
        let past = Instant::now() - Duration::from_millis(1);
        let future = Instant::now() + Duration::from_secs(60);
        let rx_dead = submit(&batcher, query(0), Some(past)).unwrap();
        let rx_live = submit(&batcher, query(1), Some(future)).unwrap();
        let rx_open = submit(&batcher, query(2), None).unwrap();
        batcher.close();
        let mut seen: Vec<usize> = Vec::new();
        batcher.run_loop(|qs| {
            seen.extend(
                qs.iter()
                    .map(|q| q.indexed_sample().expect("indexed").user_index),
            );
            echo(qs)
        });
        assert_eq!(seen, vec![1, 2], "the expired query never reaches serve");
        assert_eq!(rx_dead.recv().unwrap(), Verdict::Expired);
        assert_eq!(
            rx_live.recv().unwrap().answered().unwrap().topk.pois,
            vec![PoiId(1)]
        );
        assert_eq!(
            rx_open.recv().unwrap().answered().unwrap().topk.pois,
            vec![PoiId(2)]
        );
        assert_eq!(batcher.shed_expired_total(), 1);
    }

    #[test]
    fn run_supervised_reports_the_panic_and_resumes_where_it_left_off() {
        let batcher = Batcher::new(BatchConfig {
            max_batch: 2,
            queue_cap: 64,
        });
        let rx_bad: Vec<_> = (0..2)
            .map(|i| submit(&batcher, query(i), None).unwrap())
            .collect();
        let rx_good: Vec<_> = (10..12)
            .map(|i| submit(&batcher, query(i), None).unwrap())
            .collect();
        batcher.close();
        // First supervised run: the first flush panics, control returns.
        let exit = batcher.run_supervised(|_| panic!("injected"), || {});
        assert_eq!(exit, LoopExit::Panicked);
        for rx in rx_bad {
            assert!(rx.recv().is_err(), "poisoned batch failed");
        }
        // The supervisor "repairs" and re-enters: queued work is intact
        // and batch ids continue (no restart from 1).
        assert_eq!(batcher.run_supervised(echo, || {}), LoopExit::Drained);
        for (i, rx) in rx_good.into_iter().enumerate() {
            let answered = rx.recv().unwrap().answered().unwrap();
            assert_eq!(answered.topk.pois, vec![PoiId(10 + i)]);
            assert_eq!(answered.batch, 2, "batch numbering survives the restart");
        }
    }

    #[test]
    fn after_flush_runs_once_per_batch_once_its_replies_are_sent() {
        let batcher = Batcher::new(BatchConfig {
            max_batch: 2,
            queue_cap: 64,
        });
        let receivers: Vec<_> = (0..5)
            .map(|i| submit(&batcher, query(i), None).unwrap())
            .collect();
        batcher.close();
        // At each call, count the replies already delivered.
        let mut delivered = Vec::new();
        let mut answered = 0;
        let exit = batcher.run_supervised(echo, || {
            answered += receivers[answered..]
                .iter()
                .take_while(|rx| rx.try_recv().is_ok())
                .count();
            delivered.push(answered);
        });
        assert_eq!(exit, LoopExit::Drained);
        assert_eq!(delivered, vec![2, 4, 5]);
    }

    #[test]
    fn with_ids_issues_a_stride_partitioned_sequence() {
        // Lane 1 of 3: ids 2, 5, 8, … — disjoint from every other lane.
        let batcher = Batcher::with_ids(
            BatchConfig {
                max_batch: 1,
                queue_cap: 64,
            },
            2,
            3,
        );
        let rxs: Vec<_> = (0..3)
            .map(|i| submit(&batcher, query(i), None).unwrap())
            .collect();
        batcher.close();
        assert_eq!(batcher.run_supervised(echo, || {}), LoopExit::Drained);
        let ids: Vec<u64> = rxs
            .into_iter()
            .map(|rx| rx.recv().unwrap().answered().unwrap().batch)
            .collect();
        assert_eq!(ids, vec![2, 5, 8]);
    }
}
