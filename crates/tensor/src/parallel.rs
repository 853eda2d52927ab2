//! Thread-count policy and the persistent worker pool.
//!
//! The pool runs coarse, independent jobs: the imagery render of a
//! context build and the trainer's evaluation shards. Tensor kernels never
//! dispatch to it; they run on the thread that calls them.
//!
//! ## Worker pool
//!
//! [`run_scoped`] hands a batch of tasks to long-lived workers:
//!
//! * tasks may borrow stack data (including disjoint `&mut` windows)
//!   because the call blocks until every task has finished before any
//!   borrow can expire;
//! * the **calling thread participates**: it drains its own task queue
//!   while workers steal from the shared injector. Even when every worker
//!   is busy with somebody else's batch, a dispatch therefore always makes
//!   progress and can never deadlock, nested dispatch from inside a task
//!   included;
//! * a panicking task is caught, the remaining tasks still run, and the
//!   first payload is re-raised on the calling thread after the batch
//!   drains — borrowed data is never observed by a half-finished batch.
//!
//! Workers are spawned lazily on the first multi-task dispatch:
//! `num_threads() - 1` of them, so together with the participating caller
//! one dispatch never has more than `num_threads()` compute threads.
//!
//! Thread count resolution (cached for the process lifetime):
//! `TSPN_NUM_THREADS` environment variable when set, otherwise
//! `std::thread::available_parallelism()`. Setting `TSPN_NUM_THREADS=1`
//! runs every dispatch inline on the calling thread: no workers are
//! spawned, and callers that shard by thread count get one shard.

use std::any::Any;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// The number of worker threads this process uses for data-parallel work.
pub fn num_threads() -> usize {
    static N: OnceLock<usize> = OnceLock::new();
    *N.get_or_init(|| {
        std::env::var("TSPN_NUM_THREADS")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
    })
}

// ---------------------------------------------------------------------
// Persistent worker pool
// ---------------------------------------------------------------------

/// A lifetime-erased task. Safety: [`run_scoped`] blocks until every task
/// of its batch has completed, so the erased borrows outlive execution.
struct Task(Box<dyn FnOnce() + Send>);

/// One `run_scoped` batch: its pending tasks plus completion bookkeeping.
struct Batch {
    /// Tasks not yet started (drained by workers and the caller alike).
    queue: Mutex<VecDeque<Task>>,
    /// `(unfinished task count, first panic payload)`.
    state: Mutex<(usize, Option<Box<dyn Any + Send>>)>,
    /// Signalled when the unfinished count reaches zero.
    done: Condvar,
}

impl Batch {
    /// Pops one pending task, if any.
    fn pop(&self) -> Option<Task> {
        self.queue.lock().expect("batch queue").pop_front()
    }

    /// Runs one task, recording completion and any panic payload.
    fn run(&self, task: Task) {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(task.0));
        let mut state = self.state.lock().expect("batch state");
        state.0 -= 1;
        if let Err(payload) = result {
            state.1.get_or_insert(payload);
        }
        if state.0 == 0 {
            self.done.notify_all();
        }
    }
}

/// The process-wide injector feeding the persistent workers.
struct Injector {
    /// Batches with pending tasks, oldest first.
    backlog: Mutex<VecDeque<Arc<Batch>>>,
    /// Signalled whenever a batch is pushed.
    ready: Condvar,
}

fn injector() -> &'static Injector {
    static POOL: OnceLock<&'static Injector> = OnceLock::new();
    POOL.get_or_init(|| {
        let inj: &'static Injector = Box::leak(Box::new(Injector {
            backlog: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
        }));
        for i in 0..num_threads().saturating_sub(1) {
            std::thread::Builder::new()
                .name(format!("tspn-worker-{i}"))
                .spawn(move || worker_loop(inj))
                .expect("spawn pool worker");
        }
        inj
    })
}

/// Worker main loop: take one task at a time from the oldest batch that
/// still has pending work, dropping batches from the backlog once empty.
fn worker_loop(inj: &'static Injector) {
    loop {
        let (batch, task) = {
            let mut backlog = inj.backlog.lock().expect("injector");
            loop {
                // Front batches may have been fully claimed already (the
                // caller drains its own queue too) — discard those.
                if let Some(front) = backlog.front().cloned() {
                    if let Some(task) = front.pop() {
                        break (front, task);
                    }
                    backlog.pop_front();
                    continue;
                }
                // Going idle: spill this thread's local buffer cache to
                // the shared pool shards so the next batch can recycle
                // those buffers from whichever thread picks it up.
                // (No-op when the local cache is already empty.)
                drop(backlog);
                crate::pool::flush_thread_local();
                backlog = inj.backlog.lock().expect("injector");
                if backlog.front().is_some() {
                    continue;
                }
                backlog = inj.ready.wait(backlog).expect("injector wait");
            }
        };
        batch.run(task);
    }
}

/// Runs every closure to completion, fanning out across the persistent
/// worker pool, and returns once all have finished. Closures may borrow
/// from the caller's stack — the borrows remain live for the whole call.
///
/// When the pool is serial (`num_threads() == 1`) or there is a single
/// task, the tasks simply run inline in order.
///
/// # Panics
/// Re-raises the first panic raised by any task, after the whole batch has
/// drained.
pub fn run_scoped(tasks: Vec<Box<dyn FnOnce() + Send + '_>>) {
    let n = tasks.len();
    if n == 0 {
        return;
    }
    if n == 1 || num_threads() == 1 {
        // Inline execution keeps the pool's batch semantics: every task
        // runs, and the first panic re-raises only after the batch drains.
        let mut first_panic = None;
        for task in tasks {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(task));
            if let Err(payload) = result {
                first_panic.get_or_insert(payload);
            }
        }
        if let Some(payload) = first_panic {
            std::panic::resume_unwind(payload);
        }
        return;
    }
    // Erase the borrow lifetime: safe because this frame blocks until the
    // batch's unfinished count reaches zero, and panics unwind only after
    // that same wait.
    let erased: VecDeque<Task> = tasks
        .into_iter()
        .map(|t| {
            // SAFETY: only the lifetime is transmuted ('scope → 'static,
            // identical layout). The borrowed data outlives every call:
            // this frame blocks until the batch's unfinished count hits
            // zero, and panics unwind only after that same wait.
            let t: Box<dyn FnOnce() + Send + 'static> = unsafe { std::mem::transmute(t) };
            Task(t)
        })
        .collect();
    let batch = Arc::new(Batch {
        queue: Mutex::new(erased),
        state: Mutex::new((n, None)),
        done: Condvar::new(),
    });
    let inj = injector();
    {
        let mut backlog = inj.backlog.lock().expect("injector");
        backlog.push_back(Arc::clone(&batch));
    }
    inj.ready.notify_all();
    // Participate: drain our own queue alongside the workers.
    while let Some(task) = batch.pop() {
        batch.run(task);
    }
    let mut state = batch.state.lock().expect("batch state");
    while state.0 > 0 {
        state = batch.done.wait(state).expect("batch wait");
    }
    if let Some(payload) = state.1.take() {
        drop(state);
        std::panic::resume_unwind(payload);
    }
}

/// Runs `jobs` on the pool (see [`run_scoped`]) and collects their results
/// in job order.
pub fn map_scoped<T, F>(jobs: Vec<F>) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let n = jobs.len();
    let mut results: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = jobs
        .into_iter()
        .zip(results.iter_mut())
        .map(|(job, slot)| {
            Box::new(move || {
                *slot = Some(job());
            }) as Box<dyn FnOnce() + Send + '_>
        })
        .collect();
    run_scoped(tasks);
    results
        .into_iter()
        .map(|r| r.expect("pool task completed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn num_threads_is_positive_and_stable() {
        let a = num_threads();
        assert!(a >= 1);
        assert_eq!(a, num_threads());
    }

    #[test]
    fn run_scoped_executes_every_task_with_stack_borrows() {
        let mut slots = vec![0usize; 23];
        {
            let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = slots
                .iter_mut()
                .enumerate()
                .map(|(i, slot)| {
                    Box::new(move || {
                        *slot = i + 1;
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            run_scoped(tasks);
        }
        assert_eq!(slots, (1..=23).collect::<Vec<_>>());
    }

    #[test]
    fn map_scoped_preserves_job_order() {
        let jobs: Vec<_> = (0..17).map(|i| move || i * 3).collect();
        assert_eq!(map_scoped(jobs), (0..17).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn nested_dispatch_runs_inline() {
        let counter = AtomicUsize::new(0);
        let jobs: Vec<_> = (0..4)
            .map(|_| {
                let counter = &counter;
                move || {
                    // A nested dispatch from inside a task must complete.
                    let inner: Vec<_> = (0..3)
                        .map(|_| {
                            move || {
                                counter.fetch_add(1, Ordering::Relaxed);
                            }
                        })
                        .collect();
                    map_scoped(inner);
                }
            })
            .collect();
        map_scoped(jobs);
        assert_eq!(counter.load(Ordering::Relaxed), 12);
    }

    #[test]
    fn task_panic_propagates_after_batch_drains() {
        let done = AtomicUsize::new(0);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..6)
                .map(|i| {
                    let done = &done;
                    Box::new(move || {
                        if i == 2 {
                            panic!("task {i} exploded");
                        }
                        done.fetch_add(1, Ordering::Relaxed);
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            run_scoped(tasks);
        }));
        let payload = caught.expect_err("panic must propagate");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(msg.contains("exploded"), "unexpected payload: {msg}");
        // All non-panicking tasks still ran before the unwind.
        assert_eq!(done.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn concurrent_batches_from_many_threads_complete() {
        std::thread::scope(|s| {
            for t in 0..4 {
                s.spawn(move || {
                    for round in 0..20 {
                        let jobs: Vec<_> =
                            (0..5).map(|i| move || t * 1000 + round * 10 + i).collect();
                        let got = map_scoped(jobs);
                        let want: Vec<_> = (0..5).map(|i| t * 1000 + round * 10 + i).collect();
                        assert_eq!(got, want);
                    }
                });
            }
        });
    }
}
