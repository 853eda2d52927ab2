//! A process-wide recycling pool for `Vec<f32>` tensor buffers.
//!
//! Every op node in the autodiff graph owns a data buffer (and often a
//! gradient buffer); a training step therefore used to perform one heap
//! allocation per op. The pool removes that: buffers are checked out by
//! exact length ([`take_uninit`]/[`take_zeroed`]/[`take_copied`]) and
//! returned either explicitly ([`give`]), by a [`Scratch`] guard, or
//! automatically when a tensor node drops (see `tensor::Inner`'s `Drop`).
//! After the first epoch warms the buckets, steady-state training performs
//! **zero heap allocation on the tensor data path** — asserted by
//! `steady_state_training_step_allocates_nothing` in
//! `tests/steady_state_alloc.rs`.
//!
//! Buffers keep their stale contents: [`take_uninit`] is for callers that
//! overwrite every element, [`take_zeroed`] memsets first (still
//! allocation-free on a hit). Safety is never at stake — recycled buffers
//! are fully initialised `f32`s, just with garbage values.
//!
//! The pool is sharded `Mutex<HashMap<len, Vec<buffer>>>` and therefore
//! thread-safe: worker threads of the data-parallel trainer share it.
//! Hit/miss counters are exposed through [`stats`] so tests and benches
//! can verify allocation behaviour.
//!
//! A long-lived thread whose work varies in shape — a serving lane, whose
//! request lengths differ query to query — would otherwise keep every
//! length it ever saw in its thread-local cache. [`trim_thread_local`]
//! frees the calling thread's local buckets that no checkout or return
//! has touched in the last `TRIM_AGE` (64) trims; the serving lane calls
//! it once per flush. Training and evaluation never call it: a training
//! step reuses the same lengths every step, so a trim could only turn
//! hits into misses there.

use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Trivial hasher for buffer-length keys: lengths are small, well spread
/// integers, so multiplying by a large odd constant beats SipHash by an
/// order of magnitude on the pool's hottest path.
#[derive(Default)]
struct LenHasher(u64);

impl Hasher for LenHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.wrapping_mul(0x9E3779B97F4A7C15) ^ b as u64;
        }
    }
    fn write_usize(&mut self, n: usize) {
        self.0 = (n as u64).wrapping_mul(0x9E3779B97F4A7C15);
    }
}

type LenMap<V> = HashMap<usize, V, BuildHasherDefault<LenHasher>>;

/// Per-bucket retention budget in floats (16 MiB per distinct length):
/// whole training tapes return their buffers at once when they drop, so
/// small-length buckets must hold thousands of buffers without
/// discarding, while a bucket of huge buffers keeps at most a handful
/// (but always at least one, or recycling would never occur).
const MAX_BUCKET_FLOATS: usize = 1 << 22;
/// Ceiling on the per-bucket buffer count derived from the budget.
const MAX_PER_BUCKET: usize = 1 << 16;
/// Longest buffer the pool retains (16M floats = 64 MiB).
const MAX_POOLED_LEN: usize = 1 << 24;
/// Aggregate retention budget across all buckets (64M floats = 256 MiB):
/// workloads with many distinct buffer lengths cannot pin unbounded
/// memory — once the pool holds this much, further returns are dropped.
const MAX_TOTAL_FLOATS: usize = 64 << 20;
const SHARDS: usize = 8;

/// Retained-buffer cap for buffers of length `len`.
#[inline]
fn bucket_cap(len: usize) -> usize {
    (MAX_BUCKET_FLOATS / len.max(1)).clamp(1, MAX_PER_BUCKET)
}

/// Largest buffer the thread-local front cache retains (64 Ki floats =
/// 256 KiB). Bigger buffers go straight to the shared shards, where any
/// thread can pick them up — important for producer/consumer flows like
/// the trainer's snapshot and gradient hand-offs.
const TL_MAX_LEN: usize = 64 * 1024;
/// Per-length buffer cap in the thread-local cache. Deliberately small:
/// a thread keeps its working set close, and everything beyond spills to
/// the shared pool for other threads to reuse.
const TL_PER_BUCKET: usize = 16;
/// Total float budget of one thread-local cache (4M floats = 16 MiB).
const TL_MAX_FLOATS: usize = 4 << 20;
/// Trims a thread-local bucket may go untouched before
/// [`trim_thread_local`] frees it.
const TRIM_AGE: u64 = 64;

/// One length's buffers in a thread-local cache.
#[derive(Default)]
struct TlBucket {
    bufs: Vec<Vec<f32>>,
    /// The cache's trim generation at the last `take_*` or `give` of
    /// this length.
    touched: u64,
}

/// The lock-free thread-local front of the pool.
///
/// Tape-heavy workloads check buffers in and out hundreds of times per
/// training step; serving those from a thread-local map removes the shard
/// mutex and keeps recently used buffers cache-warm. Checkouts served here
/// still count as pool hits.
struct TlCache {
    buckets: LenMap<TlBucket>,
    /// Floats held across all buckets.
    floats: usize,
    /// Count of [`trim_thread_local`] calls on this thread.
    generation: u64,
}

thread_local! {
    static TL_CACHE: RefCell<TlCache> = RefCell::new(TlCache {
        buckets: LenMap::default(),
        floats: 0,
        generation: 0,
    });
}

#[derive(Default)]
struct Shard {
    buckets: LenMap<Vec<Vec<f32>>>,
}

struct PoolInner {
    shards: Vec<Mutex<Shard>>,
    hits: AtomicU64,
    misses: AtomicU64,
    returned: AtomicU64,
    discarded: AtomicU64,
    /// Total floats currently retained across all shard buckets. Every
    /// update happens under the lock of the shard whose bucket changed, so
    /// with every shard locked it equals the shards' contents exactly.
    retained_floats: AtomicU64,
}

fn pool() -> &'static PoolInner {
    static POOL: OnceLock<PoolInner> = OnceLock::new();
    POOL.get_or_init(|| PoolInner {
        shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
        hits: AtomicU64::new(0),
        misses: AtomicU64::new(0),
        returned: AtomicU64::new(0),
        discarded: AtomicU64::new(0),
        retained_floats: AtomicU64::new(0),
    })
}

#[inline]
fn shard_for(len: usize) -> usize {
    (len.wrapping_mul(2654435761)) >> 16 & (SHARDS - 1)
}

/// Counter snapshot for the process-wide pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Checkouts served from a recycled buffer.
    pub hits: u64,
    /// Checkouts that had to allocate.
    pub misses: u64,
    /// Buffers accepted back into the pool.
    pub returned: u64,
    /// Buffers dropped on return (bucket full or over the size cap).
    pub discarded: u64,
}

impl PoolStats {
    /// Fraction of checkouts served without allocating (1.0 when no
    /// checkouts happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Snapshot of the pool counters.
pub fn stats() -> PoolStats {
    let p = pool();
    PoolStats {
        hits: p.hits.load(Ordering::Relaxed),
        misses: p.misses.load(Ordering::Relaxed),
        returned: p.returned.load(Ordering::Relaxed),
        discarded: p.discarded.load(Ordering::Relaxed),
    }
}

/// Zeroes the counters (buffers stay pooled).
pub fn reset_stats() {
    let p = pool();
    p.hits.store(0, Ordering::Relaxed);
    p.misses.store(0, Ordering::Relaxed);
    p.returned.store(0, Ordering::Relaxed);
    p.discarded.store(0, Ordering::Relaxed);
}

/// Drops every pooled buffer (counters stay). Clears the shared shards
/// and the **calling thread's** local cache; other threads' local caches
/// drain through normal reuse.
pub fn clear() {
    let p = pool();
    for shard in &p.shards {
        let mut shard = shard.lock().expect("pool shard");
        // tspn-lint: allow(hash-order) — the sum is commutative, order cannot matter
        let held: usize = shard.buckets.iter().map(|(len, b)| len * b.len()).sum();
        shard.buckets.clear();
        // Subtract what this shard held: storing 0 would also erase
        // concurrent updates to the other shards, and a later checkout
        // could then wrap the counter.
        p.retained_floats.fetch_sub(held as u64, Ordering::Relaxed);
    }
    TL_CACHE.with(|cell| {
        let mut tl = cell.borrow_mut();
        tl.buckets.clear();
        tl.floats = 0;
    });
}

/// Checks out a buffer of exactly `len` elements with **unspecified
/// (stale but initialised) contents**. Use when every element is written.
pub fn take_uninit(len: usize) -> Vec<f32> {
    if len == 0 || len > MAX_POOLED_LEN {
        return vec![0.0; len];
    }
    // Fast path: the thread-local cache, no locking.
    if len <= TL_MAX_LEN {
        let hit = TL_CACHE.with(|cell| {
            let tl = &mut *cell.borrow_mut();
            let bucket = tl.buckets.get_mut(&len)?;
            bucket.touched = tl.generation;
            let buf = bucket.bufs.pop();
            if buf.is_some() {
                tl.floats -= len;
            }
            buf
        });
        if let Some(buf) = hit {
            debug_assert_eq!(buf.len(), len);
            pool().hits.fetch_add(1, Ordering::Relaxed);
            return buf;
        }
    }
    let p = pool();
    let recycled = {
        let mut shard = p.shards[shard_for(len)].lock().expect("pool shard");
        let buf = shard.buckets.get_mut(&len).and_then(Vec::pop);
        if buf.is_some() {
            p.retained_floats.fetch_sub(len as u64, Ordering::Relaxed);
        }
        buf
    };
    match recycled {
        Some(buf) => {
            debug_assert_eq!(buf.len(), len);
            p.hits.fetch_add(1, Ordering::Relaxed);
            buf
        }
        None => {
            p.misses.fetch_add(1, Ordering::Relaxed);
            vec![0.0; len]
        }
    }
}

/// Checks out an all-zero buffer of exactly `len` elements.
pub fn take_zeroed(len: usize) -> Vec<f32> {
    let mut buf = take_uninit(len);
    buf.fill(0.0);
    buf
}

/// Checks out a buffer holding a copy of `src`.
pub fn take_copied(src: &[f32]) -> Vec<f32> {
    let mut buf = take_uninit(src.len());
    buf.copy_from_slice(src);
    buf
}

/// Returns a buffer to the pool (dropped when empty, oversized, or the
/// bucket is full).
pub fn give(buf: Vec<f32>) {
    let len = buf.len();
    if len == 0 || len > MAX_POOLED_LEN {
        return;
    }
    // Fast path: keep small buffers thread-local; spill to the shared
    // shards once the local bucket or budget fills, so other threads can
    // still recycle what this one over-produces.
    let buf = if len <= TL_MAX_LEN {
        let rejected = TL_CACHE.with(|cell| {
            let tl = &mut *cell.borrow_mut();
            if tl.floats + len > TL_MAX_FLOATS {
                return Some(buf);
            }
            let bucket = tl.buckets.entry(len).or_default();
            bucket.touched = tl.generation;
            if bucket.bufs.len() >= TL_PER_BUCKET {
                return Some(buf);
            }
            bucket.bufs.push(buf);
            tl.floats += len;
            None
        });
        match rejected {
            None => {
                pool().returned.fetch_add(1, Ordering::Relaxed);
                return;
            }
            Some(buf) => buf,
        }
    } else {
        buf
    };
    let p = pool();
    let over_budget =
        p.retained_floats.load(Ordering::Relaxed) + len as u64 > MAX_TOTAL_FLOATS as u64;
    let mut shard = p.shards[shard_for(len)].lock().expect("pool shard");
    let bucket = shard.buckets.entry(len).or_default();
    if !over_budget && bucket.len() < bucket_cap(len) {
        bucket.push(buf);
        p.returned.fetch_add(1, Ordering::Relaxed);
        p.retained_floats.fetch_add(len as u64, Ordering::Relaxed);
    } else {
        p.discarded.fetch_add(1, Ordering::Relaxed);
    }
}

/// Moves every buffer in the calling thread's local cache into the
/// shared shards, making them visible to other threads. Cheap no-op
/// when the local cache is empty. Buffers that exceed the shared
/// retention budget are dropped (counted as discarded).
///
/// Rationale: a buffer parked in an idle thread's local cache is
/// invisible to whichever thread picks up the matching work next
/// batch, forcing a fresh allocation even though the buffer exists.
/// The data-parallel workers call this when they run out of tasks,
/// and the trainer calls it after each step when the pool has workers,
/// so between dispatches the shared shards hold the complete recycled
/// set and shard-to-thread assignment cannot cause steady-state misses.
pub fn flush_thread_local() {
    let drained: Vec<(usize, Vec<Vec<f32>>)> = TL_CACHE.with(|cell| {
        let mut tl = cell.borrow_mut();
        if tl.floats == 0 {
            return Vec::new();
        }
        tl.floats = 0;
        // tspn-lint: allow(hash-order) — recycled-buffer buckets hold interchangeable capacity, never values; drain order cannot reach any computed number
        tl.buckets.drain().map(|(len, b)| (len, b.bufs)).collect()
    });
    if drained.is_empty() {
        return;
    }
    let p = pool();
    for (len, bufs) in drained {
        if bufs.is_empty() {
            continue;
        }
        let mut shard = p.shards[shard_for(len)].lock().expect("pool shard");
        let bucket = shard.buckets.entry(len).or_default();
        for buf in bufs {
            let over_budget =
                p.retained_floats.load(Ordering::Relaxed) + len as u64 > MAX_TOTAL_FLOATS as u64;
            if !over_budget && bucket.len() < bucket_cap(len) {
                bucket.push(buf);
                p.retained_floats.fetch_add(len as u64, Ordering::Relaxed);
            } else {
                p.discarded.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// Frees the calling thread's local buckets that no `take_*` or [`give`]
/// has touched in the last `TRIM_AGE` calls of this function on this
/// thread, and counts one more call. The shared shards, the counters and
/// other threads' caches are left alone.
///
/// Meant for a long-lived thread that calls it once per unit of work (the
/// serving lane, once per flush): lengths the thread keeps using stay
/// pooled, lengths it saw once — a first flush's one-off tables pass, a
/// request length that never recurs — are released after `TRIM_AGE`
/// units instead of being held for the thread's lifetime. Training never
/// calls it, so its warmed buffers are never dropped.
pub fn trim_thread_local() {
    TL_CACHE.with(|cell| {
        let tl = &mut *cell.borrow_mut();
        tl.generation += 1;
        let generation = tl.generation;
        let mut freed = 0;
        // tspn-lint: allow(hash-order) — the freed set and the float sum do not depend on visit order, and freed buffers hold no values anything reads
        tl.buckets.retain(|len, bucket| {
            let keep = generation - bucket.touched <= TRIM_AGE;
            if !keep {
                freed += len * bucket.bufs.len();
            }
            keep
        });
        tl.floats -= freed;
    });
}

/// A pooled buffer that returns itself on drop — for op-internal
/// temporaries and saved-forward values captured by backward closures.
pub struct Scratch(Option<Vec<f32>>);

impl Scratch {
    /// Consumes the guard, keeping the buffer out of the pool.
    pub fn into_vec(mut self) -> Vec<f32> {
        self.0.take().expect("scratch buffer present")
    }
}

impl Deref for Scratch {
    type Target = [f32];
    fn deref(&self) -> &[f32] {
        self.0.as_deref().expect("scratch buffer present")
    }
}

impl DerefMut for Scratch {
    fn deref_mut(&mut self) -> &mut [f32] {
        self.0.as_deref_mut().expect("scratch buffer present")
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        if let Some(buf) = self.0.take() {
            give(buf);
        }
    }
}

/// [`take_uninit`] wrapped in a [`Scratch`] guard.
pub fn scratch_uninit(len: usize) -> Scratch {
    Scratch(Some(take_uninit(len)))
}

/// [`take_zeroed`] wrapped in a [`Scratch`] guard.
pub fn scratch_zeroed(len: usize) -> Scratch {
    Scratch(Some(take_zeroed(len)))
}

/// [`take_copied`] wrapped in a [`Scratch`] guard.
pub fn scratch_copied(src: &[f32]) -> Scratch {
    Scratch(Some(take_copied(src)))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The counters are process-global and the test harness runs tests on
    /// multiple threads; tests that reset and exactly assert the counters
    /// serialize behind this lock. (Pool traffic from *other* modules'
    /// tests is avoided by using lengths nothing else in this crate
    /// allocates — the odd four-digit sizes below.)
    fn counter_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().expect("counter test lock")
    }

    #[test]
    fn recycles_by_exact_length() {
        let _guard = counter_lock();
        clear();
        reset_stats();
        let a = take_uninit(1234);
        give(a);
        let b = take_uninit(1234);
        assert_eq!(b.len(), 1234);
        let s = stats();
        assert!(s.hits >= 1);
        assert!(s.returned >= 1);
        give(b);
    }

    #[test]
    fn zeroed_buffers_are_zero_even_when_recycled() {
        // clear() empties the shared shards, which the trim tests below
        // inspect under the same lock.
        let _guard = counter_lock();
        clear();
        let mut a = take_uninit(333);
        a.iter_mut().for_each(|v| *v = 7.0);
        give(a);
        let b = take_zeroed(333);
        assert!(b.iter().all(|&v| v == 0.0));
        give(b);
    }

    #[test]
    fn copied_matches_source() {
        let src = [1.0, 2.0, 3.0];
        let b = take_copied(&src);
        assert_eq!(&b[..], &src);
        give(b);
    }

    #[test]
    fn scratch_returns_on_drop() {
        let _guard = counter_lock();
        clear();
        reset_stats();
        {
            let mut s = scratch_zeroed(5557);
            s[0] = 1.0;
        }
        let returned_before = stats().returned;
        assert!(returned_before >= 1);
        let hits_before = stats().hits;
        let again = take_uninit(5557);
        assert!(stats().hits > hits_before);
        give(again);
    }

    /// Runs `f` on a fresh thread, so it starts from an empty thread-local
    /// cache at generation 0 whatever thread the harness uses.
    fn on_fresh_thread(f: impl FnOnce() + Send) {
        std::thread::scope(|s| {
            s.spawn(f).join().expect("test thread panicked");
        });
    }

    /// `(floats the calling thread's cache says it holds, floats its
    /// buckets actually hold)`.
    fn tl_floats() -> (usize, usize) {
        TL_CACHE.with(|cell| {
            let tl = cell.borrow();
            let held = tl.buckets.iter().map(|(len, b)| len * b.bufs.len()).sum();
            (tl.floats, held)
        })
    }

    fn tl_holds(len: usize) -> bool {
        TL_CACHE.with(|cell| cell.borrow().buckets.contains_key(&len))
    }

    #[test]
    fn trim_keeps_a_bucket_touched_between_every_trim() {
        on_fresh_thread(|| {
            give(take_uninit(2311));
            for _ in 0..2 * TRIM_AGE {
                trim_thread_local();
                give(take_uninit(2311));
            }
            assert!(tl_holds(2311));
            let (floats, held) = tl_floats();
            assert_eq!(floats, held);
            assert_eq!(held, 2311);
        });
    }

    #[test]
    fn trim_frees_an_untouched_bucket_after_trim_age_trims() {
        on_fresh_thread(|| {
            give(take_uninit(2333));
            give(take_uninit(2339));
            for _ in 0..TRIM_AGE {
                trim_thread_local();
                // 2339 is touched every trim, 2333 never again.
                give(take_uninit(2339));
            }
            assert!(tl_holds(2333), "freed before trim TRIM_AGE + 1");
            trim_thread_local();
            assert!(!tl_holds(2333), "kept past trim TRIM_AGE + 1");
            assert!(tl_holds(2339));
            let (floats, held) = tl_floats();
            assert_eq!(floats, held);
            assert_eq!(held, 2339);
        });
    }

    #[test]
    fn trim_leaves_the_shared_shards_alone() {
        let _guard = counter_lock();
        let len = TL_MAX_LEN + 4099;
        let shard_held = || {
            let shard = pool().shards[shard_for(len)].lock().expect("pool shard");
            shard.buckets.get(&len).map_or(0, Vec::len)
        };
        on_fresh_thread(|| {
            give(take_uninit(len));
            let before = shard_held();
            assert!(before >= 1);
            let retained = pool().retained_floats.load(Ordering::Relaxed);
            for _ in 0..2 * TRIM_AGE + 1 {
                trim_thread_local();
            }
            assert_eq!(shard_held(), before);
            assert_eq!(pool().retained_floats.load(Ordering::Relaxed), retained);
            give(take_uninit(len));
        });
    }

    #[test]
    fn a_freed_length_is_a_counted_miss_afterwards() {
        let _guard = counter_lock();
        on_fresh_thread(|| {
            give(take_uninit(2341));
            for _ in 0..=TRIM_AGE {
                trim_thread_local();
            }
            assert!(!tl_holds(2341));
            // Nothing else uses this length, so no shard holds it either:
            // the checkout must allocate.
            let misses = stats().misses;
            let buf = take_uninit(2341);
            assert_eq!(buf.len(), 2341);
            assert!(stats().misses > misses);
            give(buf);
        });
    }

    #[test]
    fn empty_and_oversized_buffers_bypass_the_pool() {
        // No counter assertions here (other tests run concurrently);
        // bypass is observable through the returned buffers themselves.
        give(Vec::new());
        let z = take_uninit(0);
        assert!(z.is_empty());
        let huge = take_uninit(MAX_POOLED_LEN + 1);
        assert_eq!(huge.len(), MAX_POOLED_LEN + 1);
        give(huge); // dropped, not retained — must not panic
    }

    #[test]
    fn aggregate_budget_bounds_total_retention() {
        let _guard = counter_lock();
        clear();
        // 80 distinct ~1M-float lengths (320 MiB offered, one bucket
        // each, so the per-bucket cap never triggers); only ~256 MiB may
        // be kept before the aggregate budget rejects returns.
        let before = stats().discarded;
        for i in 0..80usize {
            give(vec![0.0; (1 << 20) + i]);
        }
        let kept = pool().retained_floats.load(Ordering::Relaxed);
        assert!(
            kept <= MAX_TOTAL_FLOATS as u64,
            "retained {kept} floats exceeds the global budget"
        );
        assert!(
            stats().discarded > before,
            "offering over budget must discard"
        );
        clear();
    }

    #[test]
    fn large_buffers_get_small_retention_caps() {
        // The 16 MiB per-length budget must bound big buckets: a 1M-float
        // buffer bucket keeps at most 4, never a fixed 64-buffer floor.
        assert_eq!(bucket_cap(1 << 20), 4);
        assert_eq!(bucket_cap(MAX_POOLED_LEN), 1);
        // Small lengths still retain thousands.
        assert!(bucket_cap(16) >= 1 << 10);
        assert_eq!(bucket_cap(0), MAX_PER_BUCKET);
    }

    #[test]
    fn hit_rate_formula() {
        let s = PoolStats {
            hits: 3,
            misses: 1,
            returned: 0,
            discarded: 0,
        };
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
        let empty = PoolStats {
            hits: 0,
            misses: 0,
            returned: 0,
            discarded: 0,
        };
        assert_eq!(empty.hit_rate(), 1.0);
    }

    #[test]
    fn concurrent_use_is_safe() {
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for i in 1..200usize {
                        let b = take_zeroed(i * 3);
                        give(b);
                    }
                });
            }
        });
    }

    #[test]
    fn retained_counter_survives_clear_racing_checkouts() {
        // Lengths above the thread-local cap, so every take/give goes
        // through the shared shards that clear() empties. Workers cycle
        // while clear() loops, then once more after it stops, so the
        // shards end non-empty and any drift the races caused remains.
        // The lock keeps the clear() loop away from the budget test.
        let _guard = counter_lock();
        let clearing = std::sync::atomic::AtomicBool::new(true);
        std::thread::scope(|s| {
            for w in 0..3usize {
                let clearing = &clearing;
                s.spawn(move || {
                    for i in 0usize.. {
                        let last = !clearing.load(Ordering::Relaxed);
                        let len = TL_MAX_LEN + 1 + (w * 7 + i % 5) * 3;
                        let held: Vec<_> = (0..3).map(|_| take_uninit(len)).collect();
                        held.into_iter().for_each(give);
                        if last {
                            break;
                        }
                    }
                });
            }
            s.spawn(|| {
                for _ in 0..5_000 {
                    clear();
                }
                clearing.store(false, Ordering::Relaxed);
            });
        });
        // With every shard locked no update can land, so the counter must
        // equal exactly what the shards hold.
        let p = pool();
        let shards: Vec<_> = p
            .shards
            .iter()
            .map(|s| s.lock().expect("pool shard"))
            .collect();
        let held: usize = shards
            .iter()
            .flat_map(|s| s.buckets.iter())
            .map(|(len, b)| len * b.len())
            .sum();
        assert_eq!(p.retained_floats.load(Ordering::Relaxed), held as u64);
    }
}
