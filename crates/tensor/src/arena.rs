//! Scratch arena: a per-runtime pool of reusable `Vec<f32>` buffers.
//!
//! The attack loop builds and drops one tape per step; without reuse,
//! every im2col column block, activation tensor, and gradient buffer is
//! reallocated ~each step. The arena keeps dropped buffers around and
//! hands their capacity back out.
//!
//! Ownership rules (see DESIGN.md "Threading & memory model"):
//! - [`take`]/[`take_filled`] transfer full ownership of a buffer to the
//!   caller; the arena retains no alias.
//! - Every buffer handed out is **freshly overwritten to the requested
//!   fill value over its whole length** before it is returned, so stale
//!   values from a previous tape can never leak into a new forward.
//! - [`recycle`] takes ownership back. Callers must not recycle a
//!   buffer that is still referenced anywhere (the type system enforces
//!   this — `recycle` consumes the `Vec`), and hand it back at the
//!   length it was taken at: the loan count behind [`high_water`] is
//!   kept in requested lengths.
//! - [`ScratchBuf`] is the RAII convenience: it recycles on drop.
//!
//! The pool lives on the [`crate::runtime::Runtime`] that is current at
//! the call site (see the runtime module for the ownership model); the
//! free functions here are the default-runtime shim. Each pool is a
//! `Mutex`-guarded free list, safe to use from the worker pool in
//! [`crate::parallel`]. Tiny buffers are not pooled (the allocator is
//! already fast for those), and each pool is capped both in buffer
//! count and total capacity so it cannot grow without bound.
//!
//! Poison containment: a thread that panics while touching one
//! runtime's pool poisons only that runtime's `Mutex`. The next
//! accessor clears the poison and discards the pooled buffers (counted
//! by [`crate::runtime::Runtime::arena_poison_discards`]) — correctness
//! is unaffected because every `take` overwrites its whole buffer, and
//! other runtimes' pools are untouched. A quarantined runtime's pool
//! stops pooling entirely: `take` allocates fresh, `recycle` drops.

use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

use crate::runtime;

/// Buffers smaller than this are allocated/dropped normally.
const MIN_LEN: usize = 1024;
/// Maximum number of pooled buffers.
const MAX_POOLED: usize = 96;
/// Maximum total pooled capacity, in `f32` elements (~256 MiB).
const MAX_POOLED_ELEMS: usize = 64 << 20;

/// One runtime's pool state: free list + counters.
pub(crate) struct ArenaState {
    pool: Mutex<Vec<Vec<f32>>>,
    pooled_elems: AtomicUsize,
    hits: AtomicUsize,
    misses: AtomicUsize,
    poison_discards: AtomicUsize,
    quarantined: AtomicBool,
    /// `f32` elements currently loaned out (taken, not yet recycled),
    /// counted at the length each buffer was requested at — not its
    /// capacity, which depends on what the best-fit pool happened to
    /// hold at that moment. Only arena-sized buffers (`len >= MIN_LEN`)
    /// are counted.
    loaned_elems: AtomicUsize,
    /// Highest `loaned_elems` ever observed — the arena's live-memory
    /// high-water mark, used by the bounded-memory streaming gate.
    high_water_elems: AtomicUsize,
}

impl ArenaState {
    pub(crate) fn new() -> Self {
        ArenaState {
            pool: Mutex::new(Vec::new()),
            pooled_elems: AtomicUsize::new(0),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
            poison_discards: AtomicUsize::new(0),
            quarantined: AtomicBool::new(false),
            loaned_elems: AtomicUsize::new(0),
            high_water_elems: AtomicUsize::new(0),
        }
    }

    pub(crate) fn set_quarantined(&self) {
        self.quarantined.store(true, Ordering::SeqCst);
    }

    pub(crate) fn poison_discards(&self) -> usize {
        self.poison_discards.load(Ordering::Relaxed)
    }

    /// Locks the free list, recovering from poison by discarding the
    /// pooled buffers of **this runtime only** (a panicking holder may
    /// have left the list half-updated; dropping it is always sound
    /// because buffers are fully overwritten on take anyway, and the
    /// counters are resynced here).
    fn pool_guard(&self) -> MutexGuard<'_, Vec<Vec<f32>>> {
        match self.pool.lock() {
            Ok(g) => g,
            Err(poisoned) => {
                self.pool.clear_poison();
                let mut g = poisoned.into_inner();
                g.clear();
                self.pooled_elems.store(0, Ordering::Relaxed);
                self.poison_discards.fetch_add(1, Ordering::Relaxed);
                g
            }
        }
    }

    /// Records `len` more loaned-out elements and pushes the high-water
    /// mark. Called on every take of an arena-sized buffer.
    fn note_loan(&self, len: usize) {
        let now = self.loaned_elems.fetch_add(len, Ordering::Relaxed) + len;
        self.high_water_elems.fetch_max(now, Ordering::Relaxed);
    }

    /// Records `len` elements returned. Saturating: a caller may
    /// recycle a buffer the arena never handed out (fresh `Vec`s are
    /// accepted too), so the loan counter must not underflow.
    fn note_return(&self, len: usize) {
        let _ = self
            .loaned_elems
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                Some(n.saturating_sub(len))
            });
    }

    fn take_filled(&self, len: usize, value: f32) -> Vec<f32> {
        if len >= MIN_LEN && !self.quarantined.load(Ordering::SeqCst) {
            let reused = {
                let mut pool = self.pool_guard();
                // Best fit: the smallest buffer with enough capacity.
                // First-fit would let a small request walk off with a
                // huge buffer, inflating live capacity (and the
                // high-water mark) far beyond the working set. The pool
                // is small (<= MAX_POOLED) so a linear scan is fine.
                pool.iter()
                    .enumerate()
                    .filter(|(_, b)| b.capacity() >= len)
                    .min_by_key(|(_, b)| b.capacity())
                    .map(|(i, _)| i)
                    .map(|i| pool.swap_remove(i))
            };
            if let Some(mut buf) = reused {
                self.pooled_elems
                    .fetch_sub(buf.capacity(), Ordering::Relaxed);
                self.hits.fetch_add(1, Ordering::Relaxed);
                buf.clear();
                buf.resize(len, value);
                self.note_loan(len);
                return buf;
            }
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        if len >= MIN_LEN {
            self.note_loan(len);
        }
        vec![value; len]
    }

    fn recycle(&self, buf: Vec<f32>) {
        if buf.len() >= MIN_LEN {
            self.note_return(buf.len());
        }
        if buf.capacity() < MIN_LEN || self.quarantined.load(Ordering::SeqCst) {
            return;
        }
        let mut pool = self.pool_guard();
        if pool.len() >= MAX_POOLED
            || self.pooled_elems.load(Ordering::Relaxed) + buf.capacity() > MAX_POOLED_ELEMS
        {
            return;
        }
        self.pooled_elems
            .fetch_add(buf.capacity(), Ordering::Relaxed);
        pool.push(buf);
    }

    fn stats(&self) -> (usize, usize, usize) {
        let pooled = self.pool_guard().len();
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
            pooled,
        )
    }

    fn reset(&self) {
        let mut pool = self.pool_guard();
        pool.clear();
        self.pooled_elems.store(0, Ordering::Relaxed);
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.high_water_elems
            .store(self.loaned_elems.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    pub(crate) fn high_water(&self) -> usize {
        self.high_water_elems.load(Ordering::Relaxed)
    }

    /// Restarts the high-water mark from the current loan level (the
    /// mark can never sit below what is still checked out).
    pub(crate) fn reset_high_water(&self) {
        self.high_water_elems
            .store(self.loaned_elems.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Test hook: panic while holding the pool lock, poisoning it the
    /// way a worker dying mid-`recycle` would.
    #[cfg(test)]
    fn poison_for_test(&self) {
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = self.pool.lock().expect("not yet poisoned");
            panic!("scripted poison");
        }));
        assert!(res.is_err());
    }
}

/// Takes a buffer of exactly `len` zeros from the current runtime's
/// arena (reusing pooled capacity when possible, allocating otherwise).
pub fn take(len: usize) -> Vec<f32> {
    take_filled(len, 0.0)
}

/// Takes a buffer of exactly `len` elements, every one set to `value`.
///
/// The whole buffer is overwritten regardless of where its capacity
/// came from, which is what guarantees no stale data survives reuse.
pub fn take_filled(len: usize, value: f32) -> Vec<f32> {
    runtime::current().inner_arena(|a| a.take_filled(len, value))
}

/// Returns a buffer's capacity to the current runtime's arena for
/// reuse. Small buffers and overflow beyond the pool caps are dropped.
pub fn recycle(buf: Vec<f32>) {
    runtime::current().inner_arena(|a| a.recycle(buf));
}

/// (reuse hits, allocation misses, buffers currently pooled) for the
/// current runtime's arena.
pub fn stats() -> (usize, usize, usize) {
    runtime::current().inner_arena(|a| a.stats())
}

/// Drops the current runtime's pooled buffers and zeroes its hit/miss
/// counters. Intended for tests and benchmark setup.
pub fn reset() {
    runtime::current().inner_arena(|a| a.reset());
}

/// The current runtime's arena high-water mark: the maximum number of
/// `f32` elements simultaneously checked out of the arena since the
/// runtime was created (or [`reset_high_water`]). Only arena-sized
/// buffers (`len >= MIN_LEN`) count, each at its requested length, so
/// the mark depends on which loans overlap and never on which pooled
/// buffer a request happened to be handed; this is the
/// live-scratch-memory figure the streaming evaluation's bounded-memory
/// gate asserts on.
pub fn high_water() -> usize {
    runtime::current().inner_arena(|a| a.high_water())
}

/// Restarts the current runtime's arena high-water mark from its
/// current loan level, so a measurement window can begin mid-process.
pub fn reset_high_water() {
    runtime::current().inner_arena(|a| a.reset_high_water());
}

/// RAII scratch buffer: behaves as a `[f32]` slice and recycles its
/// storage back into the arena on drop.
pub struct ScratchBuf {
    buf: Option<Vec<f32>>,
}

impl ScratchBuf {
    /// Takes a zeroed scratch buffer of `len` elements from the arena.
    pub fn zeroed(len: usize) -> Self {
        Self {
            buf: Some(take(len)),
        }
    }

    /// Consumes the scratch buffer, handing out the underlying `Vec`
    /// (it will no longer be auto-recycled).
    pub fn into_vec(mut self) -> Vec<f32> {
        self.buf.take().expect("scratch buffer already taken")
    }
}

impl Deref for ScratchBuf {
    type Target = [f32];
    fn deref(&self) -> &[f32] {
        self.buf.as_deref().expect("scratch buffer already taken")
    }
}

impl DerefMut for ScratchBuf {
    fn deref_mut(&mut self) -> &mut [f32] {
        self.buf
            .as_deref_mut()
            .expect("scratch buffer already taken")
    }
}

impl Drop for ScratchBuf {
    fn drop(&mut self) {
        if let Some(buf) = self.buf.take() {
            recycle(buf);
        }
    }
}

#[cfg(test)]
mod tests {
    // Each test enters its own Runtime, so the pool under test is
    // private to the test — exact hit/pool counts are assertable and
    // concurrent `cargo test` threads cannot interfere.
    use super::*;
    use crate::runtime::{Runtime, RuntimeConfig};

    fn in_fresh_runtime(f: impl FnOnce(&Runtime)) {
        let rt = Runtime::new(RuntimeConfig::default());
        rt.clone().enter(|| f(&rt));
    }

    #[test]
    fn reused_buffers_come_back_zeroed() {
        in_fresh_runtime(|_| {
            let mut a = take(4096);
            for v in a.iter_mut() {
                *v = f32::NAN;
            }
            recycle(a);
            for _ in 0..4 {
                let b = take(2048);
                assert_eq!(b.len(), 2048);
                assert!(b.iter().all(|&v| v == 0.0));
                recycle(b);
            }
        });
    }

    #[test]
    fn take_filled_overwrites_whole_length() {
        in_fresh_runtime(|_| {
            recycle(vec![9.0; 4096]);
            let v = take_filled(4096, 0.5);
            assert!(v.iter().all(|&x| x == 0.5));
            recycle(v);
        });
    }

    #[test]
    fn small_buffer_recycle_is_a_no_op() {
        in_fresh_runtime(|_| {
            recycle(vec![1.0; 8]);
            let small = take(8);
            assert_eq!(small.len(), 8);
            assert!(small.iter().all(|&v| v == 0.0));
            let (hits, _, pooled) = stats();
            assert_eq!((hits, pooled), (0, 0), "small buffers are never pooled");
        });
    }

    #[test]
    fn scratch_buf_derefs_and_releases() {
        in_fresh_runtime(|_| {
            let mut s = ScratchBuf::zeroed(4096);
            assert!(s.iter().all(|&v| v == 0.0));
            s[7] = 3.0;
            let v = s.into_vec();
            assert_eq!(v[7], 3.0);
            recycle(v);
        });
    }

    #[test]
    fn pools_are_isolated_per_runtime() {
        let a = Runtime::new(RuntimeConfig::default());
        let b = Runtime::new(RuntimeConfig::default());
        a.enter(|| {
            recycle(vec![1.0; 4096]);
            assert_eq!(stats().2, 1);
        });
        b.enter(|| {
            assert_eq!(stats().2, 0, "runtime B must not see A's buffers");
            let v = take(4096);
            recycle(v);
            // B allocated fresh: a miss, no hit
            let (hits, misses, pooled) = stats();
            assert_eq!((hits, misses, pooled), (0, 1, 1));
        });
        a.enter(|| {
            assert_eq!(stats().2, 1, "A's pool is intact");
        });
    }

    /// Regression test for the old process-wide failure mode: a worker
    /// panicking while holding the pool lock used to poison the free
    /// list for every job in the process. Now the poison is recovered
    /// per-runtime (pool discarded, counters resynced) and a sibling
    /// runtime's pool is untouched.
    #[test]
    fn poisoned_pool_recovers_by_discarding_and_stays_contained() {
        let victim = Runtime::new(RuntimeConfig::default());
        let sibling = Runtime::new(RuntimeConfig::default());
        sibling.enter(|| recycle(vec![2.0; 4096]));

        victim.enter(|| {
            recycle(vec![1.0; 4096]);
            assert_eq!(stats().2, 1);
        });
        victim.clone().enter(|| {
            runtime::current().inner_arena(|a| a.poison_for_test());
            // next access recovers: pool discarded, allocation works
            let v = take(4096);
            assert_eq!(v.len(), 4096);
            assert!(v.iter().all(|&x| x == 0.0));
            recycle(v);
        });
        assert_eq!(victim.arena_poison_discards(), 1);

        sibling.clone().enter(|| {
            assert_eq!(stats().2, 1, "sibling runtime's pool is untouched");
        });
        assert_eq!(sibling.arena_poison_discards(), 0);
    }

    #[test]
    fn high_water_tracks_peak_loans_not_traffic() {
        in_fresh_runtime(|rt| {
            assert_eq!(high_water(), 0);
            let a = take(4096);
            let b = take(2048);
            assert_eq!(high_water(), 4096 + 2048);
            recycle(a);
            recycle(b);
            // sequential reuse of the same capacity must not raise the
            // mark: the pipeline's whole point is bounded *simultaneous*
            // footprint, however many buffers stream through
            for _ in 0..16 {
                let c = take(4096);
                recycle(c);
            }
            assert_eq!(high_water(), 4096 + 2048);
            assert_eq!(rt.arena_high_water(), 4096 + 2048);
            // small buffers are invisible, same as the pool itself
            let tiny = take(8);
            assert_eq!(high_water(), 4096 + 2048);
            recycle(tiny);
            reset_high_water();
            assert_eq!(high_water(), 0);
        });
    }

    #[test]
    fn high_water_never_underflows_on_foreign_buffers() {
        in_fresh_runtime(|_| {
            // recycling a Vec the arena never handed out must not wrap
            // the loan counter below zero
            recycle(vec![1.0; 4096]);
            recycle(vec![1.0; 4096]);
            let v = take(2048);
            assert_eq!(high_water(), v.len());
            recycle(v);
        });
    }

    #[test]
    fn quarantined_arena_never_pools() {
        let rt = Runtime::new(RuntimeConfig::default());
        rt.clone().enter(|| {
            recycle(vec![1.0; 4096]);
            assert_eq!(stats().2, 1);
        });
        rt.quarantine();
        rt.enter(|| {
            // takes bypass the pool entirely...
            let v = take(4096);
            recycle(v);
            let (hits, _, pooled) = stats();
            assert_eq!(hits, 0, "quarantined pool must not hand out buffers");
            // ...and recycles are dropped (the pre-quarantine buffer may
            // remain in the list but is unreachable through take)
            assert!(pooled <= 1);
        });
    }
}
