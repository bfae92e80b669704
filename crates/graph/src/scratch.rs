//! A non-blocking pool of per-query scratch buffers.
//!
//! Every traversal-backed index keeps reusable scratch (a [`VisitMap`],
//! frontier stacks, …) so that `query(&self, ..)` allocates nothing.
//! Storing that scratch in a `RefCell` made the indexes `!Sync`, which
//! in turn made it impossible to serve one index from many request
//! threads. [`ScratchPool`] replaces the `RefCell`: a fixed array of
//! `Mutex` slots, each claimed with `try_lock`, so any number of
//! threads can check scratch out concurrently. When every slot is
//! momentarily busy the checkout falls back to building a fresh
//! buffer, trading one allocation for never blocking: no checkout
//! ever waits for another thread.
//!
//! [`VisitMap`]: crate::traverse::VisitMap

use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, TryLockError};

/// Number of pooled slots. Checkouts beyond this many *concurrent*
/// queries allocate fresh scratch; the pool re-fills as guards drop.
const SLOTS: usize = 16;

/// Process-wide count of checkouts that found every slot busy and had
/// to allocate a throwaway buffer. A sustained non-zero rate under
/// load means more than [`SLOTS`] queries run concurrently per pool —
/// the signal a serving deployment watches (it is exported verbatim on
/// `reach-server`'s `/metrics`).
static OVERFLOWS: AtomicU64 = AtomicU64::new(0);

/// The one ordering for the overflow counter, on both the `fetch_add`
/// and the `load` side. The counter is a monotonic statistic that
/// synchronizes nothing, so `Relaxed` is sufficient — but it must be
/// *consistently* `Relaxed`: a stronger ordering on one side only
/// would suggest a synchronization relationship that does not exist.
const OVERFLOW_ORDERING: Ordering = Ordering::Relaxed;

/// Total overflow checkouts across every pool in the process.
pub fn overflow_count() -> u64 {
    OVERFLOWS.load(OVERFLOW_ORDERING)
}

/// A fixed-capacity, non-blocking pool of scratch buffers of type `T`.
///
/// `checkout` returns a guard that dereferences to `T` and returns the
/// buffer to its slot on drop. Buffers created on overflow (all slots
/// busy) are simply dropped.
pub struct ScratchPool<T> {
    slots: Box<[Mutex<Option<T>>]>,
}

impl<T> ScratchPool<T> {
    /// Creates an empty pool; buffers are built lazily by `checkout`.
    pub fn new() -> Self {
        ScratchPool {
            slots: (0..SLOTS).map(|_| Mutex::new(None)).collect(),
        }
    }

    /// Checks a buffer out of the pool, building one with `make` if
    /// the claimed slot is empty (first use) or every slot is busy.
    ///
    /// The buffer is returned in whatever state the previous query
    /// left it; callers reset it themselves (the same contract the
    /// `RefCell` scratch had). That contract is also why a slot
    /// poisoned by a panicking query is taken as it is.
    pub fn checkout(&self, make: impl FnOnce() -> T) -> ScratchGuard<'_, T> {
        for slot in self.slots.iter() {
            let mut held = match slot.try_lock() {
                Ok(held) => held,
                Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
                Err(TryLockError::WouldBlock) => continue,
            };
            held.get_or_insert_with(make);
            return ScratchGuard(Held::Slot(held));
        }
        OVERFLOWS.fetch_add(1, OVERFLOW_ORDERING);
        ScratchGuard(Held::Overflow(make()))
    }
}

impl<T> Default for ScratchPool<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// A checked-out scratch buffer; returns to the pool on drop.
pub struct ScratchGuard<'a, T>(Held<'a, T>);

enum Held<'a, T> {
    /// A pooled buffer; `checkout` leaves the slot `Some`.
    Slot(MutexGuard<'a, Option<T>>),
    /// A fresh buffer built because every slot was busy.
    Overflow(T),
}

impl<T> Deref for ScratchGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        match &self.0 {
            Held::Slot(held) => held.as_ref().expect("checkout fills the slot"),
            Held::Overflow(item) => item,
        }
    }
}

impl<T> DerefMut for ScratchGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        match &mut self.0 {
            Held::Slot(held) => held.as_mut().expect("checkout fills the slot"),
            Held::Overflow(item) => item,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::PoisonError;

    /// Serializes the tests that compare the process-wide overflow
    /// counter, since `cargo test` runs tests on parallel threads.
    static OVERFLOW_TESTS: Mutex<()> = Mutex::new(());

    fn serialize_overflow_tests() -> MutexGuard<'static, ()> {
        OVERFLOW_TESTS
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn checkout_reuses_returned_buffers() {
        static BUILDS: AtomicUsize = AtomicUsize::new(0);
        let pool: ScratchPool<Vec<u8>> = ScratchPool::new();
        for _ in 0..100 {
            let mut g = pool.checkout(|| {
                BUILDS.fetch_add(1, Ordering::Relaxed);
                Vec::new()
            });
            g.push(1);
        }
        assert_eq!(BUILDS.load(Ordering::Relaxed), 1, "one buffer, reused");
        // state survives: the RefCell contract (callers reset)
        let g = pool.checkout(Vec::new);
        assert_eq!(g.len(), 100);
    }

    #[test]
    fn concurrent_checkouts_get_distinct_buffers() {
        let pool: ScratchPool<Vec<u8>> = ScratchPool::new();
        let mut a = pool.checkout(Vec::new);
        let mut b = pool.checkout(Vec::new);
        a.push(1);
        b.push(2);
        assert_eq!(a[0], 1);
        assert_eq!(b[0], 2);
    }

    #[test]
    fn overflow_beyond_slots_still_works() {
        let _serial = serialize_overflow_tests();
        let before = overflow_count();
        let pool: ScratchPool<u32> = ScratchPool::new();
        let guards: Vec<_> = (0..SLOTS + 4).map(|i| pool.checkout(|| i as u32)).collect();
        for (i, g) in guards.iter().enumerate() {
            assert_eq!(**g, i as u32);
        }
        // tests run concurrently, so other pools may overflow too —
        // but at least our 4 extra checkouts must have been counted
        assert!(overflow_count() >= before + 4);
    }

    #[test]
    fn overflow_under_contention_allocates_instead_of_spinning() {
        // Hold every slot on the main thread, then let 4 threads check
        // out concurrently: each must get a fresh buffer immediately
        // (the scope join proves nobody blocked or spun waiting for a
        // slot) and each must bump the overflow counter.
        let _serial = serialize_overflow_tests();
        let pool: ScratchPool<Vec<u8>> = ScratchPool::new();
        let _held: Vec<_> = (0..SLOTS).map(|_| pool.checkout(Vec::new)).collect();
        let before = overflow_count();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let mut g = pool.checkout(Vec::new);
                    assert!(g.is_empty(), "overflow buffers are fresh, never pooled");
                    g.push(1);
                });
            }
        });
        assert!(overflow_count() >= before + 4);
        // with the held guards dropped, checkouts come from the pool
        // again and reuse a returned (non-empty) buffer
        drop(_held);
        let g = pool.checkout(Vec::new);
        assert!(pool.slots.iter().any(|s| s.try_lock().is_ok()));
        drop(g);
    }

    #[test]
    fn a_slot_poisoned_by_a_panicking_query_is_reused() {
        let _serial = serialize_overflow_tests();
        let pool: ScratchPool<Vec<u8>> = ScratchPool::new();
        let before = overflow_count();
        let unwound = std::panic::catch_unwind(|| {
            let mut g = pool.checkout(Vec::new);
            g.extend([1, 2, 3]);
            panic!("query panicked mid-traversal");
        });
        assert!(unwound.is_err());
        assert!(pool.slots[0].is_poisoned());
        let g = pool.checkout(|| panic!("the poisoned slot's buffer is reused"));
        assert_eq!(*g, [1, 2, 3], "left-over state, for the caller to reset");
        assert_eq!(
            overflow_count(),
            before,
            "a poisoned slot is not an overflow"
        );
    }

    #[test]
    fn pool_is_shareable_across_threads() {
        let pool: ScratchPool<Vec<u64>> = ScratchPool::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        let mut g = pool.checkout(Vec::new);
                        g.clear();
                        g.push(7);
                        assert_eq!(g.len(), 1);
                    }
                });
            }
        });
    }
}
