//! Per-worker mutable scratch state for pool stages.
//!
//! Morsel-granular stages run many small tasks per worker; allocating
//! scratch buffers per task would undo the point of reusing them. A
//! [`WorkerLocal`] holds one value per worker *slot* so every task reuses
//! the buffer warmed by the previous task on the same slot, regardless of
//! how tasks are claimed.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, Ordering};

/// One mutable value per worker slot of a [`crate::Context`]'s pool.
///
/// The pool guarantees that at most one task executes on a given slot at a
/// time (the slot *is* a thread: slot 0 the submitter, slots 1.. the pool
/// threads), so slot-indexed access needs no locking. A per-slot borrow
/// flag still guards against the one way that invariant can be subverted —
/// a nested stage re-entering the same slot's value — turning potential UB
/// into a panic.
///
/// Each slot sits on cache lines of its own (aligned to 128 bytes): workers
/// write their slot's fields in hot loops (buffer lengths pushed per
/// neighbour, filter counters bumped per candidate), and two slots sharing
/// a line would make every such write contend with the neighbouring worker.
pub struct WorkerLocal<T> {
    slots: Vec<CachePadded<Slot<T>>>,
}

/// `T` aligned — and therefore sized — to 128 bytes: two 64-byte cache
/// lines, because x86 cores prefetch lines in adjacent pairs. Per-worker
/// values in an array of these never share a line with a neighbour's.
#[repr(align(128))]
#[derive(Debug, Default)]
pub(crate) struct CachePadded<T>(pub(crate) T);

/// One worker slot: the value first, so it starts on the slot's
/// 128-byte boundary, then the borrow flag.
#[repr(C)]
struct Slot<T> {
    value: UnsafeCell<T>,
    borrowed: AtomicBool,
}

// SAFETY: access is serialized per slot by the pool's one-thread-per-slot
// scheduling plus the borrow flag; values move across threads only when the
// owner moves (`T: Send`).
unsafe impl<T: Send> Sync for WorkerLocal<T> {}

impl<T> WorkerLocal<T> {
    /// One value per worker slot, built by `init` (called `workers` times).
    pub fn new(workers: usize, mut init: impl FnMut() -> T) -> Self {
        WorkerLocal {
            slots: (0..workers.max(1))
                .map(|_| {
                    CachePadded(Slot {
                        value: UnsafeCell::new(init()),
                        borrowed: AtomicBool::new(false),
                    })
                })
                .collect(),
        }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// `true` if there are no slots (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Mutably borrow slot `worker`'s value for the duration of `f`.
    ///
    /// Panics if the slot is already borrowed (nested stages on one thread)
    /// or `worker` is out of range.
    pub fn with<R>(&self, worker: usize, f: impl FnOnce(&mut T) -> R) -> R {
        let Slot {
            value: cell,
            borrowed: flag,
        } = &self.slots[worker].0;
        assert!(
            !flag.swap(true, Ordering::Acquire),
            "WorkerLocal slot {worker} borrowed re-entrantly"
        );
        // SAFETY: the flag grants exclusive access to the cell until it is
        // released below; the pool runs one task per slot at a time.
        let result = f(unsafe { &mut *cell.get() });
        flag.store(false, Ordering::Release);
        result
    }

    /// Consume the structure and return the per-slot values in slot order.
    pub fn into_inner(self) -> Vec<T> {
        self.slots
            .into_iter()
            .map(|slot| slot.0.value.into_inner())
            .collect()
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for WorkerLocal<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerLocal")
            .field("slots", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::WorkerPool;

    #[test]
    fn one_value_per_slot_accumulates() {
        let pool = WorkerPool::new(4);
        let local = WorkerLocal::new(4, || 0u64);
        pool.run_on_workers(100, |worker, i| {
            local.with(worker, |v| *v += i as u64 + 1);
        });
        let total: u64 = local.into_inner().into_iter().sum();
        assert_eq!(total, (1..=100).sum::<u64>());
    }

    #[test]
    fn scratch_survives_across_tasks_on_a_slot() {
        let pool = WorkerPool::new(1);
        let local = WorkerLocal::new(1, Vec::<usize>::new);
        pool.run_on_workers(5, |worker, i| local.with(worker, |v| v.push(i)));
        assert_eq!(local.into_inner()[0], vec![0, 1, 2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "re-entrantly")]
    fn reentrant_borrow_panics() {
        let local = WorkerLocal::new(1, || 0u8);
        local.with(0, |_| local.with(0, |_| {}));
    }

    #[test]
    fn slots_sit_on_cache_lines_of_their_own() {
        let local = WorkerLocal::new(4, || 0u64);
        let addrs: Vec<usize> = (0..4)
            .map(|w| local.with(w, |v| v as *mut u64 as usize))
            .collect();
        assert!(addrs.iter().all(|a| a % 128 == 0), "{addrs:x?}");
        assert!(addrs.windows(2).all(|w| w[1] - w[0] >= 128), "{addrs:x?}");
    }

    #[test]
    fn zero_workers_clamped() {
        let local = WorkerLocal::new(0, || 1i32);
        assert_eq!(local.len(), 1);
        assert!(!local.is_empty());
    }
}
