//! Persistent worker pool: threads spawned once, reused across stages.
//!
//! The previous engine respawned scoped threads and funnelled results
//! through an unbounded channel on every stage, so pipelines made of many
//! short stages (purging → filtering → meta-blocking pruning is exactly
//! that shape) paid thread-creation and channel-contention costs per stage.
//! This pool spawns its threads once, parks them on a condvar between
//! stages, and hands each stage out through a shared atomic task counter.
//!
//! Results are written directly into a pre-sized **slot vector**: task `i`
//! writes slot `i`, so output order equals task order by construction — no
//! channel, no post-hoc sort. This "determinism by slot indexing" is one
//! half of the engine's ordering guarantee (the other half is that shuffle
//! buckets are concatenated in input-partition order).
//!
//! Stage closures may borrow stage-local state (the old scoped-thread
//! ergonomics are preserved): internally the closure reference is
//! lifetime-erased before being published to the workers, and
//! [`WorkerPool::run`] does not return until every task has completed, so
//! the borrow can never be outlived.

use crate::worker_local::CachePadded;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Per-stage execution statistics reported by [`WorkerPool::run_with_stats`].
///
/// Busy times are **thread CPU time**, not wall clock: on an oversubscribed
/// host (more workers than cores) a task's wall time includes the slices
/// the OS gave to other threads, which would make every schedule look
/// balanced. CPU time charges each worker exactly the work it executed, so
/// the per-slot spread reflects the schedule itself.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StageStats {
    /// Sum of task CPU time across all workers.
    pub busy_time: Duration,
    /// Sum over participating workers of the delay between stage publication
    /// and that worker claiming its first task (wall clock — it is a wait).
    pub queue_wait: Duration,
    /// CPU time per worker slot for *this stage* (slot 0 = the submitting
    /// thread). The spread across slots is the stage's load balance: the
    /// maximum entry is the stage's critical path — the wall-clock lower
    /// bound on a machine with one core per worker.
    pub per_worker_busy: Vec<Duration>,
}

impl std::ops::Add for StageStats {
    type Output = StageStats;

    fn add(self, rhs: StageStats) -> StageStats {
        let (mut long, short) = if self.per_worker_busy.len() >= rhs.per_worker_busy.len() {
            (self.per_worker_busy, rhs.per_worker_busy)
        } else {
            (rhs.per_worker_busy, self.per_worker_busy)
        };
        for (slot, d) in short.into_iter().enumerate() {
            long[slot] += d;
        }
        StageStats {
            busy_time: self.busy_time + rhs.busy_time,
            queue_wait: self.queue_wait + rhs.queue_wait,
            per_worker_busy: long,
        }
    }
}

/// Nanoseconds of CPU time consumed by the calling thread.
///
/// On Linux this reads `CLOCK_THREAD_CPUTIME_ID` directly (the symbol is in
/// the libc the binary already links; no crate dependency), so time spent
/// preempted does not count. Elsewhere it degrades to the monotonic wall
/// clock — correct on a machine with a core per worker, pessimistic
/// otherwise.
#[cfg(target_os = "linux")]
pub(crate) fn thread_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    extern "C" {
        fn clock_gettime(clk_id: i32, tp: *mut Timespec) -> i32;
    }
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid out-pointer and the clock id is a constant
    // every Linux kernel supports; the call writes `ts` and nothing else.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    debug_assert_eq!(rc, 0, "CLOCK_THREAD_CPUTIME_ID unavailable");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

#[cfg(not(target_os = "linux"))]
pub(crate) fn thread_cpu_ns() -> u64 {
    use std::sync::OnceLock;
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Type-erased stage closure: `(worker_slot, task_index)`.
///
/// The `'static` lifetime is a lie told only inside this module: the
/// underlying closure lives on the submitting thread's stack and the
/// submitter blocks until `remaining == 0`, after which workers never
/// dereference the pointer again.
#[derive(Clone, Copy)]
struct TaskRef(*const (dyn Fn(usize, usize) + Sync));

// SAFETY: the pointee is `Sync` (shared calls from many threads are fine)
// and the submitter keeps it alive for the whole batch (see `TaskRef` docs).
unsafe impl Send for TaskRef {}
unsafe impl Sync for TaskRef {}

/// One published stage: a work queue drained by atomic index claiming.
struct Batch {
    task: TaskRef,
    num_tasks: usize,
    /// Next task index to claim.
    next: AtomicUsize,
    /// Tasks not yet completed; the submitter waits for this to hit zero.
    remaining: AtomicUsize,
    /// Set when a task panicked: remaining tasks are claimed but skipped.
    abort: AtomicBool,
    /// First panic payload, re-thrown verbatim on the submitting thread.
    panic: Mutex<Option<Box<dyn std::any::Any + Send + 'static>>>,
    published_at: Instant,
    busy_ns: AtomicU64,
    queue_wait_ns: AtomicU64,
    /// Busy time of this batch broken down by worker slot, one cache-line
    /// pair per slot (each worker bumps its own counter per task).
    worker_busy_ns: Vec<CachePadded<AtomicU64>>,
}

impl Batch {
    /// Claim-and-run loop shared by workers and the submitting thread.
    fn drain(&self, worker_slot: usize, shared: &Shared) {
        let mut first_claim = true;
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.num_tasks {
                break;
            }
            if first_claim {
                first_claim = false;
                self.queue_wait_ns.fetch_add(
                    self.published_at.elapsed().as_nanos() as u64,
                    Ordering::Relaxed,
                );
            }
            if !self.abort.load(Ordering::Relaxed) {
                let t0 = thread_cpu_ns();
                // SAFETY: `i < num_tasks` and `remaining > 0` (this task has
                // not completed), so the submitter is still blocked and the
                // closure is alive.
                let result = catch_unwind(AssertUnwindSafe(|| unsafe {
                    (*self.task.0)(worker_slot, i)
                }));
                let dt = thread_cpu_ns().saturating_sub(t0);
                self.busy_ns.fetch_add(dt, Ordering::Relaxed);
                self.worker_busy_ns[worker_slot]
                    .0
                    .fetch_add(dt, Ordering::Relaxed);
                shared.busy_ns[worker_slot]
                    .0
                    .fetch_add(dt, Ordering::Relaxed);
                if let Err(payload) = result {
                    self.abort.store(true, Ordering::Relaxed);
                    let mut slot = self
                        .panic
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    if slot.is_none() {
                        *slot = Some(payload);
                    }
                }
            }
            if self.remaining.fetch_sub(1, Ordering::Release) == 1 {
                // Last task done: wake the submitter. Lock/unlock pairs the
                // notification with the submitter's wait loop so it cannot
                // be missed.
                drop(
                    shared
                        .state
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner),
                );
                shared.done_cv.notify_all();
            }
        }
    }
}

struct PublishState {
    /// Bumped once per published batch; workers use it to avoid re-draining
    /// a batch they have already seen.
    epoch: u64,
    batch: Option<Arc<Batch>>,
    shutdown: bool,
}

struct Shared {
    state: Mutex<PublishState>,
    work_cv: Condvar,
    done_cv: Condvar,
    /// Cumulative per-worker busy time (nanoseconds); slot 0 is the
    /// submitting thread, slots 1.. are pool threads. Padded like
    /// `Batch::worker_busy_ns`.
    busy_ns: Vec<CachePadded<AtomicU64>>,
}

thread_local! {
    /// True while this thread is executing inside a stage (as a pool worker
    /// or as a participating submitter). Nested `run` calls from stage code
    /// fall back to inline execution instead of deadlocking on the pool.
    static IN_STAGE: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// A fixed-width pool of **persistent** workers that runs batches of
/// independent tasks.
///
/// `workers - 1` threads are spawned lazily on the first parallel batch and
/// live until the pool is dropped; the submitting thread itself acts as
/// worker 0, so `workers` bounds total parallelism. Results are returned in
/// task order regardless of completion order (slot indexing).
pub struct WorkerPool {
    workers: usize,
    shared: Arc<Shared>,
    /// Serialises whole stages: one batch in flight at a time.
    stage_lock: Mutex<()>,
    /// Lazily spawned persistent threads, joined on drop.
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers)
            .field(
                "spawned",
                &self
                    .threads
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .len(),
            )
            .finish()
    }
}

impl WorkerPool {
    /// Create a pool that runs at most `workers` tasks concurrently.
    ///
    /// `workers == 0` is clamped to 1. No threads are spawned until the
    /// first batch that can use them.
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        WorkerPool {
            workers,
            shared: Arc::new(Shared {
                state: Mutex::new(PublishState {
                    epoch: 0,
                    batch: None,
                    shutdown: false,
                }),
                work_cv: Condvar::new(),
                done_cv: Condvar::new(),
                busy_ns: (0..workers).map(|_| CachePadded::default()).collect(),
            }),
            stage_lock: Mutex::new(()),
            threads: Mutex::new(Vec::new()),
        }
    }

    /// Number of concurrent workers used by [`WorkerPool::run`].
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Cumulative busy (thread CPU) time per worker slot (0 = submitting
    /// thread).
    pub fn worker_busy_times(&self) -> Vec<Duration> {
        self.shared
            .busy_ns
            .iter()
            .map(|ns| Duration::from_nanos(ns.0.load(Ordering::Relaxed)))
            .collect()
    }

    /// Spawn the persistent threads if they are not running yet.
    fn ensure_spawned(&self) {
        let mut threads = self
            .threads
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if !threads.is_empty() {
            return;
        }
        for slot in 1..self.workers {
            let shared = Arc::clone(&self.shared);
            let handle = std::thread::Builder::new()
                .name(format!("sparker-worker-{slot}"))
                .spawn(move || worker_loop(shared, slot))
                .expect("spawn dataflow worker");
            threads.push(handle);
        }
    }

    /// Execute `num_tasks` independent tasks and collect their results in
    /// task order.
    ///
    /// `task(i)` is invoked exactly once for every `i in 0..num_tasks`, from
    /// at most `self.workers` threads concurrently. The first task panic is
    /// re-thrown on the caller with its original payload.
    pub fn run<R, F>(&self, num_tasks: usize, task: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Send + Sync,
    {
        self.run_with_stats(num_tasks, task).0
    }

    /// [`WorkerPool::run`] plus per-stage busy/queue-wait statistics.
    pub fn run_with_stats<R, F>(&self, num_tasks: usize, task: F) -> (Vec<R>, StageStats)
    where
        R: Send,
        F: Fn(usize) -> R + Send + Sync,
    {
        self.run_on_workers(num_tasks, |_worker, i| task(i))
    }

    /// [`WorkerPool::run_with_stats`] with the executing worker slot exposed
    /// to the task as `task(worker_slot, task_index)`.
    ///
    /// The slot is in `0..self.workers()` and at most one task runs on a
    /// given slot at any time, so slot-indexed scratch state (see
    /// [`crate::WorkerLocal`]) is data-race free. Results are still returned
    /// in task order — the slot only identifies *where* a task ran, never
    /// where its result lands.
    pub fn run_on_workers<R, F>(&self, num_tasks: usize, task: F) -> (Vec<R>, StageStats)
    where
        R: Send,
        F: Fn(usize, usize) -> R + Send + Sync,
    {
        if num_tasks == 0 {
            return (Vec::new(), StageStats::default());
        }
        let slots: Vec<Slot<R>> = (0..num_tasks).map(|_| Slot::empty()).collect();
        let slots_ref = SlotWriter(&slots);
        let runner = move |worker: usize, i: usize| {
            let value = task(worker, i);
            // SAFETY: task index `i` is claimed exactly once, so slot `i`
            // has a unique writer.
            unsafe { slots_ref.write(i, value) };
        };
        let stats = self.execute(num_tasks, &runner);
        let results: Vec<R> = slots.into_iter().map_while(Slot::into_inner).collect();
        // A short-fall is a pool bug; fail loudly in release builds too
        // rather than silently returning a truncated stage.
        assert_eq!(
            results.len(),
            num_tasks,
            "worker pool lost {} of {} task results",
            num_tasks - results.len(),
            num_tasks
        );
        (results, stats)
    }

    /// Execute one task per element of `inputs`, passing each task
    /// **ownership** of its element — the zero-copy variant used by shuffle
    /// stages to move (not clone) partition data.
    pub fn run_owned<I, R, F>(&self, inputs: Vec<I>, f: F) -> (Vec<R>, StageStats)
    where
        I: Send,
        R: Send,
        F: Fn(usize, I) -> R + Send + Sync,
    {
        let num_tasks = inputs.len();
        if num_tasks == 0 {
            return (Vec::new(), StageStats::default());
        }
        let inputs: Vec<Slot<I>> = inputs.into_iter().map(Slot::new).collect();
        let inputs_ref = SlotWriter(&inputs);
        let slots: Vec<Slot<R>> = (0..num_tasks).map(|_| Slot::empty()).collect();
        let slots_ref = SlotWriter(&slots);
        let runner = move |_worker: usize, i: usize| {
            // SAFETY: task index `i` is claimed exactly once; its input slot
            // is taken once and its output slot written once.
            let input = unsafe { inputs_ref.take(i) }.expect("input slot already taken");
            let value = f(i, input);
            unsafe { slots_ref.write(i, value) };
        };
        let stats = self.execute(num_tasks, &runner);
        let results: Vec<R> = slots.into_iter().map_while(Slot::into_inner).collect();
        assert_eq!(
            results.len(),
            num_tasks,
            "worker pool lost {} of {} task results",
            num_tasks - results.len(),
            num_tasks
        );
        (results, stats)
    }

    /// Dispatch: inline for trivial batches and nested calls, otherwise
    /// publish to the persistent workers.
    fn execute(&self, num_tasks: usize, runner: &(dyn Fn(usize, usize) + Sync)) -> StageStats {
        let nested = IN_STAGE.with(|f| f.get());
        if self.workers == 1 || num_tasks == 1 || nested {
            let t0 = thread_cpu_ns();
            let was = IN_STAGE.with(|f| f.replace(true));
            let result = catch_unwind(AssertUnwindSafe(|| {
                for i in 0..num_tasks {
                    runner(0, i);
                }
            }));
            IN_STAGE.with(|f| f.set(was));
            let busy = Duration::from_nanos(thread_cpu_ns().saturating_sub(t0));
            self.shared.busy_ns[0]
                .0
                .fetch_add(busy.as_nanos() as u64, Ordering::Relaxed);
            if let Err(payload) = result {
                resume_unwind(payload);
            }
            let mut per_worker_busy = vec![Duration::ZERO; self.workers];
            per_worker_busy[0] = busy;
            return StageStats {
                busy_time: busy,
                queue_wait: Duration::ZERO,
                per_worker_busy,
            };
        }

        self.ensure_spawned();
        let _stage = self
            .stage_lock
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);

        // SAFETY: see `TaskRef` — the reference is only used while this
        // call frame is alive (we block on `remaining == 0` below).
        let task: TaskRef = TaskRef(unsafe {
            std::mem::transmute::<
                *const (dyn Fn(usize, usize) + Sync),
                *const (dyn Fn(usize, usize) + Sync),
            >(runner as *const (dyn Fn(usize, usize) + Sync))
        });
        let batch = Arc::new(Batch {
            task,
            num_tasks,
            next: AtomicUsize::new(0),
            remaining: AtomicUsize::new(num_tasks),
            abort: AtomicBool::new(false),
            panic: Mutex::new(None),
            published_at: Instant::now(),
            busy_ns: AtomicU64::new(0),
            queue_wait_ns: AtomicU64::new(0),
            worker_busy_ns: (0..self.workers).map(|_| CachePadded::default()).collect(),
        });

        {
            let mut st = self
                .shared
                .state
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            st.epoch += 1;
            st.batch = Some(Arc::clone(&batch));
        }
        self.shared.work_cv.notify_all();

        // The submitter is worker 0.
        IN_STAGE.with(|f| f.set(true));
        batch.drain(0, &self.shared);
        IN_STAGE.with(|f| f.set(false));

        // Wait for the stragglers.
        {
            let mut st = self
                .shared
                .state
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            while batch.remaining.load(Ordering::Acquire) != 0 {
                st = self
                    .shared
                    .done_cv
                    .wait(st)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
            st.batch = None;
        }

        if let Some(payload) = batch
            .panic
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .take()
        {
            resume_unwind(payload);
        }

        StageStats {
            busy_time: Duration::from_nanos(batch.busy_ns.load(Ordering::Relaxed)),
            queue_wait: Duration::from_nanos(batch.queue_wait_ns.load(Ordering::Relaxed)),
            per_worker_busy: batch
                .worker_busy_ns
                .iter()
                .map(|ns| Duration::from_nanos(ns.0.load(Ordering::Relaxed)))
                .collect(),
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = self
                .shared
                .state
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            st.shutdown = true;
        }
        self.shared.work_cv.notify_all();
        for handle in self
            .threads
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .drain(..)
        {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: Arc<Shared>, slot: usize) {
    IN_STAGE.with(|f| f.set(true));
    let mut seen_epoch = 0u64;
    loop {
        let batch = {
            let mut st = shared
                .state
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != seen_epoch {
                    if let Some(batch) = &st.batch {
                        seen_epoch = st.epoch;
                        break Arc::clone(batch);
                    }
                }
                st = shared
                    .work_cv
                    .wait(st)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        batch.drain(slot, &shared);
    }
}

/// One result slot, written by exactly one task.
struct Slot<T>(std::cell::UnsafeCell<Option<T>>);

impl<T> Slot<T> {
    fn empty() -> Self {
        Slot(std::cell::UnsafeCell::new(None))
    }

    fn new(value: T) -> Self {
        Slot(std::cell::UnsafeCell::new(Some(value)))
    }

    fn into_inner(self) -> Option<T> {
        self.0.into_inner()
    }
}

/// Shared view over the slot vector handed to tasks.
///
/// SAFETY invariant: slot `i` is accessed only by the (unique) task that
/// claimed index `i`, so there are never two simultaneous accesses to the
/// same slot.
struct SlotWriter<'a, T>(&'a [Slot<T>]);

impl<T> Clone for SlotWriter<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SlotWriter<'_, T> {}

unsafe impl<T: Send> Send for SlotWriter<'_, T> {}
unsafe impl<T: Send> Sync for SlotWriter<'_, T> {}

impl<T> SlotWriter<'_, T> {
    /// Write slot `i`. Caller must be the unique claimant of `i`.
    unsafe fn write(&self, i: usize, value: T) {
        *self.0[i].0.get() = Some(value);
    }

    /// Take slot `i`'s value. Caller must be the unique claimant of `i`.
    unsafe fn take(&self, i: usize) -> Option<T> {
        (*self.0[i].0.get()).take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn runs_every_task_exactly_once() {
        let pool = WorkerPool::new(4);
        let hits = AtomicU64::new(0);
        let out = pool.run(100, |i| {
            hits.fetch_add(1, Ordering::Relaxed);
            i * i
        });
        assert_eq!(hits.load(Ordering::Relaxed), 100);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn results_are_in_task_order_under_contention() {
        let pool = WorkerPool::new(8);
        let out = pool.run(257, |i| {
            // Stagger completion order.
            if i % 3 == 0 {
                std::thread::yield_now();
            }
            i
        });
        assert_eq!(out, (0..257).collect::<Vec<_>>());
    }

    #[test]
    fn threads_persist_across_batches() {
        let pool = WorkerPool::new(4);
        pool.run(16, |i| i);
        let spawned = pool
            .threads
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .len();
        assert_eq!(spawned, 3, "workers - 1 persistent threads");
        for round in 0..50 {
            let out = pool.run(32, move |i| i + round);
            assert_eq!(out, (round..32 + round).collect::<Vec<_>>());
        }
        assert_eq!(
            pool.threads
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .len(),
            spawned,
            "no respawn"
        );
    }

    #[test]
    fn zero_tasks_is_empty() {
        let pool = WorkerPool::new(3);
        let out: Vec<u32> = pool.run(0, |_| unreachable!());
        assert!(out.is_empty());
    }

    #[test]
    fn zero_workers_clamped_to_one() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.workers(), 1);
        assert_eq!(pool.run(3, |i| i + 1), vec![1, 2, 3]);
    }

    #[test]
    fn single_worker_runs_inline() {
        let pool = WorkerPool::new(1);
        let tid = std::thread::current().id();
        let out = pool.run(4, move |i| (i, std::thread::current().id() == tid));
        assert!(out.iter().all(|(_, same)| *same));
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn task_panic_propagates_with_payload() {
        let pool = WorkerPool::new(4);
        pool.run(8, |i| {
            if i == 5 {
                panic!("boom");
            }
            i
        });
    }

    #[test]
    #[should_panic(expected = "boom-inline")]
    fn inline_panic_propagates_with_payload() {
        let pool = WorkerPool::new(1);
        pool.run(3, |i| {
            if i == 1 {
                panic!("boom-inline");
            }
            i
        });
    }

    #[test]
    fn pool_survives_a_panicked_batch() {
        let pool = WorkerPool::new(4);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(16, |i| {
                if i == 3 {
                    panic!("transient");
                }
                i
            })
        }));
        assert!(result.is_err());
        // The pool still works after a panicked stage.
        assert_eq!(
            pool.run(8, |i| i * 2),
            (0..8).map(|i| i * 2).collect::<Vec<_>>()
        );
    }

    #[test]
    fn tasks_can_borrow_local_state() {
        let pool = WorkerPool::new(4);
        let data: Vec<u64> = (0..64).collect();
        let out = pool.run(8, |i| data[i * 8..(i + 1) * 8].iter().sum::<u64>());
        assert_eq!(out.iter().sum::<u64>(), (0..64).sum::<u64>());
    }

    #[test]
    fn nested_runs_fall_back_to_inline() {
        let pool = Arc::new(WorkerPool::new(4));
        let inner = Arc::clone(&pool);
        let out = pool.run(4, move |i| {
            inner.run(3, |j| i * 10 + j).iter().sum::<usize>()
        });
        assert_eq!(out, vec![3, 33, 63, 93]);
    }

    #[test]
    fn run_owned_moves_inputs() {
        let pool = WorkerPool::new(4);
        let inputs: Vec<Vec<u64>> = (0..10).map(|i| vec![i; 4]).collect();
        let (out, _) = pool.run_owned(inputs, |i, v| {
            assert_eq!(v, vec![i as u64; 4]);
            v.into_iter().sum::<u64>()
        });
        assert_eq!(out, (0..10).map(|i| i * 4).collect::<Vec<_>>());
    }

    /// Burn `d` of thread CPU time (sleeping would accrue none — busy
    /// accounting charges CPU, not wall).
    fn burn_cpu(d: Duration) {
        let t0 = thread_cpu_ns();
        let target = d.as_nanos() as u64;
        let mut h = 0u64;
        while thread_cpu_ns().saturating_sub(t0) < target {
            h = std::hint::black_box(h.wrapping_mul(0x9E3779B97F4A7C15).rotate_left(17));
        }
    }

    #[test]
    fn stats_account_busy_time() {
        let pool = WorkerPool::new(2);
        let (_, stats) = pool.run_with_stats(8, |_| {
            burn_cpu(Duration::from_millis(2));
        });
        assert!(
            stats.busy_time >= Duration::from_millis(10),
            "got {:?}",
            stats.busy_time
        );
        let busy = pool.worker_busy_times();
        assert_eq!(busy.len(), 2);
        assert!(busy.iter().sum::<Duration>() >= stats.busy_time);
    }

    #[test]
    fn per_worker_busy_partitions_stage_busy_time() {
        let pool = WorkerPool::new(4);
        let (_, stats) = pool.run_with_stats(32, |_| {
            burn_cpu(Duration::from_micros(300));
        });
        assert_eq!(stats.per_worker_busy.len(), 4);
        let sum: Duration = stats.per_worker_busy.iter().sum();
        assert_eq!(sum, stats.busy_time, "per-worker slices cover the stage");
    }

    #[test]
    fn inline_stage_attributes_busy_to_slot_zero() {
        let pool = WorkerPool::new(1);
        let (_, stats) = pool.run_with_stats(4, |_| {
            burn_cpu(Duration::from_micros(200));
        });
        assert_eq!(stats.per_worker_busy.len(), 1);
        assert_eq!(stats.per_worker_busy[0], stats.busy_time);
    }

    #[test]
    fn run_on_workers_exposes_valid_slots() {
        let pool = WorkerPool::new(4);
        let out = pool.run_on_workers(64, |worker, i| (worker, i)).0;
        assert_eq!(out.len(), 64);
        for (idx, (worker, i)) in out.iter().enumerate() {
            assert!(*worker < 4, "slot {worker} out of range");
            assert_eq!(*i, idx, "results stay in task order");
        }
    }

    #[test]
    fn stage_stats_add_merges_per_worker() {
        let a = StageStats {
            busy_time: Duration::from_millis(3),
            queue_wait: Duration::ZERO,
            per_worker_busy: vec![Duration::from_millis(1), Duration::from_millis(2)],
        };
        let b = StageStats {
            busy_time: Duration::from_millis(4),
            queue_wait: Duration::ZERO,
            per_worker_busy: vec![Duration::from_millis(4)],
        };
        let sum = a + b;
        assert_eq!(sum.busy_time, Duration::from_millis(7));
        assert_eq!(
            sum.per_worker_busy,
            vec![Duration::from_millis(5), Duration::from_millis(2)]
        );
    }
}
