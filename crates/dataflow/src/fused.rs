//! Fused pipelined execution: a bounded MPMC morsel channel plus a
//! produce-or-consume stage operator that overlaps two stages of a
//! pipeline inside one pool batch.
//!
//! The staged engine runs `prune → score` as two barriers: every pruned
//! candidate pair is materialized before the first one is scored. The
//! [`pipelined_stage`] operator fuses them: every worker runs a small
//! scheduling loop that either *produces* the next morsel (claimed off an
//! atomic counter) or *consumes* a produced payload popped from the
//! bounded [`MorselQueue`]. Backpressure is cooperative — a worker that
//! finds the channel at capacity drains it before producing more — so the
//! channel holds at most `capacity + workers` payloads.
//!
//! ## Payload recycling
//!
//! Payloads are buffers, not results: a producer fills one taken off the
//! stage's free list, and once a consumer has read it the buffer goes back
//! on the list with its allocation intact. A new payload is allocated only
//! when the list is empty, so at most `capacity + 2 × workers` exist over
//! the whole stage — the channel's plus one in each worker's hands —
//! however many morsels run ([`FusedStageStats::payloads`] counts them).
//! The stage's memory is the channel's, not the producer output's.
//!
//! ## Determinism
//!
//! Results are slot-indexed: morsel `k`'s consumed output lands in slot
//! `k` of a pre-sized vector, regardless of which worker ran it or in what
//! order the channel interleaved it. The returned vector is therefore a
//! pure function of `(morsels, produce, consume)` — worker count and
//! channel capacity are schedule-only knobs (pinned by tests and the core
//! parity suite) — provided `produce` overwrites its payload whatever a
//! previous morsel left in it.

use crate::pool::thread_cpu_ns;
use crate::{Context, MemBudget, StageMetrics};
use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A bounded multi-producer multi-consumer queue of produced morsels.
///
/// The bound is cooperative: [`MorselQueue::push`] never blocks (a
/// producer has already done the work; refusing the result would waste
/// it), and producers are expected to check [`MorselQueue::is_full`]
/// *before* starting the next morsel and drain the queue instead — the
/// backpressure protocol [`pipelined_stage`] implements. Depth can
/// therefore transiently exceed `capacity` by at most one in-flight
/// payload per worker.
pub(crate) struct MorselQueue<T> {
    capacity: usize,
    inner: Mutex<VecDeque<T>>,
    max_depth: AtomicUsize,
}

impl<T> MorselQueue<T> {
    /// A queue that signals backpressure at `capacity` queued morsels
    /// (clamped to ≥ 1).
    pub fn new(capacity: usize) -> Self {
        MorselQueue {
            capacity: capacity.max(1),
            inner: Mutex::new(VecDeque::new()),
            max_depth: AtomicUsize::new(0),
        }
    }

    /// `true` when the queue holds at least `capacity` morsels — producers
    /// should consume instead of producing.
    pub fn is_full(&self) -> bool {
        self.len() >= self.capacity
    }

    /// Current queue depth.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .len()
    }

    /// Deepest the queue ever got (for stage reports).
    pub fn max_depth(&self) -> usize {
        self.max_depth.load(Ordering::Relaxed)
    }

    /// Enqueue a produced morsel. Never blocks (see type docs).
    pub fn push(&self, item: T) {
        let mut q = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        q.push_back(item);
        self.max_depth.fetch_max(q.len(), Ordering::Relaxed);
    }

    /// Dequeue the oldest produced morsel, if any.
    pub fn pop(&self) -> Option<T> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .pop_front()
    }
}

/// What one [`pipelined_stage`] run did, beyond its outputs: the overlap
/// accounting a fused stage reports (produce vs consume CPU on the same
/// wall interval, channel pressure, stall time).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FusedStageStats {
    /// Number of morsels processed (produced and consumed).
    pub morsels: usize,
    /// CPU time spent inside `produce` closures across all workers.
    pub produce_busy: Duration,
    /// CPU time spent inside `consume` closures across all workers.
    pub consume_busy: Duration,
    /// Wall time workers spent with nothing claimable — production
    /// exhausted, channel empty, but peers still in flight (plus the
    /// pool's own first-claim dispatch wait).
    pub queue_wait: Duration,
    /// Times a worker found the channel at capacity and drained it instead
    /// of producing — each one is a backpressure event.
    pub backpressure_yields: u64,
    /// Deepest the channel ever got (≤ capacity + workers by protocol).
    pub max_queue_depth: usize,
    /// Payload buffers allocated over the stage (≤ capacity + 2 × workers,
    /// independent of the morsel count: consumed payloads are recycled).
    pub payloads: usize,
    /// Wall-clock time of the whole fused batch.
    pub wall: Duration,
    /// Per-worker-slot CPU time for the batch (max entry = critical path).
    pub per_worker_busy: Vec<Duration>,
}

impl FusedStageStats {
    /// Total CPU across produce + consume — on the staged path this work
    /// runs in two serial barriers, so `busy / wall` per worker is the
    /// overlap win the fused schedule achieved.
    pub fn busy_time(&self) -> Duration {
        self.produce_busy + self.consume_busy
    }
}

/// Write-once result slots shared across the fused batch's workers.
///
/// SAFETY invariant: slot `k` is written exactly once — by the consumer
/// that popped morsel `k` from the channel — and only read after the
/// pool's batch join publishes every write to the driver.
struct Slots<T>(Vec<UnsafeCell<Option<T>>>);

unsafe impl<T: Send> Sync for Slots<T> {}

impl<T> Slots<T> {
    fn new(n: usize) -> Self {
        Slots((0..n).map(|_| UnsafeCell::new(None)).collect())
    }

    /// Write slot `k`. Caller must be its unique writer.
    unsafe fn write(&self, k: usize, value: T) {
        *self.0[k].get() = Some(value);
    }

    fn into_vec(self) -> Vec<T> {
        self.0
            .into_iter()
            .map(|c| {
                c.into_inner()
                    .expect("fused stage lost a morsel result slot")
            })
            .collect()
    }
}

/// Run a fused two-stage pipeline over `morsels` on the context's worker
/// pool: `produce(worker, &morsel, &mut payload)` fills a recycled payload
/// with morsel `k`'s data, `consume(worker, &payload)` turns it into
/// morsel `k`'s output, and both stages execute concurrently inside
/// **one** pool batch — worker loops interleave producing and consuming
/// through a bounded morsel queue of `capacity` payloads (see
/// [`fused_channel_capacity`] for a budget-aware default). Consumed
/// payloads return to the stage's free list (see the module docs), so
/// `produce` receives whatever an earlier morsel left in its payload —
/// or `P::default()` — and must overwrite it.
///
/// Returns `(consumed, stats)` with the outputs in morsel order —
/// byte-identical at any worker count and any capacity, provided
/// `produce`/`consume` are pure functions of their morsel (scratch reuse
/// via [`crate::WorkerLocal`] is fine). A [`StageMetrics`] row named
/// `name` is recorded with the batch's busy/queue-wait/per-worker times.
pub fn pipelined_stage<M, P, C, FP, FC>(
    ctx: &Context,
    name: &str,
    morsels: &[M],
    capacity: usize,
    produce: FP,
    consume: FC,
) -> (Vec<C>, FusedStageStats)
where
    M: Sync,
    P: Default + Send,
    C: Send,
    FP: Fn(usize, &M, &mut P) + Send + Sync,
    FC: Fn(usize, &P) -> C + Send + Sync,
{
    let wall_start = Instant::now();
    let n = morsels.len();
    if n == 0 {
        ctx.record_stage(StageMetrics::named(name));
        return (Vec::new(), FusedStageStats::default());
    }

    let queue = MorselQueue::<(usize, P)>::new(capacity);
    let free = Mutex::new(Vec::<P>::new());
    let payloads = AtomicUsize::new(0);
    let next = AtomicUsize::new(0);
    let consumed_count = AtomicUsize::new(0);
    let produce_busy_ns = AtomicU64::new(0);
    let consume_busy_ns = AtomicU64::new(0);
    let stall_ns = AtomicU64::new(0);
    let backpressure = AtomicU64::new(0);
    let failed = AtomicBool::new(false);
    let consumed_slots = Slots::<C>::new(n);
    let lock_free = || {
        free.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    };

    let drain_one = |worker: usize, is_backpressure: bool| -> bool {
        let Some((k, payload)) = queue.pop() else {
            return false;
        };
        if is_backpressure {
            backpressure.fetch_add(1, Ordering::Relaxed);
        }
        let t0 = thread_cpu_ns();
        let c = consume(worker, &payload);
        consume_busy_ns.fetch_add(thread_cpu_ns().saturating_sub(t0), Ordering::Relaxed);
        lock_free().push(payload);
        // SAFETY: popping `k` made this worker its unique consumer, so it
        // writes consumed slot `k` exactly once.
        unsafe { consumed_slots.write(k, c) };
        consumed_count.fetch_add(1, Ordering::Release);
        true
    };

    let worker_loop = |worker: usize| {
        // A panicking `produce` or `consume` unwinds its worker's loop; the
        // flag then stops the others, which would otherwise wait forever
        // for the morsel it never finished. The pool re-throws the panic.
        let _fail_on_unwind = FailOnUnwind(&failed);
        loop {
            if failed.load(Ordering::Relaxed) {
                break;
            }
            // Backpressure protocol: with the channel at capacity (or
            // production exhausted), drain before producing more.
            let full = queue.is_full();
            let exhausted = next.load(Ordering::Relaxed) >= n;
            if (full || exhausted) && drain_one(worker, full && !exhausted) {
                continue;
            }
            // Claim and produce the next morsel.
            if !exhausted {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i < n {
                    let recycled = lock_free().pop();
                    let mut payload = recycled.unwrap_or_else(|| {
                        payloads.fetch_add(1, Ordering::Relaxed);
                        P::default()
                    });
                    let t0 = thread_cpu_ns();
                    produce(worker, &morsels[i], &mut payload);
                    produce_busy_ns
                        .fetch_add(thread_cpu_ns().saturating_sub(t0), Ordering::Relaxed);
                    queue.push((i, payload));
                    continue;
                }
            }
            // Nothing claimable right now: either everything is done, or a
            // peer is mid-morsel and will push shortly.
            if drain_one(worker, false) {
                continue;
            }
            if consumed_count.load(Ordering::Acquire) >= n {
                break;
            }
            let t0 = Instant::now();
            std::thread::yield_now();
            stall_ns.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
    };

    // One long-lived loop task per worker slot, all inside a single pool
    // batch — the pool's one-batch-at-a-time invariant holds because the
    // fusion happens *inside* the batch, not across two of them.
    let (_, pool_stats) = ctx
        .pool()
        .run_on_workers(ctx.workers(), |worker, _task| worker_loop(worker));

    let stats = FusedStageStats {
        morsels: n,
        produce_busy: Duration::from_nanos(produce_busy_ns.into_inner()),
        consume_busy: Duration::from_nanos(consume_busy_ns.into_inner()),
        queue_wait: pool_stats.queue_wait + Duration::from_nanos(stall_ns.into_inner()),
        backpressure_yields: backpressure.into_inner(),
        max_queue_depth: queue.max_depth(),
        payloads: payloads.into_inner(),
        wall: wall_start.elapsed(),
        per_worker_busy: pool_stats.per_worker_busy.clone(),
    };

    let mut metrics = StageMetrics::named(name);
    metrics.tasks = n;
    metrics.input_records = n as u64;
    metrics.output_records = n as u64;
    metrics.wall_time = stats.wall;
    metrics.busy_time = pool_stats.busy_time;
    metrics.queue_wait = stats.queue_wait;
    metrics.per_worker_busy = pool_stats.per_worker_busy;
    ctx.record_stage(metrics);

    (consumed_slots.into_vec(), stats)
}

/// Sets its flag when dropped by an unwinding panic.
struct FailOnUnwind<'a>(&'a AtomicBool);

impl Drop for FailOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::Relaxed);
        }
    }
}

/// Channel capacity for a fused stage under a [`MemBudget`]: unlimited
/// budgets get `4 × workers` queued payloads (enough slack that neither
/// side stalls on the other's jitter); limited budgets are clamped so the
/// queued payloads fit in an eighth of the budget at the caller's
/// estimated payload size, never below 1 (the pipeline must still move).
pub fn fused_channel_capacity(budget: &MemBudget, workers: usize, payload_bytes: u64) -> usize {
    let base = (workers * 4).max(2);
    if !budget.is_limited() {
        return base;
    }
    let allowed = (budget.limit_bytes() / 8).max(64 * 1024) / payload_bytes.max(1);
    (allowed as usize).clamp(1, base)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each morsel's payload and its consumed output.
    fn run_sum(workers: usize, capacity: usize, n: u64) -> (Vec<(u64, u64)>, FusedStageStats) {
        let ctx = Context::new(workers);
        let morsels: Vec<u64> = (0..n).collect();
        pipelined_stage(
            &ctx,
            "fused_test",
            &morsels,
            capacity,
            |_, &m, p: &mut u64| *p = m * 3,
            |_, &p| (p, p + 1),
        )
    }

    #[test]
    fn outputs_are_morsel_ordered_and_schedule_invariant() {
        let expected: Vec<(u64, u64)> = (0..257).map(|m| (m * 3, m * 3 + 1)).collect();
        for workers in [1, 2, 4, 8] {
            for capacity in [1, 2, 7, 1 << 20] {
                let (c, stats) = run_sum(workers, capacity, 257);
                assert_eq!(c, expected, "workers={workers} capacity={capacity}");
                assert_eq!(stats.morsels, 257);
            }
        }
    }

    #[test]
    fn queue_depth_respects_cooperative_bound() {
        for (workers, capacity) in [(4, 1), (4, 2), (2, 3)] {
            let (_, stats) = run_sum(workers, capacity, 500);
            assert!(
                stats.max_queue_depth <= capacity + workers,
                "depth {} exceeds capacity {capacity} + workers {workers}",
                stats.max_queue_depth
            );
        }
    }

    #[test]
    fn payloads_are_recycled_within_the_channel_bound() {
        // Payloads of every length: a recycled buffer must be overwritten,
        // never appended to, and the stage must allocate no more than the
        // channel plus one payload in each worker's hands — however many
        // morsels run.
        let (workers, capacity) = (2, 2);
        let bound = capacity + 2 * workers;
        let ctx = Context::new(workers);
        for n in [10u64, 1000, 10_000] {
            let morsels: Vec<u64> = (0..n).collect();
            let (sums, stats) = pipelined_stage(
                &ctx,
                "fused_recycle",
                &morsels,
                capacity,
                |_, &m, out: &mut Vec<u64>| {
                    out.clear();
                    out.extend(0..m % 13);
                },
                |_, out| (out.len(), out.iter().sum::<u64>()),
            );
            let expected: Vec<(usize, u64)> = (0..n)
                .map(|m| ((m % 13) as usize, (0..m % 13).sum()))
                .collect();
            assert_eq!(sums, expected, "n={n}");
            assert!(stats.payloads >= 1, "n={n}: {stats:?}");
            assert!(
                stats.payloads <= bound,
                "n={n}: {} payloads exceed capacity {capacity} + 2 x workers {workers}",
                stats.payloads
            );
        }
    }

    #[test]
    fn tiny_capacity_under_contention_sees_backpressure() {
        // With a single-payload channel, many workers and cheap consume,
        // producers must keep running into a full channel.
        let ctx = Context::new(4);
        let morsels: Vec<u64> = (0..2000).collect();
        let (_, stats) = pipelined_stage(
            &ctx,
            "fused_bp",
            &morsels,
            1,
            |_, &m, p: &mut u64| {
                // Production outpaces consumption.
                *p = std::hint::black_box(m);
            },
            |_, &p| {
                let mut h = p;
                for _ in 0..2000 {
                    h = std::hint::black_box(h.wrapping_mul(0x9E3779B97F4A7C15));
                }
                h
            },
        );
        assert!(
            stats.backpressure_yields > 0,
            "expected backpressure events, got {stats:?}"
        );
    }

    #[test]
    fn a_panicking_stage_propagates_instead_of_hanging() {
        // Whichever worker hits the bad morsel, its peers stop waiting for
        // it and the submitter re-throws the payload.
        for workers in [1, 2, 4] {
            for panic_in_consume in [false, true] {
                let ctx = Context::new(workers);
                let morsels: Vec<u64> = (0..64).collect();
                let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    pipelined_stage(
                        &ctx,
                        "fused_panic",
                        &morsels,
                        2,
                        |_, &m, p: &mut u64| {
                            assert!(panic_in_consume || m != 37, "bad morsel");
                            *p = m;
                        },
                        |_, &p| {
                            assert!(!panic_in_consume || p != 37, "bad morsel");
                            p
                        },
                    )
                }));
                let payload = caught.expect_err("the panic must propagate");
                let msg = payload.downcast_ref::<&str>().copied();
                assert_eq!(msg, Some("bad morsel"), "workers={workers}");
                // The pool still runs the next stage.
                assert_eq!(run_sum(workers, 2, 8).0.len(), 8);
            }
        }
    }

    #[test]
    fn empty_morsel_list() {
        let (c, stats) = run_sum(4, 4, 0);
        assert!(c.is_empty());
        assert_eq!(stats.morsels, 0);
        assert_eq!(stats.payloads, 0);
    }

    #[test]
    fn single_worker_runs_inline_and_completes() {
        let (c, stats) = run_sum(1, 1, 64);
        assert_eq!(c.len(), 64);
        assert_eq!(c[63], (63 * 3, 63 * 3 + 1));
        // One worker produces, then drains the full channel.
        assert!(stats.payloads <= 1 + 2, "{stats:?}");
    }

    #[test]
    fn records_stage_metrics_with_queue_wait_accounting() {
        let ctx = Context::new(2);
        let morsels: Vec<u64> = (0..100).collect();
        let (_, stats) = pipelined_stage(
            &ctx,
            "fused_metrics",
            &morsels,
            4,
            |_, &m, p: &mut u64| *p = m,
            |_, &p| p,
        );
        let snap = ctx.metrics();
        let stage = snap
            .stages
            .iter()
            .find(|s| s.name == "fused_metrics")
            .expect("fused stage recorded");
        assert_eq!(stage.tasks, 100);
        assert_eq!(stage.input_records, 100);
        assert_eq!(stage.queue_wait, stats.queue_wait);
        assert!(!stage.per_worker_busy.is_empty());
        assert!(stats.busy_time() <= stage.busy_time + Duration::from_millis(50));
    }

    #[test]
    fn channel_capacity_scales_with_budget() {
        let unlimited = MemBudget::unlimited();
        assert_eq!(fused_channel_capacity(&unlimited, 4, 1 << 20), 16);
        assert_eq!(fused_channel_capacity(&unlimited, 1, 1 << 20), 4);
        // 1 MiB budget / 8 = 128 KiB headroom; 1 MiB payloads clamp to 1.
        let tight = MemBudget::limited_mb(1);
        assert_eq!(fused_channel_capacity(&tight, 4, 1 << 20), 1);
        // Tiny payloads fill the headroom: capped at 4 × workers.
        assert_eq!(fused_channel_capacity(&tight, 4, 16), 16);
    }

    #[test]
    fn morsel_queue_is_fifo_and_tracks_depth() {
        let q = MorselQueue::new(2);
        assert_eq!(q.len(), 0);
        q.push(7);
        q.push(3);
        assert!(q.is_full());
        q.push(9); // cooperative bound: push never blocks
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop(), Some(7));
        assert_eq!(q.pop(), Some(3));
        assert_eq!(q.pop(), Some(9));
        assert_eq!(q.pop(), None);
        assert_eq!(q.max_depth(), 3);
        // Capacity clamps to 1: one queued morsel already signals full.
        let clamped = MorselQueue::new(0);
        assert!(!clamped.is_full());
        clamped.push(1usize);
        assert!(clamped.is_full());
    }
}
