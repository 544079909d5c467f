//! Execution context: worker pool + metrics + dataset construction.

use crate::{
    Accumulator, Broadcast, Dataset, ExecutionMetrics, MemBudget, MetricsSnapshot, WorkerPool,
};
use std::ops::Range;
use std::sync::Arc;

/// Entry point of the dataflow engine.
///
/// A `Context` plays the role of Spark's `SparkContext`: it owns the worker
/// pool, creates [`Dataset`]s and [`Broadcast`] variables, and accumulates
/// [`ExecutionMetrics`]. Cloning a `Context` is cheap and clones share the
/// pool and metrics sink.
#[derive(Clone, Debug)]
pub struct Context {
    pool: Arc<WorkerPool>,
    metrics: ExecutionMetrics,
    default_partitions: usize,
    budget: MemBudget,
}

impl Context {
    /// Create a context with `workers` concurrent workers and
    /// `2 * workers` default partitions (a common Spark rule of thumb that
    /// keeps all workers busy under skew).
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        Context {
            pool: Arc::new(WorkerPool::new(workers)),
            metrics: ExecutionMetrics::default(),
            default_partitions: workers * 2,
            budget: MemBudget::from_env(),
        }
    }

    /// Create a context with an explicit default partition count.
    pub fn with_partitions(workers: usize, default_partitions: usize) -> Self {
        let mut ctx = Context::new(workers);
        ctx.default_partitions = default_partitions.max(1);
        ctx
    }

    /// Replace the context's memory budget (builder-style). `Context::new`
    /// resolves the budget from `SPARKER_MEM_BUDGET_MB`; tests and embedders
    /// use this to set an explicit one without touching the environment.
    pub fn with_budget(mut self, budget: MemBudget) -> Self {
        self.budget = budget;
        self
    }

    /// The memory budget every stage of this context accounts against.
    /// Clones of the handle share counters.
    pub fn budget(&self) -> &MemBudget {
        &self.budget
    }

    /// Number of concurrent workers.
    pub fn workers(&self) -> usize {
        self.pool.workers()
    }

    /// Default number of partitions for new datasets and shuffles.
    pub fn default_partitions(&self) -> usize {
        self.default_partitions
    }

    pub(crate) fn pool(&self) -> &WorkerPool {
        &self.pool
    }

    pub(crate) fn metrics_sink(&self) -> &ExecutionMetrics {
        &self.metrics
    }

    /// Copy out all execution metrics recorded so far.
    ///
    /// The snapshot's `worker_busy` field is read live from the pool's
    /// per-worker counters (slot 0 is the submitting thread).
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut snap = self.metrics.snapshot();
        snap.worker_busy = self.pool.worker_busy_times();
        snap
    }

    /// Drop all recorded metrics (between experiment repetitions).
    pub fn reset_metrics(&self) {
        self.metrics.reset()
    }

    /// Record a driver-named stage into the metrics stream.
    ///
    /// Pipeline drivers use this to append stage-scope markers (e.g.
    /// `"pipeline/score_pairs"`) alongside the operator stages the engine
    /// records itself, so a [`MetricsSnapshot`] can attribute operator work
    /// to pipeline stages. Driver-recorded stages carry whatever fields the
    /// caller filled in; `per_worker_busy` stays empty for them.
    pub fn record_stage(&self, stage: crate::StageMetrics) {
        self.metrics.record_stage(stage)
    }

    /// Distribute `data` over `num_partitions` contiguous slices.
    ///
    /// Partitioning is by contiguous ranges (like Spark's `parallelize`), so
    /// the concatenation of partitions equals the input order.
    pub fn parallelize<T: Send + Sync>(&self, data: Vec<T>, num_partitions: usize) -> Dataset<T> {
        let n = num_partitions.max(1);
        let total = data.len();
        let mut parts: Vec<Vec<T>> = Vec::with_capacity(n);
        // Ceil-divide so the leftover records spread over the first chunks.
        let base = total / n;
        let extra = total % n;
        let mut it = data.into_iter();
        for i in 0..n {
            let take = base + usize::from(i < extra);
            parts.push(it.by_ref().take(take).collect());
        }
        Dataset::from_parts(self.clone(), parts.into_iter().map(Arc::new).collect())
    }

    /// [`Context::parallelize`] with the context's default partition count.
    pub fn parallelize_default<T: Send + Sync>(&self, data: Vec<T>) -> Dataset<T> {
        self.parallelize(data, self.default_partitions)
    }

    /// Distribute `data` over `num_partitions` contiguous slices whose
    /// **total cost** — not record count — is balanced.
    ///
    /// `costs[i]` is a relative work hint for `data[i]` (e.g. a node's
    /// degree in meta-blocking). Chunk boundaries are cut at the prefix-sum
    /// quantiles `k · Σcosts / n`, so a contiguous run of expensive records
    /// (the hub region of a skewed graph) is spread over many partitions
    /// instead of landing in one. Zero costs are treated as 1 so every
    /// record still advances the prefix. Like [`Context::parallelize`],
    /// partitions are contiguous ranges: concatenation order equals input
    /// order, and the result is a pure function of `(data, costs, n)` —
    /// worker-count independent.
    pub fn parallelize_by_cost<T: Send + Sync>(
        &self,
        data: Vec<T>,
        costs: &[u64],
        num_partitions: usize,
    ) -> Dataset<T> {
        assert_eq!(data.len(), costs.len(), "one cost per record");
        let n = num_partitions.max(1);
        let total: u128 = costs.iter().map(|&c| c.max(1) as u128).sum();
        let mut parts: Vec<Vec<T>> = Vec::with_capacity(n);
        let mut acc: u128 = 0;
        let mut start = 0usize;
        let mut it = data.into_iter();
        for k in 1..=n {
            let target = total * k as u128 / n as u128;
            let mut end = start;
            while end < costs.len() && (acc < target || k == n) {
                acc += costs[end].max(1) as u128;
                end += 1;
            }
            parts.push(it.by_ref().take(end - start).collect());
            start = end;
        }
        Dataset::from_parts(self.clone(), parts.into_iter().map(Arc::new).collect())
    }

    /// [`Context::parallelize_by_cost`] with the default partition count.
    pub fn parallelize_by_cost_default<T: Send + Sync>(
        &self,
        data: Vec<T>,
        costs: &[u64],
    ) -> Dataset<T> {
        self.parallelize_by_cost(data, costs, self.default_partitions)
    }

    /// An empty dataset with one (empty) partition.
    pub fn empty<T: Send + Sync>(&self) -> Dataset<T> {
        Dataset::from_parts(self.clone(), vec![Arc::new(Vec::new())])
    }

    /// Create a broadcast variable visible to every task.
    ///
    /// Accepts either an owned `T` (wrapped in a fresh `Arc`) or an
    /// `Arc<T>` the driver already shares — the latter is adopted without
    /// cloning the payload, so broadcasting a large read-only structure
    /// (e.g. a block graph) costs a refcount bump.
    pub fn broadcast<T>(&self, value: impl Into<Broadcast<T>>) -> Broadcast<T> {
        self.metrics.record_broadcast();
        value.into()
    }

    /// Create a named accumulator tasks can bump and the driver can read.
    pub fn accumulator(&self, name: &str) -> Accumulator {
        Accumulator::new(name)
    }
}

/// Split `0..n` into one contiguous range per worker of `ctx` — range `i`
/// of `k` is `i·n/k .. (i+1)·n/k` — run `f` on every range as one narrow
/// stage on the context's pool, and return the results in range order.
/// Without a context, with one worker or with `n ≤ 1` there is one range,
/// run on the calling thread. Range-parallel passes whose per-range
/// outputs are merged in order (the token pass, the CSR block clean, the
/// matcher's view build) use this; their results do not depend on the
/// range count.
pub fn map_ranges<R, F>(ctx: Option<&Context>, n: usize, f: F) -> Vec<R>
where
    R: Send + Sync + Clone,
    F: Fn(Range<usize>) -> R + Send + Sync,
{
    let parts = ctx.map_or(1, |c| c.workers().min(n)).max(1);
    match ctx {
        Some(ctx) if parts > 1 => ctx
            .parallelize((0..parts).collect(), parts)
            .map(|&i| f(i * n / parts..(i + 1) * n / parts))
            .into_partitions()
            .into_iter()
            .flatten()
            .collect(),
        _ => vec![f(0..n)],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_ranges_cuts_contiguous_ranges_in_order() {
        let ctx = Context::new(3);
        assert_eq!(map_ranges(Some(&ctx), 7, |r| r), vec![0..2, 2..4, 4..7]);
        assert_eq!(map_ranges(Some(&ctx), 2, |r| r), vec![0..1, 1..2]);
        assert_eq!(map_ranges(Some(&ctx), 0, |r| r), vec![0..0]);
        assert_eq!(map_ranges(None, 7, |r| r.len()), vec![7]);
    }

    #[test]
    fn parallelize_preserves_order_and_balances() {
        let ctx = Context::new(4);
        let ds = ctx.parallelize((0..10).collect::<Vec<_>>(), 4);
        assert_eq!(ds.num_partitions(), 4);
        assert_eq!(ds.partition_sizes(), vec![3, 3, 2, 2]);
        assert_eq!(ds.collect(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn parallelize_more_partitions_than_records() {
        let ctx = Context::new(2);
        let ds = ctx.parallelize(vec![1, 2], 5);
        assert_eq!(ds.num_partitions(), 5);
        assert_eq!(ds.collect(), vec![1, 2]);
        assert_eq!(ds.partition_sizes().iter().sum::<usize>(), 2);
    }

    #[test]
    fn parallelize_by_cost_balances_skewed_costs() {
        let ctx = Context::new(2);
        // One hub record worth 90% of the work at the front.
        let costs = [90u64, 2, 2, 2, 2, 2];
        let ds = ctx.parallelize_by_cost((0..6).collect::<Vec<_>>(), &costs, 2);
        assert_eq!(ds.num_partitions(), 2);
        // The hub alone crosses the 50% quantile: it gets its own chunk.
        assert_eq!(ds.partition_sizes(), vec![1, 5]);
        assert_eq!(ds.collect(), (0..6).collect::<Vec<_>>());
    }

    #[test]
    fn parallelize_by_cost_uniform_costs_match_equal_count() {
        let ctx = Context::new(4);
        let costs = vec![1u64; 10];
        let ds = ctx.parallelize_by_cost((0..10).collect::<Vec<_>>(), &costs, 4);
        // Quantile cuts at 2.5/5/7.5 → ceil boundaries 3/5/8.
        assert_eq!(ds.partition_sizes().iter().sum::<usize>(), 10);
        assert_eq!(ds.collect(), (0..10).collect::<Vec<_>>());
        assert!(ds.partition_sizes().iter().all(|&s| (2..=3).contains(&s)));
    }

    #[test]
    fn parallelize_by_cost_zero_costs_still_distribute() {
        let ctx = Context::new(2);
        let ds = ctx.parallelize_by_cost((0..8).collect::<Vec<_>>(), &[0u64; 8], 4);
        assert_eq!(ds.num_partitions(), 4);
        assert_eq!(ds.partition_sizes(), vec![2, 2, 2, 2]);
        assert_eq!(ds.collect(), (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn parallelize_by_cost_empty_and_clamped() {
        let ctx = Context::new(2);
        let ds: Dataset<u8> = ctx.parallelize_by_cost(Vec::new(), &[], 0);
        assert_eq!(ds.num_partitions(), 1);
        assert!(ds.collect().is_empty());
        let ds = ctx.parallelize_by_cost_default(vec![1, 2, 3], &[5, 1, 1]);
        assert_eq!(ds.num_partitions(), ctx.default_partitions());
        assert_eq!(ds.collect(), vec![1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "one cost per record")]
    fn parallelize_by_cost_length_mismatch_rejected() {
        let ctx = Context::new(2);
        let _ = ctx.parallelize_by_cost(vec![1, 2, 3], &[1u64], 2);
    }

    #[test]
    fn zero_partitions_clamped() {
        let ctx = Context::new(2);
        let ds = ctx.parallelize(vec![1, 2, 3], 0);
        assert_eq!(ds.num_partitions(), 1);
    }

    #[test]
    fn empty_dataset() {
        let ctx = Context::new(2);
        let ds: Dataset<u8> = ctx.empty();
        assert_eq!(ds.count(), 0);
        assert!(ds.collect().is_empty());
    }

    #[test]
    fn broadcast_counted_in_metrics() {
        let ctx = Context::new(2);
        let _b = ctx.broadcast(42);
        let _b2 = ctx.broadcast("x");
        assert_eq!(ctx.metrics().broadcasts, 2);
        ctx.reset_metrics();
        assert_eq!(ctx.metrics().broadcasts, 0);
    }

    #[test]
    fn default_partitions_follow_workers() {
        assert_eq!(Context::new(3).default_partitions(), 6);
        assert_eq!(Context::with_partitions(3, 5).default_partitions(), 5);
        assert_eq!(Context::with_partitions(3, 0).default_partitions(), 1);
    }
}
