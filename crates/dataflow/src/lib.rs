//! # sparker-dataflow
//!
//! A deterministic, in-process, partitioned dataflow engine with a Spark-like
//! API. This crate is the substrate on which the SparkER entity-resolution
//! pipeline is parallelised: the original system runs on Apache Spark, and
//! every SparkER algorithm is expressed as data-parallel operators over
//! partitions with explicit shuffles and broadcast variables. This engine
//! reproduces exactly that programming model on a single machine:
//!
//! * [`Context`] — entry point; owns the worker pool and execution metrics.
//! * [`Dataset<T>`] — an eagerly evaluated, partitioned collection supporting
//!   narrow transformations (`map`, `flat_map`, `filter`, `map_partitions`),
//!   wide (shuffle) transformations (`group_by_key`, `reduce_by_key`, `join`,
//!   `cogroup`, `distinct`, `repartition`), and actions (`collect`, `count`,
//!   `reduce`, `fold`).
//! * [`Broadcast<T>`] — a read-only value shared with every task, mirroring
//!   Spark broadcast variables (SparkER's parallel meta-blocking is built on
//!   a broadcast join).
//! * [`MemBudget`] — byte-level memory accounting with spill-to-disk for
//!   wide operators ([`Dataset::group_by_key_spillable`]), so shuffles run
//!   within a caller-specified RAM budget (`SPARKER_MEM_BUDGET_MB`); spilled
//!   batches use the length-prefixed [`SpillCodec`] format under a
//!   run-scoped temp dir that cleans up even on panic.
//! * [`ExecutionMetrics`] — per-stage task counts, record counts, shuffle
//!   volumes and timing (wall, worker-busy, queue-wait), used by the
//!   scalability experiments.
//!
//! ## Execution model: one persistent worker pool
//!
//! A [`Context`] owns a single [`WorkerPool`] whose threads are spawned
//! once (lazily, on the first parallel stage) and reused for every stage
//! until the context is dropped. Each stage is published to the pool as a
//! batch of independent tasks behind an atomic work queue: workers claim
//! task indices with a `fetch_add`, so scheduling is dynamic (good under
//! skew) while thread start-up costs are paid exactly once per context
//! rather than once per stage. The submitting thread participates as
//! worker 0, so a pool of `n` workers uses `n - 1` background threads and
//! never idles the caller. Entity-resolution pipelines are dominated by
//! many short stages (purging, filtering, per-block pruning), which is
//! precisely the shape that benefits.
//!
//! ## Skew-aware scheduling: cost hints + morsels
//!
//! Real blocking graphs have power-law degree skew, so equal-*count*
//! partitioning stalls a stage on its hub-heavy slice. Two mechanisms keep
//! stage wall-clock tracking total work instead of the heaviest partition:
//!
//! 1. **Cost-hinted partitioning** — [`Context::parallelize_by_cost`] cuts
//!    contiguous chunks at the prefix-sum quantiles of per-record cost
//!    weights, so partitions are balanced by *work*, not record count.
//! 2. **Morsel execution** — [`Dataset::map_morsels`] splits each partition
//!    into many small contiguous runs, each an independently claimed pool
//!    task; idle workers steal the next morsel off the atomic counter, and
//!    [`WorkerLocal`] gives every worker slot a reusable scratch value
//!    across the morsels it runs.
//!
//! Both are schedule-only: outputs stay slot-indexed, partition-major and
//! byte-identical to their equal-count, one-task-per-partition equivalents.
//! Per-stage [`StageMetrics::per_worker_busy`] records where the time
//! actually went, so balance is measured, not assumed.
//!
//! ## Determinism by slot indexing
//!
//! All operators produce results that are independent of the worker count.
//! Two mechanisms provide this:
//!
//! 1. **Slot indexing** — task `i` of a stage writes its result into slot
//!    `i` of a pre-sized output vector. Output order equals task order by
//!    construction, no matter which worker finishes first; there is no
//!    channel and no post-hoc sort.
//! 2. **Ordered shuffles** — shuffle buckets are concatenated in input
//!    partition order, grouping preserves first-seen key order, and
//!    [`partition_for`] is a pinned FNV-1a hash, stable across Rust
//!    releases and platforms.
//!
//! This lets the test-suite assert exact outputs while still exercising
//! real multi-threaded execution.
//!
//! ## Zero-copy wide operators
//!
//! Wide (shuffle) operators consume their input dataset. Partitions are
//! reference-counted; when an input partition is uniquely owned — the
//! common case of a freshly produced intermediate — the shuffle *moves*
//! records end-to-end (`Arc::try_unwrap` fast path) instead of cloning
//! them. Call `.clone()` on a dataset first (cheap `Arc` bumps) to keep
//! using it after a wide operator.
//!
//! ## Metrics
//!
//! Every stage records [`StageMetrics`]: task and record counts, shuffle
//! volume, wall-clock time, aggregate worker **busy time** and **queue
//! wait** (delay between stage publication and each worker's first claim).
//! [`Context::metrics`] additionally reports cumulative per-worker busy
//! time, so utilisation and skew are visible without external profilers.
//!
//! ## Example
//!
//! ```
//! use sparker_dataflow::Context;
//!
//! let ctx = Context::new(4);
//! let data = ctx.parallelize((0..100).collect::<Vec<_>>(), 8);
//! let doubled = data.map(|x| x * 2);
//! let sum: i32 = doubled.fold(0, |a, b| a + b);
//! assert_eq!(sum, 9900);
//! ```

mod accumulator;
mod broadcast;
mod budget;
mod context;
mod dataset;
mod fused;
mod metrics;
mod pool;
mod spill;
mod worker_local;

pub use accumulator::Accumulator;
pub use broadcast::Broadcast;
pub use budget::{MemBudget, SpillDir, MEM_BUDGET_ENV};
pub use context::{map_ranges, Context};
pub use dataset::{Dataset, KeyedDataset};
pub use fused::{fused_channel_capacity, pipelined_stage, FusedStageStats, MorselQueue};
pub use metrics::{ExecutionMetrics, MetricsSnapshot, StageMetrics};
pub use pool::{StageStats, WorkerPool};
pub use spill::{
    encoded_len_of, RunCursor, SpillCodec, SpillRun, SpilledBuckets, SPILL_BATCH_RECORDS,
};
pub use worker_local::WorkerLocal;

/// Hash a key to a shuffle partition index.
///
/// Exposed so that algorithm crates can co-partition hand-built structures
/// with engine-produced ones (e.g. the meta-blocking broadcast join).
///
/// The hash is a pinned FNV-1a over the key's `Hash` byte stream. The
/// standard library's `DefaultHasher` is explicitly *not* stable across
/// Rust releases, which would silently re-route records between partitions
/// (and change every golden shuffle output) on a toolchain upgrade; FNV-1a
/// with fixed constants gives the same routing forever.
pub fn partition_for<K: std::hash::Hash>(key: &K, num_partitions: usize) -> usize {
    use std::hash::Hasher;
    debug_assert!(num_partitions > 0);
    let mut h = Fnv1aHasher::default();
    key.hash(&mut h);
    (h.finish() as usize) % num_partitions
}

/// FNV-1a with the standard 64-bit offset basis and prime, byte-at-a-time.
struct Fnv1aHasher(u64);

impl Default for Fnv1aHasher {
    fn default() -> Self {
        Fnv1aHasher(0xCBF2_9CE4_8422_2325)
    }
}

impl std::hash::Hasher for Fnv1aHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_for_is_stable_and_in_range() {
        for n in 1..17usize {
            for k in 0..1000u64 {
                let p = partition_for(&k, n);
                assert!(p < n);
                assert_eq!(p, partition_for(&k, n));
            }
        }
    }

    /// Golden routing values. These pin the concrete FNV-1a output so a
    /// hasher regression (or an accidental return to the release-unstable
    /// `DefaultHasher`) fails loudly instead of silently re-partitioning.
    #[test]
    fn partition_for_matches_golden_values() {
        assert_eq!(partition_for(&0u64, 16), 5);
        assert_eq!(partition_for(&1u64, 16), 4);
        assert_eq!(partition_for(&42u64, 16), 15);
        assert_eq!(partition_for(&u64::MAX, 16), 13);
        assert_eq!(partition_for(&"", 7), 0);
        assert_eq!(partition_for(&"a", 7), 1);
        assert_eq!(partition_for(&"token", 7), 5);
        assert_eq!(partition_for(&"blocking", 7), 5);
        assert_eq!(partition_for(&(3u32, 7u32), 5), 2);
    }

    #[test]
    fn fnv1a_reference_vectors() {
        // Published FNV-1a/64 test vectors.
        let hash = |bytes: &[u8]| {
            use std::hash::Hasher;
            let mut h = Fnv1aHasher::default();
            h.write(bytes);
            h.finish()
        };
        assert_eq!(hash(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(hash(b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(hash(b"foobar"), 0x85944171F73967E8);
    }
}
