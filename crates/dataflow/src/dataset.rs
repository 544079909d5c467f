//! Partitioned datasets: narrow and wide (shuffle) operators plus actions.

use crate::context::Context;
use crate::metrics::StageMetrics;
use crate::partition_for;
use crate::pool::StageStats;
use crate::spill::{SpillCodec, SpilledBuckets};
use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Arc;
use std::time::Instant;

/// An eagerly evaluated, immutable, partitioned collection.
///
/// `Dataset` mirrors Spark's RDD: transformations produce new datasets and
/// run as parallel stages on the owning [`Context`]'s worker pool. Unlike
/// Spark, evaluation is eager — every operator call is one stage — which
/// keeps the engine simple and makes per-stage metrics trivially exact.
///
/// Partitions are reference-counted, so cheap operations like
/// [`Dataset::union`] never copy data. Wide (shuffle) operators **consume**
/// the dataset: when a partition's reference count is 1 — the common case
/// of a freshly produced intermediate — its records are *moved* through the
/// shuffle instead of cloned. Keep a `.clone()` (cheap: `Arc` bumps) if you
/// need the input again.
pub struct Dataset<T> {
    ctx: Context,
    parts: Vec<Arc<Vec<T>>>,
}

impl<T> Clone for Dataset<T> {
    fn clone(&self) -> Self {
        Dataset {
            ctx: self.ctx.clone(),
            parts: self.parts.clone(),
        }
    }
}

/// One completed stage's metrics row; wide operators fill in
/// `shuffle_records` and `buffered_bytes` (the shuffle buffers' high-water
/// against the context's memory budget) on top.
fn stage_row(
    name: &str,
    tasks: usize,
    input_records: u64,
    output_records: u64,
    t0: Instant,
    stats: StageStats,
) -> StageMetrics {
    StageMetrics {
        name: name.to_string(),
        tasks,
        input_records,
        output_records,
        shuffle_records: 0,
        buffered_bytes: 0,
        wall_time: t0.elapsed(),
        busy_time: stats.busy_time,
        queue_wait: stats.queue_wait,
        per_worker_busy: stats.per_worker_busy,
    }
}

/// Total record count of a partition list.
fn records<T, P: Borrow<Vec<T>>>(parts: &[P]) -> u64 {
    parts.iter().map(|p| p.borrow().len() as u64).sum()
}

impl<T: Send + Sync> Dataset<T> {
    pub(crate) fn from_parts(ctx: Context, parts: Vec<Arc<Vec<T>>>) -> Self {
        debug_assert!(!parts.is_empty());
        Dataset { ctx, parts }
    }

    /// The context this dataset executes on.
    pub fn context(&self) -> &Context {
        &self.ctx
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.parts.len()
    }

    /// Record count per partition, in partition order.
    pub fn partition_sizes(&self) -> Vec<usize> {
        self.parts.iter().map(|p| p.len()).collect()
    }

    /// Total number of records (an action; computed without a stage).
    pub fn count(&self) -> usize {
        self.parts.iter().map(|p| p.len()).sum()
    }

    /// `true` if the dataset holds no records.
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// Run one narrow stage: `f(partition_index, partition) -> new partition`.
    fn narrow_stage<U, F>(&self, name: &str, f: F) -> Dataset<U>
    where
        U: Send + Sync,
        F: Fn(usize, &[T]) -> Vec<U> + Send + Sync,
    {
        let t0 = Instant::now();
        let (out, stats) = self
            .ctx
            .pool()
            .run_with_stats(self.parts.len(), |i| f(i, self.parts[i].as_slice()));
        let (tasks, input) = (self.parts.len(), self.count() as u64);
        let row = stage_row(name, tasks, input, records(&out), t0, stats);
        self.ctx.metrics_sink().record_stage(row);
        Dataset::from_parts(self.ctx.clone(), out.into_iter().map(Arc::new).collect())
    }

    /// Apply `f` to every record.
    pub fn map<U, F>(&self, f: F) -> Dataset<U>
    where
        U: Send + Sync,
        F: Fn(&T) -> U + Send + Sync,
    {
        self.narrow_stage("map", |_, p| p.iter().map(&f).collect())
    }

    /// Apply `f` to every record and flatten the results.
    pub fn flat_map<U, I, F>(&self, f: F) -> Dataset<U>
    where
        U: Send + Sync,
        I: IntoIterator<Item = U>,
        F: Fn(&T) -> I + Send + Sync,
    {
        self.narrow_stage("flat_map", |_, p| p.iter().flat_map(&f).collect())
    }

    /// Transform whole partitions at once (`f(partition_index, records)`).
    pub fn map_partitions<U, F>(&self, f: F) -> Dataset<U>
    where
        U: Send + Sync,
        F: Fn(usize, &[T]) -> Vec<U> + Send + Sync,
    {
        self.narrow_stage("map_partitions", f)
    }

    /// Morsel-granular narrow stage, recorded under the stage `name`: split
    /// every partition into contiguous runs of at most `grain` records and
    /// make each run its own pool task, claimed dynamically off the stage's
    /// atomic counter.
    ///
    /// With one task per partition (`map_partitions`), a stage's wall-clock
    /// is the *heaviest partition*; with morsels it tracks *total work*,
    /// because a worker that finishes a cheap morsel immediately claims the
    /// next one — the standard morsel-driven remedy for skew. `f` receives
    /// the executing **worker slot** (stable in `0..ctx.workers()`, one task
    /// per slot at a time) so callers can reuse per-worker scratch state
    /// (see [`crate::WorkerLocal`]) across morsels.
    ///
    /// Output is deterministic: morsel results are written to slots and
    /// re-concatenated per input partition in record order, so the result
    /// equals `map_partitions` applied to the same per-record function —
    /// only the schedule changes, never the order.
    pub fn map_morsels_named<U, F>(&self, name: &str, grain: usize, f: F) -> Dataset<U>
    where
        U: Send + Sync,
        F: Fn(usize, &[T]) -> Vec<U> + Send + Sync,
    {
        let grain = grain.max(1);
        let t0 = Instant::now();
        // Morsel descriptors, partition-major: (partition, start, end).
        // Ceil-divide within each partition so morsel sizes differ by ≤ 1.
        let mut morsels: Vec<(usize, usize, usize)> = Vec::new();
        let mut morsels_per_part: Vec<usize> = Vec::with_capacity(self.parts.len());
        for (p, part) in self.parts.iter().enumerate() {
            let count = part.len().div_ceil(grain).max(1);
            morsels_per_part.push(count);
            let base = part.len() / count;
            let extra = part.len() % count;
            let mut start = 0usize;
            for m in 0..count {
                let end = start + base + usize::from(m < extra);
                morsels.push((p, start, end));
                start = end;
            }
        }
        let (out, stats) = self.ctx.pool().run_on_workers(morsels.len(), |worker, t| {
            let (p, start, end) = morsels[t];
            f(worker, &self.parts[p][start..end])
        });
        let produced = records(&out);
        let mut parts: Vec<Vec<U>> = Vec::with_capacity(self.parts.len());
        let mut it = out.into_iter();
        for count in morsels_per_part {
            let mut merged: Vec<U> = Vec::new();
            for chunk in it.by_ref().take(count) {
                if merged.is_empty() {
                    merged = chunk;
                } else {
                    merged.extend(chunk);
                }
            }
            parts.push(merged);
        }
        let input = self.count() as u64;
        let row = stage_row(name, morsels.len(), input, produced, t0, stats);
        self.ctx.metrics_sink().record_stage(row);
        Dataset::from_parts(self.ctx.clone(), parts.into_iter().map(Arc::new).collect())
    }

    /// Execute `f` once per record for its side effects (an action).
    pub fn for_each<F>(&self, f: F)
    where
        F: Fn(&T) + Send + Sync,
    {
        let t0 = Instant::now();
        let (_, stats) = self.ctx.pool().run_with_stats(self.parts.len(), |i| {
            self.parts[i].iter().for_each(&f);
        });
        let (tasks, input) = (self.parts.len(), self.count() as u64);
        let row = stage_row("for_each", tasks, input, 0, t0, stats);
        self.ctx.metrics_sink().record_stage(row);
    }

    /// Gather all records to the caller in partition order.
    pub fn collect(&self) -> Vec<T>
    where
        T: Clone,
    {
        let mut out = Vec::with_capacity(self.count());
        for p in &self.parts {
            out.extend(p.iter().cloned());
        }
        out
    }

    /// Consume the dataset and return its partitions as owned vectors, in
    /// partition order. Uniquely held partitions (the common case of a
    /// fresh intermediate) are moved out without copying; shared ones are
    /// cloned. Used where the partition boundaries themselves carry meaning
    /// — e.g. merging per-partition result shards shard-by-shard.
    pub fn into_partitions(self) -> Vec<Vec<T>>
    where
        T: Clone,
    {
        self.parts.into_iter().map(Arc::unwrap_or_clone).collect()
    }

    /// Concatenate two datasets (no data movement; partitions are shared).
    pub fn union(&self, other: &Dataset<T>) -> Dataset<T> {
        let mut parts = self.parts.clone();
        parts.extend(other.parts.iter().cloned());
        Dataset::from_parts(self.ctx.clone(), parts)
    }
}

// ---------------------------------------------------------------------------
// Keyed (shuffle) operators.
// ---------------------------------------------------------------------------

/// Hash-shuffle owned partitions into the context's default number of
/// target buckets, with byte accounting against its [`crate::MemBudget`].
///
/// Records are routed by `hash(key) % n`; within each target bucket,
/// records appear in (input partition, input offset) order, which makes
/// every downstream grouping deterministic. A partition whose `Arc` is
/// uniquely held is unwrapped and its records *moved* into the buckets;
/// shared partitions fall back to per-record cloning.
///
/// Each map task reserves its buckets' exact encoded size; when the
/// reservation would exceed the budget, that input partition's buckets are
/// spilled to the run-scoped temp dir in the [`SpillCodec`] batch format
/// and streamed back on the reduce side. The codec round-trip is
/// bit-exact, so the output is byte-identical whether or not anything
/// spilled — the resident/spilled decision (which depends on task
/// completion order) only moves bytes between RAM and disk.
fn shuffle<K, V>(ctx: &Context, parts: Vec<Arc<Vec<(K, V)>>>) -> (Vec<Vec<(K, V)>>, StageStats)
where
    K: Clone + Hash + Send + Sync,
    V: Clone + Send + Sync,
    (K, V): SpillCodec,
{
    let n = ctx.default_partitions();
    let budget = ctx.budget().clone();
    enum MapOutput<T> {
        Resident { buckets: Vec<Vec<T>>, bytes: u64 },
        Spilled(SpilledBuckets),
    }
    // Map side: bucket each input partition, then keep it in RAM only if
    // the budget still has room for its bytes.
    let (bucketed, stats) = ctx.pool().run_owned(parts, |_, part| {
        let mut buckets: Vec<Vec<(K, V)>> = (0..n).map(|_| Vec::new()).collect();
        let mut bytes = 0u64;
        let mut push = |record: (K, V)| {
            bytes += record.encoded_len() as u64;
            buckets[partition_for(&record.0, n)].push(record);
        };
        match Arc::try_unwrap(part) {
            Ok(owned) => owned.into_iter().for_each(&mut push),
            Err(shared) => shared.iter().cloned().for_each(&mut push),
        }
        if budget.try_reserve(bytes) {
            MapOutput::Resident { buckets, bytes }
        } else {
            let spilled = SpilledBuckets::write(&budget, &buckets).expect("spill shuffle buckets");
            MapOutput::Spilled(spilled)
        }
    });
    // Reduce side: concatenate per-target buckets in input order,
    // streaming spilled ones back from disk.
    let mut targets: Vec<Vec<(K, V)>> = (0..n).map(|_| Vec::new()).collect();
    for input in bucketed {
        match input {
            MapOutput::Resident { buckets, bytes } => {
                for (j, bucket) in buckets.into_iter().enumerate() {
                    targets[j].extend(bucket);
                }
                budget.release(bytes);
            }
            MapOutput::Spilled(spilled) => {
                for (j, target) in targets.iter_mut().enumerate() {
                    spilled
                        .read_bucket_into(j, target)
                        .expect("read spilled shuffle bucket");
                }
            }
        }
    }
    (targets, stats)
}

impl<K, V> Dataset<(K, V)>
where
    K: Clone + Hash + Eq + Send + Sync,
    V: Clone + Send + Sync,
    (K, V): SpillCodec,
{
    /// Group values by key. Keys keep first-seen order inside each output
    /// partition; values keep input order. The shuffle spills to disk over
    /// the context's memory budget (output byte-identical at any budget);
    /// the stage row carries the buffered-bytes high-water.
    pub fn group_by_key(self) -> Dataset<(K, Vec<V>)> {
        let t0 = Instant::now();
        let Dataset { ctx, parts } = self;
        let (tasks, input) = (parts.len(), records(&parts));
        ctx.budget().begin_op();
        let (shuffled, map_stats) = shuffle(&ctx, parts);
        let moved = records(&shuffled);
        let (grouped, reduce_stats) = ctx
            .pool()
            .run_owned(shuffled, |_, bucket| group_preserving_order(bucket));
        let stats = map_stats + reduce_stats;
        let row = stage_row("group_by_key", tasks, input, records(&grouped), t0, stats);
        ctx.metrics_sink().record_stage(StageMetrics {
            shuffle_records: moved,
            buffered_bytes: ctx.budget().op_high_water(),
            ..row
        });
        Dataset::from_parts(ctx, grouped.into_iter().map(Arc::new).collect())
    }

    /// Merge values per key with map-side combining (Spark `reduceByKey`).
    ///
    /// `combine` must be associative; commutativity is not required because
    /// values are combined in deterministic input order.
    pub fn reduce_by_key<F>(self, combine: F) -> Dataset<(K, V)>
    where
        F: Fn(V, &V) -> V + Send + Sync,
    {
        let t0 = Instant::now();
        let Dataset { ctx, parts } = self;
        let (tasks, input) = (parts.len(), records(&parts));
        let fold_groups = |pairs: Vec<(K, V)>| {
            group_preserving_order(pairs)
                .into_iter()
                .map(|(k, vs)| {
                    let mut it = vs.into_iter();
                    let first = it.next().expect("group is never empty");
                    (k, it.fold(first, |acc, v| combine(acc, &v)))
                })
                .collect::<Vec<(K, V)>>()
        };
        // Map-side combine shrinks the shuffle.
        let (combined, pre_stats) = ctx
            .pool()
            .run_owned(parts, |_, part| fold_groups(Arc::unwrap_or_clone(part)));
        ctx.budget().begin_op();
        // The combined partitions are freshly built, so wrapping them in new
        // `Arc`s keeps the shuffle on the owned (move) path.
        let (shuffled, map_stats) = shuffle(&ctx, combined.into_iter().map(Arc::new).collect());
        let moved = records(&shuffled);
        let (reduced, reduce_stats) = ctx.pool().run_owned(shuffled, |_, b| fold_groups(b));
        let stats = pre_stats + map_stats + reduce_stats;
        let row = stage_row("reduce_by_key", tasks, input, records(&reduced), t0, stats);
        ctx.metrics_sink().record_stage(StageMetrics {
            shuffle_records: moved,
            buffered_bytes: ctx.budget().op_high_water(),
            ..row
        });
        Dataset::from_parts(ctx, reduced.into_iter().map(Arc::new).collect())
    }

    /// Group this dataset and `other` by key simultaneously: one record per
    /// key appearing on either side, in first-seen order (all of `self`'s
    /// records before `other`'s within each target partition).
    #[allow(clippy::type_complexity)]
    fn cogroup<W>(self, other: &Dataset<(K, W)>) -> Dataset<(K, (Vec<V>, Vec<W>))>
    where
        W: Clone + Send + Sync,
        (K, W): SpillCodec,
    {
        let t0 = Instant::now();
        let Dataset { ctx, parts } = self;
        let tasks = parts.len().max(other.parts.len());
        let input = records(&parts) + other.count() as u64;
        ctx.budget().begin_op();
        let (left, left_stats) = shuffle(&ctx, parts);
        let (right, right_stats) = shuffle(&ctx, other.parts.clone());
        let moved = records(&left) + records(&right);
        let zipped: Vec<(Vec<(K, V)>, Vec<(K, W)>)> = left.into_iter().zip(right).collect();
        let (merged, merge_stats) = ctx.pool().run_owned(zipped, |_, (lv, rv)| {
            let mut index: HashMap<K, usize> = HashMap::new();
            let mut out: Vec<(K, (Vec<V>, Vec<W>))> = Vec::new();
            for (k, v) in lv {
                let slot = *index.entry(k.clone()).or_insert_with(|| {
                    out.push((k, (Vec::new(), Vec::new())));
                    out.len() - 1
                });
                out[slot].1 .0.push(v);
            }
            for (k, w) in rv {
                let slot = *index.entry(k.clone()).or_insert_with(|| {
                    out.push((k, (Vec::new(), Vec::new())));
                    out.len() - 1
                });
                out[slot].1 .1.push(w);
            }
            out
        });
        let stats = left_stats + right_stats + merge_stats;
        let row = stage_row("cogroup", tasks, input, records(&merged), t0, stats);
        ctx.metrics_sink().record_stage(StageMetrics {
            shuffle_records: moved,
            buffered_bytes: ctx.budget().op_high_water(),
            ..row
        });
        Dataset::from_parts(ctx, merged.into_iter().map(Arc::new).collect())
    }

    /// Inner join on key: one output record per (left value, right value)
    /// pair of a shared key. Both sides go through the budgeted shuffle.
    pub fn join<W>(self, other: &Dataset<(K, W)>) -> Dataset<(K, (V, W))>
    where
        W: Clone + Send + Sync,
        (K, W): SpillCodec,
    {
        self.cogroup(other).narrow_stage("join", |_, p| {
            let mut out = Vec::new();
            for (k, (vs, ws)) in p {
                for v in vs {
                    for w in ws {
                        out.push((k.clone(), (v.clone(), w.clone())));
                    }
                }
            }
            out
        })
    }
}

/// Group `(K, V)` pairs preserving first-seen key order and input value
/// order — the deterministic grouping kernel shared by the shuffle
/// operators.
fn group_preserving_order<K: Hash + Eq, V>(pairs: Vec<(K, V)>) -> Vec<(K, Vec<V>)> {
    // First pass: assign every record a group slot, borrowing the keys so
    // no key is cloned.
    let mut index: HashMap<&K, usize> = HashMap::with_capacity(pairs.len());
    let mut slots: Vec<usize> = Vec::with_capacity(pairs.len());
    let mut num_groups = 0usize;
    for (k, _) in &pairs {
        let slot = *index.entry(k).or_insert_with(|| {
            let s = num_groups;
            num_groups += 1;
            s
        });
        slots.push(slot);
    }
    drop(index);
    // Second pass: move keys and values into their groups.
    let mut out: Vec<Option<(K, Vec<V>)>> = (0..num_groups).map(|_| None).collect();
    for ((k, v), slot) in pairs.into_iter().zip(slots) {
        match &mut out[slot] {
            Some((_, vs)) => vs.push(v),
            empty => *empty = Some((k, vec![v])),
        }
    }
    out.into_iter()
        .map(|g| g.expect("every group slot is filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemBudget;
    use std::collections::BTreeMap;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Duration;

    fn ctx() -> Context {
        Context::with_partitions(4, 5)
    }

    /// A 64-byte budget (far below any test's data) and an unlimited one.
    fn tiny_and_unlimited() -> (MemBudget, MemBudget) {
        (MemBudget::limited(64), MemBudget::unlimited())
    }

    #[test]
    fn map_and_collect() {
        let ds = ctx().parallelize((1..=6).collect::<Vec<i64>>(), 3);
        assert_eq!(ds.map(|x| x * 10).collect(), vec![10, 20, 30, 40, 50, 60]);
    }

    #[test]
    fn flat_map_flattens_in_order() {
        let ds = ctx().parallelize(vec![1, 2, 3], 2);
        let out = ds.flat_map(|x| vec![*x; *x as usize]).collect();
        assert_eq!(out, vec![1, 2, 2, 3, 3, 3]);
    }

    #[test]
    fn map_partitions_sees_partition_index() {
        let ds = ctx().parallelize(vec![(); 8], 4);
        let out = ds.map_partitions(|i, p| vec![(i, p.len())]).collect();
        assert_eq!(out, vec![(0, 2), (1, 2), (2, 2), (3, 2)]);
    }

    #[test]
    fn group_by_key_groups_all_values_deterministically() {
        let pairs: Vec<(u32, u32)> = (0..100).map(|i| (i % 7, i)).collect();
        let ds = ctx().parallelize(pairs, 6);
        let grouped = ds.group_by_key();
        let mut out = grouped.collect();
        out.sort_by_key(|(k, _)| *k);
        assert_eq!(out.len(), 7);
        for (k, vs) in &out {
            let expected: Vec<u32> = (0..100).filter(|i| i % 7 == *k).collect();
            assert_eq!(vs, &expected, "values for key {k} keep input order");
        }
        // Same result regardless of worker count.
        let seq = Context::with_partitions(1, 5)
            .parallelize((0..100).map(|i| (i % 7, i)).collect(), 6)
            .group_by_key()
            .collect();
        assert_eq!(grouped.collect(), seq);
    }

    #[test]
    fn spillable_group_by_key_matches_plain_when_spilling() {
        // A budget far below the data size: every map task must spill; the
        // output must equal the unlimited (resident) run element-wise.
        let (tiny, unlimited) = tiny_and_unlimited();
        let pairs: Vec<(String, u64)> = (0..200).map(|i| (format!("key-{}", i % 11), i)).collect();
        let run = |budget: &MemBudget| {
            Context::with_partitions(4, 5)
                .with_budget(budget.clone())
                .parallelize(pairs.clone(), 6)
                .group_by_key()
                .collect()
        };
        let resident = run(&unlimited);
        let spilled = run(&tiny);
        assert_eq!(spilled, resident);
        assert_eq!(unlimited.spill_batches(), 0);
        assert!(tiny.spill_batches() > 0, "tiny budget forces spilling");
        assert!(tiny.spilled_bytes() > 0);
        assert_eq!(tiny.tracked_bytes(), 0, "all reservations released");
        let mut model: BTreeMap<String, Vec<u64>> = BTreeMap::new();
        for (k, v) in pairs {
            model.entry(k).or_default().push(v);
        }
        assert_eq!(spilled.into_iter().collect::<BTreeMap<_, _>>(), model);
    }

    #[test]
    fn spillable_group_by_key_stays_resident_when_unlimited() {
        let budget = MemBudget::unlimited();
        let c = Context::with_partitions(4, 5).with_budget(budget.clone());
        let pairs: Vec<(u32, u32)> = (0..100).map(|i| (i % 7, i)).collect();
        let grouped = c.parallelize(pairs, 6).group_by_key().collect();
        assert_eq!(grouped.len(), 7);
        assert_eq!(budget.spill_batches(), 0, "unlimited never spills");
        assert!(
            budget.run_high_water() > 0,
            "buffered bytes are tracked even without a limit"
        );
        assert_eq!(budget.tracked_bytes(), 0);
        // The stage row carries the buffered high-water.
        let snap = c.metrics();
        let stage = snap
            .stages
            .iter()
            .find(|s| s.name == "group_by_key")
            .expect("stage recorded");
        assert_eq!(stage.buffered_bytes, budget.run_high_water());
    }

    #[test]
    fn reduce_by_key_matches_group_then_fold() {
        let pairs: Vec<(String, u64)> = (0..50).map(|i| (format!("k{}", i % 4), i)).collect();
        let ds = ctx().parallelize(pairs, 5);
        let mut reduced = ds.reduce_by_key(|a, b| a + b).collect();
        reduced.sort();
        let mut expected: HashMap<String, u64> = HashMap::new();
        for i in 0..50u64 {
            *expected.entry(format!("k{}", i % 4)).or_default() += i;
        }
        let mut expected: Vec<(String, u64)> = expected.into_iter().collect();
        expected.sort();
        assert_eq!(reduced, expected);
    }

    #[test]
    fn reduce_by_key_spills_and_matches_unlimited() {
        let (tiny, unlimited) = tiny_and_unlimited();
        let pairs: Vec<(u32, u64)> = (0..300u64).map(|i| ((i % 13) as u32, i)).collect();
        let run = |budget: &MemBudget| {
            Context::with_partitions(4, 5)
                .with_budget(budget.clone())
                .parallelize(pairs.clone(), 6)
                .reduce_by_key(|a, b| a + b)
                .collect()
        };
        let resident = run(&unlimited);
        assert_eq!(run(&tiny), resident, "element-wise, in order");
        assert_eq!(unlimited.spill_batches(), 0);
        assert!(tiny.spill_batches() > 0, "tiny budget forces spilling");
        assert_eq!(tiny.tracked_bytes(), 0, "all reservations released");
        assert_eq!(unlimited.tracked_bytes(), 0);
        let mut model: BTreeMap<u32, u64> = BTreeMap::new();
        for (k, v) in &pairs {
            *model.entry(*k).or_default() += v;
        }
        assert_eq!(resident.into_iter().collect::<BTreeMap<_, _>>(), model);
    }

    #[test]
    fn join_produces_cross_product_per_key() {
        let c = ctx();
        let left = c.parallelize(vec![(1u32, b'a'), (1, b'b'), (2, b'c')], 2);
        let right = c.parallelize(vec![(1u32, 10u32), (2, 20), (2, 30), (3, 99)], 2);
        let mut out = left.join(&right).collect();
        out.sort();
        assert_eq!(
            out,
            vec![
                (1, (b'a', 10)),
                (1, (b'b', 10)),
                (2, (b'c', 20)),
                (2, (b'c', 30))
            ]
        );
    }

    #[test]
    fn join_spills_and_matches_unlimited() {
        let (tiny, unlimited) = tiny_and_unlimited();
        let left: Vec<(u32, u32)> = (0..120).map(|i| (i % 17, i)).collect();
        let right: Vec<(u32, String)> = (0..80).map(|i| (i % 23, format!("r{i}"))).collect();
        let run = |budget: &MemBudget| {
            let c = Context::with_partitions(4, 5).with_budget(budget.clone());
            let r = c.parallelize(right.clone(), 3);
            c.parallelize(left.clone(), 4).join(&r).collect()
        };
        let resident = run(&unlimited);
        assert_eq!(run(&tiny), resident, "element-wise, in order");
        assert_eq!(unlimited.spill_batches(), 0);
        assert!(tiny.spill_batches() > 0, "tiny budget forces spilling");
        assert_eq!(tiny.tracked_bytes(), 0, "all reservations released");
        let mut expected: Vec<(u32, (u32, String))> = Vec::new();
        for (kl, vl) in &left {
            for (kr, vr) in &right {
                if kl == kr {
                    expected.push((*kl, (*vl, vr.clone())));
                }
            }
        }
        expected.sort();
        let mut sorted = resident;
        sorted.sort();
        assert_eq!(sorted, expected);
    }

    #[test]
    fn cogroup_covers_keys_on_either_side() {
        let c = ctx();
        let left = c.parallelize(vec![(1u32, b'x')], 1);
        let right = c.parallelize(vec![(2u32, b'y')], 1);
        let mut out = left.cogroup(&right).collect();
        out.sort_by_key(|(k, _)| *k);
        assert_eq!(
            out,
            vec![(1, (vec![b'x'], vec![])), (2, (vec![], vec![b'y']))]
        );
    }

    #[test]
    fn union_concatenates() {
        let c = ctx();
        let a = c.parallelize(vec![1, 2], 1);
        let b = c.parallelize(vec![3], 1);
        assert_eq!(a.union(&b).collect(), vec![1, 2, 3]);
        assert_eq!(a.union(&b).num_partitions(), 2);
    }

    #[test]
    fn metrics_track_stages_and_shuffles() {
        let c = Context::with_partitions(2, 3);
        let ds = c.parallelize((0..30).map(|i| (i % 5, i)).collect::<Vec<_>>(), 4);
        ds.group_by_key();
        let snap = c.metrics();
        assert_eq!(snap.stages.len(), 1);
        assert_eq!(snap.stages[0].name, "group_by_key");
        assert_eq!(snap.stages[0].shuffle_records, 30);
        assert_eq!(snap.stages[0].output_records, 5);
    }

    #[test]
    fn stage_metrics_include_busy_and_worker_times() {
        let c = Context::with_partitions(2, 3);
        let ds = c.parallelize((0..100_000u64).collect::<Vec<_>>(), 4);
        let total = AtomicU64::new(0);
        ds.for_each(|x| {
            total.fetch_add(*x, Ordering::Relaxed);
        });
        assert!(total.load(Ordering::Relaxed) > 0);
        let snap = c.metrics();
        assert_eq!(snap.stages[0].name, "for_each");
        assert!(snap.stages[0].busy_time > Duration::ZERO);
        assert_eq!(
            snap.worker_busy.len(),
            2,
            "one busy counter per worker slot"
        );
        assert!(snap.total_busy_time() > Duration::ZERO);
    }

    /// A value whose clones are counted, to pin the zero-copy fast paths.
    #[derive(Debug)]
    struct Tracked {
        id: u32,
        clones: Arc<AtomicU64>,
    }

    impl PartialEq for Tracked {
        fn eq(&self, other: &Self) -> bool {
            self.id == other.id
        }
    }
    impl Eq for Tracked {}
    impl std::hash::Hash for Tracked {
        fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
            self.id.hash(state);
        }
    }

    impl Clone for Tracked {
        fn clone(&self) -> Self {
            self.clones.fetch_add(1, Ordering::Relaxed);
            Tracked {
                id: self.id,
                clones: Arc::clone(&self.clones),
            }
        }
    }

    /// The shuffle sizes every record with the codec. The zero-copy tests
    /// run unspilled, so only `encoded_len` is ever called; a decoded
    /// value would start a fresh clone counter.
    impl SpillCodec for Tracked {
        fn encoded_len(&self) -> usize {
            self.id.encoded_len()
        }
        fn encode(&self, out: &mut Vec<u8>) {
            self.id.encode(out);
        }
        fn decode(input: &mut &[u8]) -> Option<Self> {
            Some(Tracked {
                id: u32::decode(input)?,
                clones: Arc::default(),
            })
        }
    }

    fn tracked(n: u32) -> (Vec<Tracked>, Arc<AtomicU64>) {
        let counter = Arc::new(AtomicU64::new(0));
        let items = (0..n)
            .map(|id| Tracked {
                id,
                clones: Arc::clone(&counter),
            })
            .collect();
        (items, counter)
    }

    #[test]
    fn group_by_key_moves_uniquely_owned_partitions() {
        let (items, counter) = tracked(40);
        let pairs: Vec<(u32, Tracked)> = items.into_iter().map(|t| (t.id % 4, t)).collect();
        let grouped = ctx().parallelize(pairs, 4).group_by_key();
        assert_eq!(grouped.count(), 4);
        assert_eq!(
            counter.load(Ordering::Relaxed),
            0,
            "owned fast path must not clone values"
        );
    }

    #[test]
    fn group_by_key_clones_only_when_partitions_are_shared() {
        let (items, counter) = tracked(40);
        let pairs: Vec<(u32, Tracked)> = items.into_iter().map(|t| (t.id % 4, t)).collect();
        let ds = ctx().parallelize(pairs, 4);
        let _kept = ds.clone();
        ds.group_by_key();
        assert_eq!(
            counter.load(Ordering::Relaxed),
            40,
            "shared partitions clone each record exactly once"
        );
    }

    #[test]
    fn results_identical_across_worker_counts() {
        let build = |workers: usize| {
            let c = Context::with_partitions(workers, 7);
            let ds = c.parallelize((0..500u64).map(|i| (i % 13, i)).collect::<Vec<_>>(), 9);
            ds.group_by_key()
                .map(|(k, v)| (*k, v.iter().sum::<u64>()))
                .collect()
        };
        let base = build(1);
        assert_eq!(base.len(), 13);
        for w in [2, 4, 8] {
            assert_eq!(build(w), base, "workers={w}");
        }
    }

    #[test]
    fn group_preserving_order_kernel() {
        let groups = group_preserving_order(vec![("b", 1), ("a", 2), ("b", 3)]);
        assert_eq!(groups, vec![("b", vec![1, 3]), ("a", vec![2])]);
    }

    #[test]
    fn into_partitions_preserves_boundaries() {
        let c = Context::new(2);
        let ds = c.parallelize((0..10).collect::<Vec<_>>(), 4);
        let keep = ds.clone(); // shared handle: forces the clone path
        assert_eq!(
            ds.into_partitions(),
            vec![vec![0, 1, 2], vec![3, 4, 5], vec![6, 7], vec![8, 9]]
        );
        assert_eq!(keep.collect(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn map_morsels_matches_map_partitions() {
        let c = Context::with_partitions(4, 3);
        let ds = c.parallelize((0..103u64).collect::<Vec<_>>(), 3);
        let by_parts = ds.map_partitions(|_, p| p.iter().map(|x| x * 2).collect::<Vec<_>>());
        for grain in [1, 2, 7, 50, 1000] {
            let by_morsels =
                ds.map_morsels_named("m", grain, |_, p| p.iter().map(|x| x * 2).collect());
            assert_eq!(by_morsels.collect(), by_parts.collect(), "grain={grain}");
            assert_eq!(by_morsels.num_partitions(), ds.num_partitions());
            assert_eq!(by_morsels.partition_sizes(), ds.partition_sizes());
        }
    }

    #[test]
    fn map_morsels_records_one_task_per_morsel() {
        let c = Context::with_partitions(2, 2);
        let ds = c.parallelize((0..40u64).collect::<Vec<_>>(), 2);
        c.reset_metrics();
        ds.map_morsels_named("m", 5, |_, p| p.to_vec());
        let snap = c.metrics();
        assert_eq!(snap.stages[0].tasks, 8, "40 records / grain 5");
        assert_eq!(snap.stages[0].per_worker_busy.len(), 2);
    }

    #[test]
    fn map_morsels_named_records_custom_stage_name() {
        let c = Context::with_partitions(2, 2);
        let ds = c.parallelize((0..20u64).collect::<Vec<_>>(), 2);
        c.reset_metrics();
        let out = ds.map_morsels_named("match_candidates", 4, |_, p| p.to_vec());
        let snap = c.metrics();
        assert_eq!(snap.stages[0].name, "match_candidates");
        assert_eq!(out.collect(), (0..20u64).collect::<Vec<_>>());
    }

    #[test]
    fn map_morsels_worker_slots_are_valid() {
        let c = Context::new(4);
        let ds = c.parallelize((0..200u64).collect::<Vec<_>>(), 8);
        let slots = ds.map_morsels_named("m", 3, |worker, p| vec![worker; p.len()]);
        assert!(slots.collect().iter().all(|&w| w < 4));
    }

    #[test]
    fn map_morsels_empty_partitions_survive() {
        let c = Context::new(2);
        let ds = c.parallelize(vec![1u8, 2], 5);
        let out = ds.map_morsels_named("m", 4, |_, p| p.to_vec());
        assert_eq!(out.num_partitions(), 5);
        assert_eq!(out.collect(), vec![1, 2]);
    }

    #[test]
    fn map_morsels_identical_across_worker_counts() {
        let run = |workers: usize| {
            let c = Context::with_partitions(workers, 5);
            let ds = c.parallelize((0..301u64).collect::<Vec<_>>(), 5);
            ds.map_morsels_named("m", 8, |_, p| {
                p.iter().map(|x| x.wrapping_mul(31)).collect()
            })
            .collect()
        };
        let base = run(1);
        for w in [2, 4, 8] {
            assert_eq!(run(w), base, "workers={w}");
        }
    }
}
