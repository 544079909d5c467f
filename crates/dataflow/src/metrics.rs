//! Execution metrics: per-stage task/record/shuffle/time accounting.
//!
//! The scalability experiments (DESIGN.md E8) read these counters to report
//! tasks, shuffled records and wall-clock per stage, mirroring what the
//! Spark UI exposes for the original SparkER. Since the move to the
//! persistent worker pool, each stage also reports aggregate worker busy
//! time and queue wait, and the snapshot carries cumulative per-worker busy
//! time — enough to compute utilisation (`busy / (workers * wall)`) and
//! spot skew without external profilers.

use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Metrics for one executed stage (one engine operator invocation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageMetrics {
    /// Operator name, e.g. `"map"` or `"group_by_key"`.
    pub name: String,
    /// Number of tasks (= partitions processed).
    pub tasks: usize,
    /// Records read by the stage.
    pub input_records: u64,
    /// Records produced by the stage.
    pub output_records: u64,
    /// Records moved across the shuffle boundary (0 for narrow stages).
    pub shuffle_records: u64,
    /// High-water mark of shuffle bytes buffered in RAM during the stage,
    /// as accounted against the context's [`crate::MemBudget`] (0 for
    /// narrow stages and for operators that don't account their buffers).
    pub buffered_bytes: u64,
    /// Wall-clock time of the stage (submission to last task completion).
    pub wall_time: Duration,
    /// Sum of task CPU time across all workers (preemption excluded, so
    /// the number reflects work executed even on an oversubscribed host).
    /// Under perfect parallelism on dedicated cores this approaches
    /// `wall_time * workers`.
    pub busy_time: Duration,
    /// Sum over participating workers of the delay between stage
    /// publication and that worker claiming its first task.
    pub queue_wait: Duration,
    /// CPU time per worker slot for this stage (slot 0 = the submitting
    /// thread). Empty for driver-side pseudo-stages. The spread is the
    /// stage's load balance; the maximum entry is its critical path.
    pub per_worker_busy: Vec<Duration>,
}

impl StageMetrics {
    /// A zeroed stage record; callers fill in what they measured.
    pub fn named(name: &str) -> Self {
        StageMetrics {
            name: name.to_string(),
            tasks: 0,
            input_records: 0,
            output_records: 0,
            shuffle_records: 0,
            buffered_bytes: 0,
            wall_time: Duration::ZERO,
            busy_time: Duration::ZERO,
            queue_wait: Duration::ZERO,
            per_worker_busy: Vec::new(),
        }
    }
}

/// Point-in-time copy of all metrics recorded by a [`crate::Context`].
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Stages in execution order.
    pub stages: Vec<StageMetrics>,
    /// Number of broadcast variables created.
    pub broadcasts: u64,
    /// Cumulative busy time per worker slot (0 = the submitting thread).
    /// Filled by [`crate::Context::metrics`] from the pool's counters;
    /// spans the pool's whole lifetime, not just the recorded stages.
    pub worker_busy: Vec<Duration>,
}

impl MetricsSnapshot {
    /// Total tasks across all stages.
    pub fn total_tasks(&self) -> usize {
        self.stages.iter().map(|s| s.tasks).sum()
    }

    /// Total records moved across shuffle boundaries.
    pub fn total_shuffle_records(&self) -> u64 {
        self.stages.iter().map(|s| s.shuffle_records).sum()
    }

    /// Total wall-clock time spent in stages.
    ///
    /// Stages execute sequentially (each operator is eager), so this is a
    /// faithful pipeline time excluding driver-side work.
    pub fn total_wall_time(&self) -> Duration {
        self.stages.iter().map(|s| s.wall_time).sum()
    }

    /// Total worker busy time across all stages.
    pub fn total_busy_time(&self) -> Duration {
        self.stages.iter().map(|s| s.busy_time).sum()
    }

    /// Total queue wait across all stages.
    pub fn total_queue_wait(&self) -> Duration {
        self.stages.iter().map(|s| s.queue_wait).sum()
    }

    /// Per-worker busy time summed over all recorded stages (slot-indexed).
    ///
    /// Unlike [`MetricsSnapshot::worker_busy`] this covers exactly the
    /// recorded stages, so it composes with [`crate::Context::reset_metrics`]
    /// for per-run load-balance measurements.
    pub fn stage_worker_busy(&self) -> Vec<Duration> {
        let mut totals: Vec<Duration> = Vec::new();
        for s in &self.stages {
            if s.per_worker_busy.len() > totals.len() {
                totals.resize(s.per_worker_busy.len(), Duration::ZERO);
            }
            for (slot, d) in s.per_worker_busy.iter().enumerate() {
                totals[slot] += *d;
            }
        }
        totals
    }
}

/// Shared, thread-safe metrics sink owned by a [`crate::Context`].
#[derive(Debug, Clone, Default)]
pub struct ExecutionMetrics {
    inner: Arc<Mutex<MetricsSnapshot>>,
}

impl ExecutionMetrics {
    /// Record a completed stage.
    pub fn record_stage(&self, stage: StageMetrics) {
        self.inner.lock().unwrap().stages.push(stage);
    }

    /// Record the creation of a broadcast variable.
    pub fn record_broadcast(&self) {
        self.inner.lock().unwrap().broadcasts += 1;
    }

    /// Copy out everything recorded so far.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.inner.lock().unwrap().clone()
    }

    /// Drop all recorded metrics (used between experiment repetitions).
    pub fn reset(&self) {
        let mut g = self.inner.lock().unwrap();
        g.stages.clear();
        g.broadcasts = 0;
        g.worker_busy.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stage(name: &str, tasks: usize, shuffle: u64) -> StageMetrics {
        StageMetrics {
            name: name.to_string(),
            tasks,
            input_records: 10,
            output_records: 10,
            shuffle_records: shuffle,
            buffered_bytes: 0,
            wall_time: Duration::from_millis(5),
            busy_time: Duration::from_millis(8),
            queue_wait: Duration::from_micros(20),
            per_worker_busy: vec![Duration::from_millis(5), Duration::from_millis(3)],
        }
    }

    #[test]
    fn snapshot_aggregates() {
        let m = ExecutionMetrics::default();
        m.record_stage(stage("map", 4, 0));
        m.record_stage(stage("group_by_key", 8, 40));
        m.record_broadcast();
        let s = m.snapshot();
        assert_eq!(s.stages.len(), 2);
        assert_eq!(s.total_tasks(), 12);
        assert_eq!(s.total_shuffle_records(), 40);
        assert_eq!(s.broadcasts, 1);
        assert_eq!(s.total_wall_time(), Duration::from_millis(10));
        assert_eq!(s.total_busy_time(), Duration::from_millis(16));
        assert_eq!(s.total_queue_wait(), Duration::from_micros(40));
        assert_eq!(
            s.stage_worker_busy(),
            vec![Duration::from_millis(10), Duration::from_millis(6)]
        );
    }

    #[test]
    fn reset_clears_everything() {
        let m = ExecutionMetrics::default();
        m.record_stage(stage("map", 1, 0));
        m.record_broadcast();
        m.reset();
        let s = m.snapshot();
        assert!(s.stages.is_empty());
        assert_eq!(s.broadcasts, 0);
        assert!(s.worker_busy.is_empty());
    }

    #[test]
    fn clones_share_the_sink() {
        let m = ExecutionMetrics::default();
        let m2 = m.clone();
        m2.record_stage(stage("map", 1, 0));
        assert_eq!(m.snapshot().stages.len(), 1);
    }

    #[test]
    fn named_starts_zeroed() {
        let s = StageMetrics::named("map");
        assert_eq!(s.name, "map");
        assert_eq!(s.tasks, 0);
        assert_eq!(s.busy_time, Duration::ZERO);
        assert_eq!(s.queue_wait, Duration::ZERO);
    }
}
