//! Stage-scoped observability: one structured report per pipeline run.
//!
//! Every stage of the unified driver — on every [`crate::ExecutionBackend`]
//! — runs inside a [`StageScope`] that records wall-clock time, engine busy
//! time and input/output cardinalities into a [`PipelineReport`]. The
//! report subsumes the old ad-hoc `StepTimings` stopwatch (still derivable
//! via [`PipelineReport::step_timings`]) and the counters that used to be
//! scattered over `BlockerOutput`; the `sparker` CLI renders it as a table
//! and the bench harness dumps it as JSON (see
//! [`PipelineReport::to_json`]).

use crate::pipeline::StepTimings;
use sparker_dataflow::{Context, FusedStageStats, MemBudget, StageMetrics};
use sparker_matching::FilterStats;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// The five stages of the unified pipeline driver, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PipelineStage {
    /// Loose-schema generation + (token/keyed) blocking.
    BuildBlocks,
    /// Block purging + block filtering.
    FilterBlocks,
    /// Candidate generation: meta-blocking when enabled, plain pair
    /// enumeration otherwise.
    PruneCandidates,
    /// Entity matching: similarity scoring of the candidate pairs.
    ScorePairs,
    /// Entity clustering of the similarity graph.
    ClusterEdges,
}

impl PipelineStage {
    /// All stages, in execution order.
    pub const ALL: [PipelineStage; 5] = [
        PipelineStage::BuildBlocks,
        PipelineStage::FilterBlocks,
        PipelineStage::PruneCandidates,
        PipelineStage::ScorePairs,
        PipelineStage::ClusterEdges,
    ];

    /// Stable stage name (used in the JSON schema and the CLI table).
    pub fn name(&self) -> &'static str {
        match self {
            PipelineStage::BuildBlocks => "build_blocks",
            PipelineStage::FilterBlocks => "filter_blocks",
            PipelineStage::PruneCandidates => "prune_candidates",
            PipelineStage::ScorePairs => "score_pairs",
            PipelineStage::ClusterEdges => "cluster_edges",
        }
    }

    /// What the stage consumes (unit of [`StageReport::input`]).
    pub fn input_unit(&self) -> &'static str {
        match self {
            PipelineStage::BuildBlocks => "profiles",
            PipelineStage::FilterBlocks => "blocks",
            PipelineStage::PruneCandidates => "comparisons",
            PipelineStage::ScorePairs => "candidates",
            PipelineStage::ClusterEdges => "edges",
        }
    }

    /// What the stage produces (unit of [`StageReport::output`]).
    pub fn output_unit(&self) -> &'static str {
        match self {
            PipelineStage::BuildBlocks => "blocks",
            PipelineStage::FilterBlocks => "blocks",
            PipelineStage::PruneCandidates => "candidates",
            PipelineStage::ScorePairs => "edges",
            PipelineStage::ClusterEdges => "clusters",
        }
    }
}

/// Measurements of one executed pipeline stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageReport {
    /// Which stage this row describes.
    pub stage: PipelineStage,
    /// Wall-clock time of the stage on the driver.
    pub wall: Duration,
    /// Worker busy time attributed to the stage: the summed task CPU time
    /// of every engine operator the stage submitted. Equals `wall` on the
    /// sequential backend (one fully busy driver thread); may exceed
    /// `wall` on the engine backends when workers run concurrently.
    pub busy: Duration,
    /// Time tasks of the stage's engine operators spent waiting to be
    /// picked up by a worker (plus, on the fused backend, time fused
    /// workers stalled with nothing to produce or consume). Always zero on
    /// the sequential backend; a persistently high value on an engine
    /// backend points at dispatch overhead or a starved pipeline, not at
    /// slow kernels.
    pub queue_wait: Duration,
    /// Input cardinality, in [`PipelineStage::input_unit`] units.
    pub input: u64,
    /// Output cardinality, in [`PipelineStage::output_unit`] units.
    pub output: u64,
    /// High-water mark of budget-tracked bytes buffered in RAM during the
    /// stage (shuffle partitions, spill buffers); 0 when the stage ran no
    /// budget-accounted operator.
    pub buffered_bytes: u64,
}

/// Structured per-stage report of one pipeline run: which backend ran it,
/// with how many workers, and what every stage saw and cost.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineReport {
    /// Backend name (`"sequential"`, `"dataflow"` or `"fused"`).
    pub backend: &'static str,
    /// Worker count (1 for the sequential backend).
    pub workers: usize,
    /// Edge-scorer name of the meta-blocking stage (`"CBS"`, …,
    /// `"SUPERVISED"`), or `"off"` when meta-blocking is disabled.
    pub edge_scorer: &'static str,
    /// Wall-clock time of edge scoring: the weight/feature-extraction work
    /// of the `prune_candidates` stage (the full pruning call on the staged
    /// drivers; pass A preparation on the fused driver, whose pass B is
    /// overlapped with matching — see [`PipelineReport::fused`] for that
    /// split). Zero when meta-blocking is disabled.
    pub scoring: Duration,
    /// The matcher cascade's counters over every candidate pair of the
    /// `score_pairs` stage — identical on every backend, since each pair's
    /// fate is a pure function of the pair.
    pub matcher: FilterStats,
    /// Overlap accounting of the fused prune→score batch: how its time
    /// split between pass B (`produce_busy`) and the matcher cascade
    /// (`consume_busy`). `None` on the staged drivers.
    pub fused: Option<FusedStageStats>,
    /// One row per executed stage, in execution order.
    pub stages: Vec<StageReport>,
    /// Memory budget the run was held to, in bytes (0 = unlimited).
    pub mem_budget_bytes: u64,
    /// Process peak RSS sampled at the end of the run (`VmHWM`; 0 where
    /// the platform doesn't expose it). Process-monotonic: on a process
    /// that runs several pipelines, later reports inherit earlier peaks.
    pub peak_rss_bytes: u64,
    /// Record batches the run spilled to disk (0 = everything stayed in
    /// RAM).
    pub spill_batches: u64,
    /// Bytes the run spilled to disk.
    pub spilled_bytes: u64,
}

impl PipelineReport {
    /// Total wall-clock time across all stages.
    pub fn total_wall(&self) -> Duration {
        self.stages.iter().map(|s| s.wall).sum()
    }

    /// Total attributed busy time across all stages.
    pub fn total_busy(&self) -> Duration {
        self.stages.iter().map(|s| s.busy).sum()
    }

    /// Total attributed queue wait across all stages.
    pub fn total_queue_wait(&self) -> Duration {
        self.stages.iter().map(|s| s.queue_wait).sum()
    }

    /// The report row for `stage`, if that stage executed.
    pub fn stage(&self, stage: PipelineStage) -> Option<&StageReport> {
        self.stages.iter().find(|s| s.stage == stage)
    }

    /// The legacy four-step wall-clock split ([`StepTimings`]): block
    /// construction (`build_blocks` + `filter_blocks`), candidate
    /// generation, matching, clustering.
    pub fn step_timings(&self) -> StepTimings {
        let wall = |stage| self.stage(stage).map_or(Duration::ZERO, |s| s.wall);
        StepTimings {
            blocking: wall(PipelineStage::BuildBlocks) + wall(PipelineStage::FilterBlocks),
            candidates: wall(PipelineStage::PruneCandidates),
            matching: wall(PipelineStage::ScorePairs),
            clustering: wall(PipelineStage::ClusterEdges),
        }
    }

    /// Render the report as the aligned table the `sparker` CLI prints.
    /// The `buffered` column is each stage's high-water mark of
    /// budget-tracked RAM; the total row carries the budget, peak RSS and
    /// spill statistics.
    pub fn render_table(&self) -> String {
        fn mib(bytes: u64) -> String {
            format!("{:.1}MiB", bytes as f64 / (1024.0 * 1024.0))
        }
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<16} {:>12} {:>12} {:>11} {:>11} {:>11} {:>10}  units",
            "stage", "input", "output", "wall", "busy", "queue-wait", "buffered"
        );
        for s in &self.stages {
            let _ = writeln!(
                out,
                "{:<16} {:>12} {:>12} {:>11} {:>11} {:>11} {:>10}  {} -> {}",
                s.stage.name(),
                s.input,
                s.output,
                format!("{:.1?}", s.wall),
                format!("{:.1?}", s.busy),
                format!("{:.1?}", s.queue_wait),
                mib(s.buffered_bytes),
                s.stage.input_unit(),
                s.stage.output_unit(),
            );
        }
        let budget = if self.mem_budget_bytes == 0 {
            "unlimited".to_string()
        } else {
            mib(self.mem_budget_bytes)
        };
        let _ = writeln!(
            out,
            "{:<16} {:>12} {:>12} {:>11} {:>11} {:>11} {:>10}  backend={} workers={} scorer={} scoring={:.1?} budget={} peak_rss={} spilled={} ({} batches)",
            "total",
            "",
            "",
            format!("{:.1?}", self.total_wall()),
            format!("{:.1?}", self.total_busy()),
            format!("{:.1?}", self.total_queue_wait()),
            "",
            self.backend,
            self.workers,
            self.edge_scorer,
            self.scoring,
            budget,
            mib(self.peak_rss_bytes),
            mib(self.spilled_bytes),
            self.spill_batches,
        );
        out
    }

    /// Serialize the report to JSON (the schema documented in the
    /// README). Durations are fractional seconds:
    ///
    /// ```json
    /// {
    ///   "backend": "fused",
    ///   "workers": 4,
    ///   "edge_scorer": "CBS",
    ///   "scoring_s": 0.0112,
    ///   "matcher": {"pairs": 5210, "bound_rejected": 12, "abandoned": 4901,
    ///               "verified": 297, "kept": 297},
    ///   "fused": {"morsels": 128, "produce_busy_s": 0.0402,
    ///             "consume_busy_s": 0.0317, "queue_wait_s": 0.0011,
    ///             "backpressure_yields": 3, "max_queue_depth": 9,
    ///             "max_batch": 5210, "wall_s": 0.0391},
    ///   "stages": [
    ///     {"stage": "build_blocks", "input": 1000, "output": 1523,
    ///      "input_unit": "profiles", "output_unit": "blocks",
    ///      "wall_s": 0.0123, "busy_s": 0.0311, "queue_wait_s": 0.0007,
    ///      "buffered_bytes": 81920},
    ///     ...
    ///   ],
    ///   "total_wall_s": 0.2031,
    ///   "total_busy_s": 0.5120,
    ///   "mem_budget_bytes": 0,
    ///   "peak_rss_bytes": 73400320,
    ///   "spill_batches": 0,
    ///   "spilled_bytes": 0
    /// }
    /// ```
    ///
    /// `fused` is `null` on the staged drivers.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let m = &self.matcher;
        let _ = write!(
            out,
            "{{\"backend\":\"{}\",\"workers\":{},\"edge_scorer\":\"{}\",\"scoring_s\":{:.9},\
             \"matcher\":{{\"pairs\":{},\"bound_rejected\":{},\"abandoned\":{},\
             \"verified\":{},\"kept\":{}}},\"fused\":",
            self.backend,
            self.workers,
            self.edge_scorer,
            self.scoring.as_secs_f64(),
            m.pairs,
            m.bound_rejected,
            m.abandoned,
            m.verified,
            m.kept,
        );
        match &self.fused {
            None => out.push_str("null"),
            Some(f) => {
                let _ = write!(
                    out,
                    "{{\"morsels\":{},\"produce_busy_s\":{:.9},\"consume_busy_s\":{:.9},\
                     \"queue_wait_s\":{:.9},\"backpressure_yields\":{},\
                     \"max_queue_depth\":{},\"max_batch\":{},\"wall_s\":{:.9}}}",
                    f.morsels,
                    f.produce_busy.as_secs_f64(),
                    f.consume_busy.as_secs_f64(),
                    f.queue_wait.as_secs_f64(),
                    f.backpressure_yields,
                    f.max_queue_depth,
                    f.max_batch,
                    f.wall.as_secs_f64(),
                );
            }
        }
        out.push_str(",\"stages\":[");
        for (i, s) in self.stages.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"stage\":\"{}\",\"input\":{},\"output\":{},\
                 \"input_unit\":\"{}\",\"output_unit\":\"{}\",\
                 \"wall_s\":{:.9},\"busy_s\":{:.9},\"queue_wait_s\":{:.9},\
                 \"buffered_bytes\":{}}}",
                s.stage.name(),
                s.input,
                s.output,
                s.stage.input_unit(),
                s.stage.output_unit(),
                s.wall.as_secs_f64(),
                s.busy.as_secs_f64(),
                s.queue_wait.as_secs_f64(),
                s.buffered_bytes,
            );
        }
        let _ = write!(
            out,
            "],\"total_wall_s\":{:.9},\"total_busy_s\":{:.9},\
             \"mem_budget_bytes\":{},\"peak_rss_bytes\":{},\
             \"spill_batches\":{},\"spilled_bytes\":{}}}",
            self.total_wall().as_secs_f64(),
            self.total_busy().as_secs_f64(),
            self.mem_budget_bytes,
            self.peak_rss_bytes,
            self.spill_batches,
            self.spilled_bytes,
        );
        out
    }
}

/// An open stage measurement: created when a stage starts, closed with the
/// stage's input/output cardinalities.
///
/// On an engine backend the scope snapshots the engine's stage-metrics
/// count at entry, so at [`StageScope::finish`] it can attribute exactly
/// the operator stages submitted in between (their summed task CPU time
/// becomes [`StageReport::busy`]) and append a `pipeline/<stage>` marker to
/// the engine's metrics stream. On the sequential backend busy time equals
/// wall time.
pub struct StageScope<'a> {
    stage: PipelineStage,
    ctx: Option<&'a Context>,
    budget: MemBudget,
    engine_stages_before: usize,
    start: Instant,
}

impl<'a> StageScope<'a> {
    /// Open a scope for `stage`; `ctx` is the engine context of the active
    /// backend, or `None` on the sequential driver. `budget` is the run's
    /// memory budget — its per-stage high-water mark is reset here and read
    /// back into [`StageReport::buffered_bytes`] at
    /// [`StageScope::finish`].
    pub fn begin(stage: PipelineStage, ctx: Option<&'a Context>, budget: &MemBudget) -> Self {
        budget.begin_stage();
        StageScope {
            stage,
            ctx,
            budget: budget.clone(),
            engine_stages_before: ctx.map_or(0, |c| c.metrics().stages.len()),
            start: Instant::now(),
        }
    }

    /// Close the scope, recording cardinalities, times and the stage's
    /// buffered-bytes high-water mark.
    pub fn finish(self, input: u64, output: u64) -> StageReport {
        let wall = self.start.elapsed();
        let buffered_bytes = self.budget.stage_high_water();
        let (busy, queue_wait) = match self.ctx {
            None => (wall, Duration::ZERO),
            Some(ctx) => {
                let snap = ctx.metrics();
                let (busy, queue_wait) = snap
                    .stages
                    .iter()
                    .skip(self.engine_stages_before)
                    .fold((Duration::ZERO, Duration::ZERO), |(b, q), s| {
                        (b + s.busy_time, q + s.queue_wait)
                    });
                // Feed a named scope marker back into the engine metrics so
                // snapshots can attribute operator stages to pipeline stages.
                let mut marker = StageMetrics::named(&format!("pipeline/{}", self.stage.name()));
                marker.input_records = input;
                marker.output_records = output;
                marker.wall_time = wall;
                marker.busy_time = busy;
                marker.queue_wait = queue_wait;
                marker.buffered_bytes = buffered_bytes;
                ctx.record_stage(marker);
                (busy, queue_wait)
            }
        };
        StageReport {
            stage: self.stage,
            wall,
            busy,
            queue_wait,
            input,
            output,
            buffered_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> PipelineReport {
        PipelineReport {
            backend: "sequential",
            workers: 1,
            edge_scorer: "CBS",
            scoring: Duration::from_millis(2),
            matcher: FilterStats {
                pairs: 40,
                bound_rejected: 3,
                abandoned: 30,
                verified: 7,
                kept: 5,
            },
            fused: None,
            stages: PipelineStage::ALL
                .iter()
                .enumerate()
                .map(|(i, &stage)| StageReport {
                    stage,
                    wall: Duration::from_millis(i as u64 + 1),
                    busy: Duration::from_millis(i as u64 + 1),
                    queue_wait: Duration::from_micros(i as u64),
                    input: 10 * (i as u64 + 1),
                    output: 10 * (i as u64 + 2),
                    buffered_bytes: 1024 * (i as u64 + 1),
                })
                .collect(),
            mem_budget_bytes: 0,
            peak_rss_bytes: 70 * 1024 * 1024,
            spill_batches: 0,
            spilled_bytes: 0,
        }
    }

    #[test]
    fn step_timings_fold_the_block_stages() {
        let r = report();
        let t = r.step_timings();
        assert_eq!(t.blocking, Duration::from_millis(3)); // 1ms + 2ms
        assert_eq!(t.candidates, Duration::from_millis(3));
        assert_eq!(t.matching, Duration::from_millis(4));
        assert_eq!(t.clustering, Duration::from_millis(5));
        assert_eq!(t.total(), r.total_wall());
    }

    #[test]
    fn json_has_every_stage_and_scalar() {
        let json = report().to_json();
        for stage in PipelineStage::ALL {
            assert!(
                json.contains(&format!("\"stage\":\"{}\"", stage.name())),
                "{json}"
            );
        }
        assert!(json.contains("\"backend\":\"sequential\""));
        assert!(json.contains("\"workers\":1"));
        assert!(json.contains("\"edge_scorer\":\"CBS\""));
        assert!(json.contains("\"scoring_s\":0.002"));
        assert!(json.contains("\"total_wall_s\":"));
        assert!(json.contains("\"queue_wait_s\":"));
        assert!(json.contains("\"buffered_bytes\":1024"));
        assert!(json.contains("\"mem_budget_bytes\":0"));
        assert!(json.contains("\"peak_rss_bytes\":73400320"));
        assert!(json.contains("\"spill_batches\":0"));
        assert!(json.contains("\"spilled_bytes\":0"));
        assert!(json.contains(
            "\"matcher\":{\"pairs\":40,\"bound_rejected\":3,\"abandoned\":30,\
             \"verified\":7,\"kept\":5},\"fused\":null,"
        ));
        assert!(json.starts_with('{') && json.ends_with('}'));

        let mut fused = report();
        fused.fused = Some(FusedStageStats {
            morsels: 64,
            produce_busy: Duration::from_millis(300),
            consume_busy: Duration::from_millis(200),
            backpressure_yields: 2,
            max_queue_depth: 9,
            max_batch: 812,
            ..FusedStageStats::default()
        });
        let json = fused.to_json();
        assert!(
            json.contains(
                "\"fused\":{\"morsels\":64,\"produce_busy_s\":0.300000000,\
                 \"consume_busy_s\":0.200000000,\"queue_wait_s\":0.000000000,\
                 \"backpressure_yields\":2,\"max_queue_depth\":9,\"max_batch\":812,\
                 \"wall_s\":0.000000000},\
                 \"stages\":["
            ),
            "{json}"
        );
    }

    #[test]
    fn table_renders_all_rows() {
        let table = report().render_table();
        assert_eq!(table.lines().count(), 1 + PipelineStage::ALL.len() + 1);
        assert!(table.contains("score_pairs"));
        assert!(table.contains("backend=sequential workers=1 scorer=CBS scoring=2.0ms"));
        assert!(table.contains("queue-wait"));
        assert!(table.contains("buffered"));
        assert!(table.contains("budget=unlimited"));
        assert!(table.contains("peak_rss=70.0MiB"));
        assert!(table.contains("spilled=0.0MiB (0 batches)"));
    }

    #[test]
    fn sequential_scope_busy_equals_wall() {
        let scope = StageScope::begin(PipelineStage::ScorePairs, None, &MemBudget::unlimited());
        std::thread::sleep(Duration::from_millis(2));
        let row = scope.finish(7, 3);
        assert_eq!(row.wall, row.busy);
        assert_eq!(row.queue_wait, Duration::ZERO);
        assert!(row.wall >= Duration::from_millis(2));
        assert_eq!((row.input, row.output), (7, 3));
    }

    #[test]
    fn engine_scope_records_marker_stage() {
        let ctx = Context::new(2);
        let scope = StageScope::begin(PipelineStage::BuildBlocks, Some(&ctx), ctx.budget());
        // Run an engine stage inside the scope.
        let ds = ctx.parallelize((0..100).collect::<Vec<i32>>(), 4);
        let total: i32 = ds.map(|x| x * 2).collect().into_iter().sum();
        assert_eq!(total, 9900);
        let row = scope.finish(100, 1);
        let snap = ctx.metrics();
        let marker = snap
            .stages
            .iter()
            .find(|s| s.name == "pipeline/build_blocks")
            .expect("scope marker recorded");
        assert_eq!(marker.input_records, 100);
        assert_eq!(marker.wall_time, row.wall);
        assert_eq!(marker.busy_time, row.busy);
        assert_eq!(marker.buffered_bytes, row.buffered_bytes);
    }

    #[test]
    fn scope_reads_stage_high_water_into_buffered_bytes() {
        let budget = MemBudget::unlimited();
        let scope = StageScope::begin(PipelineStage::BuildBlocks, None, &budget);
        assert!(budget.try_reserve(4096));
        budget.release(4096);
        let row = scope.finish(1, 1);
        assert_eq!(row.buffered_bytes, 4096);
        // The next scope resets the stage-level mark.
        let scope = StageScope::begin(PipelineStage::FilterBlocks, None, &budget);
        let row = scope.finish(1, 1);
        assert_eq!(row.buffered_bytes, 0);
    }
}
