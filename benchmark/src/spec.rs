//! What the benchmark runs and what it reports: the four workloads and the
//! two metric lists. `BENCHMARK.json` at the repo root names the same
//! workloads and metrics; `tests/smoke.rs` keeps the two in step.

use sparker_core::PipelineConfig;
use sparker_datasets::ZipfSkew;

/// Engine workers of every CLI run and connection handlers of every server:
/// the host's core count (`nproc` = 2 where the baseline was recorded).
pub const WORKERS: usize = 2;

/// Closed-loop client threads of the serve workloads. Callers of a resolver
/// wait for each reply, so the loop is closed; two clients keep both server
/// handler slots busy without queueing in the accept loop.
pub const CLIENTS: usize = 2;

/// Default seed of the full suite.
pub const DEFAULT_SEED: u64 = 5_366_719;

#[derive(Clone, Copy, PartialEq)]
pub enum Kind {
    /// Spawn the batch CLI on generated files, repeatedly.
    Batch,
    /// Spawn `sparker serve`, warm it over HTTP and drive the op mix.
    Serve,
}

/// An op mix against a resident resolver: `write_share` of the ops are
/// `POST /profiles`, the rest `GET /clusters/{id}` uniform over the warm
/// ids; `update_share` of the writes re-post a warm id with edited
/// attributes, the rest insert held-out profiles.
#[derive(Clone, Copy)]
pub struct Mix {
    pub write_share: f64,
    pub update_share: f64,
}

#[derive(Clone, Copy)]
pub enum ConfigKind {
    Default,
    Scaling,
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
    /// Generated entities (Products domain); profiles ≈ entities × (1 + max_cluster) / 2.
    pub entities: usize,
    pub max_cluster: usize,
    pub skew: Option<ZipfSkew>,
    pub config: ConfigKind,
    /// Profiles resident before measuring: the HTTP warm set of a serve
    /// workload, the in-process serve probe's warm set of a batch workload
    /// (traced run only).
    pub warm: usize,
    /// The HTTP op mix of a serve workload; for a batch workload, the mix
    /// of the traced run's in-process serve probe.
    pub mix: Mix,
    /// Ops the traced run replays in-process against a `ResolverState`.
    pub replay_ops: usize,
}

impl Workload {
    pub fn pipeline_config(&self) -> PipelineConfig {
        match self.config {
            ConfigKind::Default => PipelineConfig::default(),
            ConfigKind::Scaling => PipelineConfig::scaling(),
        }
    }

    pub fn config_name(&self) -> &'static str {
        match self.config {
            ConfigKind::Default => "PipelineConfig::default()",
            ConfigKind::Scaling => "PipelineConfig::scaling()",
        }
    }

    pub fn is_serve(&self) -> bool {
        self.kind == Kind::Serve
    }
}

/// The four workloads. `smoke` shrinks every one to a few hundred profiles
/// so the whole suite runs in seconds (the self-test tier).
pub fn workloads(smoke: bool) -> Vec<Workload> {
    let scale = |full: usize, small: usize| if smoke { small } else { full };
    vec![
        Workload {
            name: "batch_dense",
            why: "dense block graph (Zipf hot tokens): prune_candidates + score_pairs are >90% of the pipeline, load and blocking are noise",
            kind: Kind::Batch,
            entities: scale(5_000, 250),
            max_cluster: 2,
            skew: Some(ZipfSkew {
                hot_tokens: 1_000,
                exponent: 0.4,
                hot_entity_fraction: 0.125,
                appends: 96,
            }),
            config: ConfigKind::Default,
            warm: scale(1_500, 150),
            mix: Mix { write_share: 0.5, update_share: 0.5 },
            replay_ops: scale(120, 60),
        },
        Workload {
            name: "batch_sparse",
            why: "100k profiles under the scaling config: few comparisons survive, so JSONL load, build_blocks and the engine shuffle dominate and prune/score are small",
            kind: Kind::Batch,
            entities: scale(50_000, 400),
            max_cluster: 3,
            skew: None,
            config: ConfigKind::Scaling,
            warm: scale(10_000, 300),
            mix: Mix { write_share: 0.5, update_share: 0.5 },
            replay_ops: scale(1_000, 100),
        },
        Workload {
            name: "serve_query_mix",
            why: "warm server, 90% cluster reads / 10% writes: each write's lazy refresh lands on a later read, so the read tail is the refresh cost",
            kind: Kind::Serve,
            entities: scale(5_000, 300),
            max_cluster: 3,
            skew: None,
            config: ConfigKind::Scaling,
            warm: scale(4_000, 300),
            mix: Mix { write_share: 0.1, update_share: 0.0 },
            replay_ops: scale(3_000, 200),
        },
        Workload {
            name: "serve_ingest",
            why: "same server, 90% writes (inserts and updates) / 10% reads: upsert maintenance is nearly all the work and refreshes are rare",
            kind: Kind::Serve,
            entities: scale(5_000, 300),
            max_cluster: 3,
            skew: None,
            config: ConfigKind::Scaling,
            warm: scale(4_000, 300),
            mix: Mix { write_share: 0.9, update_share: 0.5 },
            replay_ops: scale(2_000, 200),
        },
    ]
}

/// End-to-end metrics, measured from outside the program with tracing off.
/// Every workload reports every one; what "one operation" is differs by
/// workload kind and is stated in README.md.
pub const END_TO_END: [(&str, &str); 6] = [
    ("throughput", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("cluster_f1", "ratio"),
    ("setup_s", "s"),
];

/// Per-layer metrics of the traced run; the prefix is the crate (layer).
pub const PER_LAYER: [(&str, &str); 42] = [
    ("profiles.load_s", "s"),
    ("profiles.load_ns_per_profile", "ns"),
    ("profiles.load_mb_per_s", "MB/s"),
    ("blocking.build_blocks_s", "s"),
    ("blocking.build_ns_per_profile", "ns"),
    ("blocking.blocks", "count"),
    ("blocking.purge_s", "s"),
    ("blocking.filter_blocks_s", "s"),
    ("blocking.blocks_after_clean", "count"),
    ("blocking.comparisons", "count"),
    ("dataflow.shuffled_records", "count"),
    ("dataflow.tasks", "count"),
    ("dataflow.busy_s", "s"),
    ("dataflow.queue_wait_s", "s"),
    ("dataflow.worker_busy_skew", "ratio"),
    ("dataflow.shuffle_ns_per_record", "ns"),
    ("metablocking.graph_build_s", "s"),
    ("metablocking.prune_s", "s"),
    ("metablocking.comparisons", "count"),
    ("metablocking.ns_per_comparison", "ns"),
    ("metablocking.candidates", "count"),
    ("metablocking.retained_ratio", "ratio"),
    ("matching.score_s", "s"),
    ("matching.ns_per_candidate", "ns"),
    ("matching.matches", "count"),
    ("matching.match_ratio", "ratio"),
    ("matching.filtered_share", "ratio"),
    ("clustering.cluster_s", "s"),
    ("clustering.ns_per_edge", "ns"),
    ("clustering.entities", "count"),
    ("core.run_on_s", "s"),
    ("core.staged_sum_s", "s"),
    ("core.fused_gain", "ratio"),
    ("core.outside_pipeline_s", "s"),
    ("serve.bulk_load_s", "s"),
    ("serve.upsert_us", "us"),
    ("serve.refresh_ms", "ms"),
    ("serve.query_us", "us"),
    ("serve.http_overhead_us", "us"),
    ("serve.refreshes_per_upsert", "ratio"),
    ("serve.refreshes_per_query", "ratio"),
    ("serve.fast_path", "count"),
];
