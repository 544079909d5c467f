//! # sparker-core
//!
//! The public face of the SparkER reproduction: the three-module pipeline
//! of the paper's Figure 3 (blocker → entity matcher → entity clusterer),
//! a configuration system covering every tunable the paper's
//! process-debugging section exposes, per-step evaluation against a ground
//! truth, and the representative-sampling / false-positive-drill-down
//! tooling of Section 3.
//!
//! ## The `ExecutionBackend` seam
//!
//! SparkER's defining claim is that *one* ER pipeline runs unchanged on a
//! parallel substrate. This crate mirrors that with a single generic
//! driver, [`Pipeline::run_on`], over a pluggable [`ExecutionBackend`]:
//!
//! ```text
//!                        │ Sequential │ Dataflow          │ FusedPool
//!  ──────────────────────┼────────────┼───────────────────┼──────────────────
//!  build_blocks          │ token pass │ shuffle op        │ token pass, one
//!                        │ + CSR build│                   │ range per worker
//!  filter_blocks         │ driver loop│ shuffle op        │ purge + filter on
//!                        │            │                   │ the CSR, on the pool
//!  prune_candidates      │ node scan  │ broadcast join    │ ┐ one batch: pruned
//!  score_pairs           │ pair loop  │ broadcast map     │ ┘ ranges → matcher
//!  cluster_edges (CC)    │ union–find │ label propagation │ forest merge
//! ```
//!
//! `run_on` owns stage ordering, timing and result assembly; each backend
//! is a thin strategy over the five stage entry points, and every stage —
//! on every backend — runs inside a [`StageScope`] that records wall/busy
//! time and input/output cardinalities into the run's [`PipelineReport`].
//! `FusedPool` is the production path (prune→score overlapped in one pool
//! batch), `Sequential` the reference oracle, `Dataflow` the paper-faithful
//! reproduction; all three produce byte-identical results at any worker
//! count.
//!
//! ```
//! use sparker_core::{ExecutionBackend, Pipeline, PipelineConfig};
//! use sparker_datasets::{generate, DatasetConfig};
//!
//! let ds = generate(&DatasetConfig { entities: 80, unmatched_per_source: 20, ..Default::default() });
//! let result = Pipeline::new(PipelineConfig::default())
//!     .run_on(&ExecutionBackend::fused(4), &ds.collection);
//! let eval = result.evaluate(&ds.ground_truth);
//! assert!(eval.blocking.recall > 0.8);
//! println!("{}", result.report.render_table());
//! ```

mod backend;
mod candidates;
mod config;
mod debug;
mod evaluate;
mod export;
mod pipeline;
mod report;

pub use backend::ExecutionBackend;
pub use candidates::CandidateSet;
pub use config::{BlockingConfig, ClusteringAlgorithm, MatcherConfig, PipelineConfig, PurgeConfig};
pub use debug::{
    representative_sample, threshold_sweep, FalsePositive, LostPairsReport, SampleConfig,
    ThresholdSweepRow,
};
pub use evaluate::{BlockingQuality, PairQuality, PipelineEvaluation};
pub use export::{export_edges_tsv, WeightFilter};
pub use pipeline::{BlockerOutput, Pipeline, PipelineResult, StepTimings};
pub use report::{PipelineReport, PipelineStage, StageReport, StageScope};

// Re-export the building blocks so downstream users need only this crate.
pub use sparker_blocking as blocking;
pub use sparker_clustering as clustering;
pub use sparker_dataflow as dataflow;
pub use sparker_looseschema as looseschema;
pub use sparker_matching as matching;
pub use sparker_metablocking as metablocking;
pub use sparker_profiles as profiles;
