//! The three-module pipeline of the paper's Figure 3, as one unified
//! driver over a pluggable [`ExecutionBackend`].
//!
//! [`Pipeline::run_on`] is the single source of truth for stage ordering,
//! timing and result assembly; [`Pipeline::run`] is `run_on` with the
//! sequential backend.

use crate::backend::{ExecutionBackend, StagedBlocks};
use crate::candidates::CandidateSet;
use crate::config::{PipelineConfig, PurgeConfig};
use crate::evaluate::{BlockingQuality, PairQuality, PipelineEvaluation};
use crate::report::{PipelineReport, PipelineStage, StageReport, StageScope};
use sparker_blocking::{purge_by_comparison_level, purge_oversized, TokenBlocks};
use sparker_clustering::EntityClusters;
use sparker_dataflow::{fused_channel_capacity, Context, FusedStageStats, MemBudget, WorkerLocal};
use sparker_looseschema::{partition_attributes, AttributePartitioning};
use sparker_matching::{FilterStats, PreparedProfile, SimilarityGraph, ThresholdMatcher};
use sparker_metablocking::{
    block_entropies, BlockEntropies, BlockGraph, MetaBlockingConfig, StreamingMetaBlocking,
};
use sparker_profiles::{GroundTruth, Pair, ProfileCollection, ProfileKeys, TokenDict};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Wall-clock time of each pipeline step — the legacy four-way split,
/// derived from the per-stage [`PipelineReport`].
#[derive(Debug, Clone, Copy, Default)]
pub struct StepTimings {
    /// Block construction: loose schema + blocking + purging + filtering
    /// (the report's `build_blocks` + `filter_blocks` stages).
    pub blocking: Duration,
    /// Candidate generation: meta-blocking when enabled, plain pair
    /// enumeration of the cleaned blocks otherwise (the report's
    /// `prune_candidates` stage).
    pub candidates: Duration,
    /// Entity matcher (the report's `score_pairs` stage).
    pub matching: Duration,
    /// Entity clusterer (the report's `cluster_edges` stage).
    pub clustering: Duration,
}

impl StepTimings {
    /// Sum over all steps.
    pub fn total(&self) -> Duration {
        self.blocking + self.candidates + self.matching + self.clustering
    }
}

/// Everything the blocker produced, kept for debugging and evaluation.
#[derive(Debug, Clone)]
pub struct BlockerOutput {
    /// Loose-schema partitioning, when enabled.
    pub partitioning: Option<AttributePartitioning>,
    /// Block count straight out of (token/keyed) blocking.
    pub initial_blocks: usize,
    /// Comparison count straight out of blocking.
    pub initial_comparisons: u64,
    /// Block count after purging + filtering.
    pub cleaned_blocks: usize,
    /// Comparison count after purging + filtering.
    pub cleaned_comparisons: u64,
    /// The final candidate pairs (post meta-blocking when enabled), with
    /// their meta-blocking weights ([`CandidateSet::weighted`]).
    pub candidates: CandidateSet,
}

/// Result of a full pipeline run.
#[derive(Debug, Clone)]
pub struct PipelineResult {
    /// Blocker outputs (candidates and statistics).
    pub blocker: BlockerOutput,
    /// The similarity graph retained by the matcher.
    pub similarity: SimilarityGraph,
    /// The final entity clusters.
    pub clusters: EntityClusters,
    /// Per-step wall-clock times (derived from [`PipelineResult::report`]).
    pub timings: StepTimings,
    /// Structured per-stage report: backend, workers, and wall/busy time
    /// plus input/output cardinalities for every stage.
    pub report: PipelineReport,
    /// Comparable pairs of the input collection (reduction-ratio baseline).
    comparable_pairs: u64,
}

impl PipelineResult {
    /// Evaluate every step against a ground truth.
    pub fn evaluate(&self, ground_truth: &GroundTruth) -> PipelineEvaluation {
        let blocking = BlockingQuality::measure_with_total(
            &self.blocker.candidates,
            ground_truth,
            self.comparable_pairs,
        );
        let matching =
            PairQuality::measure(self.similarity.edges().iter().map(|(p, _)| p), ground_truth);
        let clustering = PairQuality::of_clusters(&self.clusters, ground_truth);
        PipelineEvaluation {
            blocking,
            matching,
            clustering,
        }
    }
}

/// The SparkER pipeline: blocker → entity matcher → entity clusterer.
#[derive(Debug, Clone)]
pub struct Pipeline {
    config: PipelineConfig,
}

impl Pipeline {
    /// Create a pipeline with the given configuration.
    pub fn new(config: PipelineConfig) -> Self {
        Pipeline { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Run only the blocker module (Figure 4) on the sequential backend.
    pub fn run_blocker(&self, collection: &ProfileCollection) -> BlockerOutput {
        let backend = ExecutionBackend::Sequential;
        let budget = backend.budget();
        self.run_blocker_on(&backend, collection, &budget).0
    }

    /// The blocker half of the unified driver: `build_blocks`,
    /// `filter_blocks` and `prune_candidates` on the given backend, each
    /// inside a [`StageScope`]. `budget` is the run's memory budget,
    /// resolved once by the caller so sequential-backend spill statistics
    /// accumulate across stages. Returns the blocker output plus the three
    /// stage-report rows.
    fn run_blocker_on(
        &self,
        backend: &ExecutionBackend,
        collection: &ProfileCollection,
        budget: &MemBudget,
    ) -> (BlockerOutput, Vec<StageReport>, ScoringStats) {
        let bc = &self.config.blocking;
        let ctx = backend.context();
        let BlockStages {
            partitioning,
            blocks,
            initial_blocks,
            initial_comparisons,
            mut stages,
        } = self.run_block_stages(backend, collection, None, budget);
        let blocks = blocks.into_collection(budget);
        let cleaned_blocks = blocks.len();
        let cleaned_comparisons = blocks.total_comparisons();

        // Stage 3: meta-blocking when enabled, plain pair enumeration of
        // the cleaned blocks otherwise.
        let scope = StageScope::begin(PipelineStage::PruneCandidates, ctx, budget);
        let mut scoring = ScoringStats::off();
        let candidates = match &bc.meta_blocking {
            None => blocks.candidate_pairs().into_iter().collect(),
            Some(mb) => {
                let keys = blocks.blocks().iter().map(|b| b.key.as_str());
                let entropies = entropies_for(mb, partitioning.as_ref(), keys, collection);
                let started = Instant::now();
                let retained = backend.prune_candidates(&blocks, entropies.as_ref(), mb, budget);
                scoring = ScoringStats {
                    edge_scorer: mb.scorer.name(),
                    time: started.elapsed(),
                };
                CandidateSet::from_sorted(retained)
            }
        };
        stages.push(scope.finish(cleaned_comparisons, candidates.len() as u64));

        let output = BlockerOutput {
            partitioning,
            initial_blocks,
            initial_comparisons,
            cleaned_blocks,
            cleaned_comparisons,
            candidates,
        };
        (output, stages, scoring)
    }

    /// Stages 1–2 — blocking and purging/filtering — shared by the staged
    /// and fused drivers. Returns the cleaned blocks plus the two stage
    /// rows.
    ///
    /// The fused backend knows its blocks by size until it purges and
    /// filters them, scattering only the members that survive
    /// ([`BlockSizes::clean`](sparker_blocking::BlockSizes::clean));
    /// the sequential oracle materializes them first and applies the
    /// string-keyed purge and `block_filtering`, and the dataflow backend
    /// purges on the driver and filters with the paper's shuffles.
    ///
    /// A `supplied` token pass (the fused driver's, from
    /// [`Pipeline::run_on_pass`]) replaces the token pass: stage 1 is then
    /// only the block sizes. Without one, the collection's text is read,
    /// so it must have some.
    fn run_block_stages(
        &self,
        backend: &ExecutionBackend,
        collection: &ProfileCollection,
        supplied: Option<(TokenDict, ProfileKeys)>,
        budget: &MemBudget,
    ) -> BlockStages {
        let bc = &self.config.blocking;
        let ctx = backend.context();
        let mut stages = Vec::with_capacity(PipelineStage::ALL.len());
        assert!(
            supplied.is_some() || collection.has_text(),
            "a text-free collection runs only with the token pass taken while loading it \
             (Pipeline::run_on_pass)"
        );

        // Stage 1: loose schema (driver) + (token/keyed) blocking.
        let scope = StageScope::begin(PipelineStage::BuildBlocks, ctx, budget);
        let partitioning = bc
            .loose_schema
            .as_ref()
            .map(|lsh| partition_attributes(collection, lsh));
        let blocks = match supplied {
            Some((dict, keys)) => StagedBlocks::sized(collection, dict, keys),
            None => backend.build_blocks_keyed(collection, partitioning.as_ref(), budget),
        };
        let initial_blocks = blocks.len();
        let initial_comparisons = blocks.total_comparisons();
        stages.push(scope.finish(collection.len() as u64, initial_blocks as u64));

        // Stage 2: block purging + block filtering.
        let scope = StageScope::begin(PipelineStage::FilterBlocks, ctx, budget);
        let blocks = match (backend, blocks) {
            (ExecutionBackend::FusedPool(ctx), StagedBlocks::Sized { dict, keys, sizes }) => {
                let blocks = sizes.clean(
                    Some(ctx),
                    &keys,
                    &bc.purge,
                    collection.len(),
                    bc.filter_ratio,
                    budget,
                );
                StagedBlocks::Compact(TokenBlocks { dict, keys, blocks })
            }
            (_, blocks) => {
                let blocks = blocks.into_collection(budget);
                let blocks = match bc.purge {
                    PurgeConfig::Off => blocks,
                    PurgeConfig::Oversized { max_fraction } => {
                        purge_oversized(blocks, collection.len(), max_fraction)
                    }
                    PurgeConfig::ComparisonLevel { smoothing } => {
                        purge_by_comparison_level(blocks, smoothing)
                    }
                };
                StagedBlocks::Collection(match bc.filter_ratio {
                    Some(ratio) => backend.filter_blocks(blocks, ratio),
                    None => blocks,
                })
            }
        };
        stages.push(scope.finish(initial_blocks as u64, blocks.len() as u64));

        BlockStages {
            partitioning,
            blocks,
            initial_blocks,
            initial_comparisons,
            stages,
        }
    }

    /// Run the full pipeline on the given backend — the single
    /// stage-ordering/timing/assembly code path of the workspace.
    ///
    /// All backends produce byte-identical results at any worker count
    /// (pinned by the backend-matrix parity suite in
    /// `tests/pipeline_parity.rs`):
    ///
    /// ```
    /// use sparker_core::{ExecutionBackend, Pipeline, PipelineConfig};
    /// use sparker_datasets::{generate, DatasetConfig};
    ///
    /// let ds = generate(&DatasetConfig { entities: 60, ..DatasetConfig::default() });
    /// let pipeline = Pipeline::new(PipelineConfig::default());
    ///
    /// let sequential = pipeline.run_on(&ExecutionBackend::Sequential, &ds.collection);
    /// let fused = pipeline.run_on(&ExecutionBackend::fused(4), &ds.collection);
    /// assert_eq!(sequential.clusters, fused.clusters);
    /// ```
    ///
    /// The collection must carry its attribute text; a text-free one
    /// ([`ProfileCollection::without_text`]) runs through
    /// [`Pipeline::run_on_pass`] and makes this panic.
    pub fn run_on(
        &self,
        backend: &ExecutionBackend,
        collection: &ProfileCollection,
    ) -> PipelineResult {
        let budget = backend.budget();

        // The fused backend overlaps prune and score whenever meta-blocking
        // is on; without meta-blocking there is no pruning stage to fuse,
        // so it degrades to the staged pool path below.
        if let ExecutionBackend::FusedPool(ctx) = backend {
            if let Some(mb) = self.config.blocking.meta_blocking {
                return self.run_fused(backend, ctx, &mb, collection, None, &budget);
            }
        }

        let (blocker, mut stages, scoring) = self.run_blocker_on(backend, collection, &budget);
        let ctx = backend.context();

        // Stage 4: entity matching.
        let scope = StageScope::begin(PipelineStage::ScorePairs, ctx, &budget);
        let matcher =
            ThresholdMatcher::new(self.config.matching.measure, self.config.matching.threshold);
        let (similarity, matcher_stats) = {
            // `score_pairs` takes a hashed set; it lives for this stage only.
            let hashed: HashSet<Pair> = blocker.candidates.iter().copied().collect();
            backend.score_pairs_with_stats(&matcher, collection, &hashed, &budget)
        };
        stages.push(scope.finish(blocker.candidates.len() as u64, similarity.len() as u64));

        // Stage 5: entity clustering.
        let scope = StageScope::begin(PipelineStage::ClusterEdges, ctx, &budget);
        let clusters =
            backend.cluster_edges(self.config.clustering, similarity.edges(), collection);
        stages.push(scope.finish(similarity.len() as u64, clusters.num_clusters() as u64));

        assemble_result(
            backend,
            &budget,
            stages,
            scoring,
            matcher_stats,
            None,
            blocker,
            similarity,
            clusters,
            collection,
        )
    }

    /// [`Pipeline::run_on`] on the fused backend with the token pass
    /// already taken — the dictionary and every profile's sorted token ids
    /// in profile id order, as [`intern_profiles`] over the collection
    /// gives them, or as the JSON-lines loader's text-free pass
    /// ([`sparker_profiles::token_pass_from_json_lines`]) gives them while
    /// parsing. Stage 1 is then only the block sizes, and the collection may
    /// be text-free ([`ProfileCollection::without_text`]): nothing else
    /// the run does reads attribute text. Results are identical to
    /// `run_on` over the collection with its text.
    ///
    /// Panics unless the backend is the fused one and the configuration
    /// reads no text ([`PipelineConfig::text_readers`] is empty), and when
    /// the pass does not cover the collection.
    ///
    /// [`intern_profiles`]: sparker_profiles::intern_profiles
    pub fn run_on_pass(
        &self,
        backend: &ExecutionBackend,
        collection: &ProfileCollection,
        pass: (TokenDict, ProfileKeys),
    ) -> PipelineResult {
        let ExecutionBackend::FusedPool(ctx) = backend else {
            panic!(
                "a token pass taken while loading runs on the fused backend, not {}",
                backend.name()
            );
        };
        let readers = self.config.text_readers();
        assert!(
            readers.is_empty(),
            "a run handed its token pass must read no attribute text, but {} does",
            readers.join(", ")
        );
        let mb = self
            .config
            .blocking
            .meta_blocking
            .expect("text_readers lists meta_blocking when it is off");
        let budget = backend.budget();
        self.run_fused(backend, ctx, &mb, collection, Some(pass), &budget)
    }

    /// The fused driver: stages 1–2 on CSR (the token or key pass — or the
    /// `supplied` one — then
    /// purging and filtering in place — no block is ever materialized, no
    /// key resolved to a `String`, nothing shuffled), the block graph
    /// adopted straight from the cleaned CSR, then prune→score as one
    /// overlapped pool batch — meta-blocking's pass B emits pruned pairs
    /// range by range through a bounded channel
    /// ([`StreamingMetaBlocking::prune_range_into`]) and the matcher's cascade
    /// scores them concurrently ([`ThresholdMatcher::score_stream`]). No
    /// `CandidateGraph` and no hashed pair set is built, and the retained
    /// edges are not kept: only a channel's worth of batch buffers exists,
    /// recycled from morsel to morsel, and the [`CandidateSet`] is known by
    /// the consumers' per-batch digests — it re-runs pass B over the same
    /// morsels only if something reads its pairs
    /// ([`CandidateSet::deferred`]). Byte-identical to the staged path at
    /// any worker count and channel capacity (pinned by the parity
    /// matrix).
    ///
    /// Report shape is unchanged (all five stage rows): `prune_candidates`
    /// covers the graph build + pass A, `score_pairs` covers the fused
    /// batch — its busy time counts both pruning and scoring work, so
    /// overlap shows up as busy ≫ wall at multiple workers, and
    /// [`PipelineReport::fused`] splits it into pass B and cascade time.
    fn run_fused(
        &self,
        backend: &ExecutionBackend,
        ctx: &Context,
        mb: &MetaBlockingConfig,
        collection: &ProfileCollection,
        supplied: Option<(TokenDict, ProfileKeys)>,
        budget: &MemBudget,
    ) -> PipelineResult {
        let BlockStages {
            partitioning,
            blocks,
            initial_blocks,
            initial_comparisons,
            mut stages,
        } = self.run_block_stages(backend, collection, supplied, budget);
        let StagedBlocks::Compact(TokenBlocks { dict, keys, blocks }) = blocks else {
            unreachable!("the fused backend builds and cleans its blocks on CSR")
        };
        let cleaned_blocks = blocks.len();
        let cleaned_comparisons = blocks.total_comparisons();

        // Stage 3: block graph + pass A (per-node statistics, rule
        // resolution). The pruned-pair count isn't known until the fused
        // batch drains, so the row's output is patched below.
        let scope = StageScope::begin(PipelineStage::PruneCandidates, Some(ctx), budget);
        let block_keys = blocks.keys().iter().map(|&k| dict.resolve(k));
        let entropies = entropies_for(mb, partitioning.as_ref(), block_keys, collection);
        let graph = Arc::new(BlockGraph::from_compact_budgeted(
            &blocks,
            entropies.as_ref(),
            budget,
        ));
        drop((dict, blocks));
        let scoring_started = Instant::now();
        let stream = Arc::new(StreamingMetaBlocking::prepare(ctx, &graph, mb));
        let scoring = ScoringStats {
            edge_scorer: mb.scorer.name(),
            time: scoring_started.elapsed(),
        };
        let prune_row = stages.len();
        stages.push(scope.finish(cleaned_comparisons, 0));

        // Stage 4: the fused prune→score batch.
        let scope = StageScope::begin(PipelineStage::ScorePairs, Some(ctx), budget);
        let matcher =
            ThresholdMatcher::new(self.config.matching.measure, self.config.matching.threshold);
        // The matcher's views come from the token pass's ids when blocking
        // ran one (schema-agnostic blocking); loose-schema key ids are not
        // token ids, so that blocking leaves the views a pass of their own.
        let prepared = if partitioning.is_none() {
            PreparedProfile::prepare_from_keys(Some(ctx), collection, &keys, matcher.measure)
        } else {
            PreparedProfile::prepare_all(collection)
        };
        drop(keys);
        let morsels = stream.cost_morsels(ctx.workers() * 32);
        // The largest batch a morsel can emit: the channel's bytes are
        // bounded by it, not by the average.
        let payload_bytes = morsels
            .iter()
            .map(|range| stream.total_edges(range.clone()))
            .max()
            .unwrap_or(0)
            * std::mem::size_of::<(Pair, f64)>() as u64;
        let capacity = fused_channel_capacity(budget, ctx.workers(), payload_bytes);
        let prune_locals = Arc::new(WorkerLocal::new(ctx.workers(), || stream.make_scratch()));
        let outcome = matcher.score_stream(ctx, &prepared, &morsels, capacity, {
            let stream = &stream;
            let prune_locals = Arc::clone(&prune_locals);
            move |worker, range: &std::ops::Range<u32>, out: &mut Vec<_>| {
                prune_locals.with(worker, |scratch| {
                    stream.prune_range_into(range.clone(), scratch, out)
                })
            }
        });
        let candidates = CandidateSet::deferred(&outcome.retained, move |sink| {
            let mut scratch = stream.make_scratch();
            let mut batch = Vec::new();
            for range in &morsels {
                stream.prune_range_into(range.clone(), &mut scratch, &mut batch);
                sink(&batch);
            }
        });
        let similarity = outcome.similarity;
        stages[prune_row].output = candidates.len() as u64;
        stages.push(scope.finish(candidates.len() as u64, similarity.len() as u64));

        // Stage 5: entity clustering.
        let scope = StageScope::begin(PipelineStage::ClusterEdges, Some(ctx), budget);
        let clusters =
            backend.cluster_edges(self.config.clustering, similarity.edges(), collection);
        stages.push(scope.finish(similarity.len() as u64, clusters.num_clusters() as u64));

        let blocker = BlockerOutput {
            partitioning,
            initial_blocks,
            initial_comparisons,
            cleaned_blocks,
            cleaned_comparisons,
            candidates,
        };
        assemble_result(
            backend,
            budget,
            stages,
            scoring,
            outcome.stats,
            Some(outcome.report),
            blocker,
            similarity,
            clusters,
            collection,
        )
    }

    /// Run the full pipeline on the sequential backend.
    pub fn run(&self, collection: &ProfileCollection) -> PipelineResult {
        self.run_on(&ExecutionBackend::Sequential, collection)
    }
}

/// Edge-scorer observability of one blocker run: which scorer weighted the
/// edges and how long the scoring work took (see
/// [`PipelineReport::edge_scorer`] / [`PipelineReport::scoring`]).
pub(crate) struct ScoringStats {
    edge_scorer: &'static str,
    time: Duration,
}

impl ScoringStats {
    fn off() -> ScoringStats {
        ScoringStats {
            edge_scorer: "off",
            time: Duration::ZERO,
        }
    }
}

/// Output of [`Pipeline::run_block_stages`]: the cleaned block collection
/// plus everything the later stages and the blocker output need.
struct BlockStages {
    partitioning: Option<AttributePartitioning>,
    /// The cleaned blocks: CSR with the pass's dictionary and key ids on
    /// the fused backend, a block collection elsewhere.
    blocks: StagedBlocks,
    initial_blocks: usize,
    initial_comparisons: u64,
    stages: Vec<StageReport>,
}

/// Per-block entropies for entropy re-weighting, when enabled, from the
/// blocks' keys in block order. Without a loose-schema partitioning every
/// key falls in a blob partition whose entropy is constant, so entropy
/// weighting degenerates gracefully to the unweighted scheme.
fn entropies_for<'k>(
    mb: &MetaBlockingConfig,
    partitioning: Option<&AttributePartitioning>,
    keys: impl IntoIterator<Item = &'k str>,
    collection: &ProfileCollection,
) -> Option<BlockEntropies> {
    if !mb.use_entropy {
        return None;
    }
    match partitioning {
        Some(parts) => Some(block_entropies(keys, parts)),
        None => {
            let fallback = AttributePartitioning::manual(collection, vec![]);
            Some(block_entropies(keys, &fallback))
        }
    }
}

/// Assemble the report and final result — shared tail of the staged and
/// fused drivers.
#[allow(clippy::too_many_arguments)]
fn assemble_result(
    backend: &ExecutionBackend,
    budget: &MemBudget,
    stages: Vec<StageReport>,
    scoring: ScoringStats,
    matcher: FilterStats,
    fused: Option<FusedStageStats>,
    blocker: BlockerOutput,
    similarity: SimilarityGraph,
    clusters: EntityClusters,
    collection: &ProfileCollection,
) -> PipelineResult {
    let report = PipelineReport {
        backend: backend.name(),
        workers: backend.workers(),
        edge_scorer: scoring.edge_scorer,
        scoring: scoring.time,
        matcher,
        fused,
        stages,
        mem_budget_bytes: budget.limit_bytes(),
        peak_rss_bytes: MemBudget::peak_rss_bytes(),
        spill_batches: budget.spill_batches(),
        spilled_bytes: budget.spilled_bytes(),
    };
    let timings = report.step_timings();
    PipelineResult {
        blocker,
        similarity,
        clusters,
        timings,
        report,
        comparable_pairs: collection.comparable_pairs(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{BlockingConfig, ClusteringAlgorithm};
    use sparker_datasets::{generate, DatasetConfig, NoiseConfig};

    fn dataset(entities: usize) -> sparker_datasets::GeneratedDataset {
        generate(&DatasetConfig {
            entities,
            unmatched_per_source: entities / 4,
            ..DatasetConfig::default()
        })
    }

    #[test]
    fn default_pipeline_end_to_end() {
        let ds = dataset(100);
        let result = Pipeline::new(PipelineConfig::default()).run(&ds.collection);
        let eval = result.evaluate(&ds.ground_truth);
        assert!(
            eval.blocking.recall > 0.85,
            "blocking recall {}",
            eval.blocking.recall
        );
        assert!(
            eval.blocking.reduction_ratio > 0.5,
            "reduction {}",
            eval.blocking.reduction_ratio
        );
        assert!(
            eval.clustering.f1 > 0.6,
            "cluster F1 {}",
            eval.clustering.f1
        );
        assert!(result.blocker.initial_blocks > 0);
        assert!(result.blocker.cleaned_comparisons <= result.blocker.initial_comparisons);
    }

    #[test]
    fn blast_pipeline_end_to_end() {
        let ds = dataset(100);
        let config = PipelineConfig {
            blocking: BlockingConfig::blast(),
            ..PipelineConfig::default()
        };
        let result = Pipeline::new(config).run(&ds.collection);
        assert!(result.blocker.partitioning.is_some());
        let eval = result.evaluate(&ds.ground_truth);
        assert!(
            eval.blocking.recall > 0.7,
            "blast recall {}",
            eval.blocking.recall
        );
        assert!(!result.blocker.candidates.is_empty());
    }

    #[test]
    fn meta_blocking_reduces_candidates() {
        let ds = dataset(120);
        let mut no_mb = PipelineConfig::default();
        no_mb.blocking.meta_blocking = None;
        let with_mb = PipelineConfig::default();
        let base = Pipeline::new(no_mb).run_blocker(&ds.collection);
        let pruned = Pipeline::new(with_mb).run_blocker(&ds.collection);
        assert!(
            pruned.candidates.len() < base.candidates.len(),
            "{} !< {}",
            pruned.candidates.len(),
            base.candidates.len()
        );
    }

    #[test]
    fn all_clustering_algorithms_run() {
        let ds = dataset(60);
        for algo in [
            ClusteringAlgorithm::ConnectedComponents,
            ClusteringAlgorithm::Center,
            ClusteringAlgorithm::MergeCenter,
            ClusteringAlgorithm::UniqueMapping,
        ] {
            let config = PipelineConfig {
                clustering: algo,
                ..PipelineConfig::default()
            };
            let result = Pipeline::new(config).run(&ds.collection);
            let eval = result.evaluate(&ds.ground_truth);
            assert!(
                eval.clustering.f1 > 0.4,
                "{}: F1 {}",
                algo.name(),
                eval.clustering.f1
            );
        }
    }

    #[test]
    #[should_panic(expected = "clean-clean")]
    fn unique_mapping_on_dirty_panics() {
        let ds = sparker_datasets::generate_dirty(
            &DatasetConfig {
                entities: 20,
                ..DatasetConfig::default()
            },
            2,
        );
        let config = PipelineConfig {
            clustering: ClusteringAlgorithm::UniqueMapping,
            ..PipelineConfig::default()
        };
        Pipeline::new(config).run(&ds.collection);
    }

    #[test]
    fn dirty_pipeline_works() {
        let ds = sparker_datasets::generate_dirty(
            &DatasetConfig {
                entities: 60,
                noise: NoiseConfig::default(),
                ..DatasetConfig::default()
            },
            3,
        );
        let result = Pipeline::new(PipelineConfig::default()).run(&ds.collection);
        let eval = result.evaluate(&ds.ground_truth);
        assert!(
            eval.blocking.recall > 0.8,
            "dirty recall {}",
            eval.blocking.recall
        );
    }

    #[test]
    fn zero_noise_perfect_blocking_recall() {
        let ds = generate(&DatasetConfig {
            entities: 50,
            unmatched_per_source: 10,
            noise: NoiseConfig::none(),
            ..DatasetConfig::default()
        });
        let result = Pipeline::new(PipelineConfig::default()).run(&ds.collection);
        let eval = result.evaluate(&ds.ground_truth);
        assert_eq!(eval.blocking.lost_matches, 0);
        assert_eq!(eval.blocking.recall, 1.0);
    }

    #[test]
    fn timings_are_recorded() {
        let ds = dataset(40);
        let result = Pipeline::new(PipelineConfig::default()).run(&ds.collection);
        // Durations are non-negative by type; just check the steps ran.
        assert!(result.timings.blocking.as_nanos() > 0);
        assert!(result.timings.total() >= result.timings.blocking);
    }

    #[test]
    fn candidate_timing_split_from_blocking() {
        // The default config runs meta-blocking, so both halves of the old
        // combined "blocking" step must be separately visible and non-zero:
        // block construction in `blocking`, graph pruning in `candidates`.
        let ds = dataset(120);
        let result = Pipeline::new(PipelineConfig::default()).run(&ds.collection);
        assert!(
            result.timings.blocking.as_nanos() > 0,
            "block construction timed"
        );
        assert!(
            result.timings.candidates.as_nanos() > 0,
            "meta-blocking timed"
        );
        assert_eq!(
            result.timings.total(),
            result.timings.blocking
                + result.timings.candidates
                + result.timings.matching
                + result.timings.clustering
        );
    }

    #[test]
    fn fused_report_counts_candidates_like_the_staged_run() {
        // The fused driver learns the candidate count only when its batch
        // has drained and patches the report rows afterwards; they must
        // read exactly as the staged run's.
        use crate::report::PipelineStage;
        let ds = dataset(100);
        let pipeline = Pipeline::new(PipelineConfig::default());
        let staged = pipeline.run_on(&ExecutionBackend::Sequential, &ds.collection);
        let fused = pipeline.run_on(&ExecutionBackend::fused(2), &ds.collection);
        assert!(!staged.blocker.candidates.is_empty());
        assert_eq!(fused.blocker.candidates, staged.blocker.candidates);
        for stage in [PipelineStage::PruneCandidates, PipelineStage::ScorePairs] {
            let f = fused.report.stage(stage).unwrap();
            let s = staged.report.stage(stage).unwrap();
            assert_eq!((f.input, f.output), (s.input, s.output), "{}", stage.name());
        }
        let pruned = fused.report.stage(PipelineStage::PruneCandidates).unwrap();
        assert_eq!(pruned.output, fused.blocker.candidates.len() as u64);
        // The fused driver keeps its own numbers: the same cascade counters
        // as the staged matcher, plus the produce/consume split.
        assert_eq!(fused.report.matcher, staged.report.matcher);
        assert_eq!(
            staged.report.matcher.pairs,
            staged.blocker.candidates.len() as u64
        );
        assert_eq!(staged.report.matcher.kept, staged.similarity.len() as u64);
        assert!(staged.report.fused.is_none());
        let split = fused.report.fused.as_ref().expect("fused stats carried");
        assert!(split.morsels > 0);
        assert!(fused.report.to_json().contains("\"produce_busy_s\":"));
    }

    #[test]
    fn report_covers_all_stages_and_matches_outputs() {
        use crate::report::PipelineStage;
        let ds = dataset(100);
        let result = Pipeline::new(PipelineConfig::default()).run(&ds.collection);
        let report = &result.report;
        assert_eq!(report.backend, "sequential");
        assert_eq!(report.workers, 1);
        let names: Vec<&str> = report.stages.iter().map(|s| s.stage.name()).collect();
        assert_eq!(
            names,
            PipelineStage::ALL
                .iter()
                .map(|s| s.name())
                .collect::<Vec<_>>()
        );
        // Cardinalities line up with the assembled outputs.
        let stage = |s| report.stage(s).unwrap();
        assert_eq!(
            stage(PipelineStage::BuildBlocks).input,
            ds.collection.len() as u64
        );
        assert_eq!(
            stage(PipelineStage::BuildBlocks).output,
            result.blocker.initial_blocks as u64
        );
        assert_eq!(
            stage(PipelineStage::FilterBlocks).output,
            result.blocker.cleaned_blocks as u64
        );
        assert_eq!(
            stage(PipelineStage::PruneCandidates).output,
            result.blocker.candidates.len() as u64
        );
        assert_eq!(
            stage(PipelineStage::ScorePairs).output,
            result.similarity.len() as u64
        );
        assert_eq!(
            stage(PipelineStage::ClusterEdges).output,
            result.clusters.num_clusters() as u64
        );
        // The derived legacy split sums to the report's total.
        assert_eq!(result.timings.total(), report.total_wall());
    }
}
