//! Pluggable execution substrates for the unified pipeline driver.
//!
//! SparkER's defining claim is that *one* ER pipeline runs unchanged on a
//! parallel substrate. [`ExecutionBackend`] is that seam in this
//! reproduction: the single driver ([`crate::Pipeline::run_on`]) owns stage
//! ordering, timing and result assembly, and delegates each stage —
//! [`build_blocks`](ExecutionBackend::build_blocks),
//! [`filter_blocks`](ExecutionBackend::filter_blocks),
//! [`prune_candidates`](ExecutionBackend::prune_candidates),
//! [`score_pairs`](ExecutionBackend::score_pairs),
//! [`cluster_edges`](ExecutionBackend::cluster_edges) — to the selected
//! backend. Adding a new substrate means implementing these five entry
//! points, not writing a fourth driver.

use sparker_blocking::{
    block_filtering, keyed_blocking_pass, token_blocking_pass, BlockCollection, BlockSizes,
    CompactBlocks, PurgeConfig, TokenBlocks,
};
use sparker_clustering::{
    cluster_edges, ClusteringAlgorithm, CollectionShape, ComponentsMode, EntityClusters,
};
use sparker_dataflow::{Context, MemBudget};
use sparker_looseschema::{loose_schema_keys, AttributePartitioning};
use sparker_matching::{CandidateGraph, FilterStats, SimilarityGraph, ThresholdMatcher};
use sparker_metablocking::{
    meta_blocking_graph, parallel, BlockEntropies, BlockGraph, MetaBlockingConfig,
};
use sparker_profiles::{
    intern_profile_keys, intern_profiles, Pair, ProfileCollection, ProfileKeys, TokenDict,
};
use std::collections::HashSet;
use std::sync::Arc;

/// An execution substrate for the ER pipeline.
///
/// Production ([`ExecutionBackend::FusedPool`]) × reference oracle
/// ([`ExecutionBackend::Sequential`]) × the paper-faithful reproduction
/// ([`ExecutionBackend::Dataflow`]). All backends produce byte-identical
/// results at any worker count (pinned by the backend-matrix parity suite).
#[derive(Debug, Clone)]
pub enum ExecutionBackend {
    /// Single-threaded driver loops — the oracle the parity suites compare
    /// the engine backends against.
    Sequential,
    /// Every data-parallel stage as dataflow operators: shuffle-based
    /// blocking and filtering, broadcast-join meta-blocking, broadcast
    /// matching, label-propagation connected components (the GraphX path).
    Dataflow(Context),
    /// Morsel-driven persistent worker pool with the prune→score stages
    /// fused: meta-blocking emits pruned pairs through a bounded morsel
    /// channel and the matcher scores them concurrently on the same pool,
    /// so the candidates and matching critical paths overlap and no
    /// `CandidateGraph` is materialized. Blocking is one parallel token
    /// (or loose-schema key) pass into the interned CSR build, purging and
    /// filtering run on that CSR ([`CompactBlocks::clean`]), and the
    /// token pass's per-profile ids become the matcher's prepared views —
    /// no shuffle anywhere. The fusion lives in
    /// [`crate::Pipeline::run_on`]'s driver; the stage entry points called
    /// individually (and a run without meta-blocking, which has nothing to
    /// fuse) are the staged pool stages: the token pass, the CSR filter,
    /// CSR candidate streaming with degree-cost morsels in the matcher,
    /// per-worker union–find forests in the clusterer.
    FusedPool(Context),
}

impl ExecutionBackend {
    /// The dataflow backend on a fresh engine context with `workers`
    /// workers.
    pub fn dataflow(workers: usize) -> Self {
        ExecutionBackend::Dataflow(Context::new(workers))
    }

    /// The fused pool backend on a fresh engine context with `workers`
    /// workers.
    pub fn fused(workers: usize) -> Self {
        ExecutionBackend::FusedPool(Context::new(workers))
    }

    /// Parse a backend name (`"sequential"`, `"dataflow"`, `"fused"`),
    /// attaching a `workers`-sized engine context where one is needed.
    pub fn parse(name: &str, workers: usize) -> Result<Self, String> {
        match name {
            "sequential" => Ok(ExecutionBackend::Sequential),
            "dataflow" => Ok(ExecutionBackend::dataflow(workers)),
            "fused" => Ok(ExecutionBackend::fused(workers)),
            other => Err(format!(
                "unknown backend {other:?}; expected sequential, dataflow or fused"
            )),
        }
    }

    /// Stable backend name.
    pub fn name(&self) -> &'static str {
        match self {
            ExecutionBackend::Sequential => "sequential",
            ExecutionBackend::Dataflow(_) => "dataflow",
            ExecutionBackend::FusedPool(_) => "fused",
        }
    }

    /// The engine context of an engine-backed variant (`None` for
    /// [`ExecutionBackend::Sequential`]).
    pub fn context(&self) -> Option<&Context> {
        match self {
            ExecutionBackend::Sequential => None,
            ExecutionBackend::Dataflow(ctx) | ExecutionBackend::FusedPool(ctx) => Some(ctx),
        }
    }

    /// Worker count (1 for the sequential backend).
    pub fn workers(&self) -> usize {
        self.context().map_or(1, Context::workers)
    }

    /// The memory budget the backend runs under: the engine context's
    /// budget on engine backends (set via [`Context::with_budget`] or the
    /// `SPARKER_MEM_BUDGET_MB` environment variable), a fresh
    /// [`MemBudget::from_env`] on the sequential backend. Clones share
    /// counters with the source, so spill statistics accumulated during a
    /// run are visible through any clone.
    pub fn budget(&self) -> MemBudget {
        match self {
            ExecutionBackend::Sequential => MemBudget::from_env(),
            ExecutionBackend::Dataflow(ctx) | ExecutionBackend::FusedPool(ctx) => {
                ctx.budget().clone()
            }
        }
    }

    /// Stage 1 — (token / loose-schema-keyed) blocking.
    ///
    /// Loose-schema generation itself stays on the driver (it reduces over
    /// a handful of attributes — SparkER does the same); this entry point
    /// turns the collection into blocks on the backend's substrate.
    pub fn build_blocks(
        &self,
        collection: &ProfileCollection,
        partitioning: Option<&AttributePartitioning>,
        budget: &MemBudget,
    ) -> BlockCollection {
        self.build_blocks_keyed(collection, partitioning, budget)
            .into_collection(budget)
    }

    /// [`ExecutionBackend::build_blocks`] before materializing: on the
    /// sequential and fused backends, the blocks of one token pass
    /// (schema-agnostic blocking) or key pass (loose-schema keys) together
    /// with the pass's dictionary and every profile's sorted key ids — on
    /// one thread, as CSR blocks, for the sequential oracle; one
    /// contiguous profile range per worker, and the blocks known by size
    /// until the clean, on the fused pool. The dataflow backend keeps the
    /// paper's `flat_map` → `group_by_key` shuffle.
    pub(crate) fn build_blocks_keyed(
        &self,
        collection: &ProfileCollection,
        partitioning: Option<&AttributePartitioning>,
        budget: &MemBudget,
    ) -> StagedBlocks {
        match (self, partitioning) {
            (ExecutionBackend::Dataflow(ctx), Some(parts)) => StagedBlocks::Collection(
                sparker_blocking::dataflow::keyed_blocking(ctx, collection, |p| {
                    loose_schema_keys(p, parts)
                }),
            ),
            (ExecutionBackend::Dataflow(ctx), None) => StagedBlocks::Collection(
                sparker_blocking::dataflow::token_blocking(ctx, collection),
            ),
            (ExecutionBackend::FusedPool(ctx), Some(parts)) => {
                let (dict, keys) = intern_profile_keys(Some(ctx), collection.profiles(), |p| {
                    loose_schema_keys(p, parts)
                });
                StagedBlocks::sized(collection, dict, keys)
            }
            (ExecutionBackend::FusedPool(ctx), None) => {
                let (dict, keys) = intern_profiles(Some(ctx), collection.profiles());
                StagedBlocks::sized(collection, dict, keys)
            }
            (_, Some(parts)) => StagedBlocks::Compact(keyed_blocking_pass(
                self.context(),
                collection,
                |p| loose_schema_keys(p, parts),
                budget,
            )),
            (_, None) => {
                StagedBlocks::Compact(token_blocking_pass(self.context(), collection, budget))
            }
        }
    }

    /// Stage 2 (second half) — block filtering at `ratio`.
    ///
    /// Block *purging* is a metadata-level filter over block statistics
    /// (SparkER's purging likewise reduces tiny per-block stats), so the
    /// driver applies it; only filtering is a backend entry point. The
    /// fused driver itself cleans its blocks on CSR before they are ever
    /// materialized; this entry point packs a collection it is handed into
    /// CSR and runs the same filter on the pool.
    pub fn filter_blocks(&self, blocks: BlockCollection, ratio: f64) -> BlockCollection {
        match self {
            ExecutionBackend::Sequential => block_filtering(blocks, ratio),
            ExecutionBackend::Dataflow(ctx) => {
                sparker_blocking::dataflow::block_filtering(ctx, blocks, ratio)
            }
            ExecutionBackend::FusedPool(ctx) => {
                let (packed, lists) = CompactBlocks::from_collection(&blocks);
                packed
                    .clean(
                        Some(ctx),
                        &lists,
                        &PurgeConfig::Off,
                        0,
                        Some(ratio),
                        ctx.budget(),
                    )
                    .materialize_with(|b| blocks.blocks()[b.index()].key.clone())
            }
        }
    }

    /// Stage 3 — meta-blocking: build the block graph and prune it to the
    /// retained weighted candidate edges.
    pub fn prune_candidates(
        &self,
        blocks: &BlockCollection,
        entropies: Option<&BlockEntropies>,
        config: &MetaBlockingConfig,
        budget: &MemBudget,
    ) -> Vec<(Pair, f64)> {
        match self {
            ExecutionBackend::Sequential => {
                let graph = BlockGraph::new_budgeted(blocks, entropies, budget);
                meta_blocking_graph(&graph, config)
            }
            ExecutionBackend::Dataflow(ctx) | ExecutionBackend::FusedPool(ctx) => {
                let graph = Arc::new(BlockGraph::new_budgeted(blocks, entropies, budget));
                parallel::meta_blocking(ctx, &graph, config)
            }
        }
    }

    /// Stage 4 — entity matching: score every candidate pair, keep those
    /// at or above the matcher's threshold.
    pub fn score_pairs(
        &self,
        matcher: &ThresholdMatcher,
        collection: &ProfileCollection,
        candidates: &HashSet<Pair>,
        budget: &MemBudget,
    ) -> SimilarityGraph {
        self.score_pairs_with_stats(matcher, collection, candidates, budget)
            .0
    }

    /// [`ExecutionBackend::score_pairs`] plus the matcher cascade's
    /// counters — what the driver carries into the report.
    pub(crate) fn score_pairs_with_stats(
        &self,
        matcher: &ThresholdMatcher,
        collection: &ProfileCollection,
        candidates: &HashSet<Pair>,
        budget: &MemBudget,
    ) -> (SimilarityGraph, FilterStats) {
        match self {
            ExecutionBackend::Sequential => {
                matcher.match_pairs_stats(collection, candidates.iter().copied())
            }
            ExecutionBackend::Dataflow(ctx) => {
                let mut pairs: Vec<Pair> = candidates.iter().copied().collect();
                pairs.sort_unstable();
                matcher.match_pairs_dataflow_stats(ctx, collection, pairs)
            }
            ExecutionBackend::FusedPool(ctx) => {
                let graph = Arc::new(CandidateGraph::from_pairs_budgeted(
                    collection.len(),
                    candidates.iter().copied(),
                    budget,
                ));
                matcher.match_candidates_pool_stats(ctx, collection, &graph)
            }
        }
    }

    /// Stage 5 — entity clustering of the similarity graph.
    ///
    /// Delegates to the workspace's single [`cluster_edges`] dispatch; the
    /// backend only selects the [`ComponentsMode`] for connected
    /// components.
    pub fn cluster_edges(
        &self,
        algorithm: ClusteringAlgorithm,
        edges: &[(Pair, f64)],
        collection: &ProfileCollection,
    ) -> EntityClusters {
        let mode = match self {
            ExecutionBackend::Sequential => ComponentsMode::Sequential,
            ExecutionBackend::Dataflow(ctx) => ComponentsMode::Dataflow(ctx),
            ExecutionBackend::FusedPool(ctx) => ComponentsMode::Pool(ctx),
        };
        cluster_edges(
            algorithm,
            mode,
            edges,
            CollectionShape {
                num_profiles: collection.len(),
                kind: collection.kind(),
                separator: collection.separator(),
            },
        )
    }
}

/// Blocks on their way through stages 1–2.
pub(crate) enum StagedBlocks {
    /// The blocks of a token or key pass known by their sizes, with the
    /// pass's key dictionary and every profile's key ids (fused backend,
    /// stage 1): only the members that survive cleaning are ever
    /// scattered.
    Sized {
        dict: TokenDict,
        keys: ProfileKeys,
        sizes: BlockSizes,
    },
    /// The CSR blocks of a token or key pass, with the pass's key
    /// dictionary and every profile's key ids (sequential backend, and
    /// the fused backend once cleaned).
    Compact(TokenBlocks),
    /// A block collection (the dataflow backend's shuffle output, or any
    /// backend's blocks once materialized).
    Collection(BlockCollection),
}

impl StagedBlocks {
    /// The blocks of a finished token or key pass over `collection`, by
    /// size. Panics when the pass does not cover the collection.
    pub(crate) fn sized(
        collection: &ProfileCollection,
        dict: TokenDict,
        keys: ProfileKeys,
    ) -> Self {
        assert_eq!(
            keys.len(),
            collection.len(),
            "a token pass must cover every profile of the collection"
        );
        let sizes = BlockSizes::from_profile_keys(
            collection.kind(),
            collection.separator(),
            dict.len(),
            &keys,
        );
        StagedBlocks::Sized { dict, keys, sizes }
    }

    /// Number of blocks.
    pub(crate) fn len(&self) -> usize {
        match self {
            StagedBlocks::Sized { sizes, .. } => sizes.len(),
            StagedBlocks::Compact(pass) => pass.blocks.len(),
            StagedBlocks::Collection(blocks) => blocks.len(),
        }
    }

    /// Comparisons over all blocks.
    pub(crate) fn total_comparisons(&self) -> u64 {
        match self {
            StagedBlocks::Sized { sizes, .. } => sizes.total_comparisons(),
            StagedBlocks::Compact(pass) => pass.blocks.total_comparisons(),
            StagedBlocks::Collection(blocks) => blocks.total_comparisons(),
        }
    }

    /// The blocks as a [`BlockCollection`], resolving CSR keys through the
    /// pass's dictionary (blocks known by size are built under `budget`).
    pub(crate) fn into_collection(self, budget: &MemBudget) -> BlockCollection {
        match self {
            StagedBlocks::Sized { dict, keys, sizes } => {
                sizes.into_blocks(&keys, budget).materialize(&dict)
            }
            StagedBlocks::Compact(pass) => pass.blocks.materialize(&pass.dict),
            StagedBlocks::Collection(blocks) => blocks,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Pipeline, PipelineConfig};
    use sparker_datasets::{generate, DatasetConfig};

    fn dataset() -> sparker_datasets::GeneratedDataset {
        generate(&DatasetConfig {
            entities: 120,
            unmatched_per_source: 30,
            seed: 77,
            ..DatasetConfig::default()
        })
    }

    #[test]
    fn engine_metrics_cover_all_stages() {
        let ds = dataset();
        let backend = ExecutionBackend::dataflow(2);
        Pipeline::new(PipelineConfig::default()).run_on(&backend, &ds.collection);
        let ctx = backend.context().unwrap();
        let snap = ctx.metrics();
        assert!(
            snap.stages.iter().any(|s| s.name == "group_by_key"),
            "blocking shuffles"
        );
        assert!(snap.broadcasts >= 2, "meta-blocking + matching broadcasts");
        assert!(snap.total_shuffle_records() > 0);
        // The persistent pool's accounting flows through to the pipeline:
        // operator stages carry wall + busy time, and the context reports
        // cumulative per-worker busy time for its pool. (Driver-recorded
        // `pipeline/…` scope markers aggregate many operators, so they are
        // excluded from the per-operator invariant.)
        assert!(snap
            .stages
            .iter()
            .filter(|s| !s.name.starts_with("pipeline/"))
            .all(|s| s.wall_time >= s.busy_time || s.tasks > 1));
        assert!(snap.total_busy_time() > std::time::Duration::ZERO);
        assert_eq!(snap.worker_busy.len(), ctx.workers());
        assert!(snap.worker_busy.iter().sum::<std::time::Duration>() > std::time::Duration::ZERO);
    }

    #[test]
    fn stage_scope_markers_cover_every_pipeline_stage() {
        let ds = dataset();
        let backend = ExecutionBackend::dataflow(2);
        Pipeline::new(PipelineConfig::default()).run_on(&backend, &ds.collection);
        let snap = backend.context().unwrap().metrics();
        for stage in crate::report::PipelineStage::ALL {
            assert!(
                snap.stages
                    .iter()
                    .any(|s| s.name == format!("pipeline/{}", stage.name())),
                "missing scope marker for {}",
                stage.name()
            );
        }
    }

    #[test]
    fn parse_roundtrips_every_backend() {
        for name in ["sequential", "dataflow", "fused"] {
            let backend = ExecutionBackend::parse(name, 3).unwrap();
            assert_eq!(backend.name(), name);
            if name == "sequential" {
                assert!(backend.context().is_none());
                assert_eq!(backend.workers(), 1);
            } else {
                assert_eq!(backend.workers(), 3);
            }
        }
        for gone in ["spark", "pool"] {
            let err = ExecutionBackend::parse(gone, 2).unwrap_err();
            assert!(err.contains("sequential, dataflow or fused"), "{err}");
        }
    }
}
