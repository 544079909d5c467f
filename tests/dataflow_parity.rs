//! Parity tests: every dataflow (parallel) implementation must produce
//! exactly the result of its sequential counterpart, at every worker
//! count — the property that makes the scalability experiment (E8)
//! meaningful.

use sparker::blocking;
use sparker::clustering::{connected_components, connected_components_dataflow};
use sparker::dataflow::Context;
use sparker::datasets::{generate, DatasetConfig};
use sparker::matching::{Matcher, SimilarityMeasure, ThresholdMatcher};
use sparker::metablocking::{
    meta_blocking_graph, parallel, BlockGraph, EdgeScorer, MetaBlockingConfig, PruningStrategy,
    WeightScheme,
};
use sparker::{Pipeline, PipelineConfig};

fn dataset() -> sparker::datasets::GeneratedDataset {
    generate(&DatasetConfig {
        entities: 150,
        unmatched_per_source: 40,
        seed: 99,
        ..DatasetConfig::default()
    })
}

#[test]
fn blocking_parity_across_workers() {
    let ds = dataset();
    let seq = blocking::token_blocking(&ds.collection);
    for workers in [1usize, 3, 8] {
        let ctx = Context::new(workers);
        let par = blocking::dataflow::token_blocking(&ctx, &ds.collection);
        assert_eq!(par.len(), seq.len(), "workers={workers}");
        assert_eq!(par.candidate_pairs(), seq.candidate_pairs());
    }
}

#[test]
fn filtering_parity() {
    let ds = dataset();
    let blocks = blocking::token_blocking(&ds.collection);
    let seq = blocking::block_filtering(blocks.clone(), 0.8);
    let ctx = Context::new(4);
    let par = blocking::dataflow::block_filtering(&ctx, blocks, 0.8);
    assert_eq!(par.candidate_pairs(), seq.candidate_pairs());
}

#[test]
fn meta_blocking_parity_over_configs_and_workers() {
    let ds = dataset();
    let blocks = blocking::block_filtering(
        blocking::purge_oversized(
            blocking::token_blocking(&ds.collection),
            ds.collection.len(),
            0.5,
        ),
        0.8,
    );
    let graph = std::sync::Arc::new(BlockGraph::new(&blocks, None));
    for scheme in [WeightScheme::Cbs, WeightScheme::Js, WeightScheme::ChiSquare] {
        for pruning in [
            PruningStrategy::Wep { factor: 1.0 },
            PruningStrategy::Cnp {
                k: None,
                reciprocal: false,
            },
            PruningStrategy::Blast { ratio: 0.35 },
        ] {
            let config = MetaBlockingConfig {
                scorer: EdgeScorer::Classic(scheme),
                pruning,
                use_entropy: false,
            };
            let seq = meta_blocking_graph(&graph, &config);
            for workers in [1usize, 4] {
                let ctx = Context::new(workers);
                let par = parallel::meta_blocking(&ctx, &graph, &config);
                assert_eq!(
                    seq,
                    par,
                    "{}+{} at {workers} workers",
                    scheme.name(),
                    pruning.name()
                );
            }
        }
    }
}

#[test]
fn matching_parity() {
    let ds = dataset();
    let blocker = Pipeline::new(PipelineConfig::default()).run_blocker(&ds.collection);
    let candidates: Vec<_> = blocker.candidates.iter().copied().collect();
    let matcher = ThresholdMatcher::new(SimilarityMeasure::Jaccard, 0.3);
    let seq = matcher.match_pairs(&ds.collection, candidates.iter().copied());
    for workers in [1usize, 4] {
        let ctx = Context::new(workers);
        let par = matcher
            .match_pairs_dataflow_stats(&ctx, &ds.collection, candidates.clone())
            .0;
        assert_eq!(seq, par, "workers={workers}");
    }
}

#[test]
fn clustering_parity() {
    let ds = dataset();
    let result = Pipeline::new(PipelineConfig::default()).run(&ds.collection);
    let seq = connected_components(result.similarity.edges(), ds.collection.len());
    for workers in [1usize, 4] {
        let ctx = Context::new(workers);
        let par =
            connected_components_dataflow(&ctx, result.similarity.edges(), ds.collection.len());
        assert_eq!(seq, par, "workers={workers}");
    }
}
