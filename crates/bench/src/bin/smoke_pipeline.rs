//! End-to-end pipeline smoke: run the unified driver on a small skewed
//! dataset once per execution backend (2 workers for the engine backends)
//! and assert every backend is indistinguishable from the sequential
//! reference (same clusters, same evaluation, same matcher cascade
//! counters). Exercised by `ci.sh`.

use sparker_core::{ExecutionBackend, Pipeline, PipelineConfig};
use sparker_datasets::{
    generate_dirty, DatasetConfig, Domain, GeneratedDataset, NoiseConfig, ZipfSkew,
};

fn main() {
    let ds = skewed_dirty(250);
    let pipeline = Pipeline::new(PipelineConfig::default());

    let sequential = pipeline.run_on(&ExecutionBackend::Sequential, &ds.collection);
    let seq_eval = sequential.evaluate(&ds.ground_truth);

    for backend in [ExecutionBackend::dataflow(2), ExecutionBackend::fused(2)] {
        let result = pipeline.run_on(&backend, &ds.collection);
        assert_eq!(
            sequential.clusters,
            result.clusters,
            "{} backend diverged from sequential clusters",
            backend.name()
        );
        assert_eq!(
            seq_eval,
            result.evaluate(&ds.ground_truth),
            "{} backend diverged from sequential evaluation",
            backend.name()
        );
        assert_eq!(result.report.backend, backend.name());
        assert_eq!(
            sequential.report.matcher,
            result.report.matcher,
            "{} backend diverged from sequential cascade counters",
            backend.name()
        );

        let snap = backend.context().unwrap().metrics();
        let has = |name: &str| snap.stages.iter().any(|s| s.name == name);
        assert!(
            has("pipeline/score_pairs") && has("pipeline/cluster_edges"),
            "{} backend missing stage-scope markers",
            backend.name()
        );
        if backend.name() == "fused" {
            assert!(
                has("fused_prune_score"),
                "prune and score did not run fused"
            );
            assert!(
                has("cluster_components"),
                "clusterer did not run on the pool"
            );
            assert!(
                result.report.fused.is_some(),
                "fused report lost the produce/consume split"
            );
        }
    }

    println!(
        "pipeline smoke OK: {} profiles, {} clusters, clustering F1 {:.4} \
         (dataflow == fused == sequential, 2 workers)",
        ds.collection.len(),
        sequential.clusters.num_clusters(),
        seq_eval.clustering.f1,
    );
}

/// Dirty products catalogue with rank-correlated Zipfian block skew: the
/// first eighth of the file is "popular" and draws many tokens from a
/// Zipf-distributed hot pool, so the blocking graph has a contiguous hub
/// region at low profile ids — the worst case for equal-count contiguous
/// partitioning. The pool is wide and the exponent mild so the hub is made
/// of *many mid-size* hot blocks: those survive the standard
/// purge + block-filtering pipeline (which kills the few monster blocks)
/// and keep the hub dense while the tail goes sparse.
fn skewed_dirty(entities: usize) -> GeneratedDataset {
    generate_dirty(
        &DatasetConfig {
            entities,
            unmatched_per_source: 0,
            domain: Domain::Products,
            noise: NoiseConfig::default(),
            seed: 0x51E3BF,
            skew: Some(ZipfSkew {
                hot_tokens: 1000,
                exponent: 0.4,
                hot_entity_fraction: 0.125,
                appends: 96,
            }),
        },
        2,
    )
}
