//! Property-based tests of whole-pipeline invariants through the facade:
//! whatever the configuration and dataset, the pipeline must produce
//! well-formed, internally consistent results.

use proptest::prelude::*;
use sparker::datasets::{generate, DatasetConfig, Domain, NoiseConfig};
use sparker::matching::SimilarityMeasure;
use sparker::metablocking::{EdgeScorer, MetaBlockingConfig, PruningStrategy, WeightScheme};
use sparker::{
    BlockingConfig, ClusteringAlgorithm, ExecutionBackend, MatcherConfig, Pipeline, PipelineConfig,
    PurgeConfig,
};

fn config_strategy() -> impl Strategy<Value = PipelineConfig> {
    let purge = prop_oneof![
        Just(PurgeConfig::Off),
        (0.3f64..1.0).prop_map(|f| PurgeConfig::Oversized { max_fraction: f }),
        (1.0f64..1.5).prop_map(|s| PurgeConfig::ComparisonLevel { smoothing: s }),
    ];
    let scheme = prop::sample::select(WeightScheme::ALL.to_vec());
    let pruning = prop_oneof![
        (0.5f64..1.5).prop_map(|factor| PruningStrategy::Wep { factor }),
        (0.5f64..1.5, proptest::bool::ANY)
            .prop_map(|(factor, reciprocal)| { PruningStrategy::Wnp { factor, reciprocal } }),
        (0.1f64..0.9).prop_map(|ratio| PruningStrategy::Blast { ratio }),
    ];
    let meta = prop::option::of((scheme, pruning, proptest::bool::ANY).prop_map(
        |(scheme, pruning, use_entropy)| MetaBlockingConfig {
            scorer: EdgeScorer::Classic(scheme),
            pruning,
            use_entropy,
        },
    ));
    let loose = proptest::bool::ANY;
    let measure = prop::sample::select(SimilarityMeasure::ALL.to_vec());
    let clustering = prop::sample::select(vec![
        ClusteringAlgorithm::ConnectedComponents,
        ClusteringAlgorithm::Center,
        ClusteringAlgorithm::MergeCenter,
        ClusteringAlgorithm::Star,
        ClusteringAlgorithm::UniqueMapping,
    ]);
    (purge, meta, loose, measure, (0.1f64..0.8), clustering).prop_map(
        |(purge, meta_blocking, loose, measure, threshold, clustering)| PipelineConfig {
            blocking: BlockingConfig {
                loose_schema: loose.then(Default::default),
                purge,
                filter_ratio: Some(0.8),
                meta_blocking,
            },
            matching: MatcherConfig { measure, threshold },
            clustering,
        },
    )
}

proptest! {
    // Whole-pipeline runs are comparatively slow; keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn pipeline_invariants_hold_for_any_config(
        config in config_strategy(),
        seed in 0u64..1000,
        domain in prop::sample::select(vec![
            Domain::Products,
            Domain::Bibliographic,
            Domain::Citations,
        ]),
    ) {
        let ds = generate(&DatasetConfig {
            entities: 40,
            unmatched_per_source: 10,
            domain,
            noise: NoiseConfig::default(),
            seed,
            skew: None,
        });
        let result = Pipeline::new(config).run(&ds.collection);

        // 1. Candidates are always comparable pairs of the collection.
        for pair in &result.blocker.candidates {
            prop_assert!(ds.collection.is_comparable(pair.first, pair.second));
        }
        // 2. The matcher only keeps candidate pairs, scored within [0, 1].
        for (pair, score) in result.similarity.edges() {
            prop_assert!(result.blocker.candidates.contains(pair));
            prop_assert!((0.0..=1.0 + 1e-12).contains(score));
        }
        // 3. Clusters partition the collection.
        let all: Vec<_> = result
            .clusters
            .clusters()
            .into_iter()
            .flat_map(|(_, m)| m)
            .collect();
        prop_assert_eq!(all.len(), ds.collection.len());
        // 4. (Edge-honouring is clusterer-specific; the dedicated
        //    `connected_components_honours_every_match` test covers the
        //    default clusterer.)
        // 5. Evaluation metrics are well-formed.
        let eval = result.evaluate(&ds.ground_truth);
        for v in [
            eval.blocking.recall,
            eval.blocking.precision,
            eval.matching.recall,
            eval.matching.precision,
            eval.matching.f1,
            eval.clustering.recall,
            eval.clustering.precision,
            eval.clustering.f1,
        ] {
            prop_assert!((0.0..=1.0).contains(&v), "metric {v} out of range");
        }
        prop_assert!(eval.blocking.reduction_ratio <= 1.0);
        // 6. Cleaning never adds comparisons.
        prop_assert!(result.blocker.cleaned_comparisons <= result.blocker.initial_comparisons);
    }

    #[test]
    fn connected_components_honours_every_match(seed in 0u64..500) {
        let ds = generate(&DatasetConfig {
            entities: 40,
            unmatched_per_source: 10,
            seed,
            ..DatasetConfig::default()
        });
        let result = Pipeline::new(PipelineConfig::default()).run(&ds.collection);
        for (pair, _) in result.similarity.edges() {
            prop_assert!(result.clusters.same_entity(pair.first, pair.second));
        }
    }

    #[test]
    fn config_roundtrip_for_arbitrary_configs(config in config_strategy()) {
        let text = config.to_config_string();
        let parsed = PipelineConfig::from_config_string(&text)
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(parsed.to_config_string(), text);
    }

    #[test]
    fn dataflow_runner_matches_sequential_for_arbitrary_configs(
        config in config_strategy(),
        workers in 1usize..5,
    ) {
        let ds = generate(&DatasetConfig {
            entities: 30,
            unmatched_per_source: 8,
            seed: 4242,
            ..DatasetConfig::default()
        });
        let pipeline = Pipeline::new(config);
        let seq = pipeline.run(&ds.collection);
        let par = pipeline.run_on(&ExecutionBackend::dataflow(workers), &ds.collection);
        prop_assert_eq!(&seq.blocker.candidates, &par.blocker.candidates);
        prop_assert_eq!(seq.similarity.edges(), par.similarity.edges());
        prop_assert_eq!(&seq.clusters, &par.clusters);
    }
}
