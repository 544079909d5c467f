//! Backend-matrix parity suite, driven through the *unified* driver.
//!
//! Every cell of `backend ∈ {Sequential, Dataflow(w), FusedPool(w)} ×
//! {CleanClean, Dirty} × {default, blast} × workers ∈ {1, 2, 8}` must be
//! *indistinguishable* from the sequential reference run: identical candidate sets, identical similarity graphs, identical
//! entity clusters, identical evaluations. One helper asserts the whole
//! matrix — there is no per-driver test copy anywhere else.

use proptest::prelude::*;
use sparker_core::{
    BlockingConfig, ClusteringAlgorithm, ExecutionBackend, LostPairsReport, Pipeline,
    PipelineConfig, PipelineResult,
};
use sparker_datasets::{generate, generate_dirty, DatasetConfig, GeneratedDataset, ZipfSkew};
use sparker_profiles::{intern_profiles, Attribute, Pair, ProfileCollection};

const WORKERS: [usize; 3] = [1, 2, 8];

fn clean_dataset(entities: usize, seed: u64, skewed: bool) -> GeneratedDataset {
    generate(&DatasetConfig {
        entities,
        unmatched_per_source: entities / 4,
        seed,
        skew: skewed.then(ZipfSkew::default),
        ..DatasetConfig::default()
    })
}

fn dirty_dataset(entities: usize, seed: u64, skewed: bool) -> GeneratedDataset {
    generate_dirty(
        &DatasetConfig {
            entities,
            seed,
            skew: skewed.then(ZipfSkew::default),
            ..DatasetConfig::default()
        },
        2,
    )
}

fn config_with(algorithm: ClusteringAlgorithm) -> PipelineConfig {
    PipelineConfig {
        clustering: algorithm,
        ..PipelineConfig::default()
    }
}

/// The engine-backed backends at one worker count.
fn engine_backends(workers: usize) -> [ExecutionBackend; 2] {
    [
        ExecutionBackend::dataflow(workers),
        ExecutionBackend::fused(workers),
    ]
}

/// Every observable output of `run` equals the sequential reference's.
fn assert_equivalent(
    reference: &PipelineResult,
    run: &PipelineResult,
    ds: &GeneratedDataset,
    tag: &str,
) {
    assert_eq!(
        reference.blocker.candidates, run.blocker.candidates,
        "{tag}"
    );
    assert_eq!(reference.similarity, run.similarity, "{tag}");
    assert_eq!(reference.clusters, run.clusters, "{tag}");
    assert_eq!(
        reference.blocker.initial_blocks, run.blocker.initial_blocks,
        "{tag}"
    );
    assert_eq!(
        reference.blocker.initial_comparisons, run.blocker.initial_comparisons,
        "{tag}"
    );
    assert_eq!(
        reference.blocker.cleaned_blocks, run.blocker.cleaned_blocks,
        "{tag}"
    );
    assert_eq!(
        reference.blocker.cleaned_comparisons, run.blocker.cleaned_comparisons,
        "{tag}"
    );
    assert_eq!(
        reference.evaluate(&ds.ground_truth),
        run.evaluate(&ds.ground_truth),
        "{tag}"
    );
}

/// Run the full backend matrix for one pipeline on one dataset: the
/// sequential backend is the reference; dataflow and fused must match it
/// at 1, 2 and 8 workers.
fn assert_backend_matrix(pipeline: &Pipeline, ds: &GeneratedDataset) {
    let reference = pipeline.run_on(&ExecutionBackend::Sequential, &ds.collection);
    assert_eq!(reference.report.backend, "sequential");
    for workers in WORKERS {
        for backend in engine_backends(workers) {
            let run = pipeline.run_on(&backend, &ds.collection);
            let tag = format!("backend={} workers={workers}", backend.name());
            assert_eq!(run.report.backend, backend.name(), "{tag}");
            assert_eq!(run.report.workers, workers, "{tag}");
            assert_equivalent(&reference, &run, ds, &tag);
        }
    }
}

#[test]
fn backend_matrix_clean_clean_default_and_blast() {
    for skewed in [false, true] {
        let ds = clean_dataset(90, 11, skewed);
        for blocking in [BlockingConfig::default(), BlockingConfig::blast()] {
            let pipeline = Pipeline::new(PipelineConfig {
                blocking,
                ..PipelineConfig::default()
            });
            assert_backend_matrix(&pipeline, &ds);
        }
    }
}

#[test]
fn backend_matrix_dirty_default_and_blast() {
    for skewed in [false, true] {
        let ds = dirty_dataset(60, 23, skewed);
        for blocking in [BlockingConfig::default(), BlockingConfig::blast()] {
            let pipeline = Pipeline::new(PipelineConfig {
                blocking,
                ..PipelineConfig::default()
            });
            assert_backend_matrix(&pipeline, &ds);
        }
    }
}

#[test]
fn backend_matrix_supervised_scorer() {
    // The supervised edge scorer must be backend- and worker-invariant
    // exactly like the classic schemes: same candidates, similarity graph
    // and clusters across Sequential/Dataflow/FusedPool at 1/2/8.
    use sparker_metablocking::{EdgeScorer, LinearModel, MetaBlockingConfig};
    let mut model = LinearModel::zero();
    model.weights[0] = 0.7; // shared blocks
    model.weights[3] = 2.0; // jaccard
    model.weights[11] = -0.02; // max degree
    model.bias = -1.0;
    let mut config = PipelineConfig::default();
    config.blocking.meta_blocking = Some(MetaBlockingConfig {
        scorer: EdgeScorer::Supervised(model),
        ..MetaBlockingConfig::default()
    });
    let pipeline = Pipeline::new(config);
    for ds in [clean_dataset(90, 11, true), dirty_dataset(60, 23, true)] {
        assert_backend_matrix(&pipeline, &ds);
        let run = pipeline.run_on(&ExecutionBackend::Sequential, &ds.collection);
        assert_eq!(run.report.edge_scorer, "SUPERVISED");
        assert!(run.report.scoring.as_nanos() > 0);
    }
}

#[test]
fn backend_matrix_zipf_dense_count_kernels() {
    // A Zipf-skewed dirty collection (600 entities, ~1 200 profiles) whose
    // hot prefix makes a dense block graph: nearly every walk is dense
    // enough to sweep, a few dozen go through the bitmap. Under the
    // scorers that take each node-pass path: CBS (count-only walk; integer
    // pass A under WEP), JS (count-only walk, weighed pass A) and ARCS (the
    // walk with sums) — each with a global and a node-centric rule.
    // Candidates must match with their weights, bit for bit.
    use sparker_metablocking::{EdgeScorer, MetaBlockingConfig, PruningStrategy, WeightScheme};
    let ds = generate_dirty(
        &DatasetConfig {
            entities: 600,
            seed: 29,
            skew: Some(ZipfSkew {
                hot_tokens: 200,
                exponent: 0.4,
                hot_entity_fraction: 0.1,
                appends: 40,
            }),
            ..DatasetConfig::default()
        },
        2,
    );
    let weighted = |r: &PipelineResult| -> Vec<(Pair, u64)> {
        r.blocker
            .candidates
            .weighted()
            .map(|&(p, w)| (p, w.to_bits()))
            .collect()
    };
    for scheme in [WeightScheme::Cbs, WeightScheme::Js, WeightScheme::Arcs] {
        for pruning in [
            PruningStrategy::Wep { factor: 1.0 },
            PruningStrategy::Cnp {
                k: None,
                reciprocal: true,
            },
        ] {
            let mut config = PipelineConfig::default();
            config.blocking.meta_blocking = Some(MetaBlockingConfig {
                scorer: EdgeScorer::Classic(scheme),
                pruning,
                use_entropy: false,
            });
            let pipeline = Pipeline::new(config);
            let reference = pipeline.run_on(&ExecutionBackend::Sequential, &ds.collection);
            assert!(!reference.blocker.candidates.is_empty());
            for backend in engine_backends(2) {
                let run = pipeline.run_on(&backend, &ds.collection);
                let tag = format!("{}+{} on {}", scheme.name(), pruning.name(), backend.name());
                assert_eq!(weighted(&reference), weighted(&run), "{tag}");
                assert_equivalent(&reference, &run, &ds, &tag);
            }
        }
    }
}

#[test]
fn backend_matrix_all_clustering_algorithms() {
    // Clean–clean covers all five algorithms; dirty skips unique-mapping
    // (clean–clean only). One worker count per cell — worker invariance is
    // covered by the matrix tests above.
    let clean = clean_dataset(90, 11, true);
    for algorithm in ClusteringAlgorithm::ALL {
        let pipeline = Pipeline::new(config_with(algorithm));
        let reference = pipeline.run_on(&ExecutionBackend::Sequential, &clean.collection);
        for backend in engine_backends(4) {
            let run = pipeline.run_on(&backend, &clean.collection);
            let tag = format!("{} on {}", algorithm.name(), backend.name());
            assert_equivalent(&reference, &run, &clean, &tag);
        }
    }
    let dirty = dirty_dataset(60, 23, true);
    for algorithm in &ClusteringAlgorithm::ALL[..4] {
        let pipeline = Pipeline::new(config_with(*algorithm));
        let reference = pipeline.run_on(&ExecutionBackend::Sequential, &dirty.collection);
        for backend in engine_backends(4) {
            let run = pipeline.run_on(&backend, &dirty.collection);
            let tag = format!("{} on {}", algorithm.name(), backend.name());
            assert_equivalent(&reference, &run, &dirty, &tag);
        }
    }
}

/// `ds` with ten code tokens per true match, shared by exactly its two
/// representations: ~600 tokens of document frequency 2, more than the 512
/// hot ids hold, so matching pairs share tail tokens as well as hot ones.
fn with_match_codes(ds: &GeneratedDataset) -> GeneratedDataset {
    let mut profiles = ds.collection.profiles().to_vec();
    for (k, pair) in ds.ground_truth.iter().enumerate() {
        let codes: Vec<String> = (0..10).map(|c| format!("m{k}x{c}")).collect();
        for id in [pair.first, pair.second] {
            profiles[id.index()].attributes.push(Attribute {
                name: "code".to_string(),
                value: codes.join(" "),
            });
        }
    }
    let (a, b) = profiles.split_at(ds.collection.separator() as usize);
    GeneratedDataset {
        collection: ProfileCollection::clean_clean(a.to_vec(), b.to_vec()),
        ground_truth: ds.ground_truth.clone(),
    }
}

#[test]
fn cascade_matches_naive_scorer_across_backends() {
    // The filter–verify cascade is the default scoring path on every
    // backend; it must retain exactly the pairs the naive score-everything
    // matcher retains, with bit-identical scores — for every similarity
    // measure, at permissive / default-ish / strict thresholds, through
    // the sequential, dataflow and staged pool matchers alike (`score_pairs`
    // on the fused backend is the staged pool matcher). The collection has
    // more than 512 distinct tokens, so every matcher's prepared views
    // carry both a bitset-counted hot prefix and a merge-joined tail, and
    // both carry matches: some share hot tokens, some tail tokens.
    use sparker_matching::{
        Matcher, PreparedProfile, ScoringMode, SimilarityMeasure, ThresholdMatcher,
    };
    use std::collections::HashSet;
    let ds = with_match_codes(&clean_dataset(60, 11, true));
    let prepared = PreparedProfile::prepare_all(&ds.collection);
    let vocabulary: HashSet<u32> = prepared
        .iter()
        .flat_map(|p| p.token_ids.iter().copied())
        .collect();
    assert!(
        vocabulary.len() > 512,
        "{} distinct tokens",
        vocabulary.len()
    );
    let pipeline = Pipeline::new(PipelineConfig::default());
    let blocked = pipeline.run_on(&ExecutionBackend::Sequential, &ds.collection);
    let candidates: HashSet<_> = blocked.blocker.candidates.iter().copied().collect();
    assert!(!candidates.is_empty());
    let jaccard = ThresholdMatcher::with_mode(SimilarityMeasure::Jaccard, 0.5, ScoringMode::Naive)
        .match_pairs(&ds.collection, candidates.iter().copied());
    let shares = |pair: &Pair, hot: bool| {
        let b = &prepared[pair.second.index()].token_ids;
        prepared[pair.first.index()]
            .token_ids
            .iter()
            .any(|t| (*t < 512) == hot && b.binary_search(t).is_ok())
    };
    for hot in [true, false] {
        assert!(
            jaccard.edges().iter().any(|(p, _)| shares(p, hot)),
            "no match shares {} tokens",
            if hot { "hot" } else { "tail" }
        );
    }
    for measure in SimilarityMeasure::ALL {
        for threshold in [0.3, 0.5, 0.8] {
            let naive = ThresholdMatcher::with_mode(measure, threshold, ScoringMode::Naive)
                .match_pairs(&ds.collection, candidates.iter().copied());
            let cascade = ThresholdMatcher::with_mode(measure, threshold, ScoringMode::Cascade);
            for backend in [
                ExecutionBackend::Sequential,
                ExecutionBackend::dataflow(2),
                ExecutionBackend::fused(2),
            ] {
                let got =
                    backend.score_pairs(&cascade, &ds.collection, &candidates, &backend.budget());
                assert_eq!(
                    got,
                    naive,
                    "cascade diverged from naive: {} @ {threshold} on {}",
                    measure.name(),
                    backend.name()
                );
            }
        }
    }
}

#[test]
fn report_is_stage_complete_on_every_backend() {
    use sparker_core::PipelineStage;
    let ds = clean_dataset(90, 5, true);
    let pipeline = Pipeline::new(PipelineConfig::default());
    let backends = [
        ExecutionBackend::Sequential,
        ExecutionBackend::dataflow(2),
        ExecutionBackend::fused(2),
    ];
    for backend in backends {
        let result = pipeline.run_on(&backend, &ds.collection);
        let names: Vec<&str> = result
            .report
            .stages
            .iter()
            .map(|s| s.stage.name())
            .collect();
        assert_eq!(
            names,
            PipelineStage::ALL
                .iter()
                .map(|s| s.name())
                .collect::<Vec<_>>(),
            "backend={}",
            backend.name()
        );
        assert!(
            result.timings.blocking.as_nanos() > 0,
            "backend={}",
            backend.name()
        );
        assert_eq!(
            result.report.edge_scorer,
            "CBS",
            "backend={}",
            backend.name()
        );
        assert_eq!(result.timings.total(), result.report.total_wall());
        // The JSON dump carries every stage row.
        let json = result.report.to_json();
        for stage in PipelineStage::ALL {
            assert!(json.contains(stage.name()), "{json}");
        }
    }
}

#[test]
fn engine_backends_record_matcher_and_clusterer_stages() {
    let ds = clean_dataset(90, 5, true);
    // Without meta-blocking there is nothing to fuse: the fused backend
    // runs the staged pool matcher.
    let mut unpruned = PipelineConfig::default();
    unpruned.blocking.meta_blocking = None;
    let staged = ExecutionBackend::fused(4);
    Pipeline::new(unpruned).run_on(&staged, &ds.collection);
    let names: Vec<String> = staged
        .context()
        .unwrap()
        .metrics()
        .stages
        .iter()
        .map(|s| s.name.clone())
        .collect();
    assert!(
        names.iter().any(|n| n == "match_candidates"),
        "matcher stage missing from {names:?}"
    );
    assert!(
        names.iter().any(|n| n == "cluster_components"),
        "clusterer stage missing from {names:?}"
    );
    // The stage scopes land in the same metrics stream.
    assert!(
        names.iter().any(|n| n == "pipeline/score_pairs"),
        "scope marker missing from {names:?}"
    );

    // With meta-blocking on, the overlapped prune→score batch replaces
    // the staged matcher.
    let fused = ExecutionBackend::fused(4);
    Pipeline::new(PipelineConfig::default()).run_on(&fused, &ds.collection);
    let names: Vec<String> = fused
        .context()
        .unwrap()
        .metrics()
        .stages
        .iter()
        .map(|s| s.name.clone())
        .collect();
    assert!(
        names.iter().any(|n| n == "fused_prune_score"),
        "fused stage missing from {names:?}"
    );
    assert!(
        names.iter().any(|n| n == "prune_pass_a"),
        "pass-A stage missing from {names:?}"
    );
    assert!(
        !names.iter().any(|n| n == "match_candidates"),
        "fused run built the staged matcher: {names:?}"
    );
    let fused_stage = fused
        .context()
        .unwrap()
        .metrics()
        .stages
        .iter()
        .find(|s| s.name == "fused_prune_score")
        .cloned()
        .unwrap();
    assert!(fused_stage.tasks > 0);
    assert!(!fused_stage.per_worker_busy.is_empty());
}

#[test]
fn fused_matches_sequential_under_scaling_config() {
    // The scaling-tier configuration (comparison-level purge, 0.5 filter,
    // its own meta-blocking setting) is the other production config; the
    // fused driver must agree with the sequential run on it too, clean and
    // dirty, across worker counts.
    for (tag, ds) in [
        ("clean", clean_dataset(80, 7, true)),
        ("dirty", dirty_dataset(50, 31, true)),
    ] {
        let pipeline = Pipeline::new(PipelineConfig::scaling());
        let reference = pipeline.run_on(&ExecutionBackend::Sequential, &ds.collection);
        for workers in WORKERS {
            let run = pipeline.run_on(&ExecutionBackend::fused(workers), &ds.collection);
            assert_equivalent(
                &reference,
                &run,
                &ds,
                &format!("scaling {tag} fused workers={workers}"),
            );
            assert!(
                reference
                    .blocker
                    .candidates
                    .weighted()
                    .eq(run.blocker.candidates.weighted()),
                "scaling {tag} fused workers={workers}: weighted candidates diverged"
            );
            assert_eq!(
                reference.report.matcher, run.report.matcher,
                "scaling {tag} fused workers={workers}: cascade counters diverged"
            );
        }
    }
}

#[test]
fn fused_runs_shuffle_nothing() {
    // The fused backend blocks (token pass or loose-schema key pass),
    // purges and filters on CSR: with meta-blocking on or off, with
    // schema-agnostic or loose-schema blocking, its engine moves no record
    // through a shuffle — and still equals the sequential oracle.
    let ds = clean_dataset(80, 19, true);
    for blocking in [BlockingConfig::default(), BlockingConfig::blast()] {
        for meta_blocking in [true, false] {
            let mut config = PipelineConfig {
                blocking: blocking.clone(),
                ..PipelineConfig::default()
            };
            if !meta_blocking {
                config.blocking.meta_blocking = None;
            }
            let pipeline = Pipeline::new(config);
            let reference = pipeline.run_on(&ExecutionBackend::Sequential, &ds.collection);
            let backend = ExecutionBackend::fused(2);
            let run = pipeline.run_on(&backend, &ds.collection);
            let tag = format!(
                "loose_schema={} meta_blocking={meta_blocking}",
                blocking.loose_schema.is_some()
            );
            assert_equivalent(&reference, &run, &ds, &tag);
            let snap = backend.context().unwrap().metrics();
            assert_eq!(snap.total_shuffle_records(), 0, "{tag}");
        }
    }
}

#[test]
fn fused_run_on_a_supplied_pass_matches_sequential() {
    // A run handed its token pass (what the CLI's text-free load takes
    // while parsing) over the text-free collection must equal the
    // sequential oracle over the full one — candidates, weights, cascade
    // counters, clusters and evaluation — under both production configs,
    // clean and dirty, at every worker count.
    for config in [PipelineConfig::default(), PipelineConfig::scaling()] {
        assert!(config.text_readers().is_empty());
        let pipeline = Pipeline::new(config);
        for (tag, ds) in [
            ("clean", clean_dataset(80, 23, true)),
            ("dirty", dirty_dataset(50, 29, false)),
        ] {
            let reference = pipeline.run_on(&ExecutionBackend::Sequential, &ds.collection);
            let bare = ds.collection.clone().without_text();
            for workers in WORKERS {
                let backend = ExecutionBackend::fused(workers);
                let pass = intern_profiles(backend.context(), ds.collection.profiles());
                let run = pipeline.run_on_pass(&backend, &bare, pass);
                let tag = format!("supplied pass {tag} workers={workers}");
                assert_equivalent(&reference, &run, &ds, &tag);
                assert!(
                    reference
                        .blocker
                        .candidates
                        .weighted()
                        .eq(run.blocker.candidates.weighted()),
                    "{tag}: weighted candidates diverged"
                );
                assert_eq!(reference.report.matcher, run.report.matcher, "{tag}");
            }
        }
    }
}

#[test]
#[should_panic(expected = "text-free collection runs only with the token pass")]
fn text_free_collection_without_its_pass_fails() {
    let ds = dirty_dataset(20, 3, false);
    let bare = ds.collection.without_text();
    Pipeline::new(PipelineConfig::scaling()).run_on(&ExecutionBackend::fused(2), &bare);
}

#[test]
fn supplied_pass_refuses_text_readers_and_other_backends() {
    // Every configuration that reads text, and every backend but fused,
    // must refuse a supplied pass rather than score empty text.
    let ds = dirty_dataset(20, 5, false);
    let bare = ds.collection.clone().without_text();
    let run = |config: PipelineConfig, backend: ExecutionBackend| {
        let pass = intern_profiles(None, ds.collection.profiles());
        let bare = bare.clone();
        std::panic::catch_unwind(move || {
            Pipeline::new(config).run_on_pass(&backend, &bare, pass);
        })
        .is_err()
    };
    let mut entropy = PipelineConfig::default();
    entropy.blocking.meta_blocking.as_mut().unwrap().use_entropy = true;
    let mut levenshtein = PipelineConfig::default();
    levenshtein.matching.measure = sparker_matching::SimilarityMeasure::Levenshtein;
    let mut no_mb = PipelineConfig::default();
    no_mb.blocking.meta_blocking = None;
    let loose = PipelineConfig {
        blocking: BlockingConfig::blast(),
        ..PipelineConfig::default()
    };
    for (config, reader) in [
        (entropy, "mb.entropy"),
        (levenshtein, "matcher.measure"),
        (no_mb, "meta_blocking"),
        (loose, "loose_schema"),
    ] {
        assert!(config.text_readers().contains(&reader), "{reader}");
        assert!(
            run(config, ExecutionBackend::fused(2)),
            "{reader} accepted a pass"
        );
    }
    for backend in [ExecutionBackend::Sequential, ExecutionBackend::dataflow(2)] {
        let name = backend.name();
        assert!(
            run(PipelineConfig::default(), backend),
            "{name} accepted a pass"
        );
    }
    // The lost-pair drill-down reads shared tokens: not from a bare
    // collection either.
    let result = Pipeline::new(PipelineConfig::default()).run_on_pass(
        &ExecutionBackend::fused(2),
        &bare,
        intern_profiles(None, ds.collection.profiles()),
    );
    let drill_down = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        LostPairsReport::build(&bare, &ds.ground_truth, &result.blocker.candidates)
    }));
    assert!(drill_down.is_err());
}

#[test]
fn fused_without_meta_blocking_degrades_to_staged() {
    // No pruning stage → nothing to fuse; the fused backend must still
    // produce the staged results through the staged path.
    let ds = clean_dataset(70, 13, false);
    let mut config = PipelineConfig::default();
    config.blocking.meta_blocking = None;
    let pipeline = Pipeline::new(config);
    let reference = pipeline.run_on(&ExecutionBackend::Sequential, &ds.collection);
    let run = pipeline.run_on(&ExecutionBackend::fused(4), &ds.collection);
    assert_equivalent(&reference, &run, &ds, "fused without meta-blocking");
    assert_eq!(run.report.backend, "fused");
}

proptest! {
    // Dataset generation + three pipeline runs per case: keep the case
    // count modest; the deterministic matrix sweeps above cover the full
    // grid.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn clean_clean_parity_proptest(
        seed in 0u64..1_000,
        entities in 30usize..80,
        workers in prop::sample::select(&WORKERS[..]),
        skewed in any::<bool>(),
        algorithm in prop::sample::select(&ClusteringAlgorithm::ALL[..]),
    ) {
        let ds = clean_dataset(entities, seed, skewed);
        let pipeline = Pipeline::new(config_with(algorithm));
        let reference = pipeline.run_on(&ExecutionBackend::Sequential, &ds.collection);
        for backend in engine_backends(workers) {
            let run = pipeline.run_on(&backend, &ds.collection);
            prop_assert_eq!(&reference.similarity, &run.similarity);
            prop_assert_eq!(&reference.clusters, &run.clusters);
            prop_assert_eq!(
                reference.evaluate(&ds.ground_truth),
                run.evaluate(&ds.ground_truth)
            );
        }
    }

    #[test]
    fn dirty_parity_proptest(
        seed in 0u64..1_000,
        entities in 20usize..60,
        workers in prop::sample::select(&WORKERS[..]),
        skewed in any::<bool>(),
        algorithm in prop::sample::select(&ClusteringAlgorithm::ALL[..4]),
    ) {
        let ds = dirty_dataset(entities, seed, skewed);
        let pipeline = Pipeline::new(config_with(algorithm));
        let reference = pipeline.run_on(&ExecutionBackend::Sequential, &ds.collection);
        for backend in engine_backends(workers) {
            let run = pipeline.run_on(&backend, &ds.collection);
            prop_assert_eq!(&reference.similarity, &run.similarity);
            prop_assert_eq!(&reference.clusters, &run.clusters);
            prop_assert_eq!(
                reference.evaluate(&ds.ground_truth),
                run.evaluate(&ds.ground_truth)
            );
        }
    }
}

#[test]
fn fused_plan_into_score_stream_is_capacity_invariant() {
    // Channel capacity is a scheduling parameter, never a semantic one. The
    // matcher's own test sweeps it over pre-cut uniform batches; this is
    // the fused driver's actual wiring — the plan's `prune_range_into`
    // producers with per-worker scratch, recycled buffers and hub-skewed
    // payloads — at a capacity of 1 (fully serialized hand-off), 2 and
    // effectively unbounded, against the sequential run. The producers
    // record every batch they hand over, so what was produced is compared
    // element by element, not only through the consumers' digests. The
    // third collection is one dense block of 1 150 profiles (~660 k
    // forward edges): at one worker an even share of 32 morsels would be
    // ~21 k edges, so the plan's 16 Ki-pair cap sets its boundaries.
    use sparker_core::PurgeConfig;
    use sparker_dataflow::{Context, WorkerLocal};
    use sparker_matching::{BatchDigest, PreparedProfile, RetainedDigest, ThresholdMatcher};
    use sparker_metablocking::{BlockGraph, StreamingMetaBlocking};
    use sparker_profiles::{Profile, SourceId};
    use std::sync::{Arc, Mutex};
    const MORSEL_PAIRS: u64 = 16 * 1024;
    let mut config = PipelineConfig::default();
    config.blocking.purge = PurgeConfig::Off;
    config.blocking.filter_ratio = None;
    let mb = config.blocking.meta_blocking.unwrap();
    let matcher = ThresholdMatcher::new(config.matching.measure, config.matching.threshold);
    let sequential = ExecutionBackend::Sequential;
    let dense = ProfileCollection::dirty(
        (0..1150)
            .map(|i| {
                Profile::builder(SourceId(0), i.to_string())
                    .attr("name", format!("common w{} v{} u{}", i % 17, i % 23, i % 5))
                    .build()
            })
            .collect(),
    );
    let mut capped = false;
    for collection in [
        clean_dataset(70, 17, true).collection,
        dirty_dataset(50, 29, true).collection,
        dense,
    ] {
        let reference = Pipeline::new(config.clone()).run_on(&sequential, &collection);
        assert!(!reference.similarity.is_empty());
        let blocks = sequential.build_blocks(&collection, None, &sequential.budget());
        let graph = Arc::new(BlockGraph::new(&blocks, None));
        for workers in WORKERS {
            let ctx = Context::new(workers);
            let plan = StreamingMetaBlocking::prepare(&ctx, &graph, &mb);
            let morsels = plan.cost_morsels(workers * 32);
            let edges = plan.total_edges(0..plan.num_nodes() as u32);
            for range in morsels.iter().filter(|r| r.len() > 1) {
                assert!(plan.total_edges(range.clone()) <= MORSEL_PAIRS, "{range:?}");
            }
            if edges / (workers as u64 * 32) > MORSEL_PAIRS {
                assert!(
                    morsels.len() > workers * 32,
                    "the pair cap cuts more morsels"
                );
                capped = true;
            }
            let scratches = WorkerLocal::new(workers, || plan.make_scratch());
            let prepared = PreparedProfile::prepare_all(&collection);
            for capacity in [1, 2, 1 << 20] {
                let produced = Mutex::new(Vec::new());
                let out = matcher.score_stream(
                    &ctx,
                    &prepared,
                    &morsels,
                    capacity,
                    |worker, range: &std::ops::Range<u32>, batch: &mut Vec<_>| {
                        scratches.with(worker, |scratch| {
                            plan.prune_range_into(range.clone(), scratch, batch)
                        });
                        produced.lock().unwrap().push((range.start, batch.clone()));
                    },
                );
                let tag = format!("workers={workers} capacity={capacity}");
                let mut produced = produced.into_inner().unwrap();
                produced.sort_by_key(|&(start, _)| start);
                assert_eq!(produced.len(), morsels.len(), "{tag}");
                assert!(
                    produced
                        .iter()
                        .flat_map(|(_, batch)| batch)
                        .eq(reference.blocker.candidates.weighted()),
                    "{tag}"
                );
                let digests: Vec<BatchDigest> =
                    produced.iter().map(|(_, b)| BatchDigest::of(b)).collect();
                assert_eq!(out.retained, digests, "{tag}");
                assert_eq!(
                    RetainedDigest::fold(&out.retained).len(),
                    reference.blocker.candidates.len(),
                    "{tag}"
                );
                assert!(out.report.payloads <= capacity + 2 * workers, "{tag}");
                assert!(out.report.max_batch as u64 <= MORSEL_PAIRS, "{tag}");
                assert_eq!(out.similarity, reference.similarity, "{tag}");
            }
        }
    }
    assert!(
        capped,
        "no collection was dense enough to engage the pair cap"
    );
}

#[test]
fn budgeted_pipeline_is_bit_identical_to_in_ram() {
    // The out-of-core path must be an *implementation detail*: a hard
    // memory budget small enough to force spilling in every spill-capable
    // stage changes nothing observable. Reference = unbudgeted sequential;
    // matrix = budgeted engine backends across worker counts, on a shrunk
    // dirty_10k preset (same generator and seed, fewer entities).
    use sparker_dataflow::{Context, MemBudget};
    let mut preset = sparker_datasets::Preset::by_name("dirty_10k").unwrap();
    preset.config.entities = 400;
    let ds = preset.generate();
    let pipeline = Pipeline::new(PipelineConfig::default());
    let reference = pipeline.run_on(&ExecutionBackend::Sequential, &ds.collection);
    assert_eq!(reference.report.mem_budget_bytes, 0, "reference is in-RAM");
    assert_eq!(reference.report.spill_batches, 0, "reference never spills");
    for workers in [1, 2, 4] {
        for make in [ExecutionBackend::Dataflow, ExecutionBackend::FusedPool] {
            let budget = MemBudget::limited(16 * 1024);
            let backend = make(Context::new(workers).with_budget(budget.clone()));
            let run = pipeline.run_on(&backend, &ds.collection);
            let tag = format!("budgeted backend={} workers={workers}", backend.name());
            assert_equivalent(&reference, &run, &ds, &tag);
            assert_eq!(run.report.mem_budget_bytes, 16 * 1024, "{tag}");
            // Only the dataflow backend's shuffles spill; the fused
            // backend blocks and cleans on CSR and has nothing to spill.
            let shuffles = backend.name() == "dataflow";
            assert_eq!(run.report.spill_batches > 0, shuffles, "{tag}");
            assert_eq!(run.report.spilled_bytes, budget.spilled_bytes(), "{tag}");
        }
    }
}

#[test]
fn budgeted_pipeline_full_10k_preset_on_fused() {
    // One full-scale cell of the scaling tier in the test suite: the real
    // dirty_10k preset under the scaling-tier configuration (the same pair
    // the CLI's --preset runs), fused backend, 1 MiB budget — byte-identical
    // to the unbudgeted sequential run. Fused token blocking has no shuffle
    // left to spill: it is the token pass plus block sizes read off the
    // pass's document frequencies, so it scatters nothing and holds no
    // temporaries; the members are scattered once, by the clean.
    use sparker_core::PipelineStage;
    use sparker_dataflow::{Context, MemBudget};
    let ds = sparker_datasets::Preset::by_name("dirty_10k")
        .unwrap()
        .generate();
    let pipeline = Pipeline::new(PipelineConfig::scaling());
    let reference = pipeline.run_on(&ExecutionBackend::Sequential, &ds.collection);
    let backend =
        ExecutionBackend::FusedPool(Context::new(4).with_budget(MemBudget::limited(1 << 20)));
    let run = pipeline.run_on(&backend, &ds.collection);
    assert_equivalent(&reference, &run, &ds, "budgeted 10k fused");
    let build = run.report.stage(PipelineStage::BuildBlocks).unwrap();
    assert_eq!(
        build.buffered_bytes, 0,
        "the fused build sizes its blocks and buffers nothing"
    );
    for stage in &run.report.stages {
        assert!(
            stage.buffered_bytes <= 1 << 20,
            "{:?} buffers {} bytes past the budget",
            stage.stage,
            stage.buffered_bytes
        );
    }
    assert_eq!(run.report.spill_batches, 0, "nothing left to spill");
    assert!(run.report.peak_rss_bytes > 0, "VmHWM should be readable");
}

#[test]
fn budgeted_pipeline_full_10k_preset_on_dataflow_spills() {
    // The same cell on the dataflow backend, whose blocking and filtering
    // still shuffle: at 1 MiB the shuffles must spill, and the result must
    // not move.
    use sparker_dataflow::{Context, MemBudget};
    let ds = sparker_datasets::Preset::by_name("dirty_10k")
        .unwrap()
        .generate();
    let pipeline = Pipeline::new(PipelineConfig::scaling());
    let reference = pipeline.run_on(&ExecutionBackend::Sequential, &ds.collection);
    let backend =
        ExecutionBackend::Dataflow(Context::new(4).with_budget(MemBudget::limited(1 << 20)));
    let run = pipeline.run_on(&backend, &ds.collection);
    assert_equivalent(&reference, &run, &ds, "budgeted 10k dataflow");
    assert!(run.report.spill_batches > 0, "expected spilling at 1 MiB");
}
