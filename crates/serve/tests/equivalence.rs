//! The headline harness: randomized insert/update sequences against the
//! online resolver must produce exactly the batch pipeline's results over
//! the same final collection — candidate set, match scores (bit-identical)
//! and entity partition — for dirty and clean–clean tasks, skewed and
//! uniform vocabularies, the default / scaling / Blast configurations, and
//! (for the partition) every execution backend at several worker counts.

use proptest::prelude::*;
use sparker_core::{ExecutionBackend, Pipeline, PipelineConfig};
use sparker_profiles::{ErKind, Profile, SourceId};
use sparker_serve::ResolverState;

/// One random operation: upsert profile `id_idx` of `source` with the
/// given vocabulary token indices as its text.
#[derive(Debug, Clone)]
struct Op {
    source: u8,
    id_idx: usize,
    tokens: Vec<usize>,
}

const VOCAB: [&str; 24] = [
    "sony", "bravia", "tv", "led", "inch", "apple", "iphone", "case", "black", "garmin", "gps",
    "watch", "canon", "eos", "camera", "kit", "nikon", "dslr", "lens", "dell", "xps", "laptop",
    "charger", "cable",
];

fn text_of(tokens: &[usize], skewed: bool) -> String {
    tokens
        .iter()
        .map(|&t| {
            // Skew: squash draws toward the low end of the vocabulary so a
            // few tokens become high-frequency hub blocks.
            let idx = if skewed { t * t / VOCAB.len() } else { t };
            VOCAB[idx % VOCAB.len()]
        })
        .collect::<Vec<_>>()
        .join(" ")
}

fn ops_strategy(max_source: u8, max_ops: usize) -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        (
            0..=max_source as usize,
            0..10usize,
            prop::collection::vec(0..VOCAB.len(), 0..7),
        )
            .prop_map(|(source, id_idx, tokens)| Op {
                source: source as u8,
                id_idx,
                tokens,
            }),
        1..max_ops,
    )
}

fn profile_of(op: &Op, skewed: bool) -> Profile {
    Profile::builder(SourceId(op.source), format!("p{}", op.id_idx))
        .attr("name", text_of(&op.tokens, skewed))
        .build()
}

/// Replay `ops` through a resolver and assert full equivalence with the
/// sequential batch pipeline (candidates, scores, clusters, live forest).
fn replay_and_verify(config: PipelineConfig, kind: ErKind, ops: &[Op], skewed: bool) {
    let mut resolver = ResolverState::new(config, kind);
    let mid = ops.len() / 2;
    for (i, op) in ops.iter().enumerate() {
        resolver
            .upsert(profile_of(op, skewed))
            .expect("in-range source");
        // Verifying after every op is quadratic; the midpoint catches
        // "wrong intermediate state that self-corrects" bugs, the end
        // state is the contract.
        if i + 1 == mid {
            resolver.verify_against_batch();
        }
    }
    resolver.verify_against_batch();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn dirty_uniform_default_config(ops in ops_strategy(0, 30)) {
        replay_and_verify(PipelineConfig::default(), ErKind::Dirty, &ops, false);
    }

    #[test]
    fn dirty_skewed_default_config(ops in ops_strategy(0, 30)) {
        replay_and_verify(PipelineConfig::default(), ErKind::Dirty, &ops, true);
    }

    #[test]
    fn dirty_skewed_scaling_config(ops in ops_strategy(0, 30)) {
        // Scaling tier: comparison-level purge + reciprocal CNP — the
        // pruning family with per-node k-th statistics.
        replay_and_verify(PipelineConfig::scaling(), ErKind::Dirty, &ops, true);
    }

    #[test]
    fn clean_clean_uniform_default_config(ops in ops_strategy(1, 30)) {
        replay_and_verify(PipelineConfig::default(), ErKind::CleanClean, &ops, false);
    }

    #[test]
    fn clean_clean_skewed_scaling_config(ops in ops_strategy(1, 30)) {
        replay_and_verify(PipelineConfig::scaling(), ErKind::CleanClean, &ops, true);
    }

    #[test]
    fn blast_config_uses_fallback_and_matches(ops in ops_strategy(0, 16)) {
        // Blast (loose schema + entropy + local-maxima pruning) is outside
        // the fast-path family; refreshes re-run the batch blocker, and the
        // matcher/clusterer layers must still agree end to end.
        let config = PipelineConfig {
            blocking: sparker_core::BlockingConfig::blast(),
            ..PipelineConfig::default()
        };
        let resolver = ResolverState::new(config.clone(), ErKind::Dirty);
        prop_assert!(!resolver.fast_path());
        replay_and_verify(config, ErKind::Dirty, &ops, false);
    }

    #[test]
    fn meta_blocking_off_uses_fallback_and_matches(ops in ops_strategy(0, 20)) {
        let mut config = PipelineConfig::default();
        config.blocking.meta_blocking = None;
        let resolver = ResolverState::new(config.clone(), ErKind::Dirty);
        prop_assert!(!resolver.fast_path());
        replay_and_verify(config, ErKind::Dirty, &ops, false);
    }

    #[test]
    fn clusters_match_every_backend_at_1_2_8_workers(ops in ops_strategy(1, 30)) {
        // The incremental partition must equal run_on's partition on the
        // parallel backends too (they are byte-identical to sequential by
        // the parity suite; this closes the loop from the resolver's side).
        let mut resolver = ResolverState::new(PipelineConfig::default(), ErKind::CleanClean);
        for op in &ops {
            resolver.upsert(profile_of(op, false)).expect("in-range source");
        }
        let collection = resolver.materialize_collection();
        let pipeline = Pipeline::new(PipelineConfig::default());
        for workers in [1usize, 2, 8] {
            let batch = pipeline.run_on(&ExecutionBackend::fused(workers), &collection);
            prop_assert_eq!(resolver.entity_clusters(), &batch.clusters);
        }
    }
}

/// Long mixed stream at a fixed seedless shape: every id updated several
/// times, interleaved across sources, end-state verified. (Deterministic
/// complement to the randomized cases above.)
#[test]
fn long_update_heavy_stream_matches_batch() {
    let mut resolver = ResolverState::new(PipelineConfig::default(), ErKind::CleanClean);
    for round in 0..6usize {
        for id in 0..8usize {
            let op = Op {
                source: (id % 2) as u8,
                id_idx: id,
                tokens: vec![id % 5, (id + round) % VOCAB.len(), round % VOCAB.len()],
            };
            resolver.upsert(profile_of(&op, false)).unwrap();
        }
        resolver.verify_against_batch();
    }
    let stats = resolver.stats();
    assert_eq!(stats.ops.inserts, 8);
    assert_eq!(stats.ops.updates, 40);
}
