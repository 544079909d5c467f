//! Integration test pinning the paper's Figure 6 debugging walk-through on
//! a small Abt-Buy-shaped clean–clean task: (a,b) the loose-schema
//! threshold sweep, (c,d) a manual attribute split and the lost-pair
//! drill-down, (e) full Blast (χ² weights, Blast pruning, entropy) over the
//! loose-schema blocks.

use sparker::blocking::{block_filtering, keyed_blocking, purge_oversized, BlockCollection};
use sparker::datasets::{generate, DatasetConfig, Domain, GeneratedDataset, NoiseConfig};
use sparker::looseschema::{
    loose_schema_keys, partition_attributes, AttributePartitioning, LshConfig,
};
use sparker::metablocking::{block_entropies, meta_blocking_graph, BlockGraph, MetaBlockingConfig};
use sparker::profiles::SourceId;
use sparker::{threshold_sweep, BlockingQuality, CandidateSet, LostPairsReport, PipelineConfig};

/// 150 matched products plus 37 unmatched per catalogue: 374 profiles.
fn abt_buy_like() -> GeneratedDataset {
    generate(&DatasetConfig {
        entities: 150,
        unmatched_per_source: 150 / 4,
        domain: Domain::Products,
        noise: NoiseConfig::default(),
        seed: 0xAB7_B07,
        skew: None,
    })
}

/// Loose-schema blocks under `parts`, purged and filtered — the Figure 6(b)
/// state.
fn cleaned_blocks(ds: &GeneratedDataset, parts: &AttributePartitioning) -> BlockCollection {
    let blocks = keyed_blocking(&ds.collection, |p| loose_schema_keys(p, parts));
    let blocks = purge_oversized(blocks, ds.collection.len(), 0.5);
    block_filtering(blocks, 0.8)
}

/// Entropy-weighted meta-blocking of `blocks` under `config`.
fn meta_block(
    blocks: &BlockCollection,
    parts: &AttributePartitioning,
    config: &MetaBlockingConfig,
) -> CandidateSet {
    let entropies = block_entropies(blocks.blocks().iter().map(|b| b.key.as_str()), parts);
    let graph = BlockGraph::new(blocks, Some(&entropies));
    CandidateSet::from_sorted(meta_blocking_graph(&graph, config))
}

/// CBS weights, WEP pruning, entropy on — the default scorer and pruning
/// with Blast's entropy re-weighting.
fn cbs_wep_entropy() -> MetaBlockingConfig {
    MetaBlockingConfig {
        use_entropy: true,
        ..MetaBlockingConfig::default()
    }
}

/// The partitioning the loose-schema generator finds on its own.
fn automatic_partitioning(ds: &GeneratedDataset) -> AttributePartitioning {
    partition_attributes(&ds.collection, &LshConfig::default())
}

#[test]
fn figure6ab_lower_threshold_splits_the_blob_and_cuts_candidates_at_held_recall() {
    let ds = abt_buy_like();
    assert_eq!(ds.collection.len(), 374);
    // The demo starts from loose-schema blocking on the default pipeline.
    let mut base = PipelineConfig::default();
    base.blocking.loose_schema = Some(Default::default());
    let rows = threshold_sweep(
        &ds.collection,
        &ds.ground_truth,
        &base,
        &[1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1],
    );
    let blob = &rows[0];
    assert_eq!(blob.threshold, 1.0);
    assert_eq!(
        blob.attribute_partitions, 1,
        "at threshold 1 every attribute falls in the blob"
    );
    assert!(
        rows[1..].iter().any(|r| {
            r.attribute_partitions > 1
                && r.quality.candidates * 4 <= blob.quality.candidates
                && r.quality.recall >= blob.quality.recall - 0.01
        }),
        "no threshold below 1 splits the blob at held recall: {rows:#?}"
    );
}

#[test]
fn figure6cd_manual_name_description_split_loses_pairs_the_debug_view_explains() {
    let ds = abt_buy_like();
    let auto_parts = automatic_partitioning(&ds);
    // The user's edit: names apart from descriptions (Figure 6(c)).
    let manual_parts = AttributePartitioning::manual(
        &ds.collection,
        vec![
            vec![
                (SourceId(0), "name".to_string()),
                (SourceId(1), "title".to_string()),
            ],
            vec![
                (SourceId(0), "description".to_string()),
                (SourceId(1), "descr".to_string()),
            ],
            vec![
                (SourceId(0), "price".to_string()),
                (SourceId(1), "cost".to_string()),
            ],
        ],
    );
    let auto = meta_block(
        &cleaned_blocks(&ds, &auto_parts),
        &auto_parts,
        &cbs_wep_entropy(),
    );
    let manual = meta_block(
        &cleaned_blocks(&ds, &manual_parts),
        &manual_parts,
        &cbs_wep_entropy(),
    );
    let auto_lost = BlockingQuality::measure(&auto, &ds.ground_truth, &ds.collection).lost_matches;
    let manual_lost =
        BlockingQuality::measure(&manual, &ds.ground_truth, &ds.collection).lost_matches;
    assert!(
        manual_lost > auto_lost,
        "the manual split lost {manual_lost} pairs, the automatic partitioning {auto_lost}"
    );
    // The Debug view (Figure 6(d)): every lost pair shares some key, so
    // blocking could have caught it.
    let report = LostPairsReport::build(&ds.collection, &ds.ground_truth, &manual);
    assert_eq!(report.len() as u64, manual_lost);
    assert!(report.lost.iter().all(|fp| !fp.shared_tokens.is_empty()));
}

#[test]
fn figure6e_blast_cuts_the_loose_schema_candidates_at_held_recall() {
    let ds = abt_buy_like();
    let parts = automatic_partitioning(&ds);
    let blocks = cleaned_blocks(&ds, &parts);
    let before: CandidateSet = blocks.candidate_pairs().into_iter().collect();
    let q_before = BlockingQuality::measure(&before, &ds.ground_truth, &ds.collection);
    let after = meta_block(&blocks, &parts, &MetaBlockingConfig::blast());
    let q_after = BlockingQuality::measure(&after, &ds.ground_truth, &ds.collection);
    assert!(
        q_after.candidates * 20 <= q_before.candidates,
        "Blast kept {} of {} candidates",
        q_after.candidates,
        q_before.candidates
    );
    assert!(
        q_after.recall >= q_before.recall - 0.02,
        "recall fell {} -> {}",
        q_before.recall,
        q_after.recall
    );
}
