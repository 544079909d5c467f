//! E6 + E11 — blocking quality per pipeline stage, across datasets, with
//! the entropy ablation.
//!
//! Reproduces the tech-report-style table: pair completeness (PC = recall),
//! pair quality (PQ = precision) and reduction ratio (RR) after each
//! blocker stage — raw token blocking, + purging, + filtering, +
//! meta-blocking — for schema-agnostic and Blast variants, on each dataset
//! shape, plus the Blast-without-entropy ablation (E11) and the
//! purging/filtering parameter sweeps called out in DESIGN.md.
//!
//! ```text
//! cargo run --release --bin exp_blocking_quality
//! ```

use sparker_bench::{f, standard_suite, Table};
use sparker_blocking::{block_filtering, purge_oversized, token_blocking, BlockCollection};
use sparker_core::{BlockingQuality, CandidateSet};
use sparker_datasets::GeneratedDataset;
use sparker_looseschema::{loose_schema_keys, partition_attributes, LshConfig};
use sparker_metablocking::{block_entropies, meta_blocking_graph, BlockGraph, MetaBlockingConfig};

fn block_pairs(blocks: &BlockCollection) -> CandidateSet {
    blocks.candidate_pairs().into_iter().collect()
}

fn quality(ds: &GeneratedDataset, candidates: &CandidateSet) -> BlockingQuality {
    BlockingQuality::measure(candidates, &ds.ground_truth, &ds.collection)
}

fn stage_rows(name: &str, ds: &GeneratedDataset, blast: bool, t: &mut Table) {
    let parts = blast.then(|| partition_attributes(&ds.collection, &LshConfig::default()));
    let blocks: BlockCollection = match &parts {
        Some(p) => sparker_blocking::keyed_blocking(&ds.collection, |pr| loose_schema_keys(pr, p)),
        None => token_blocking(&ds.collection),
    };
    let variant = if blast { "blast" } else { "schema-agnostic" };
    let mut push = |stage: &str, blocks: &BlockCollection, candidates: CandidateSet| {
        let q = quality(ds, &candidates);
        t.row(vec![
            name.to_string(),
            variant.to_string(),
            stage.to_string(),
            blocks.len().to_string(),
            q.candidates.to_string(),
            f(q.recall),
            f(q.precision),
            f(q.reduction_ratio),
        ]);
    };

    push("token-blocking", &blocks, block_pairs(&blocks));
    let blocks = purge_oversized(blocks, ds.collection.len(), 0.5);
    push("+purging", &blocks, block_pairs(&blocks));
    let blocks = block_filtering(blocks, 0.8);
    push("+filtering", &blocks, block_pairs(&blocks));

    let (config, entropies) = if blast {
        (
            MetaBlockingConfig::blast(),
            Some(block_entropies(
                blocks.blocks().iter().map(|b| b.key.as_str()),
                parts.as_ref().unwrap(),
            )),
        )
    } else {
        (MetaBlockingConfig::default(), None)
    };
    let graph = BlockGraph::new(&blocks, entropies.as_ref());
    let retained = meta_blocking_graph(&graph, &config);
    push(
        "+meta-blocking",
        &blocks,
        CandidateSet::from_sorted(retained),
    );
}

fn main() {
    let suite = standard_suite();

    println!("== E6: blocking quality per stage ==\n");
    let mut t = Table::new(&[
        "dataset",
        "variant",
        "stage",
        "blocks",
        "candidates",
        "PC",
        "PQ",
        "RR",
    ]);
    for (name, ds) in &suite {
        stage_rows(name, ds, false, &mut t);
        stage_rows(name, ds, true, &mut t);
    }
    t.print();

    // ---- E11: entropy ablation -----------------------------------------
    println!("\n== E11: Blast entropy ablation (meta-blocking on loose-schema blocks) ==\n");
    let mut t = Table::new(&["dataset", "entropy", "candidates", "PC", "PQ"]);
    for (name, ds) in &suite {
        let parts = partition_attributes(&ds.collection, &LshConfig::default());
        let blocks =
            sparker_blocking::keyed_blocking(&ds.collection, |pr| loose_schema_keys(pr, &parts));
        let blocks = purge_oversized(blocks, ds.collection.len(), 0.5);
        let blocks = block_filtering(blocks, 0.8);
        let entropies = block_entropies(blocks.blocks().iter().map(|b| b.key.as_str()), &parts);
        for use_entropy in [false, true] {
            let graph = BlockGraph::new(&blocks, use_entropy.then_some(&entropies));
            let config = MetaBlockingConfig {
                use_entropy,
                ..MetaBlockingConfig::blast()
            };
            let retained = meta_blocking_graph(&graph, &config);
            let candidates = CandidateSet::from_sorted(retained);
            let q = quality(ds, &candidates);
            t.row(vec![
                name.to_string(),
                if use_entropy { "on" } else { "off" }.to_string(),
                q.candidates.to_string(),
                f(q.recall),
                f(q.precision),
            ]);
        }
    }
    t.print();

    // ---- Parameter sweeps: purging fraction and filtering ratio ---------
    let (name, ds) = &suite[0];
    println!("\n== purging-fraction sweep ({name}) ==\n");
    let mut t = Table::new(&["max-fraction", "blocks", "candidates", "PC", "PQ"]);
    for frac in [1.0, 0.75, 0.5, 0.25, 0.1, 0.05] {
        let blocks = purge_oversized(token_blocking(&ds.collection), ds.collection.len(), frac);
        let q = quality(ds, &block_pairs(&blocks));
        t.row(vec![
            format!("{frac:.2}"),
            blocks.len().to_string(),
            q.candidates.to_string(),
            f(q.recall),
            f(q.precision),
        ]);
    }
    t.print();

    println!("\n== filtering-ratio sweep ({name}) ==\n");
    let mut t = Table::new(&["ratio", "candidates", "PC", "PQ"]);
    for ratio in [1.0, 0.9, 0.8, 0.6, 0.4, 0.2] {
        let blocks = purge_oversized(token_blocking(&ds.collection), ds.collection.len(), 0.5);
        let blocks = block_filtering(blocks, ratio);
        let q = quality(ds, &block_pairs(&blocks));
        t.row(vec![
            format!("{ratio:.1}"),
            q.candidates.to_string(),
            f(q.recall),
            f(q.precision),
        ]);
    }
    t.print();
}
