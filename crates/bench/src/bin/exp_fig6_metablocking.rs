//! E5 — Figure 6(e): the meta-blocking debug screen with entropies.
//!
//! Shows the per-partition entropy values computed by the Entropy
//! Extractor and the "large decrease in the number of candidate pairs
//! w.r.t. 6(b)" once entropy-weighted meta-blocking is applied on top of
//! the loose-schema blocks.
//!
//! ```text
//! cargo run --release --bin exp_fig6_metablocking
//! ```

use sparker_bench::{abt_buy_like, f, Table};
use sparker_blocking::{block_filtering, keyed_blocking, purge_oversized};
use sparker_core::{BlockingQuality, CandidateSet, Pipeline, PipelineConfig};
use sparker_looseschema::{loose_schema_keys, partition_attributes, LshConfig};
use sparker_metablocking::{block_entropies, meta_blocking_graph, BlockGraph, MetaBlockingConfig};

fn main() {
    let ds = abt_buy_like(1000);
    let lsh = LshConfig::default();
    let parts = partition_attributes(&ds.collection, &lsh);

    // Entropy Extractor output (the values panel of Figure 6(e)).
    println!("== Entropy Extractor ==\n");
    let mut t = Table::new(&["partition", "attributes", "entropy"]);
    for p in parts.partitions() {
        t.row(vec![
            format!("{}{}", p.id.0, if p.is_blob { " (blob)" } else { "" }),
            p.attributes
                .iter()
                .map(|(s, n)| format!("s{}:{n}", s.0))
                .collect::<Vec<_>>()
                .join(" "),
            format!("{:.3}", p.entropy),
        ]);
    }
    t.print();

    // Loose-schema blocks after cleaning — the Figure 6(b) state.
    let blocks = keyed_blocking(&ds.collection, |p| loose_schema_keys(p, &parts));
    let blocks = purge_oversized(blocks, ds.collection.len(), 0.5);
    let blocks = block_filtering(blocks, 0.8);
    let before: CandidateSet = blocks.candidate_pairs().into_iter().collect();
    let q_before = BlockingQuality::measure(&before, &ds.ground_truth, &ds.collection);

    // Meta-blocking with entropy — the Figure 6(e) state.
    let entropies = block_entropies(blocks.blocks().iter().map(|b| b.key.as_str()), &parts);
    let graph = BlockGraph::new(&blocks, Some(&entropies));
    let retained = meta_blocking_graph(
        &graph,
        &MetaBlockingConfig {
            use_entropy: true,
            ..MetaBlockingConfig::default()
        },
    );
    let after = CandidateSet::from_sorted(retained);
    let q_after = BlockingQuality::measure(&after, &ds.ground_truth, &ds.collection);

    // Schema-agnostic end-to-end baseline for reference (Figure 6(a)).
    let agnostic = Pipeline::new(PipelineConfig::default()).run_blocker(&ds.collection);
    let q_agnostic =
        BlockingQuality::measure(&agnostic.candidates, &ds.ground_truth, &ds.collection);

    println!("\n== Candidate pairs per debugging state ==\n");
    let mut t = Table::new(&["state", "candidates", "recall", "precision", "lost"]);
    for (name, q) in [
        ("6(a) schema-agnostic + MB", &q_agnostic),
        ("6(b) loose-schema blocks", &q_before),
        ("6(e) + entropy meta-blocking", &q_after),
    ] {
        t.row(vec![
            name.to_string(),
            q.candidates.to_string(),
            f(q.recall),
            f(q.precision),
            q.lost_matches.to_string(),
        ]);
    }
    t.print();
    println!(
        "\nlarge decrease w.r.t. 6(b): {:.1}x fewer candidate pairs at recall {} -> {}.",
        q_before.candidates as f64 / q_after.candidates.max(1) as f64,
        f(q_before.recall),
        f(q_after.recall),
    );
}
