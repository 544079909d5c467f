//! E14 (baseline study) — block-building methods under increasing noise.
//!
//! The paper's blocker builds on schema-agnostic token blocking; the
//! indexing survey it cites (Christen, TKDE 2012) catalogues alternatives.
//! This experiment compares token blocking, q-gram blocking (q = 3) and
//! sorted neighborhood (windows 5/20) on the Abt-Buy-shaped generator at
//! three noise levels, measuring PC (recall), candidate counts and RR.
//! Expected shape: q-grams resist character noise best but explode the
//! candidate count; sorted neighborhood bounds comparisons by construction
//! but loses recall when duplicates stop sorting adjacently; token blocking
//! is the balanced default the paper builds on.
//!
//! ```text
//! cargo run --release --bin exp_block_building
//! ```

use sparker_bench::{f, Table};
use sparker_blocking::{
    canopy_blocking, ngram_blocking, rarest_token_key, sorted_neighborhood, sorted_neighborhood_by,
    token_blocking,
};
use sparker_core::{BlockingQuality, CandidateSet};
use sparker_datasets::{generate, DatasetConfig, Domain, NoiseConfig};
use sparker_profiles::Pair;
use std::collections::HashSet;

fn main() {
    let mut t = Table::new(&["noise", "method", "candidates", "PC", "RR"]);
    for (noise_name, noise) in [
        ("none", NoiseConfig::none()),
        ("default", NoiseConfig::default()),
        ("heavy", NoiseConfig::heavy()),
    ] {
        let ds = generate(&DatasetConfig {
            entities: 500,
            unmatched_per_source: 125,
            domain: Domain::Products,
            noise,
            seed: 0xB10C,
            skew: None,
        });
        let methods: Vec<(&str, HashSet<Pair>)> = vec![
            (
                "token-blocking",
                token_blocking(&ds.collection).candidate_pairs(),
            ),
            (
                "3-gram-blocking",
                ngram_blocking(&ds.collection, 3).candidate_pairs(),
            ),
            (
                "sorted-neighborhood-5",
                sorted_neighborhood(&ds.collection, 5),
            ),
            (
                "sorted-neighborhood-20",
                sorted_neighborhood(&ds.collection, 20),
            ),
            (
                "sn-rarest-token-5",
                sorted_neighborhood_by(&ds.collection, 5, rarest_token_key(&ds.collection)),
            ),
            (
                "canopy-0.2/0.5",
                canopy_blocking(&ds.collection, 0.2, 0.5).candidate_pairs(),
            ),
        ];
        for (name, candidates) in methods {
            let candidates: CandidateSet = candidates.into_iter().collect();
            let q = BlockingQuality::measure(&candidates, &ds.ground_truth, &ds.collection);
            t.row(vec![
                noise_name.to_string(),
                name.to_string(),
                q.candidates.to_string(),
                f(q.recall),
                f(q.reduction_ratio),
            ]);
        }
    }
    t.print();
    println!(
        "\nreading: q-grams hold recall under heavy character noise at a much\n\
         higher candidate count; sorted neighborhood caps candidates by\n\
         construction but its recall collapses once typos break sort adjacency;\n\
         token blocking — the paper's choice — is the balanced default that\n\
         purging/filtering/meta-blocking then refine."
    );
}
