//! E7 — the weighting-scheme × pruning-strategy matrix.
//!
//! Reproduces the tech-report-style comparison of meta-blocking
//! configurations: for every weighting scheme (CBS, ECBS, JS, EJS, ARCS,
//! χ²) and every pruning strategy (WEP, CEP, WNP, CNP, BLAST), the
//! retained candidate pairs and their PC/PQ on the Abt-Buy-shaped dataset.
//!
//! ```text
//! cargo run --release --bin exp_pruning_matrix
//! ```

use sparker_bench::{abt_buy_like, f, Table};
use sparker_blocking::{block_filtering, purge_oversized, token_blocking};
use sparker_core::{BlockingQuality, CandidateSet};
use sparker_metablocking::{
    meta_blocking_graph, BlockGraph, EdgeScorer, MetaBlockingConfig, PruningStrategy, WeightScheme,
};

fn main() {
    let ds = abt_buy_like(1000);
    let blocks = purge_oversized(token_blocking(&ds.collection), ds.collection.len(), 0.5);
    let blocks = block_filtering(blocks, 0.8);
    let graph = BlockGraph::new(&blocks, None);
    let baseline: CandidateSet = blocks.candidate_pairs().into_iter().collect();
    let q0 = BlockingQuality::measure(&baseline, &ds.ground_truth, &ds.collection);
    println!(
        "input blocks (post purge+filter): {} candidates, PC {}, PQ {}\n",
        q0.candidates,
        f(q0.recall),
        f(q0.precision)
    );

    let strategies = [
        PruningStrategy::Wep { factor: 1.0 },
        PruningStrategy::Cep { retain: None },
        PruningStrategy::Wnp {
            factor: 1.0,
            reciprocal: false,
        },
        PruningStrategy::Wnp {
            factor: 1.0,
            reciprocal: true,
        },
        PruningStrategy::Cnp {
            k: None,
            reciprocal: false,
        },
        PruningStrategy::Cnp {
            k: None,
            reciprocal: true,
        },
        PruningStrategy::Blast { ratio: 0.35 },
    ];

    let mut t = Table::new(&["scheme", "pruning", "candidates", "PC", "PQ", "kept%"]);
    for scheme in WeightScheme::ALL {
        for pruning in strategies {
            let config = MetaBlockingConfig {
                scorer: EdgeScorer::Classic(scheme),
                pruning,
                use_entropy: false,
            };
            let retained = meta_blocking_graph(&graph, &config);
            let candidates = CandidateSet::from_sorted(retained);
            let q = BlockingQuality::measure(&candidates, &ds.ground_truth, &ds.collection);
            let pruning_label = match pruning {
                PruningStrategy::Wnp {
                    reciprocal: true, ..
                } => "WNP-recip".to_string(),
                PruningStrategy::Cnp {
                    reciprocal: true, ..
                } => "CNP-recip".to_string(),
                other => other.name().to_string(),
            };
            t.row(vec![
                scheme.name().to_string(),
                pruning_label,
                q.candidates.to_string(),
                f(q.recall),
                f(q.precision),
                format!(
                    "{:.1}%",
                    100.0 * q.candidates as f64 / q0.candidates.max(1) as f64
                ),
            ]);
        }
    }
    t.print();
    println!(
        "\nreading: node-centric strategies (WNP/CNP/BLAST) keep recall high at strong\n\
         reduction; edge-centric CEP prunes hardest; χ²-based weights (Blast) dominate\n\
         the CBS baseline on precision at comparable recall."
    );
}
