//! # sparker-matching
//!
//! SparkER's entity matcher: decide for each candidate pair produced by the
//! blocker whether it is a true match, producing the weighted *similarity
//! graph* the entity clusterer consumes.
//!
//! The paper plugs in external matchers (Magellan in the demo) and notes
//! "the user can select from a wide range of similarity (or distance)
//! scores, e.g.: Jaccard similarity, Edit Distance, CSA". This crate
//! provides:
//!
//! * [`similarity`] — token-set measures (Jaccard, Dice, overlap, cosine)
//!   and string measures (Levenshtein, Jaro, Jaro–Winkler, Monge–Elkan).
//! * [`ThresholdMatcher`] — the unsupervised mode: one measure + one
//!   threshold.
//! * [`PerceptronMatcher`] — a trainable linear matcher over similarity
//!   features, standing in for Magellan's learned matchers (which need
//!   labelled pairs, exactly as the paper's supervised mode describes).
//! * [`SimilarityGraph`] — the matcher output: weighted matching pairs.
//! * [`CandidateGraph`] + [`filter_candidates_pool`] — the pool-parallel
//!   batch scorer: candidate pairs in CSR form streamed per profile,
//!   degree-cost morsel scheduling, per-worker scratch, sorted shard output
//!   byte-identical to the sequential matchers.
//!
//! The batch matchers score through a **filter–verify cascade** by
//! default: cheap [`ScoreBound`]s computed from cached token/char counts
//! reject most candidate pairs before any token comparison, and the
//! survivors are verified with early-abandoning kernels (budgeted
//! merge-joins, banded Levenshtein). The cascade retains exactly the naive
//! scorer's pairs with bit-identical scores; [`ScoringMode::Naive`] is the
//! score-everything reference the equivalence tests compare against.

pub mod similarity;

mod candidates;
mod graph;
mod matcher;
mod perceptron;
mod stream;

pub use candidates::{filter_candidates_pool, CandidateGraph};
pub use graph::SimilarityGraph;
pub use matcher::{
    FilterStats, Matcher, PreparedProfile, ScoreBound, ScoringMode, SimilarityMeasure,
    ThresholdMatcher,
};
pub use perceptron::{pair_features, PerceptronMatcher, TrainConfig, FEATURE_NAMES};
pub use stream::{BatchDigest, FusedMatchOutcome, RetainedDigest};
