//! # sparker-metablocking
//!
//! Meta-blocking — the heart of SparkER's blocker. The block collection is
//! recast as a graph (profiles = nodes; an edge wherever two comparable
//! profiles co-occur in ≥ 1 block), edges are weighted by co-occurrence
//! statistics, per-edge thresholds are derived, and low-weight edges are
//! pruned. What survives are the candidate pairs handed to the entity
//! matcher.
//!
//! Implemented exactly as the paper stack defines it:
//!
//! * **Weighting schemes** ([`WeightScheme`]): CBS, ECBS, JS, EJS, ARCS
//!   (Papadakis et al.) and χ² (Blast).
//! * **Entropy re-weighting** ([`BlockEntropies`]): Blast's loose-schema
//!   entropy scales each co-occurrence by the entropy of the attribute
//!   partition that generated the block (Figure 2(c)).
//! * **Pruning strategies** ([`PruningStrategy`]): WEP, CEP, WNP, CNP
//!   (Papadakis et al.) and the Blast local-maxima threshold.
//! * **Pluggable edge scoring** ([`EdgeScorer`]): every execution path
//!   weighs edges through one seam — either a classic [`WeightScheme`]
//!   (bit-identical to the hand-coded formulas) or a supervised
//!   [`LinearModel`] over the full [`EdgeFeatures`] vector, trained
//!   in-repo against synthetic ground truth via [`train_supervised`]
//!   (generalized supervised meta-blocking).
//! * **Parallel execution** ([`parallel::meta_blocking`]): the paper's
//!   broadcast-join formulation — "it partitions the nodes of the blocking
//!   graph and sends in broadcast all the information needed to materialize
//!   the neighborhood of each node one at a time". One plan
//!   ([`StreamingMetaBlocking`]) serves both consumers: the staged driver
//!   concatenates its degree-cost node ranges, the fused pipeline streams
//!   them into the matcher.
//!
//! ```
//! use sparker_blocking::token_blocking;
//! use sparker_metablocking::{meta_blocking, MetaBlockingConfig};
//! use sparker_profiles::{Profile, ProfileCollection, SourceId};
//!
//! let coll = ProfileCollection::dirty(vec![
//!     Profile::builder(SourceId(0), "1").attr("n", "alpha beta gamma").build(),
//!     Profile::builder(SourceId(0), "2").attr("n", "alpha beta gamma").build(),
//!     Profile::builder(SourceId(0), "3").attr("n", "alpha zeta").build(),
//! ]);
//! let blocks = token_blocking(&coll);
//! let pruned = meta_blocking(&blocks, &MetaBlockingConfig::default());
//! // The strongly co-occurring pair (1,2) survives; weak edges to 3 are pruned.
//! assert_eq!(pruned.len(), 1);
//! ```

mod entropy;
mod graph;
pub mod parallel;
mod pruning;
mod scorer;
mod streaming;
mod train;
mod weights;

pub use entropy::{block_entropies, BlockEntropies};
pub use graph::{BlockGraph, EdgeAccumulator, Neighbors, NodePassScratch};
pub use pruning::{
    derived_cnp_k, meta_blocking, meta_blocking_graph, MetaBlockingConfig, NodeStats,
    PruningStrategy, RetentionRule,
};
pub use scorer::{
    EdgeFeatures, EdgeScorer, LinearModel, ScoringContext, FEATURE_NAMES, NUM_FEATURES,
};
pub use streaming::StreamingMetaBlocking;
pub use train::{train_supervised, TrainOptions, TrainReport};
pub use weights::WeightScheme;
