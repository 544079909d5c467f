//! The pluggable edge-scoring seam.
//!
//! Every execution path of meta-blocking — staged ([`crate::meta_blocking_graph`]),
//! broadcast-join parallel ([`crate::parallel::meta_blocking`]), fused
//! streaming ([`crate::StreamingMetaBlocking`]) and the online resolver's
//! batch refresh — weighs a candidate edge the same
//! way: it materializes the edge's [`EdgeAccumulator`] (by
//! [`BlockGraph::walk`], or [`BlockGraph::neighborhood`] in the oracle)
//! and asks a [`ScoringContext`] for the weight. The context owns
//! everything global (block count, node degrees when the scorer reads
//! them, the entropy precondition) so the per-path drivers carry no
//! weighting logic of their own.
//!
//! Two scorer families plug into the seam:
//!
//! * [`EdgeScorer::Classic`] — the literature's closed-form schemes
//!   ([`WeightScheme`]). The context delegates verbatim to
//!   [`WeightScheme`]'s own weight function, so classic runs are
//!   **bit-identical** to the pre-seam implementation (pinned by the
//!   scheme × pruning × backend parity matrix and proptests).
//! * [`EdgeScorer::Supervised`] — *Generalized Supervised Meta-blocking*:
//!   the co-occurrence statistics are treated as a feature vector
//!   ([`EdgeFeatures`]) and scored by a logistic [`LinearModel`] trained
//!   in-repo against synthetic ground truth (see [`crate::train_supervised`]).
//!   Model weights serialize to/from a one-line JSON object so CLI runs
//!   are reproducible.

use crate::graph::{BlockGraph, EdgeAccumulator};
use crate::weights::{GlobalStats, WeightScheme};
use sparker_profiles::ProfileId;

/// Number of features in an [`EdgeFeatures`] vector.
pub const NUM_FEATURES: usize = 12;

/// Stable feature names, index-aligned with [`EdgeFeatures::as_array`].
pub const FEATURE_NAMES: [&str; NUM_FEATURES] = [
    "shared_blocks",
    "arcs",
    "entropy_sum",
    "jaccard",
    "dice",
    "cosine",
    "blocks_min",
    "blocks_max",
    "norm_blocks_min",
    "norm_blocks_max",
    "degree_min",
    "degree_max",
];

/// The full per-edge feature vector, extracted in one pass from the same
/// [`EdgeAccumulator`] the classic schemes consume.
///
/// Features are **symmetric** in the two endpoints (min/max instead of
/// (a, b) order): the node-centric passes weigh every edge from both
/// endpoints, and the two evaluations must agree bit for bit.
///
/// | index | feature | range |
/// |---|---|---|
/// | 0 | shared blocks (CBS) | ≥ 1 |
/// | 1 | ARCS mass Σ 1/‖b‖ | > 0 |
/// | 2 | summed block entropy (= shared when the graph has none) | ≥ 0 |
/// | 3 | Jaccard of the block sets | (0, 1] |
/// | 4 | Dice 2s/(‖Bᵢ‖+‖Bⱼ‖) | (0, 1] |
/// | 5 | cosine s/√(‖Bᵢ‖·‖Bⱼ‖) | (0, 1] |
/// | 6 | min block count | ≥ 1 |
/// | 7 | max block count | ≥ 1 |
/// | 8 | min block count / total blocks | (0, 1] |
/// | 9 | max block count / total blocks | (0, 1] |
/// | 10 | min node degree | ≥ 0 |
/// | 11 | max node degree | ≥ 0 |
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeFeatures([f64; NUM_FEATURES]);

impl EdgeFeatures {
    /// Extract the feature vector from one edge's accumulator and both
    /// endpoints' global statistics.
    pub fn extract(
        acc: &EdgeAccumulator,
        blocks_a: usize,
        blocks_b: usize,
        num_blocks: u64,
        degree_a: u32,
        degree_b: u32,
    ) -> EdgeFeatures {
        let shared = acc.shared_blocks as f64;
        debug_assert!(acc.shared_blocks > 0, "edges require ≥1 shared block");
        let (ba, bb) = (blocks_a.max(1) as f64, blocks_b.max(1) as f64);
        let (bmin, bmax) = if ba <= bb { (ba, bb) } else { (bb, ba) };
        let nb = num_blocks.max(1) as f64;
        let (da, db) = (degree_a as f64, degree_b as f64);
        let (dmin, dmax) = if da <= db { (da, db) } else { (db, da) };
        EdgeFeatures([
            shared,
            acc.arcs,
            acc.entropy_sum,
            shared / (ba + bb - shared),
            2.0 * shared / (ba + bb),
            shared / (ba * bb).sqrt(),
            bmin,
            bmax,
            bmin / nb,
            bmax / nb,
            dmin,
            dmax,
        ])
    }

    /// The features as a fixed array, index-aligned with [`FEATURE_NAMES`].
    pub fn as_array(&self) -> &[f64; NUM_FEATURES] {
        &self.0
    }
}

/// A linear (logistic) model over [`EdgeFeatures`]: the supervised edge
/// scorer's weights, `score = σ(bias + w · features)`.
///
/// The sigmoid is strictly monotone, so a model with a single non-zero
/// weight ranks edges exactly as that raw feature does — a one-hot model
/// over the CBS feature reproduces CBS's edge ordering (pinned by
/// proptest).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearModel {
    /// Per-feature coefficients, index-aligned with [`FEATURE_NAMES`].
    pub weights: [f64; NUM_FEATURES],
    /// Intercept.
    pub bias: f64,
}

impl LinearModel {
    /// The all-zero model (scores every edge 0.5).
    pub fn zero() -> LinearModel {
        LinearModel {
            weights: [0.0; NUM_FEATURES],
            bias: 0.0,
        }
    }

    /// A model reading a single raw feature with unit weight.
    pub fn one_hot(feature: usize) -> LinearModel {
        let mut m = LinearModel::zero();
        m.weights[feature] = 1.0;
        m
    }

    /// Score a feature vector: `σ(bias + w · f)` ∈ (0, 1).
    pub fn score(&self, features: &EdgeFeatures) -> f64 {
        let mut z = self.bias;
        for (w, f) in self.weights.iter().zip(features.as_array()) {
            z += w * f;
        }
        sigmoid(z)
    }

    /// Serialize to a one-line JSON object:
    /// `{"bias":…,"weights":[…12 floats…]}`. Floats use Rust's shortest
    /// round-trip formatting, so [`LinearModel::from_json`] restores the
    /// exact bits.
    pub fn to_json(&self) -> String {
        let ws: Vec<String> = self.weights.iter().map(|w| format!("{w:?}")).collect();
        format!(
            "{{\"bias\":{:?},\"weights\":[{}]}}",
            self.bias,
            ws.join(",")
        )
    }

    /// Parse the JSON produced by [`LinearModel::to_json`] (whitespace and
    /// key order are flexible).
    pub fn from_json(text: &str) -> Result<LinearModel, String> {
        let bias = json_number_field(text, "bias")?;
        let list = json_array_field(text, "weights")?;
        let mut weights = [0.0f64; NUM_FEATURES];
        let parts: Vec<&str> = list
            .split(',')
            .map(str::trim)
            .filter(|p| !p.is_empty())
            .collect();
        if parts.len() != NUM_FEATURES {
            return Err(format!(
                "\"weights\" needs exactly {NUM_FEATURES} entries, got {}",
                parts.len()
            ));
        }
        for (slot, part) in weights.iter_mut().zip(&parts) {
            *slot = part
                .parse::<f64>()
                .map_err(|_| format!("invalid weight {part:?}"))?;
        }
        if !bias.is_finite() || weights.iter().any(|w| !w.is_finite()) {
            return Err("model coefficients must be finite".to_string());
        }
        Ok(LinearModel { weights, bias })
    }
}

/// Locate `"key":` in `text` and return the byte offset just past the colon.
fn json_value_start(text: &str, key: &str) -> Result<usize, String> {
    let pat = format!("\"{key}\"");
    let at = text
        .find(&pat)
        .ok_or_else(|| format!("missing \"{key}\" field"))?;
    let rest = &text[at + pat.len()..];
    let colon = rest
        .trim_start()
        .strip_prefix(':')
        .ok_or_else(|| format!("expected ':' after \"{key}\""))?;
    Ok(text.len() - colon.len())
}

/// Parse a bare JSON number field.
fn json_number_field(text: &str, key: &str) -> Result<f64, String> {
    let start = json_value_start(text, key)?;
    let rest = text[start..].trim_start();
    let end = rest
        .find([',', '}', ']'])
        .ok_or_else(|| format!("unterminated \"{key}\" value"))?;
    rest[..end]
        .trim()
        .parse::<f64>()
        .map_err(|_| format!("invalid number for \"{key}\": {:?}", rest[..end].trim()))
}

/// Return the contents of a JSON array field (between `[` and `]`).
fn json_array_field<'a>(text: &'a str, key: &str) -> Result<&'a str, String> {
    let start = json_value_start(text, key)?;
    let rest = text[start..].trim_start();
    let inner = rest
        .strip_prefix('[')
        .ok_or_else(|| format!("\"{key}\" must be an array"))?;
    let close = inner
        .find(']')
        .ok_or_else(|| format!("unterminated \"{key}\" array"))?;
    Ok(&inner[..close])
}

fn sigmoid(z: f64) -> f64 {
    1.0 / (1.0 + (-z).exp())
}

/// The pluggable edge scorer: which function maps an edge's co-occurrence
/// statistics to its weight.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EdgeScorer {
    /// A closed-form scheme from the meta-blocking literature; routed
    /// verbatim through [`WeightScheme`], bit-identical to the pre-seam
    /// code.
    Classic(WeightScheme),
    /// A trained logistic model over [`EdgeFeatures`] (Generalized
    /// Supervised Meta-blocking).
    Supervised(LinearModel),
}

impl EdgeScorer {
    /// Stable name for reports and experiment output.
    pub fn name(&self) -> &'static str {
        match self {
            EdgeScorer::Classic(scheme) => scheme.name(),
            EdgeScorer::Supervised(_) => "SUPERVISED",
        }
    }

    /// Does weighing an edge read node degrees? True for EJS (its
    /// discounting terms) and every supervised model (the degree
    /// features) — the drivers use this to decide whether a degree pass
    /// must run before pass A.
    pub fn needs_degrees(&self) -> bool {
        matches!(
            self,
            EdgeScorer::Classic(WeightScheme::Ejs) | EdgeScorer::Supervised(_)
        )
    }

    /// The classic scheme, if this is one.
    pub fn classic(&self) -> Option<WeightScheme> {
        match self {
            EdgeScorer::Classic(scheme) => Some(*scheme),
            EdgeScorer::Supervised(_) => None,
        }
    }
}

impl Default for EdgeScorer {
    /// CBS — the default of [`crate::MetaBlockingConfig`].
    fn default() -> Self {
        EdgeScorer::Classic(WeightScheme::Cbs)
    }
}

/// A consumer of a weight function resolved by [`ScoringContext::resolve`]:
/// `visit` is instantiated once per scorer, with `weigh(a, b, acc,
/// blocks_a, blocks_b)` as [`ScoringContext::weigh`] takes them.
pub(crate) trait WeighVisitor {
    /// What the visit returns.
    type Output;

    /// Run with the resolved weight function.
    fn visit<W>(self, weigh: W) -> Self::Output
    where
        W: Fn(ProfileId, ProfileId, &EdgeAccumulator, usize, usize) -> f64;
}

/// Everything global an edge weight depends on, checked and computed once
/// per graph: the scorer, the entropy flag, block count and (when the
/// scorer reads them) node degrees.
///
/// This is the single home of the `use_entropy` precondition that used to
/// be asserted separately by every driver: both constructors reject a
/// graph built without [`crate::BlockEntropies`] when entropy weighting is
/// requested.
#[derive(Debug, Clone)]
pub struct ScoringContext {
    scorer: EdgeScorer,
    use_entropy: bool,
    stats: GlobalStats,
}

impl ScoringContext {
    /// Build a context, computing node degrees serially iff
    /// [`EdgeScorer::needs_degrees`].
    ///
    /// # Panics
    /// When `use_entropy` is set but `graph` was built without
    /// [`crate::BlockEntropies`].
    pub fn new(graph: &BlockGraph, scorer: EdgeScorer, use_entropy: bool) -> ScoringContext {
        Self::check_entropy(graph, use_entropy);
        let (degrees, num_edges) = if scorer.needs_degrees() {
            graph.degrees()
        } else {
            (Vec::new(), 0)
        };
        ScoringContext {
            scorer,
            use_entropy,
            stats: GlobalStats {
                num_blocks: graph.num_blocks() as u64,
                degrees,
                num_edges,
            },
        }
    }

    /// Build a context from a degree vector the caller already computed
    /// (e.g. the parallel degree pass that also feeds cost-hinted
    /// partitioning). Degrees are kept only when the scorer reads them, so
    /// the resulting context is identical to [`ScoringContext::new`].
    ///
    /// # Panics
    /// As [`ScoringContext::new`].
    pub fn with_degrees(
        graph: &BlockGraph,
        scorer: EdgeScorer,
        use_entropy: bool,
        degrees: Vec<u32>,
        num_edges: u64,
    ) -> ScoringContext {
        Self::check_entropy(graph, use_entropy);
        let (degrees, num_edges) = if scorer.needs_degrees() {
            (degrees, num_edges)
        } else {
            (Vec::new(), 0)
        };
        ScoringContext {
            scorer,
            use_entropy,
            stats: GlobalStats {
                num_blocks: graph.num_blocks() as u64,
                degrees,
                num_edges,
            },
        }
    }

    /// The deduplicated entropy precondition (formerly copy-pasted into
    /// every driver).
    fn check_entropy(graph: &BlockGraph, use_entropy: bool) {
        if use_entropy {
            assert!(
                graph.has_entropies(),
                "use_entropy requires a BlockGraph built with BlockEntropies"
            );
        }
    }

    /// The scorer this context evaluates.
    pub fn scorer(&self) -> EdgeScorer {
        self.scorer
    }

    /// Is entropy re-weighting active?
    pub fn use_entropy(&self) -> bool {
        self.use_entropy
    }

    /// Does weighing read the ARCS or entropy sums of an edge, beyond its
    /// shared-block count? True for ARCS, for every scheme with entropy
    /// re-weighting and for supervised models (their feature vector holds
    /// both) — the node pass accumulates the sums only then (see
    /// [`BlockGraph::node_scratch`]).
    pub(crate) fn reads_sums(&self) -> bool {
        self.use_entropy
            || matches!(
                self.scorer,
                EdgeScorer::Classic(WeightScheme::Arcs) | EdgeScorer::Supervised(_)
            )
    }

    /// Is every weight the edge's shared-block count (CBS without
    /// entropy)? Then weights are integers, and WEP's `(Σw, |E|)` per node
    /// are its forward comparisons and forward degree.
    pub(crate) fn weighs_shared_counts(&self) -> bool {
        self.scorer == EdgeScorer::Classic(WeightScheme::Cbs) && !self.use_entropy
    }

    /// Hand `visitor` this context's weight function with the scorer
    /// matched once, here, instead of per edge: each arm passes a closure
    /// over one fixed scheme, so a loop the visitor runs over it is
    /// compiled for that scheme alone. The closure computes exactly
    /// [`ScoringContext::weigh`] (it calls the same code), so weights are
    /// bit-identical.
    pub(crate) fn resolve<V: WeighVisitor>(&self, visitor: V) -> V::Output {
        let (stats, use_entropy) = (&self.stats, self.use_entropy);
        macro_rules! classic {
            ($scheme:expr) => {
                visitor.visit(|a, b, acc: &EdgeAccumulator, blocks_a, blocks_b| {
                    $scheme.weight(a, b, acc, blocks_a, blocks_b, stats, use_entropy)
                })
            };
        }
        match &self.scorer {
            EdgeScorer::Classic(WeightScheme::Cbs) => classic!(WeightScheme::Cbs),
            EdgeScorer::Classic(WeightScheme::Ecbs) => classic!(WeightScheme::Ecbs),
            EdgeScorer::Classic(WeightScheme::Js) => classic!(WeightScheme::Js),
            EdgeScorer::Classic(WeightScheme::Ejs) => classic!(WeightScheme::Ejs),
            EdgeScorer::Classic(WeightScheme::Arcs) => classic!(WeightScheme::Arcs),
            EdgeScorer::Classic(WeightScheme::ChiSquare) => classic!(WeightScheme::ChiSquare),
            EdgeScorer::Supervised(model) => {
                visitor.visit(|a, b, acc: &EdgeAccumulator, blocks_a, blocks_b| {
                    model.score(&self.features(a, b, acc, blocks_a, blocks_b))
                })
            }
        }
    }

    /// Weight the edge `(a, b)` from its accumulator and both endpoints'
    /// block counts — THE per-edge scoring function every execution path
    /// calls.
    pub fn weigh(
        &self,
        a: ProfileId,
        b: ProfileId,
        acc: &EdgeAccumulator,
        blocks_a: usize,
        blocks_b: usize,
    ) -> f64 {
        match &self.scorer {
            EdgeScorer::Classic(scheme) => {
                scheme.weight(a, b, acc, blocks_a, blocks_b, &self.stats, self.use_entropy)
            }
            EdgeScorer::Supervised(model) => {
                model.score(&self.features(a, b, acc, blocks_a, blocks_b))
            }
        }
    }

    /// Extract the edge's full feature vector under this context's global
    /// statistics (degrees read 0 when the scorer did not request them).
    pub fn features(
        &self,
        a: ProfileId,
        b: ProfileId,
        acc: &EdgeAccumulator,
        blocks_a: usize,
        blocks_b: usize,
    ) -> EdgeFeatures {
        let degree = |p: ProfileId| self.stats.degrees.get(p.index()).copied().unwrap_or(0);
        EdgeFeatures::extract(
            acc,
            blocks_a,
            blocks_b,
            self.stats.num_blocks,
            degree(a),
            degree(b),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn acc(shared: u32, arcs: f64, entropy_sum: f64) -> EdgeAccumulator {
        EdgeAccumulator {
            shared_blocks: shared,
            arcs,
            entropy_sum,
        }
    }

    #[test]
    fn features_are_symmetric_in_endpoints() {
        let a = EdgeFeatures::extract(&acc(2, 0.5, 2.0), 3, 7, 10, 4, 9);
        let b = EdgeFeatures::extract(&acc(2, 0.5, 2.0), 7, 3, 10, 9, 4);
        assert_eq!(a, b);
    }

    #[test]
    fn feature_values_match_definitions() {
        let f = EdgeFeatures::extract(&acc(2, 0.75, 1.5), 4, 6, 20, 3, 8);
        let v = f.as_array();
        assert_eq!(v[0], 2.0); // shared
        assert_eq!(v[1], 0.75); // arcs
        assert_eq!(v[2], 1.5); // entropy_sum
        assert!((v[3] - 2.0 / 8.0).abs() < 1e-12); // jaccard
        assert!((v[4] - 4.0 / 10.0).abs() < 1e-12); // dice
        assert!((v[5] - 2.0 / 24.0f64.sqrt()).abs() < 1e-12); // cosine
        assert_eq!((v[6], v[7]), (4.0, 6.0)); // blocks min/max
        assert!((v[8] - 0.2).abs() < 1e-12 && (v[9] - 0.3).abs() < 1e-12);
        assert_eq!((v[10], v[11]), (3.0, 8.0)); // degree min/max
    }

    #[test]
    fn one_hot_cbs_score_is_monotone_in_shared_blocks() {
        let m = LinearModel::one_hot(0);
        let lo = m.score(&EdgeFeatures::extract(&acc(1, 0.0, 1.0), 5, 5, 10, 0, 0));
        let hi = m.score(&EdgeFeatures::extract(&acc(4, 0.0, 4.0), 5, 5, 10, 0, 0));
        assert!(hi > lo);
        assert!(lo > 0.0 && hi < 1.0);
    }

    #[test]
    fn model_json_roundtrips_exactly() {
        let mut m = LinearModel::zero();
        for (i, w) in m.weights.iter_mut().enumerate() {
            *w = (i as f64 + 1.0) * 0.317 - 2.0;
        }
        m.bias = -1.25e-3;
        let back = LinearModel::from_json(&m.to_json()).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn model_json_accepts_whitespace_and_key_order() {
        let text = r#" { "weights" : [1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0.5] ,
                         "bias" : -2.0 } "#;
        let m = LinearModel::from_json(text).unwrap();
        assert_eq!(m.weights[0], 1.0);
        assert_eq!(m.weights[11], 0.5);
        assert_eq!(m.bias, -2.0);
    }

    #[test]
    fn malformed_model_json_is_rejected() {
        for (text, needle) in [
            ("{}", "missing \"bias\""),
            ("{\"bias\":0}", "missing \"weights\""),
            ("{\"bias\":x,\"weights\":[]}", "invalid number"),
            ("{\"bias\":0,\"weights\":[1,2]}", "exactly 12"),
            ("{\"bias\":0,\"weights\":0}", "must be an array"),
            ("{\"bias\":0,\"weights\":[1,2,3", "unterminated"),
            (
                // Rust's f64 parser accepts "nan", so this trips the
                // finiteness check rather than the parse.
                "{\"bias\":0,\"weights\":[1,2,3,4,5,6,7,8,9,10,11,nan]}",
                "must be finite",
            ),
            (
                "{\"bias\":0,\"weights\":[1,2,3,4,5,6,7,8,9,10,11,x]}",
                "invalid weight",
            ),
        ] {
            let err = LinearModel::from_json(text).unwrap_err();
            assert!(err.contains(needle), "{text}: {err}");
        }
    }

    #[test]
    fn scorer_names_and_degree_needs() {
        assert_eq!(EdgeScorer::default().name(), "CBS");
        assert_eq!(
            EdgeScorer::Supervised(LinearModel::zero()).name(),
            "SUPERVISED"
        );
        assert!(!EdgeScorer::Classic(WeightScheme::Cbs).needs_degrees());
        assert!(EdgeScorer::Classic(WeightScheme::Ejs).needs_degrees());
        assert!(EdgeScorer::Supervised(LinearModel::zero()).needs_degrees());
        assert_eq!(
            EdgeScorer::Classic(WeightScheme::Js).classic(),
            Some(WeightScheme::Js)
        );
        assert_eq!(EdgeScorer::Supervised(LinearModel::zero()).classic(), None);
    }
}
