//! Process debugging (Section 3 of the paper): representative sampling,
//! false-positive drill-down, and threshold sweeps.

use crate::candidates::CandidateSet;
use crate::config::PipelineConfig;
use crate::evaluate::BlockingQuality;
use crate::pipeline::Pipeline;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use sparker_profiles::{GroundTruth, Pair, ProfileCollection, ProfileId, Token};
use std::collections::{HashMap, HashSet};

/// Parameters of the representative sampler.
///
/// The paper (following Magellan): "pick up some random K profiles PK, then
/// for each profile pi ∈ PK pick up k/2 profiles that could be a match
/// (i.e. shares a high number of token with pi) and k/2 profiles randomly.
/// K and k are two parameters that can be set by the user based on the time
/// that she wants to spend."
#[derive(Debug, Clone)]
pub struct SampleConfig {
    /// Number of seed profiles (the paper's `K`).
    pub seeds: usize,
    /// Companions per seed (the paper's `k`); half token-similar, half
    /// random.
    pub companions_per_seed: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SampleConfig {
    fn default() -> Self {
        SampleConfig {
            seeds: 50,
            companions_per_seed: 10,
            seed: 42,
        }
    }
}

/// Draw a representative sample of profile ids: `K` random seeds, each with
/// `k/2` token-sharing likely matches and `k/2` random companions. The
/// returned ids are sorted and deduplicated, ready to slice a collection
/// for fast configuration iteration.
pub fn representative_sample(
    collection: &ProfileCollection,
    config: &SampleConfig,
) -> Vec<ProfileId> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(config.seed);
    let n = collection.len();
    if n == 0 {
        return Vec::new();
    }

    // Inverted token index for the "shares a high number of tokens" pick.
    let mut token_index: HashMap<Token, Vec<ProfileId>> = HashMap::new();
    for p in collection.profiles() {
        for t in p.token_set() {
            token_index.entry(t).or_default().push(p.id);
        }
    }

    let mut all_ids: Vec<ProfileId> = collection.profiles().iter().map(|p| p.id).collect();
    all_ids.shuffle(&mut rng);
    let seeds: Vec<ProfileId> = all_ids.iter().take(config.seeds.min(n)).copied().collect();

    let mut picked: HashSet<ProfileId> = seeds.iter().copied().collect();
    let half = config.companions_per_seed / 2;
    for &seed_profile in &seeds {
        // Likely matches: comparable profiles ranked by shared-token count.
        let mut counts: HashMap<ProfileId, u32> = HashMap::new();
        for t in collection.get(seed_profile).token_set() {
            if let Some(ids) = token_index.get(&t) {
                for &other in ids {
                    if collection.is_comparable(seed_profile, other) {
                        *counts.entry(other).or_insert(0) += 1;
                    }
                }
            }
        }
        let mut ranked: Vec<(ProfileId, u32)> = counts.into_iter().collect();
        ranked.sort_by_key(|&(p, c)| (std::cmp::Reverse(c), p));
        picked.extend(ranked.iter().take(half).map(|(p, _)| *p));
        // Random companions.
        for _ in 0..half {
            let r = all_ids[rand::Rng::gen_range(&mut rng, 0..n)];
            picked.insert(r);
        }
    }

    let mut out: Vec<ProfileId> = picked.into_iter().collect();
    out.sort_unstable();
    out
}

/// One ground-truth pair lost by the blocker, with the evidence the paper's
/// Figure 6(d) debug view shows: the profiles' original ids and the
/// blocking keys the two profiles *would* share (the keys whose blocks were
/// purged/filtered/pruned away, or `[]` when the profiles share no token at
/// all).
#[derive(Debug, Clone)]
pub struct FalsePositive {
    /// The lost ground-truth pair.
    pub pair: Pair,
    /// Original (source) id of the first profile.
    pub original_ids: (String, String),
    /// Tokens the two profiles share — the blocking keys on which the pair
    /// could have been caught.
    pub shared_tokens: Vec<Token>,
}

/// The Figure 6(d) drill-down: every ground-truth pair missing from the
/// blocker's candidates, with its shared blocking keys.
#[derive(Debug, Clone)]
pub struct LostPairsReport {
    /// Lost pairs, sorted.
    pub lost: Vec<FalsePositive>,
}

impl LostPairsReport {
    /// Build the report for a candidate set.
    pub fn build(
        collection: &ProfileCollection,
        ground_truth: &GroundTruth,
        candidates: &CandidateSet,
    ) -> Self {
        assert!(
            collection.has_text(),
            "the lost-pair drill-down reads shared tokens: it needs the collection's text"
        );
        let lost = ground_truth
            .lost_pairs(|pair| candidates.contains(pair))
            .into_iter()
            .map(|pair| {
                let a = collection.get(pair.first);
                let b = collection.get(pair.second);
                let shared: Vec<Token> = a
                    .token_set()
                    .intersection(&b.token_set())
                    .cloned()
                    .collect();
                FalsePositive {
                    pair,
                    original_ids: (a.original_id.clone(), b.original_id.clone()),
                    shared_tokens: shared,
                }
            })
            .collect();
        LostPairsReport { lost }
    }

    /// Number of lost pairs.
    pub fn len(&self) -> usize {
        self.lost.len()
    }

    /// `true` when nothing was lost.
    pub fn is_empty(&self) -> bool {
        self.lost.is_empty()
    }

    /// Tokens most often shared by lost pairs — pointing at the
    /// attribute partitions / filters responsible (the insight the demo
    /// walks the audience through).
    pub fn most_common_shared_tokens(&self, top: usize) -> Vec<(Token, usize)> {
        let mut counts: HashMap<&Token, usize> = HashMap::new();
        for fp in &self.lost {
            for t in &fp.shared_tokens {
                *counts.entry(t).or_insert(0) += 1;
            }
        }
        let mut ranked: Vec<(Token, usize)> =
            counts.into_iter().map(|(t, c)| (t.clone(), c)).collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        ranked.truncate(top);
        ranked
    }
}

/// One row of a clustering-threshold sweep (the Figure 6(a)→(b) debugging
/// flow: the user moves the loose-schema threshold and watches the blocking
/// statistics).
#[derive(Debug, Clone)]
pub struct ThresholdSweepRow {
    /// The loose-schema clustering threshold used.
    pub threshold: f64,
    /// Number of attribute partitions (including the blob).
    pub attribute_partitions: usize,
    /// Blocks produced.
    pub blocks: usize,
    /// Candidate quality at this threshold.
    pub quality: BlockingQuality,
}

/// Run the blocker at each loose-schema threshold and report the statistics
/// the demo GUI displays (blocks, candidate pairs, recall, precision, lost
/// pairs).
pub fn threshold_sweep(
    collection: &ProfileCollection,
    ground_truth: &GroundTruth,
    base: &PipelineConfig,
    thresholds: &[f64],
) -> Vec<ThresholdSweepRow> {
    thresholds
        .iter()
        .map(|&threshold| {
            let mut config = base.clone();
            let mut lsh = config.blocking.loose_schema.clone().unwrap_or_default();
            lsh.threshold = threshold;
            config.blocking.loose_schema = Some(lsh);
            let out = Pipeline::new(config).run_blocker(collection);
            let quality = BlockingQuality::measure(&out.candidates, ground_truth, collection);
            ThresholdSweepRow {
                threshold,
                attribute_partitions: out.partitioning.as_ref().map_or(1, |p| p.len()),
                blocks: out.cleaned_blocks,
                quality,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparker_datasets::{generate, DatasetConfig};
    use sparker_profiles::{Profile, SourceId};

    fn dataset() -> sparker_datasets::GeneratedDataset {
        generate(&DatasetConfig {
            entities: 80,
            unmatched_per_source: 20,
            ..DatasetConfig::default()
        })
    }

    #[test]
    fn sample_is_deterministic_and_bounded() {
        let ds = dataset();
        let config = SampleConfig {
            seeds: 10,
            companions_per_seed: 6,
            seed: 1,
        };
        let a = representative_sample(&ds.collection, &config);
        let b = representative_sample(&ds.collection, &config);
        assert_eq!(a, b);
        assert!(a.len() >= 10);
        assert!(a.len() <= 10 + 10 * 6);
        assert!(a.windows(2).all(|w| w[0] < w[1]), "sorted, deduplicated");
    }

    #[test]
    fn sample_contains_likely_matches() {
        // With clean duplicates, a seed's counterpart shares nearly all
        // tokens, so it should be picked as a likely match.
        let ds = generate(&DatasetConfig {
            entities: 40,
            unmatched_per_source: 0,
            noise: sparker_datasets::NoiseConfig::none(),
            ..DatasetConfig::default()
        });
        let sample = representative_sample(
            &ds.collection,
            &SampleConfig {
                seeds: 80, // every profile seeds, so every counterpart gets picked
                companions_per_seed: 2,
                seed: 3,
            },
        );
        let set: HashSet<ProfileId> = sample.into_iter().collect();
        // Count how many ground-truth pairs are fully inside the sample.
        let covered = ds
            .ground_truth
            .iter()
            .filter(|p| set.contains(&p.first) && set.contains(&p.second))
            .count();
        assert!(covered >= 38, "only {covered}/40 matched pairs covered");
    }

    #[test]
    fn empty_collection_sample() {
        let coll = ProfileCollection::dirty(vec![]);
        assert!(representative_sample(&coll, &SampleConfig::default()).is_empty());
    }

    #[test]
    fn lost_pairs_report_shows_shared_tokens() {
        let coll = ProfileCollection::clean_clean(
            vec![Profile::builder(SourceId(0), "abt-1")
                .attr("name", "sony bravia")
                .build()],
            vec![Profile::builder(SourceId(1), "buy-1")
                .attr("title", "sony bravia tv")
                .build()],
        );
        let gt = GroundTruth::from_original_ids(&coll, vec![("abt-1", "buy-1")]).unwrap();
        let report = LostPairsReport::build(&coll, &gt, &CandidateSet::default());
        assert_eq!(report.len(), 1);
        assert_eq!(report.lost[0].original_ids.0, "abt-1");
        assert_eq!(
            report.lost[0].shared_tokens,
            vec!["bravia".to_string(), "sony".to_string()]
        );
        let common = report.most_common_shared_tokens(1);
        assert_eq!(common[0].1, 1);
    }

    #[test]
    fn nothing_lost_when_candidates_cover_ground_truth() {
        let ds = dataset();
        let candidates: CandidateSet = ds.ground_truth.iter().copied().collect();
        let report = LostPairsReport::build(&ds.collection, &ds.ground_truth, &candidates);
        assert!(report.is_empty());
        assert!(report.most_common_shared_tokens(5).is_empty());
    }

    #[test]
    fn threshold_sweep_reports_rows() {
        let ds = dataset();
        let mut base = PipelineConfig::default();
        base.blocking.loose_schema = Some(Default::default());
        let rows = threshold_sweep(&ds.collection, &ds.ground_truth, &base, &[1.01, 0.3]);
        assert_eq!(rows.len(), 2);
        // Threshold above 1: blob only (schema-agnostic).
        assert_eq!(rows[0].attribute_partitions, 1);
        // At 0.3 the aligned attributes cluster, so more partitions exist.
        assert!(rows[1].attribute_partitions > 1);
        for r in &rows {
            assert!(r.blocks > 0);
            assert!(r.quality.recall > 0.5);
        }
    }
}
