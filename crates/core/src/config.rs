//! Pipeline configuration: every tunable of the paper's debugging section.
//!
//! "In the blocker each operation (blocking, purging, filtering, and
//! meta-blocking) can be fine tuned … in the entity matching phase, it is
//! possible to try different similarity techniques with different
//! thresholds." Configurations can be serialized to a small text format and
//! reloaded — the paper's "store the obtained configuration … applied to
//! the whole data in a batch mode".

use sparker_looseschema::LshConfig;
use sparker_matching::SimilarityMeasure;
use sparker_metablocking::{
    EdgeScorer, LinearModel, MetaBlockingConfig, PruningStrategy, WeightScheme,
};
use std::fmt;

/// How oversized blocks are purged — defined beside the purge rules in
/// `sparker-blocking`, which every backend's cleaning step applies.
pub use sparker_blocking::PurgeConfig;

/// Blocker configuration (Figure 4's sub-modules).
#[derive(Debug, Clone)]
pub struct BlockingConfig {
    /// `Some` enables the loose-schema generator (attribute partitioning +
    /// entropy); `None` is plain schema-agnostic token blocking.
    pub loose_schema: Option<LshConfig>,
    /// Block purging.
    pub purge: PurgeConfig,
    /// Block filtering retained ratio (`None` disables; the paper keeps
    /// the smallest 80 %).
    pub filter_ratio: Option<f64>,
    /// Meta-blocking (`None` takes all block pairs as candidates).
    pub meta_blocking: Option<MetaBlockingConfig>,
}

impl Default for BlockingConfig {
    /// The paper's default unsupervised pipeline: schema-agnostic token
    /// blocking, purging at half the collection, filtering at 0.8,
    /// CBS/WEP meta-blocking.
    fn default() -> Self {
        BlockingConfig {
            loose_schema: None,
            purge: PurgeConfig::Oversized { max_fraction: 0.5 },
            filter_ratio: Some(0.8),
            meta_blocking: Some(MetaBlockingConfig::default()),
        }
    }
}

impl BlockingConfig {
    /// The Blast configuration: loose schema on, entropy-weighted χ²
    /// meta-blocking with local-maxima pruning.
    pub fn blast() -> Self {
        BlockingConfig {
            loose_schema: Some(LshConfig::default()),
            purge: PurgeConfig::Oversized { max_fraction: 0.5 },
            filter_ratio: Some(0.8),
            meta_blocking: Some(MetaBlockingConfig::blast()),
        }
    }
}

/// Entity-matcher configuration (unsupervised mode).
#[derive(Debug, Clone)]
pub struct MatcherConfig {
    /// Similarity measure applied to candidate pairs.
    pub measure: SimilarityMeasure,
    /// Minimum score for a match.
    pub threshold: f64,
}

impl Default for MatcherConfig {
    fn default() -> Self {
        MatcherConfig {
            measure: SimilarityMeasure::Jaccard,
            threshold: 0.35,
        }
    }
}

// The algorithm enum lives next to the single `cluster_edges` dispatch in
// `sparker-clustering`; re-exported here so `sparker_core::ClusteringAlgorithm`
// keeps working.
pub use sparker_clustering::ClusteringAlgorithm;

/// Full pipeline configuration.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Blocker settings.
    pub blocking: BlockingConfig,
    /// Matcher settings.
    pub matching: MatcherConfig,
    /// Clusterer selection.
    pub clustering: ClusteringAlgorithm,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            blocking: BlockingConfig::default(),
            matching: MatcherConfig::default(),
            clustering: ClusteringAlgorithm::ConnectedComponents,
        }
    }
}

impl PipelineConfig {
    /// The scaling-tier configuration the named dataset presets run under
    /// (CLI `--preset`, the scaling bench, CI's out-of-core smoke).
    ///
    /// The default configuration's oversized-block purge keeps enough hub
    /// blocks that meta-blocking's input grows roughly quadratically with
    /// the collection — fine at Abt-Buy scale, hopeless at 10⁵–10⁶
    /// profiles. This variant bounds the work per profile instead:
    /// comparison-level purging (adaptive, drops the hub blocks), block
    /// filtering at 0.5, and reciprocal CNP meta-blocking (top-k neighbours
    /// per node, k chosen from the block statistics), so candidates stay
    /// `O(profiles × k)` and the pipeline scales linearly in time and
    /// memory.
    pub fn scaling() -> Self {
        PipelineConfig {
            blocking: BlockingConfig {
                loose_schema: None,
                purge: PurgeConfig::ComparisonLevel { smoothing: 1.0 },
                filter_ratio: Some(0.5),
                meta_blocking: Some(MetaBlockingConfig {
                    pruning: PruningStrategy::Cnp {
                        k: None,
                        reciprocal: true,
                    },
                    ..MetaBlockingConfig::default()
                }),
            },
            matching: MatcherConfig::default(),
            clustering: ClusteringAlgorithm::ConnectedComponents,
        }
    }

    /// The settings under which a fused run, handed a token pass taken
    /// while loading ([`crate::Pipeline::run_on_pass`]), would still read
    /// attribute text, by configuration key: `loose_schema` (attribute
    /// partitioning and keyed blocking read names and values), `mb.entropy`
    /// (block entropies come from the attribute partitioning),
    /// `matcher.measure` (the string measures score the concatenated
    /// values) and `meta_blocking` when off (the staged matcher prepares
    /// its views from the text). Empty when the token pass is all the run
    /// reads of a profile.
    pub fn text_readers(&self) -> Vec<&'static str> {
        let mut readers = Vec::new();
        if self.blocking.loose_schema.is_some() {
            readers.push("loose_schema");
        }
        match &self.blocking.meta_blocking {
            None => readers.push("meta_blocking"),
            Some(mb) if mb.use_entropy => readers.push("mb.entropy"),
            Some(_) => {}
        }
        if self.matching.measure.reads_text() {
            readers.push("matcher.measure");
        }
        readers
    }

    /// Serialize to the persistence format (one `key = value` per line).
    pub fn to_config_string(&self) -> String {
        let mut out = String::new();
        match &self.blocking.loose_schema {
            None => out.push_str("loose_schema = off\n"),
            Some(l) => {
                out.push_str(&format!(
                    "loose_schema = on\nlsh.num_hashes = {}\nlsh.bands = {}\nlsh.threshold = {}\nlsh.seed = {}\n",
                    l.num_hashes, l.bands, l.threshold, l.seed
                ));
            }
        }
        match self.blocking.purge {
            PurgeConfig::Off => out.push_str("purge = off\n"),
            PurgeConfig::Oversized { max_fraction } => {
                out.push_str(&format!("purge = oversized {max_fraction}\n"))
            }
            PurgeConfig::ComparisonLevel { smoothing } => {
                out.push_str(&format!("purge = comparison {smoothing}\n"))
            }
        }
        match self.blocking.filter_ratio {
            None => out.push_str("filter = off\n"),
            Some(r) => out.push_str(&format!("filter = {r}\n")),
        }
        match &self.blocking.meta_blocking {
            None => out.push_str("meta_blocking = off\n"),
            Some(mb) => {
                out.push_str(&format!(
                    "meta_blocking = on\nmb.scheme = {}\nmb.entropy = {}\n",
                    mb.scorer.name(),
                    mb.use_entropy
                ));
                if let EdgeScorer::Supervised(model) = mb.scorer {
                    out.push_str(&format!("mb.model = {}\n", model.to_json()));
                }
                let p = match mb.pruning {
                    PruningStrategy::Wep { factor } => format!("WEP {factor}"),
                    PruningStrategy::Cep { retain } => {
                        format!(
                            "CEP {}",
                            retain.map_or("auto".to_string(), |r| r.to_string())
                        )
                    }
                    PruningStrategy::Wnp { factor, reciprocal } => {
                        format!(
                            "WNP {factor}{}",
                            if reciprocal { " reciprocal" } else { "" }
                        )
                    }
                    PruningStrategy::Cnp { k, reciprocal } => {
                        format!(
                            "CNP {}{}",
                            k.map_or("auto".to_string(), |k| k.to_string()),
                            if reciprocal { " reciprocal" } else { "" }
                        )
                    }
                    PruningStrategy::Blast { ratio } => format!("BLAST {ratio}"),
                };
                out.push_str(&format!("mb.pruning = {p}\n"));
            }
        }
        out.push_str(&format!(
            "matcher.measure = {}\nmatcher.threshold = {}\nclustering = {}\n",
            self.matching.measure.name(),
            self.matching.threshold,
            self.clustering.name()
        ));
        out
    }

    /// Parse a configuration saved with
    /// [`PipelineConfig::to_config_string`]. Unknown keys are rejected.
    pub fn from_config_string(text: &str) -> Result<PipelineConfig, ConfigParseError> {
        let mut config = PipelineConfig::default();
        let mut lsh = LshConfig::default();
        let mut lsh_on = false;
        let mut mb = MetaBlockingConfig::default();
        let mut mb_on = true;
        // `mb.scheme = SUPERVISED` is resolved after the scan, once the
        // `mb.model` line (order-independent) has been seen.
        let mut mb_model: Option<LinearModel> = None;
        let mut supervised_at: Option<usize> = None;
        // Line of the last `lsh.num_hashes` / `lsh.bands` entry: the two
        // are checked together once both are known.
        let mut lsh_shape_at = 0;

        let err = |line: usize, msg: &str| ConfigParseError {
            line,
            message: msg.to_string(),
        };
        for (i, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| err(i + 1, "expected key = value"))?;
            let (key, value) = (key.trim(), value.trim());
            let parse_f64 = |v: &str| match v.parse::<f64>() {
                Ok(x) if x.is_finite() => Ok(x),
                Ok(_) => Err(err(i + 1, "number must be finite")),
                Err(_) => Err(err(i + 1, "invalid number")),
            };
            // The stages assert these ranges; reject here, with the line.
            let in_range = |x: f64, ok: bool, what: &str| {
                if ok {
                    Ok(x)
                } else {
                    Err(err(i + 1, &format!("{what}, got {x}")))
                }
            };
            match key {
                "loose_schema" => lsh_on = value == "on",
                "lsh.num_hashes" => {
                    lsh.num_hashes = value.parse().map_err(|_| err(i + 1, "invalid integer"))?;
                    lsh_shape_at = i + 1;
                }
                "lsh.bands" => {
                    lsh.bands = value.parse().map_err(|_| err(i + 1, "invalid integer"))?;
                    lsh_shape_at = i + 1;
                }
                "lsh.threshold" => lsh.threshold = parse_f64(value)?,
                "lsh.seed" => {
                    lsh.seed = value.parse().map_err(|_| err(i + 1, "invalid integer"))?
                }
                "purge" => {
                    config.blocking.purge = if value == "off" {
                        PurgeConfig::Off
                    } else if let Some(rest) = value.strip_prefix("oversized ") {
                        let f = parse_f64(rest.trim())?;
                        PurgeConfig::Oversized {
                            max_fraction: in_range(f, f > 0.0, "purge fraction must be positive")?,
                        }
                    } else if let Some(rest) = value.strip_prefix("comparison ") {
                        let f = parse_f64(rest.trim())?;
                        PurgeConfig::ComparisonLevel {
                            smoothing: in_range(f, f >= 1.0, "purge smoothing must be ≥ 1")?,
                        }
                    } else {
                        return Err(err(i + 1, "invalid purge setting"));
                    }
                }
                "filter" => {
                    config.blocking.filter_ratio = if value == "off" {
                        None
                    } else {
                        let r = parse_f64(value)?;
                        let ok = r > 0.0 && r <= 1.0;
                        Some(in_range(r, ok, "filter ratio must be in (0, 1]")?)
                    }
                }
                "meta_blocking" => mb_on = value == "on",
                "mb.scheme" => {
                    if value == "SUPERVISED" {
                        supervised_at = Some(i + 1);
                    } else {
                        mb.scorer = EdgeScorer::Classic(
                            WeightScheme::ALL
                                .into_iter()
                                .find(|s| s.name() == value)
                                .ok_or_else(|| err(i + 1, "unknown weighting scheme"))?,
                        );
                    }
                }
                "mb.model" => {
                    mb_model =
                        Some(LinearModel::from_json(value).map_err(|e| ConfigParseError {
                            line: i + 1,
                            message: e,
                        })?)
                }
                "mb.entropy" => mb.use_entropy = value == "true",
                "mb.pruning" => {
                    let (name, arg) = value.split_once(' ').unwrap_or((value, ""));
                    // Node-centric strategies accept a trailing "reciprocal".
                    let (arg, reciprocal) = match arg.trim().strip_suffix("reciprocal") {
                        Some(rest) => (rest.trim(), true),
                        None => (arg.trim(), false),
                    };
                    let auto = arg == "auto";
                    let factor = |arg: &str| {
                        let f = parse_f64(arg)?;
                        in_range(f, f > 0.0, "pruning factor must be positive")
                    };
                    mb.pruning = match name {
                        "WEP" => PruningStrategy::Wep {
                            factor: factor(arg)?,
                        },
                        "CEP" => PruningStrategy::Cep {
                            retain: if auto {
                                None
                            } else {
                                Some(arg.parse().map_err(|_| err(i + 1, "invalid integer"))?)
                            },
                        },
                        "WNP" => PruningStrategy::Wnp {
                            factor: factor(arg)?,
                            reciprocal,
                        },
                        "CNP" => PruningStrategy::Cnp {
                            k: if auto {
                                None
                            } else {
                                Some(arg.parse().map_err(|_| err(i + 1, "invalid integer"))?)
                            },
                            reciprocal,
                        },
                        "BLAST" => {
                            let r = parse_f64(arg)?;
                            let ok = r > 0.0 && r <= 1.0;
                            PruningStrategy::Blast {
                                ratio: in_range(r, ok, "Blast ratio must be in (0, 1]")?,
                            }
                        }
                        _ => return Err(err(i + 1, "unknown pruning strategy")),
                    };
                }
                "matcher.measure" => {
                    config.matching.measure = SimilarityMeasure::ALL
                        .into_iter()
                        .find(|m| m.name() == value)
                        .ok_or_else(|| err(i + 1, "unknown similarity measure"))?
                }
                "matcher.threshold" => {
                    let t = parse_f64(value)?;
                    let ok = (0.0..=1.0).contains(&t);
                    config.matching.threshold = in_range(t, ok, "threshold must be in [0, 1]")?;
                }
                "clustering" => {
                    config.clustering = ClusteringAlgorithm::ALL
                        .into_iter()
                        .find(|c| c.name() == value)
                        .ok_or_else(|| err(i + 1, "unknown clustering algorithm"))?
                }
                _ => return Err(err(i + 1, "unknown key")),
            }
        }
        if let Some(line) = supervised_at {
            let model = mb_model
                .ok_or_else(|| err(line, "mb.scheme = SUPERVISED requires an mb.model line"))?;
            mb.scorer = EdgeScorer::Supervised(model);
        }
        if lsh_on
            && (lsh.num_hashes == 0 || lsh.bands == 0 || !lsh.num_hashes.is_multiple_of(lsh.bands))
        {
            return Err(err(
                lsh_shape_at,
                "lsh.num_hashes must be a positive multiple of lsh.bands",
            ));
        }
        config.blocking.loose_schema = lsh_on.then_some(lsh);
        config.blocking.meta_blocking = mb_on.then_some(mb);
        Ok(config)
    }
}

/// Error parsing a persisted configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigParseError {
    /// 1-based line of the offending entry.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ConfigParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "config parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ConfigParseError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_roundtrips() {
        let c = PipelineConfig::default();
        let text = c.to_config_string();
        let parsed = PipelineConfig::from_config_string(&text).unwrap();
        assert_eq!(parsed.to_config_string(), text);
        // A file with no keys is the default (the CI dense smoke saves one).
        let empty = PipelineConfig::from_config_string("# nothing set\n").unwrap();
        assert_eq!(empty.to_config_string(), text);
    }

    #[test]
    fn blast_roundtrips() {
        let c = PipelineConfig {
            blocking: BlockingConfig::blast(),
            matching: MatcherConfig {
                measure: SimilarityMeasure::MongeElkan,
                threshold: 0.7,
            },
            clustering: ClusteringAlgorithm::UniqueMapping,
        };
        let text = c.to_config_string();
        let parsed = PipelineConfig::from_config_string(&text).unwrap();
        assert_eq!(parsed.to_config_string(), text);
        assert!(parsed.blocking.loose_schema.is_some());
        assert_eq!(parsed.clustering, ClusteringAlgorithm::UniqueMapping);
    }

    #[test]
    fn all_pruning_variants_roundtrip() {
        for pruning in [
            PruningStrategy::Wep { factor: 1.5 },
            PruningStrategy::Cep { retain: Some(100) },
            PruningStrategy::Cep { retain: None },
            PruningStrategy::Wnp {
                factor: 0.8,
                reciprocal: false,
            },
            PruningStrategy::Wnp {
                factor: 1.2,
                reciprocal: true,
            },
            PruningStrategy::Cnp {
                k: Some(3),
                reciprocal: false,
            },
            PruningStrategy::Cnp {
                k: None,
                reciprocal: true,
            },
            PruningStrategy::Cnp {
                k: None,
                reciprocal: false,
            },
            PruningStrategy::Blast { ratio: 0.35 },
        ] {
            let mut c = PipelineConfig::default();
            c.blocking.meta_blocking = Some(MetaBlockingConfig {
                pruning,
                ..MetaBlockingConfig::default()
            });
            let text = c.to_config_string();
            let parsed = PipelineConfig::from_config_string(&text).unwrap();
            assert_eq!(parsed.to_config_string(), text, "{}", pruning.name());
        }
    }

    #[test]
    fn supervised_scorer_roundtrips() {
        let mut model = LinearModel::zero();
        model.weights[0] = 1.5;
        model.weights[3] = -0.25;
        model.bias = -2.0;
        let mut c = PipelineConfig::default();
        c.blocking.meta_blocking = Some(MetaBlockingConfig {
            scorer: EdgeScorer::Supervised(model),
            ..MetaBlockingConfig::default()
        });
        let text = c.to_config_string();
        assert!(text.contains("mb.scheme = SUPERVISED"));
        assert!(text.contains("mb.model = {"));
        let parsed = PipelineConfig::from_config_string(&text).unwrap();
        assert_eq!(parsed.to_config_string(), text);
        match parsed.blocking.meta_blocking.unwrap().scorer {
            EdgeScorer::Supervised(m) => assert_eq!(m, model),
            other => panic!("expected supervised scorer, got {other:?}"),
        }
    }

    #[test]
    fn supervised_without_model_is_rejected() {
        let mut c = PipelineConfig::default();
        c.blocking.meta_blocking = Some(MetaBlockingConfig {
            scorer: EdgeScorer::Supervised(LinearModel::zero()),
            ..MetaBlockingConfig::default()
        });
        let without: String = c
            .to_config_string()
            .lines()
            .filter(|l| !l.starts_with("mb.model"))
            .map(|l| format!("{l}\n"))
            .collect();
        let err = PipelineConfig::from_config_string(&without).unwrap_err();
        assert!(err.message.contains("mb.model"), "{err}");
        // A malformed model payload carries its own line number.
        let broken = "mb.scheme = SUPERVISED\nmb.model = {\"bias\":0}\n";
        let err = PipelineConfig::from_config_string(broken).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("weights"), "{err}");
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let text = "# comment\n\nfilter = 0.6\n";
        let c = PipelineConfig::from_config_string(text).unwrap();
        assert_eq!(c.blocking.filter_ratio, Some(0.6));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = PipelineConfig::from_config_string("filter = 0.8\nbogus_key = 1\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("unknown key"));
        let err = PipelineConfig::from_config_string("filter 0.8\n").unwrap_err();
        assert!(err.message.contains("key = value"));
        let err = PipelineConfig::from_config_string("matcher.measure = nope\n").unwrap_err();
        assert!(err.message.contains("similarity"));
    }

    #[test]
    fn out_of_range_values_are_rejected_with_their_line() {
        // Every value a stage would assert on fails here instead, naming
        // the line it is on (line 2: line 1 is a valid entry).
        for (entry, needle) in [
            ("mb.pruning = WEP 0", "factor must be positive"),
            ("mb.pruning = WEP -1", "factor must be positive"),
            ("mb.pruning = WEP NaN", "finite"),
            ("mb.pruning = WEP inf", "finite"),
            ("mb.pruning = WNP 0 reciprocal", "factor must be positive"),
            ("mb.pruning = BLAST 2", "Blast ratio must be in (0, 1]"),
            ("mb.pruning = BLAST 0", "Blast ratio must be in (0, 1]"),
            ("mb.pruning = BLAST NaN", "finite"),
            ("filter = 1.5", "filter ratio must be in (0, 1]"),
            ("filter = 0", "filter ratio must be in (0, 1]"),
            ("filter = NaN", "finite"),
            ("matcher.threshold = NaN", "finite"),
            ("matcher.threshold = 1.01", "threshold must be in [0, 1]"),
            ("matcher.threshold = -0.1", "threshold must be in [0, 1]"),
            ("purge = oversized 0", "purge fraction must be positive"),
            ("purge = comparison 0.5", "purge smoothing must be ≥ 1"),
            ("lsh.threshold = NaN", "finite"),
        ] {
            let err = PipelineConfig::from_config_string(&format!(
                "clustering = connected-components\n{entry}\n"
            ))
            .expect_err(entry);
            assert_eq!(err.line, 2, "{entry}: {err}");
            assert!(err.message.contains(needle), "{entry}: {err}");
        }
        // The LSH shape is checked once both numbers are known, at the
        // line of the later one, and only when LSH runs.
        let shape = "lsh.num_hashes = 128\nlsh.bands = 3\n";
        let err =
            PipelineConfig::from_config_string(&format!("loose_schema = on\n{shape}")).unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.message.contains("multiple of lsh.bands"), "{err}");
        assert!(
            PipelineConfig::from_config_string(&format!("loose_schema = off\n{shape}")).is_ok()
        );
        // The ends of every closed range are accepted.
        let edges = "mb.pruning = BLAST 1\nfilter = 1\nmatcher.threshold = 0\n\
                     matcher.threshold = 1\npurge = comparison 1\n";
        assert!(PipelineConfig::from_config_string(edges).is_ok());
    }

    #[test]
    fn off_switches() {
        let text = "loose_schema = off\npurge = off\nfilter = off\nmeta_blocking = off\n";
        let c = PipelineConfig::from_config_string(text).unwrap();
        assert!(c.blocking.loose_schema.is_none());
        assert_eq!(c.blocking.purge, PurgeConfig::Off);
        assert!(c.blocking.filter_ratio.is_none());
        assert!(c.blocking.meta_blocking.is_none());
    }
}
