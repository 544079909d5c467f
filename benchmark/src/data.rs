//! Generated inputs and the checks on what the program made of them. The
//! program under test only ever sees these files and HTTP bodies; the seed
//! stays on this side.

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use sparker_core::PipelineConfig;
use sparker_datasets::{
    export_dataset, generate_dirty_chunked, DatasetConfig, Domain, ExportFormat, GeneratedDataset,
};
use sparker_profiles::{parse_csv, GroundTruth, JsonValue, Profile, ProfileCollection, ProfileId};

use crate::outcome::number;
use crate::spec::Workload;

/// True matches as pairs of original ids.
pub type Truth = Vec<(String, String)>;

/// The workload's dataset for `seed`: profiles in file order plus truth.
pub fn generate(w: &Workload, seed: u64) -> (Vec<Profile>, Truth) {
    let config = DatasetConfig {
        entities: w.entities,
        unmatched_per_source: 0,
        domain: Domain::Products,
        seed,
        skew: w.skew.clone(),
        ..DatasetConfig::default()
    };
    let mut profiles: Vec<Profile> = Vec::new();
    let ground_truth = generate_dirty_chunked(&config, w.max_cluster, usize::MAX, |chunk| {
        profiles.extend(chunk)
    });
    let id = |p: ProfileId| profiles[p.index()].original_id.clone();
    let truth = ground_truth
        .iter()
        .map(|pair| (id(pair.first), id(pair.second)))
        .collect();
    if w.is_serve() {
        // Clusters are generated contiguously; shuffling makes the held-out
        // tail hold duplicates of warm entities, not only unseen entities.
        profiles.shuffle(&mut StdRng::seed_from_u64(seed ^ 0x5eed));
    }
    (profiles, truth)
}

/// Generated inputs on disk: what one CLI run reads and is checked against.
pub struct Inputs {
    pub collection: ProfileCollection,
    pub truth: Truth,
    pub jsonl: PathBuf,
    pub config: PathBuf,
}

impl Inputs {
    /// Write `profiles` as the JSON-lines file the CLI loads and `config`
    /// as its `--config` file, both under `dir`.
    pub fn write(
        dir: &Path,
        profiles: Vec<Profile>,
        truth: Truth,
        config: &PipelineConfig,
    ) -> Result<Inputs, String> {
        let io = |e| format!("writing inputs under {}: {e}", dir.display());
        let ds = GeneratedDataset {
            collection: ProfileCollection::dirty(profiles),
            ground_truth: GroundTruth::from_pairs([]),
        };
        let files = export_dataset(&ds, dir, ExportFormat::JsonLines).map_err(io)?;
        let config_path = dir.join("pipeline.conf");
        std::fs::write(&config_path, config.to_config_string()).map_err(io)?;
        Ok(Inputs {
            collection: ds.collection,
            truth,
            jsonl: files.sources[0].clone(),
            config: config_path,
        })
    }
}

/// One profile as a `POST /profiles` body. The JSON-lines export is flat
/// (`{"id":..,"name":..}`) while the API wants `{"id":..,"attributes":{..}}`,
/// so bodies are built from the `Profile`, not from the export.
pub fn http_body(p: &Profile) -> String {
    let mut attrs: BTreeMap<String, Vec<JsonValue>> = BTreeMap::new();
    for a in &p.attributes {
        attrs
            .entry(a.name.clone())
            .or_default()
            .push(JsonValue::String(a.value.clone()));
    }
    let attributes = attrs
        .into_iter()
        .map(|(name, mut values)| {
            let v = if values.len() == 1 {
                values.remove(0)
            } else {
                JsonValue::Array(values)
            };
            (name, v)
        })
        .collect();
    let mut map = BTreeMap::new();
    map.insert("id".to_string(), JsonValue::String(p.original_id.clone()));
    map.insert("attributes".to_string(), JsonValue::Object(attributes));
    JsonValue::Object(map).to_string()
}

/// Revision `rev` of a profile, as an update would re-post it: the longest
/// value loses its last token and gains a revision tag, so the update
/// leaves one block and opens a new one.
pub fn edited(p: &Profile, rev: usize) -> Profile {
    let mut out = p.clone();
    if let Some(a) = out.attributes.iter_mut().max_by_key(|a| a.value.len()) {
        let kept = a.value.rsplit_once(' ').map_or("", |(head, _)| head);
        a.value = format!("{kept} rev{rev}");
    }
    out
}

/// The `result counts:` line of a CLI run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    pub candidates: u64,
    pub matches: u64,
    pub entities: u64,
}

impl Counts {
    /// Add the three counts to a run's detail map.
    pub fn describe(&self, detail: &mut BTreeMap<String, JsonValue>) {
        detail.insert("candidates".into(), number(self.candidates as f64));
        detail.insert("matches".into(), number(self.matches as f64));
        detail.insert("entities".into(), number(self.entities as f64));
    }
}

/// Parse the CLI's stdout: the loaded profile count and the result counts.
pub fn parse_cli_stdout(stdout: &str) -> Result<(u64, Counts), String> {
    let loaded = stdout
        .lines()
        .find_map(|l| l.strip_prefix("loaded "))
        .and_then(|l| l.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .ok_or("no `loaded N profiles` line")?;
    let line = stdout
        .lines()
        .find_map(|l| l.strip_prefix("result counts: "))
        .ok_or("no `result counts:` line")?;
    let field = |name: &str| -> Result<u64, String> {
        line.split_whitespace()
            .find_map(|kv| kv.strip_prefix(name)?.strip_prefix('='))
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("no {name}= in {line:?}"))
    };
    Ok((
        loaded,
        Counts {
            candidates: field("candidates")?,
            matches: field("matches")?,
            entities: field("entities")?,
        },
    ))
}

/// What the entities CSV says: cluster count and clustering F1 against the
/// truth. Every one of `profiles` must appear in exactly one row.
pub struct Entities {
    pub clusters: u64,
    pub f1: f64,
}

pub fn check_entities(csv: &str, profiles: &[Profile], truth: &Truth) -> Result<Entities, String> {
    let rows = parse_csv(csv, ',').map_err(|e| format!("entities CSV: {e}"))?;
    let mut entity_of: HashMap<&str, &str> = HashMap::with_capacity(profiles.len());
    let mut sizes: HashMap<&str, u64> = HashMap::new();
    for row in rows.iter().skip(1) {
        let [entity, _source, id] = row.as_slice() else {
            return Err(format!("entities CSV row with {} columns", row.len()));
        };
        if entity_of.insert(id, entity).is_some() {
            return Err(format!("profile {id} is in two entity rows"));
        }
        *sizes.entry(entity).or_default() += 1;
    }
    let covered = |p: &Profile| entity_of.contains_key(p.original_id.as_str());
    if entity_of.len() != profiles.len() || !profiles.iter().all(covered) {
        return Err(format!(
            "entities CSV covers {} profiles, input has {}",
            entity_of.len(),
            profiles.len()
        ));
    }
    let asserted: u64 = sizes.values().map(|n| n * (n - 1) / 2).sum();
    let mut present = 0u64;
    let mut found = 0u64;
    for (a, b) in truth {
        if let (Some(ea), Some(eb)) = (entity_of.get(a.as_str()), entity_of.get(b.as_str())) {
            present += 1;
            found += u64::from(ea == eb);
        }
    }
    if present == 0 || found == 0 {
        return Err(format!(
            "no true match recovered ({found} of {present} present)"
        ));
    }
    let precision = found as f64 / asserted as f64;
    let recall = found as f64 / present as f64;
    Ok(Entities {
        clusters: sizes.len() as u64,
        f1: 2.0 * precision * recall / (precision + recall),
    })
}

/// FNV-1a 64 of a file's bytes: repetitions must write identical output.
pub fn content_hash(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3)
    })
}
