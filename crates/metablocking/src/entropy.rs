//! Per-block entropies for Blast's entropy re-weighting.

use sparker_looseschema::{AttributePartitioning, PartitionId};

/// Entropy of the attribute partition that generated each block, aligned
/// with the block collection's block order.
///
/// Blast re-weights every meta-blocking edge by these values: co-occurring
/// in a block from a high-entropy partition (product names) is stronger
/// evidence than co-occurring in a low-entropy one (prices).
#[derive(Debug, Clone)]
pub struct BlockEntropies {
    values: Vec<f64>,
}

impl BlockEntropies {
    /// Wrap raw per-block entropies (must align with the block collection).
    pub fn new(values: Vec<f64>) -> Self {
        assert!(
            values.iter().all(|v| v.is_finite() && *v >= 0.0),
            "entropies must be finite and non-negative"
        );
        BlockEntropies { values }
    }

    /// Entropy of block `index`.
    pub fn of(&self, index: usize) -> f64 {
        self.values[index]
    }

    /// Number of blocks covered.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` when no blocks are covered.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The raw entropy vector.
    pub fn as_slice(&self) -> &[f64] {
        &self.values
    }
}

/// Derive per-block entropies from the blocks' keys, in block order.
///
/// Loose-schema keys have the shape `token_<partition id>`
/// ([`sparker_looseschema::loose_schema_keys`]); the block inherits the
/// Shannon entropy of that partition. Keys with no recognizable suffix get
/// the blob partition's entropy — every plain token key among them, since
/// tokens are alphanumeric runs and never carry the `_` separator. Callers
/// pass the key strings of a [`sparker_blocking::BlockCollection`] or, on
/// the CSR path, the dictionary entries of a `CompactBlocks`' key ids.
pub fn block_entropies<'k>(
    keys: impl IntoIterator<Item = &'k str>,
    partitioning: &AttributePartitioning,
) -> BlockEntropies {
    let values = keys
        .into_iter()
        .map(|key| {
            let pid = key
                .rsplit_once('_')
                .and_then(|(_, suffix)| suffix.parse::<u32>().ok())
                .map(PartitionId)
                .filter(|p| (p.0 as usize) < partitioning.len())
                .unwrap_or_else(|| partitioning.blob_id());
            partitioning.entropy_of(pid)
        })
        .collect();
    BlockEntropies::new(values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparker_blocking::{keyed_blocking, BlockCollection};
    use sparker_looseschema::loose_schema_keys;
    use sparker_profiles::{Profile, ProfileCollection, SourceId};

    fn keys(blocks: &BlockCollection) -> impl Iterator<Item = &str> {
        blocks.blocks().iter().map(|b| b.key.as_str())
    }

    fn collection() -> ProfileCollection {
        ProfileCollection::dirty(
            (0..6)
                .map(|i| {
                    Profile::builder(SourceId(0), i.to_string())
                        .attr("name", format!("product item variant {}", i % 3))
                        .attr("price", "9.99")
                        .build()
                })
                .collect(),
        )
    }

    #[test]
    fn loose_schema_blocks_inherit_partition_entropy() {
        let coll = collection();
        let parts = AttributePartitioning::manual(
            &coll,
            vec![
                vec![(SourceId(0), "name".to_string())],
                vec![(SourceId(0), "price".to_string())],
            ],
        );
        let blocks = keyed_blocking(&coll, |p| loose_schema_keys(p, &parts));
        let entropies = block_entropies(keys(&blocks), &parts);
        assert_eq!(entropies.len(), blocks.len());
        let name_entropy = parts.entropy_of(parts.partition_of(SourceId(0), "name"));
        let price_entropy = parts.entropy_of(parts.partition_of(SourceId(0), "price"));
        for (i, b) in blocks.blocks().iter().enumerate() {
            if b.key.ends_with("_0") {
                assert_eq!(entropies.of(i), name_entropy, "block {}", b.key);
            } else {
                assert_eq!(entropies.of(i), price_entropy, "block {}", b.key);
            }
        }
        assert!(name_entropy > price_entropy);
    }

    #[test]
    fn schema_agnostic_keys_fall_back_to_blob() {
        let coll = collection();
        let parts = AttributePartitioning::manual(&coll, vec![]);
        // Plain token blocking: keys carry no _<pid> suffix.
        let blocks = sparker_blocking::token_blocking(&coll);
        let entropies = block_entropies(keys(&blocks), &parts);
        let blob_entropy = parts.entropy_of(parts.blob_id());
        assert!(entropies.as_slice().iter().all(|&e| e == blob_entropy));
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_nan() {
        BlockEntropies::new(vec![f64::NAN]);
    }

    #[test]
    fn numeric_suffix_out_of_range_is_blob() {
        let coll = collection();
        let parts = AttributePartitioning::manual(&coll, vec![]);
        let blocks = keyed_blocking(&coll, |p| {
            p.token_set()
                .into_iter()
                .map(|t| format!("{t}_99"))
                .collect()
        });
        let entropies = block_entropies(keys(&blocks), &parts);
        let blob = parts.entropy_of(parts.blob_id());
        assert!(entropies.as_slice().iter().all(|&e| e == blob));
    }
}
