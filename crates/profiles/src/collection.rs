//! Profile collections: the input of an ER task.

use crate::profile::{Profile, ProfileId, SourceId};
use std::collections::HashMap;

/// Which kind of ER task a collection represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErKind {
    /// One source that may contain duplicates; all pairs are comparable.
    Dirty,
    /// Two duplicate-free sources; only cross-source pairs are comparable.
    CleanClean,
}

/// The profiles of one ER task, with dense ids and source bookkeeping.
///
/// For clean–clean tasks the profiles of source 0 come first (ids
/// `0..separator`), then source 1 (`separator..len`) — the same
/// "separator id" layout SparkER uses to tell the two sources apart
/// without storing a source per record.
#[derive(Debug, Clone)]
pub struct ProfileCollection {
    kind: ErKind,
    profiles: Vec<Profile>,
    /// First id of source 1 for clean–clean; equals `len` for dirty.
    separator: u32,
    /// `false` once [`ProfileCollection::without_text`] dropped the
    /// attributes.
    text: bool,
}

impl ProfileCollection {
    /// Build a dirty-ER collection from a single source.
    ///
    /// Ids are assigned in input order; any pre-set ids or sources on the
    /// profiles are overwritten.
    pub fn dirty(mut profiles: Vec<Profile>) -> Self {
        for (i, p) in profiles.iter_mut().enumerate() {
            p.id = ProfileId(i as u32);
            p.source = SourceId(0);
        }
        let separator = profiles.len() as u32;
        ProfileCollection {
            kind: ErKind::Dirty,
            profiles,
            separator,
            text: true,
        }
    }

    /// Build a clean–clean collection from two sources.
    pub fn clean_clean(source0: Vec<Profile>, source1: Vec<Profile>) -> Self {
        let separator = source0.len() as u32;
        let mut profiles = source0;
        profiles.extend(source1);
        for (i, p) in profiles.iter_mut().enumerate() {
            p.id = ProfileId(i as u32);
            p.source = SourceId(u8::from(i as u32 >= separator));
        }
        ProfileCollection {
            kind: ErKind::CleanClean,
            profiles,
            separator,
            text: true,
        }
    }

    /// The same collection with every attribute dropped — ids, sources
    /// and original ids kept — and marked text-free, for a run whose
    /// token pass was taken while loading (see
    /// [`crate::token_pass_from_json_lines`]). Whatever would read
    /// attribute text from a text-free collection checks
    /// [`ProfileCollection::has_text`] and fails instead of reading empty
    /// values.
    pub fn without_text(mut self) -> Self {
        for p in &mut self.profiles {
            p.attributes = Vec::new();
        }
        self.text = false;
        self
    }

    /// `false` for a collection made by [`ProfileCollection::without_text`]:
    /// its profiles carry no attribute text, only ids and sources.
    pub fn has_text(&self) -> bool {
        self.text
    }

    /// Task kind.
    pub fn kind(&self) -> ErKind {
        self.kind
    }

    /// Number of profiles across all sources.
    pub fn len(&self) -> usize {
        self.profiles.len()
    }

    /// `true` when the collection holds no profiles.
    pub fn is_empty(&self) -> bool {
        self.profiles.is_empty()
    }

    /// All profiles, ordered by id.
    pub fn profiles(&self) -> &[Profile] {
        &self.profiles
    }

    /// Profile by id. Panics on out-of-range ids (ids are dense, so this is
    /// a programming error, not a data error).
    pub fn get(&self, id: ProfileId) -> &Profile {
        &self.profiles[id.index()]
    }

    /// First id belonging to source 1 (clean–clean); equals `len()` for
    /// dirty tasks.
    pub fn separator(&self) -> u32 {
        self.separator
    }

    /// Source of a profile id without touching the profile.
    pub fn source_of(&self, id: ProfileId) -> SourceId {
        SourceId(u8::from(id.0 >= self.separator))
    }

    /// Number of profiles in the given source.
    pub fn source_len(&self, source: SourceId) -> usize {
        match (self.kind, source.0) {
            (_, 0) => self.separator as usize,
            (ErKind::CleanClean, 1) => self.profiles.len() - self.separator as usize,
            _ => 0,
        }
    }

    /// Whether two profiles may be compared under the task kind: always for
    /// dirty ER, cross-source only for clean–clean.
    pub fn is_comparable(&self, a: ProfileId, b: ProfileId) -> bool {
        a != b
            && match self.kind {
                ErKind::Dirty => true,
                ErKind::CleanClean => self.source_of(a) != self.source_of(b),
            }
    }

    /// Total number of comparable pairs — the cost of naive, blocking-free
    /// ER. The evaluation's *reduction ratio* is measured against this.
    pub fn comparable_pairs(&self) -> u64 {
        let n = self.profiles.len() as u64;
        match self.kind {
            ErKind::Dirty => n * n.saturating_sub(1) / 2,
            ErKind::CleanClean => {
                let n0 = self.separator as u64;
                n0 * (n - n0)
            }
        }
    }

    /// Map from `(source, original_id)` to internal id, for resolving
    /// ground-truth files stated in terms of source record ids.
    pub fn original_id_index(&self) -> HashMap<(SourceId, &str), ProfileId> {
        self.profiles
            .iter()
            .map(|p| ((p.source, p.original_id.as_str()), p.id))
            .collect()
    }

    /// Distinct attribute names per source, sorted. Attribute-partitioning
    /// operates on these `(source, attribute)` units.
    pub fn attribute_names(&self) -> Vec<(SourceId, String)> {
        let mut set: std::collections::BTreeSet<(u8, String)> = Default::default();
        for p in &self.profiles {
            for a in &p.attributes {
                set.insert((p.source.0, a.name.clone()));
            }
        }
        set.into_iter().map(|(s, n)| (SourceId(s), n)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(oid: &str, name: &str) -> Profile {
        Profile::builder(SourceId(0), oid)
            .attr("name", name)
            .build()
    }

    #[test]
    fn dirty_assigns_dense_ids() {
        let c = ProfileCollection::dirty(vec![profile("a", "x"), profile("b", "y")]);
        assert_eq!(c.len(), 2);
        assert_eq!(c.profiles()[0].id, ProfileId(0));
        assert_eq!(c.profiles()[1].id, ProfileId(1));
        assert_eq!(c.kind(), ErKind::Dirty);
        assert_eq!(c.separator(), 2);
    }

    #[test]
    fn clean_clean_separator_and_sources() {
        let c = ProfileCollection::clean_clean(
            vec![profile("a", "x")],
            vec![profile("b", "y"), profile("c", "z")],
        );
        assert_eq!(c.separator(), 1);
        assert_eq!(c.source_of(ProfileId(0)), SourceId(0));
        assert_eq!(c.source_of(ProfileId(1)), SourceId(1));
        assert_eq!(c.source_of(ProfileId(2)), SourceId(1));
        assert_eq!(c.get(ProfileId(2)).source, SourceId(1));
        assert_eq!(c.source_len(SourceId(0)), 1);
        assert_eq!(c.source_len(SourceId(1)), 2);
    }

    #[test]
    fn comparability_rules() {
        let dirty = ProfileCollection::dirty(vec![profile("a", "x"), profile("b", "y")]);
        assert!(dirty.is_comparable(ProfileId(0), ProfileId(1)));
        assert!(!dirty.is_comparable(ProfileId(0), ProfileId(0)));

        let cc = ProfileCollection::clean_clean(
            vec![profile("a", "x"), profile("b", "y")],
            vec![profile("c", "z")],
        );
        assert!(!cc.is_comparable(ProfileId(0), ProfileId(1)), "same source");
        assert!(cc.is_comparable(ProfileId(0), ProfileId(2)));
        assert!(
            cc.is_comparable(ProfileId(2), ProfileId(1)),
            "order-insensitive"
        );
    }

    #[test]
    fn comparable_pairs_counts() {
        let dirty =
            ProfileCollection::dirty((0..10).map(|i| profile(&i.to_string(), "v")).collect());
        assert_eq!(dirty.comparable_pairs(), 45);
        let cc = ProfileCollection::clean_clean(
            (0..4).map(|i| profile(&i.to_string(), "v")).collect(),
            (0..6).map(|i| profile(&i.to_string(), "v")).collect(),
        );
        assert_eq!(cc.comparable_pairs(), 24);
        let empty = ProfileCollection::dirty(vec![]);
        assert_eq!(empty.comparable_pairs(), 0);
        assert!(empty.is_empty());
    }

    #[test]
    fn without_text_keeps_ids_and_sources() {
        let cc = ProfileCollection::clean_clean(vec![profile("a", "x")], vec![profile("b", "y")]);
        assert!(cc.has_text());
        let bare = cc.clone().without_text();
        assert!(!bare.has_text());
        assert_eq!((bare.kind(), bare.separator()), (cc.kind(), cc.separator()));
        for (p, q) in bare.profiles().iter().zip(cc.profiles()) {
            assert_eq!(
                (p.id, p.source, &p.original_id),
                (q.id, q.source, &q.original_id)
            );
            assert!(p.attributes.is_empty());
        }
    }

    #[test]
    fn original_id_index_resolves_per_source() {
        let cc = ProfileCollection::clean_clean(vec![profile("k", "x")], vec![profile("k", "y")]);
        let idx = cc.original_id_index();
        assert_eq!(idx[&(SourceId(0), "k")], ProfileId(0));
        assert_eq!(idx[&(SourceId(1), "k")], ProfileId(1));
    }

    #[test]
    fn attribute_names_across_sources() {
        let s0 = vec![Profile::builder(SourceId(0), "a")
            .attr("name", "x")
            .attr("price", "1")
            .build()];
        let s1 = vec![Profile::builder(SourceId(0), "b")
            .attr("title", "y")
            .build()];
        let cc = ProfileCollection::clean_clean(s0, s1);
        let names = cc.attribute_names();
        assert_eq!(
            names,
            vec![
                (SourceId(0), "name".to_string()),
                (SourceId(0), "price".to_string()),
                (SourceId(1), "title".to_string()),
            ]
        );
    }
}
