//! The output of entity clustering: a partition of profiles into entities.

use sparker_profiles::ProfileId;
use std::collections::HashMap;

/// A partition of the profile space into entity clusters.
///
/// Every profile (0..num_profiles) belongs to exactly one cluster;
/// unmatched profiles are singletons. Cluster ids are canonical: the
/// minimum profile id of the cluster, so equal clusterings compare equal
/// regardless of the algorithm that produced them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EntityClusters {
    /// `label[i]` = cluster id of profile `i`.
    labels: Vec<u32>,
}

impl EntityClusters {
    /// Build from per-profile labels (any labelling; canonicalized here).
    pub fn from_labels(labels: Vec<u32>) -> Self {
        // Canonicalize: map each label to the minimum profile id bearing it.
        let mut min_of: HashMap<u32, u32> = HashMap::new();
        for (i, &l) in labels.iter().enumerate() {
            let e = min_of.entry(l).or_insert(i as u32);
            *e = (*e).min(i as u32);
        }
        EntityClusters {
            labels: labels.iter().map(|l| min_of[l]).collect(),
        }
    }

    /// Number of profiles covered.
    pub fn num_profiles(&self) -> usize {
        self.labels.len()
    }

    /// Cluster id of a profile.
    pub fn cluster_of(&self, id: ProfileId) -> u32 {
        self.labels[id.index()]
    }

    /// `true` when the two profiles are in the same cluster.
    pub fn same_entity(&self, a: ProfileId, b: ProfileId) -> bool {
        self.labels[a.index()] == self.labels[b.index()]
    }

    /// Every profile in one array, grouped by cluster: clusters in
    /// ascending id order, members ascending within each — the order of
    /// [`EntityClusters::clusters`] without a vector per cluster, built by
    /// one counting pass. Cluster `c` is `members[offsets[c]..offsets[c +
    /// 1]]`, and its id is its first member (ids are minimum members).
    pub fn grouped(&self) -> (Vec<u32>, Vec<ProfileId>) {
        let mut sizes = vec![0u32; self.labels.len()];
        for &l in &self.labels {
            sizes[l as usize] += 1;
        }
        let mut offsets = vec![0u32];
        let mut start = vec![0u32; self.labels.len()];
        let mut at = 0u32;
        for (l, &size) in sizes.iter().enumerate() {
            if size > 0 {
                start[l] = at;
                at += size;
                offsets.push(at);
            }
        }
        let mut members = vec![ProfileId(0); self.labels.len()];
        for (i, &l) in self.labels.iter().enumerate() {
            members[start[l as usize] as usize] = ProfileId(i as u32);
            start[l as usize] += 1;
        }
        (offsets, members)
    }

    /// Materialize the clusters: cluster id → sorted member list, sorted by
    /// cluster id. Includes singletons.
    pub fn clusters(&self) -> Vec<(u32, Vec<ProfileId>)> {
        let (offsets, members) = self.grouped();
        offsets
            .windows(2)
            .map(|w| {
                let group = &members[w[0] as usize..w[1] as usize];
                (group[0].0, group.to_vec())
            })
            .collect()
    }

    /// Clusters with ≥ 2 members (the discovered duplicates).
    pub fn non_trivial_clusters(&self) -> Vec<(u32, Vec<ProfileId>)> {
        self.clusters()
            .into_iter()
            .filter(|(_, m)| m.len() > 1)
            .collect()
    }

    /// Number of clusters (including singletons): the profiles that are
    /// their own cluster's id.
    pub fn num_clusters(&self) -> usize {
        self.labels
            .iter()
            .enumerate()
            .filter(|&(i, &l)| l as usize == i)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonicalizes_labels() {
        // Labels 7 and 9 map to min-member ids 0 and 2.
        let c = EntityClusters::from_labels(vec![7, 7, 9, 9, 9]);
        assert_eq!(c.cluster_of(ProfileId(0)), 0);
        assert_eq!(c.cluster_of(ProfileId(4)), 2);
        assert!(c.same_entity(ProfileId(2), ProfileId(3)));
        assert!(!c.same_entity(ProfileId(0), ProfileId(2)));
    }

    #[test]
    fn cluster_listing_and_counts() {
        let c = EntityClusters::from_labels(vec![0, 0, 2, 3]);
        assert_eq!(c.num_profiles(), 4);
        assert_eq!(c.num_clusters(), 3);
        let clusters = c.clusters();
        assert_eq!(clusters.len(), 3);
        assert_eq!(clusters[0].1, vec![ProfileId(0), ProfileId(1)]);
        assert_eq!(c.non_trivial_clusters().len(), 1);
    }

    #[test]
    fn grouped_lists_clusters_in_id_order() {
        let c = EntityClusters::from_labels(vec![4, 9, 4, 9, 7]);
        let (offsets, members) = c.grouped();
        assert_eq!(offsets, vec![0, 2, 4, 5]);
        let ids: Vec<u32> = members.iter().map(|p| p.0).collect();
        assert_eq!(ids, vec![0, 2, 1, 3, 4]);
        let expected: Vec<(u32, Vec<ProfileId>)> = offsets
            .windows(2)
            .map(|w| {
                (
                    ids[w[0] as usize],
                    members[w[0] as usize..w[1] as usize].to_vec(),
                )
            })
            .collect();
        assert_eq!(c.clusters(), expected);
        assert_eq!(c.num_clusters(), 3);
        let empty = EntityClusters::from_labels(vec![]);
        assert_eq!(empty.grouped(), (vec![0], vec![]));
        assert_eq!(empty.num_clusters(), 0);
    }

    #[test]
    fn equal_partitions_compare_equal() {
        let a = EntityClusters::from_labels(vec![5, 5, 1]);
        let b = EntityClusters::from_labels(vec![9, 9, 4]);
        assert_eq!(a, b);
    }
}
