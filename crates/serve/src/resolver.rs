//! The resident resolver state behind the online ER service.
//!
//! [`ResolverState`] keeps the interned token dictionary, the token
//! postings (append-friendly block index), the retained similarity edges
//! and a live [`UnionFind`] in memory across requests. `insert` / `update`
//! extend the dictionary and postings incrementally and re-run
//! purge / filter / prune only over the touched token neighborhoods;
//! `query` and `stats` lazily refresh the derived results (retention,
//! matching, clustering) and answer from the refreshed snapshot.
//!
//! # Equivalence contract
//!
//! After any operation sequence, the resolver's candidates, match edges
//! (scores bit-identical) and entity clusters equal a cold batch
//! [`Pipeline::run_on`] over the collection materialized from the same
//! profiles. This is pinned by [`ResolverState::verify_against_batch`],
//! the proptest harness in `tests/equivalence.rs`, and — per operation —
//! by setting `SPARKER_SERVE_CHECK=1`.
//!
//! # Incremental maintenance invariants
//!
//! The fast path mirrors the batch blocker stage by stage over two kinds
//! of structures (see DESIGN.md):
//!
//! * **append-only** — the token→block interner, the per-block member
//!   postings, and the matcher's token dictionary / prepared-profile /
//!   score caches only ever grow or patch in place;
//! * **rebuilt per neighborhood** — purge flags, per-profile filter
//!   selections, and adjacency rows are recomputed wholesale, but only
//!   for the profiles a mutation can actually affect:
//!
//!   1. an operation touches the blocks of the profile's old and new
//!      tokens; purging is re-derived globally (cheap integer pass) and
//!      blocks whose purge state flips join the touched set;
//!   2. the *affected* profiles are the members of touched blocks (their
//!      filter ordering or quota may change) plus the operated profile;
//!      only they re-run block filtering;
//!   3. a CBS edge weight is the count of shared post-filter blocks, so
//!      any weight that changes has **both** endpoints inside some
//!      filter-changed block — replacing the adjacency rows of those
//!      *dirty* nodes wholesale keeps the edge map globally consistent
//!      without symmetric patching.
//!
//! Configurations outside the mirrored family (loose-schema / entropy /
//! CEP / meta-blocking off) fall back to re-running the batch blocker per
//! refresh while still reusing the persistent matcher caches.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

use sparker_clustering::{
    cluster_edges, ClusteringAlgorithm, CollectionShape, ComponentsMode, EntityClusters, UnionFind,
};
use sparker_core::{ExecutionBackend, Pipeline, PipelineConfig, PurgeConfig};
use sparker_matching::similarity::MatchScratch;
use sparker_matching::{FilterStats, PreparedProfile, ThresholdMatcher};
use sparker_metablocking::{
    derived_cnp_k, EdgeScorer, NodeStats, PruningStrategy, RetentionRule, WeightScheme,
};
use sparker_profiles::{each_token, DictBuilder, ErKind, Pair, Profile, ProfileId, SourceId};

/// Stable profile key: `(source << 32) | per-source insertion index`.
///
/// Batch-dense profile ids shift as sources grow (a clean–clean source-1
/// profile's dense id is `|source 0| + idx`), so every persistent structure
/// is keyed in this stable space and the dense mapping is materialized only
/// at cluster/compare time.
pub type PKey = u64;

fn pkey(source: u32, idx: u32) -> PKey {
    ((source as u64) << 32) | idx as u64
}

fn key_source(k: PKey) -> u32 {
    (k >> 32) as u32
}

fn key_idx(k: PKey) -> u32 {
    k as u32
}

/// Outcome of an upsert.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// A new profile was created.
    Inserted,
    /// An existing profile's attributes were replaced.
    Updated,
}

/// One profile's slot in the per-source store.
struct Slot {
    profile: Profile,
    /// Bumped on every content change; versions gate the prepared-profile
    /// and score caches.
    version: u32,
    /// Global insertion-order id (the live union–find's element space).
    global: u32,
}

#[derive(Default)]
struct ScoreEntry {
    va: u32,
    vb: u32,
    score: Option<f64>,
}

/// Counters reported by `/stats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounters {
    /// Profiles created.
    pub inserts: u64,
    /// Profiles replaced in place.
    pub updates: u64,
    /// Cluster queries served.
    pub queries: u64,
    /// Lazy refreshes of the derived results.
    pub refreshes: u64,
    /// Refreshes that re-ran the batch blocker (fallback configurations).
    pub fallback_refreshes: u64,
}

/// A queried profile's cluster.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterView {
    /// Canonical cluster label (minimum dense member id).
    pub cluster: u32,
    /// `(source, original_id)` of every member, dense order.
    pub members: Vec<(u32, String)>,
}

/// Snapshot of the resolver counts, aligned with the batch CLI's
/// `result counts: candidates={} matches={} entities={}` line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsView {
    /// Total resident profiles.
    pub profiles: usize,
    /// Per-source profile counts.
    pub sources: [usize; 2],
    /// Retained candidate pairs (post meta-blocking).
    pub candidates: usize,
    /// Match edges above the matcher threshold.
    pub matches: usize,
    /// Entity clusters (including singletons).
    pub entities: usize,
    /// `true` when the incremental fast path mirrors the blocker; `false`
    /// when refreshes fall back to the batch blocker.
    pub fast_path: bool,
    /// Operation counters.
    pub ops: OpCounters,
}

/// One token block in the incremental mirror.
struct BlockState {
    token: String,
    /// Full (pre-filter) members per source, sorted by index. Dirty
    /// collections use side 0 only.
    members: [Vec<u32>; 2],
}

impl BlockState {
    fn emitted(&self, kind: ErKind) -> bool {
        match kind {
            ErKind::Dirty => self.members[0].len() >= 2,
            ErKind::CleanClean => !self.members[0].is_empty() && !self.members[1].is_empty(),
        }
    }

    fn size(&self) -> usize {
        self.members[0].len() + self.members[1].len()
    }

    fn comparisons(&self, kind: ErKind) -> u64 {
        match kind {
            ErKind::Dirty => {
                let m = self.members[0].len() as u64;
                m * m.saturating_sub(1) / 2
            }
            ErKind::CleanClean => self.members[0].len() as u64 * self.members[1].len() as u64,
        }
    }
}

/// The incremental blocker mirror (fast path).
#[derive(Default)]
struct FastPath {
    token_ids: HashMap<String, u32>,
    blocks: Vec<BlockState>,
    /// Post-purge state: emitted and retained by the purge rule.
    active: Vec<bool>,
    /// Per profile: block ids of its current token set, sorted.
    memberships: HashMap<PKey, Vec<u32>>,
    /// Per profile: blocks kept by filtering (its post-filter block list),
    /// sorted. Absent/empty = no assignments.
    selection: HashMap<PKey, Vec<u32>>,
    /// Per block: post-filter members per source, sorted by index.
    filtered: Vec<[Vec<u32>; 2]>,
    /// CBS adjacency: per profile, `(neighbor, shared post-filter blocks)`
    /// sorted by neighbor key. Rows are symmetric.
    rows: HashMap<PKey, Vec<(PKey, u32)>>,
    /// Σ post-filter member counts over all post-purge blocks (the block
    /// graph's `total_assignments`).
    total_assignments: u64,
    /// Per source: indices of profiles with ≥ 1 post-filter assignment
    /// (the block graph's `num_profiles` is derived from the maxima).
    assigned: [BTreeSet<u32>; 2],
}

impl FastPath {
    fn intern_block(&mut self, token: &str) -> u32 {
        if let Some(&b) = self.token_ids.get(token) {
            return b;
        }
        let b = self.blocks.len() as u32;
        self.token_ids.insert(token.to_string(), b);
        self.blocks.push(BlockState {
            token: token.to_string(),
            members: [Vec::new(), Vec::new()],
        });
        self.active.push(false);
        self.filtered.push([Vec::new(), Vec::new()]);
        b
    }

    /// Recompute the purge decision for every block (a cheap integer pass —
    /// the purge rules are global functions of the block-size distribution)
    /// and return the blocks whose post-purge state flipped.
    fn recompute_purge(
        &mut self,
        kind: ErKind,
        total_profiles: usize,
        purge: &PurgeConfig,
    ) -> Vec<u32> {
        // The batch purge rule, over the blocks the batch blocker emits.
        let stats = |b: &BlockState| (b.comparisons(kind), b.size() as u64);
        let cap = purge.cap(
            total_profiles,
            self.blocks.iter().filter(|b| b.emitted(kind)).map(stats),
        );
        let mut flips = Vec::new();
        for (b, block) in self.blocks.iter().enumerate() {
            let (comparisons, size) = stats(block);
            let want = block.emitted(kind) && cap.keeps(comparisons, size);
            if self.active[b] != want {
                self.active[b] = want;
                flips.push(b as u32);
            }
        }
        flips
    }

    /// Re-run block filtering for one profile. Mirrors `block_filtering`:
    /// sort the profile's post-purge blocks by `(comparisons, token)` —
    /// post-purge block indices preserve token-lexicographic order, so the
    /// token string reproduces the batch tiebreak — and keep the first
    /// `max(1, ⌈ratio·d⌉)`. Updates the per-block post-filter member lists
    /// and the graph aggregates; returns `true` when the selection changed.
    fn refilter_profile(
        &mut self,
        p: PKey,
        filter_ratio: Option<f64>,
        changed_blocks: &mut BTreeSet<u32>,
    ) -> bool {
        let side = key_source(p) as usize;
        let idx = key_idx(p);
        let cands: Vec<u32> = self
            .memberships
            .get(&p)
            .map(|bids| {
                bids.iter()
                    .copied()
                    .filter(|&b| self.active[b as usize])
                    .collect()
            })
            .unwrap_or_default();
        let mut new_sel = match filter_ratio {
            None => cands,
            Some(ratio) => {
                let quota = ((cands.len() as f64 * ratio).ceil() as usize).max(1);
                let mut ordered = cands;
                ordered.sort_by(|&x, &y| {
                    let bx = &self.blocks[x as usize];
                    let by = &self.blocks[y as usize];
                    (self.block_comparisons_cached(x), &bx.token)
                        .cmp(&(self.block_comparisons_cached(y), &by.token))
                });
                ordered.truncate(quota);
                ordered
            }
        };
        new_sel.sort_unstable();
        let old_sel = self.selection.get(&p).cloned().unwrap_or_default();
        if old_sel == new_sel {
            return false;
        }
        let old_set: BTreeSet<u32> = old_sel.iter().copied().collect();
        let new_set: BTreeSet<u32> = new_sel.iter().copied().collect();
        for &b in old_set.difference(&new_set) {
            let list = &mut self.filtered[b as usize][side];
            if let Ok(pos) = list.binary_search(&idx) {
                list.remove(pos);
                self.total_assignments -= 1;
            }
            changed_blocks.insert(b);
        }
        for &b in new_set.difference(&old_set) {
            let list = &mut self.filtered[b as usize][side];
            if let Err(pos) = list.binary_search(&idx) {
                list.insert(pos, idx);
                self.total_assignments += 1;
            }
            changed_blocks.insert(b);
        }
        if new_sel.is_empty() {
            self.assigned[side].remove(&idx);
            self.selection.remove(&p);
        } else {
            self.assigned[side].insert(idx);
            self.selection.insert(p, new_sel);
        }
        true
    }

    fn block_comparisons_cached(&self, b: u32) -> u64 {
        let block = &self.blocks[b as usize];
        if block.members[1].is_empty() {
            let m = block.members[0].len() as u64;
            m * m.saturating_sub(1) / 2
        } else {
            block.members[0].len() as u64 * block.members[1].len() as u64
        }
    }

    /// Rebuild one profile's adjacency row wholesale from its post-filter
    /// blocks (the "touched token neighborhood" unit of work).
    fn rebuild_row(&mut self, p: PKey, kind: ErKind) {
        let side = key_source(p) as usize;
        let idx = key_idx(p);
        let mut counts: BTreeMap<PKey, u32> = BTreeMap::new();
        if let Some(sel) = self.selection.get(&p) {
            for &b in sel {
                match kind {
                    ErKind::Dirty => {
                        for &m in &self.filtered[b as usize][0] {
                            if m != idx {
                                *counts.entry(pkey(0, m)).or_insert(0) += 1;
                            }
                        }
                    }
                    ErKind::CleanClean => {
                        let other = 1 - side;
                        for &m in &self.filtered[b as usize][other] {
                            *counts.entry(pkey(other as u32, m)).or_insert(0) += 1;
                        }
                    }
                }
            }
        }
        if counts.is_empty() {
            self.rows.remove(&p);
        } else {
            self.rows.insert(p, counts.into_iter().collect());
        }
    }

    /// The block graph's `num_profiles`: one past the maximum dense id
    /// among profiles holding ≥ 1 post-filter assignment.
    fn graph_num_profiles(&self, kind: ErKind, source0_len: usize) -> usize {
        let a0 = self.assigned[0]
            .last()
            .map(|&i| i as usize + 1)
            .unwrap_or(0);
        match kind {
            ErKind::Dirty => a0,
            ErKind::CleanClean => {
                let a1 = self.assigned[1]
                    .last()
                    .map(|&i| source0_len + i as usize + 1)
                    .unwrap_or(0);
                a0.max(a1)
            }
        }
    }
}

/// The resident online resolver. See the module docs for the maintenance
/// invariants and the batch-equivalence contract.
pub struct ResolverState {
    config: PipelineConfig,
    kind: ErKind,
    matcher: ThresholdMatcher,
    slots: [Vec<Slot>; 2],
    id_index: HashMap<(u32, String), u32>,
    global_order: Vec<PKey>,
    dict: DictBuilder,
    tok_scratch: String,
    prepared: HashMap<PKey, (u32, PreparedProfile)>,
    score_cache: HashMap<(PKey, PKey), ScoreEntry>,
    match_scratch: MatchScratch,
    filter_stats: FilterStats,
    fast: Option<FastPath>,
    dirty: bool,
    /// `SPARKER_SERVE_CHECK` was set when the resolver was created: every
    /// upsert then refreshes and deep-verifies against the batch pipeline.
    check_every_op: bool,
    retained: HashSet<(PKey, PKey)>,
    matches: BTreeMap<(PKey, PKey), f64>,
    clusters: Option<EntityClusters>,
    cluster_members: HashMap<u32, Vec<u32>>,
    live_uf: UnionFind,
    counters: OpCounters,
}

impl ResolverState {
    /// An empty resolver for `kind` collections under `config`.
    pub fn new(config: PipelineConfig, kind: ErKind) -> Self {
        let fast = Self::fast_path_supported(&config).then(FastPath::default);
        let matcher = ThresholdMatcher::new(config.matching.measure, config.matching.threshold);
        ResolverState {
            config,
            kind,
            matcher,
            slots: [Vec::new(), Vec::new()],
            id_index: HashMap::new(),
            global_order: Vec::new(),
            dict: DictBuilder::new(),
            tok_scratch: String::new(),
            prepared: HashMap::new(),
            score_cache: HashMap::new(),
            match_scratch: MatchScratch::default(),
            filter_stats: FilterStats::default(),
            fast,
            dirty: true,
            check_every_op: std::env::var("SPARKER_SERVE_CHECK").is_ok_and(|v| !v.is_empty()),
            retained: HashSet::new(),
            matches: BTreeMap::new(),
            clusters: None,
            cluster_members: HashMap::new(),
            live_uf: UnionFind::new(0),
            counters: OpCounters::default(),
        }
    }

    /// `true` when `config` is inside the incrementally mirrored family:
    /// schema-agnostic blocking, CBS weights without entropy, and any
    /// pruning rule whose retention decision is local given per-node stats
    /// plus an exactly maintainable global mean (everything except CEP).
    pub fn fast_path_supported(config: &PipelineConfig) -> bool {
        if config.blocking.loose_schema.is_some() {
            return false;
        }
        match &config.blocking.meta_blocking {
            None => false,
            Some(m) => {
                // Supervised scorers (like LSH/entropy) fall back to batch
                // refresh: their weights are not incrementally maintainable
                // from the CBS adjacency rows alone.
                m.scorer == EdgeScorer::Classic(WeightScheme::Cbs)
                    && !m.use_entropy
                    && !matches!(m.pruning, PruningStrategy::Cep { .. })
            }
        }
    }

    /// `true` when refreshes run the incremental mirror rather than the
    /// batch blocker.
    pub fn fast_path(&self) -> bool {
        self.fast.is_some()
    }

    /// The task kind served.
    pub fn kind(&self) -> ErKind {
        self.kind
    }

    /// Total resident profiles.
    pub fn num_profiles(&self) -> usize {
        self.slots[0].len() + self.slots[1].len()
    }

    fn slot(&self, key: PKey) -> &Slot {
        &self.slots[key_source(key) as usize][key_idx(key) as usize]
    }

    /// Insert a new profile or replace an existing one (matched by
    /// `(source, original_id)`). Dirty resolvers accept source 0 only;
    /// clean–clean resolvers accept sources 0 and 1.
    pub fn upsert(&mut self, profile: Profile) -> Result<OpKind, String> {
        let source = profile.source.0;
        let max_source = match self.kind {
            ErKind::Dirty => 0,
            ErKind::CleanClean => 1,
        };
        if source > max_source {
            return Err(format!(
                "source {source} out of range for a {:?} resolver",
                self.kind
            ));
        }
        let op = self.upsert_slot(profile);
        match op {
            OpKind::Inserted => self.counters.inserts += 1,
            OpKind::Updated => self.counters.updates += 1,
        }
        self.dirty = true;
        if self.check_every_op {
            self.refresh();
            self.verify_inner();
        }
        Ok(op)
    }

    fn upsert_slot(&mut self, profile: Profile) -> OpKind {
        let source = profile.source.0 as u32;
        let id_key = (source, profile.original_id.clone());
        let (key, op) = match self.id_index.get(&id_key) {
            Some(&idx) => {
                let slot = &mut self.slots[source as usize][idx as usize];
                slot.profile = profile;
                slot.version += 1;
                (pkey(source, idx), OpKind::Updated)
            }
            None => {
                let idx = self.slots[source as usize].len() as u32;
                let global = self.global_order.len() as u32;
                self.global_order.push(pkey(source, idx));
                self.slots[source as usize].push(Slot {
                    profile,
                    version: 0,
                    global,
                });
                self.id_index.insert(id_key, idx);
                (pkey(source, idx), OpKind::Inserted)
            }
        };
        self.fast_apply(key);
        op
    }

    /// Bulk-load a batch of profiles (e.g. a warm preset). Slots are filled
    /// first and the incremental mirror is rebuilt once, which is far
    /// cheaper than replaying per-op neighborhood maintenance.
    pub fn bulk_load(&mut self, profiles: Vec<Profile>) -> Result<usize, String> {
        let n = profiles.len();
        let fast = self.fast.take(); // suspend per-op maintenance
        for p in profiles {
            self.upsert(p)?;
        }
        self.fast = fast;
        if self.fast.is_some() {
            self.rebuild_fast();
        }
        self.dirty = true;
        Ok(n)
    }

    /// Rebuild the incremental mirror from the profile stores.
    fn rebuild_fast(&mut self) {
        let Some(fast) = self.fast.as_mut() else {
            return;
        };
        *fast = FastPath::default();
        let mut scratch = String::new();
        let mut keys: Vec<PKey> = Vec::with_capacity(self.global_order.len());
        for source in 0..2usize {
            for (idx, slot) in self.slots[source].iter().enumerate() {
                let key = pkey(source as u32, idx as u32);
                let mut tokens: BTreeSet<String> = BTreeSet::new();
                for a in &slot.profile.attributes {
                    each_token(&a.value, &mut scratch, |t| {
                        tokens.insert(t.to_string());
                    });
                }
                let mut bids = Vec::with_capacity(tokens.len());
                for t in &tokens {
                    let b = fast.intern_block(t);
                    fast.blocks[b as usize].members[source].push(idx as u32);
                    bids.push(b);
                }
                bids.sort_unstable();
                fast.memberships.insert(key, bids);
                keys.push(key);
            }
        }
        for b in &mut fast.blocks {
            b.members[0].sort_unstable();
            b.members[1].sort_unstable();
        }
        let total = self.slots[0].len() + self.slots[1].len();
        fast.recompute_purge(self.kind, total, &self.config.blocking.purge);
        let mut changed = BTreeSet::new();
        for &k in &keys {
            fast.refilter_profile(k, self.config.blocking.filter_ratio, &mut changed);
        }
        for &k in &keys {
            fast.rebuild_row(k, self.kind);
        }
    }

    /// Per-op incremental maintenance: extend the postings with the
    /// profile's token delta, re-derive purging, re-filter the affected
    /// profiles, and rebuild the adjacency rows of the dirty nodes.
    fn fast_apply(&mut self, key: PKey) {
        let Some(fast) = self.fast.as_mut() else {
            return;
        };
        let side = key_source(key) as usize;
        let idx = key_idx(key);
        let slot = &self.slots[side][idx as usize];
        let mut new_tokens: BTreeSet<String> = BTreeSet::new();
        for a in &slot.profile.attributes {
            each_token(&a.value, &mut self.tok_scratch, |t| {
                new_tokens.insert(t.to_string());
            });
        }

        // 1. Token delta → postings update; op_blocks = old ∪ new blocks.
        let old_bids: Vec<u32> = fast.memberships.get(&key).cloned().unwrap_or_default();
        let mut op_blocks: BTreeSet<u32> = old_bids.iter().copied().collect();
        for &b in &old_bids {
            if !new_tokens.contains(&fast.blocks[b as usize].token) {
                let members = &mut fast.blocks[b as usize].members[side];
                if let Ok(pos) = members.binary_search(&idx) {
                    members.remove(pos);
                }
            }
        }
        let mut new_bids: Vec<u32> = Vec::with_capacity(new_tokens.len());
        for t in &new_tokens {
            let b = fast.intern_block(t);
            let members = &mut fast.blocks[b as usize].members[side];
            if let Err(pos) = members.binary_search(&idx) {
                members.insert(pos, idx);
            }
            new_bids.push(b);
            op_blocks.insert(b);
        }
        new_bids.sort_unstable();
        fast.memberships.insert(key, new_bids);

        // 2. Purge is a global function of the size distribution; re-derive
        //    it and fold state flips into the touched set.
        let total = self.slots[0].len() + self.slots[1].len();
        let flips = fast.recompute_purge(self.kind, total, &self.config.blocking.purge);
        op_blocks.extend(flips);

        // 3. Affected profiles: members of touched blocks + the operated
        //    profile. Only their filter selections can change.
        let mut affected: BTreeSet<PKey> = BTreeSet::new();
        affected.insert(key);
        for &b in &op_blocks {
            for s in 0..2usize {
                for &m in &fast.blocks[b as usize].members[s] {
                    affected.insert(pkey(s as u32, m));
                }
            }
        }

        // 4. Re-filter the affected profiles; collect filter-changed blocks
        //    and selection-changed profiles.
        let mut changed_blocks: BTreeSet<u32> = BTreeSet::new();
        let mut dirty_nodes: BTreeSet<PKey> = BTreeSet::new();
        dirty_nodes.insert(key);
        for &p in &affected {
            if fast.refilter_profile(p, self.config.blocking.filter_ratio, &mut changed_blocks) {
                dirty_nodes.insert(p);
            }
        }

        // 5. Any CBS weight that changed has both endpoints inside a
        //    filter-changed block, so rebuilding the dirty rows wholesale
        //    restores global adjacency consistency.
        for &b in &changed_blocks {
            for s in 0..2usize {
                for &m in &fast.filtered[b as usize][s] {
                    dirty_nodes.insert(pkey(s as u32, m));
                }
            }
        }
        for &p in &dirty_nodes {
            fast.rebuild_row(p, self.kind);
        }
    }

    /// Dense (batch-collection) id of a stable key, under the current
    /// source sizes.
    fn dense_of(&self, key: PKey) -> u32 {
        match self.kind {
            ErKind::Dirty => key_idx(key),
            ErKind::CleanClean => {
                if key_source(key) == 0 {
                    key_idx(key)
                } else {
                    self.slots[0].len() as u32 + key_idx(key)
                }
            }
        }
    }

    fn stable_of_dense(&self, dense: u32) -> PKey {
        match self.kind {
            ErKind::Dirty => pkey(0, dense),
            ErKind::CleanClean => {
                let n0 = self.slots[0].len() as u32;
                if dense < n0 {
                    pkey(0, dense)
                } else {
                    pkey(1, dense - n0)
                }
            }
        }
    }

    /// Clone the stores into the batch collection the resolver must be
    /// equivalent to.
    pub fn materialize_collection(&self) -> sparker_profiles::ProfileCollection {
        let side = |s: usize| -> Vec<Profile> {
            self.slots[s]
                .iter()
                .map(|slot| slot.profile.clone())
                .collect()
        };
        match self.kind {
            ErKind::Dirty => sparker_profiles::ProfileCollection::dirty(side(0)),
            ErKind::CleanClean => {
                sparker_profiles::ProfileCollection::clean_clean(side(0), side(1))
            }
        }
    }

    /// Decide one candidate pair with the persistent matcher state; scores
    /// are cached against the profile versions. Set measures see interned
    /// token-id intersections and string measures the concatenated text,
    /// both invariant under the persistent dictionary, so scores are
    /// bit-identical to a batch run with a fresh dictionary.
    fn score_pair(&mut self, a: PKey, b: PKey) -> Option<f64> {
        let (va, vb) = (self.slot(a).version, self.slot(b).version);
        if let Some(e) = self.score_cache.get(&(a, b)) {
            if e.va == va && e.vb == vb {
                return e.score;
            }
        }
        self.ensure_prepared(a);
        self.ensure_prepared(b);
        let pa = &self.prepared[&a].1;
        let pb = &self.prepared[&b].1;
        let score =
            self.matcher
                .decide_prepared(pa, pb, &mut self.match_scratch, &mut self.filter_stats);
        self.score_cache
            .insert((a, b), ScoreEntry { va, vb, score });
        score
    }

    fn ensure_prepared(&mut self, key: PKey) {
        let version = self.slot(key).version;
        if let Some((v, _)) = self.prepared.get(&key) {
            if *v == version {
                return;
            }
        }
        let slot = &self.slots[key_source(key) as usize][key_idx(key) as usize];
        let prepared =
            PreparedProfile::from_profile(&slot.profile, &mut self.dict, &mut self.tok_scratch);
        self.prepared.insert(key, (version, prepared));
    }

    /// Refresh the derived results (candidates → matches → clusters) if any
    /// operation arrived since the last refresh.
    pub fn refresh(&mut self) {
        if !self.dirty {
            return;
        }
        self.counters.refreshes += 1;
        let retained = if self.fast.is_some() {
            self.fast_retained()
        } else {
            self.counters.fallback_refreshes += 1;
            self.fallback_retained()
        };

        // Matching over the retained candidates, persistent caches hot.
        let mut matches: BTreeMap<(PKey, PKey), f64> = BTreeMap::new();
        for &(a, b) in &retained {
            if let Some(s) = self.score_pair(a, b) {
                matches.insert((a, b), s);
            }
        }

        // Exact clustering over the dense-mapped match edges.
        let n = self.num_profiles();
        let separator = match self.kind {
            ErKind::Dirty => n as u32,
            ErKind::CleanClean => self.slots[0].len() as u32,
        };
        let mut edges: Vec<(Pair, f64)> = matches
            .iter()
            .map(|(&(a, b), &s)| {
                (
                    Pair::new(ProfileId(self.dense_of(a)), ProfileId(self.dense_of(b))),
                    s,
                )
            })
            .collect();
        edges.sort_by_key(|&(p, _)| p);
        let clusters = cluster_edges(
            self.config.clustering,
            ComponentsMode::Sequential,
            &edges,
            CollectionShape {
                num_profiles: n,
                kind: self.kind,
                separator,
            },
        );
        self.cluster_members.clear();
        for (label, members) in clusters.clusters() {
            self.cluster_members
                .insert(label, members.into_iter().map(|p| p.0).collect());
        }
        self.clusters = Some(clusters);

        // Live union–find over global insertion-order ids: additive deltas
        // are absorbed; any lost match edge forces a rebuild (a forest
        // cannot unmerge).
        let lost_edges = self.matches.keys().any(|k| !matches.contains_key(k));
        let global = |this: &Self, k: PKey| this.slot(k).global as usize;
        if lost_edges {
            let mut uf = UnionFind::new(self.global_order.len());
            for &(a, b) in matches.keys() {
                uf.union(global(self, a), global(self, b));
            }
            self.live_uf = uf;
        } else {
            self.live_uf.grow(self.global_order.len());
            let mut delta = UnionFind::new(self.global_order.len());
            for (k, _) in matches.iter() {
                if !self.matches.contains_key(k) {
                    delta.union(global(self, k.0), global(self, k.1));
                }
            }
            self.live_uf.absorb(&delta);
        }

        self.retained = retained;
        self.matches = matches;
        self.dirty = false;
    }

    /// Retention over the incrementally maintained adjacency: mirrors
    /// `meta_blocking_graph` — per-node stats (mean / max / k-th) from the
    /// maintained rows, the WEP global mean from an exact integer sum, and
    /// `RetentionRule::keeps` replayed per edge.
    fn fast_retained(&mut self) -> HashSet<(PKey, PKey)> {
        let fast = self.fast.as_ref().expect("fast path state");
        let meta = self
            .config
            .blocking
            .meta_blocking
            .as_ref()
            .expect("fast path requires meta-blocking");
        let rule = match meta.pruning {
            PruningStrategy::Wep { factor } => {
                // CBS weights are integral, so a u64 sum reproduces the
                // batch f64 fold exactly (well under 2^53).
                let mut sum = 0u64;
                let mut count = 0u64;
                for (&a, row) in &fast.rows {
                    for &(b, w) in row {
                        if a < b {
                            sum += w as u64;
                            count += 1;
                        }
                    }
                }
                let mean = if count == 0 {
                    0.0
                } else {
                    sum as f64 / count as f64
                };
                RetentionRule::GlobalThreshold(factor * mean)
            }
            PruningStrategy::Wnp { factor, reciprocal } => {
                RetentionRule::NodeMean { factor, reciprocal }
            }
            PruningStrategy::Cnp { reciprocal, .. } => RetentionRule::NodeKth { reciprocal },
            PruningStrategy::Blast { ratio } => RetentionRule::BlastMaxima { ratio },
            PruningStrategy::Cep { .. } => unreachable!("CEP is outside the fast-path gate"),
        };
        let needs_stats = !matches!(rule, RetentionRule::GlobalThreshold(_));
        let mut stats: HashMap<PKey, NodeStats> = HashMap::new();
        if needs_stats {
            let cnp_k = match meta.pruning {
                PruningStrategy::Cnp { k, .. } => k.unwrap_or_else(|| {
                    derived_cnp_k(
                        fast.total_assignments,
                        fast.graph_num_profiles(self.kind, self.slots[0].len()),
                    )
                }),
                _ => 1,
            };
            let mut weights: Vec<f64> = Vec::new();
            for (&node, row) in &fast.rows {
                weights.clear();
                let mut sum = 0.0f64;
                let mut max = 0.0f64;
                for &(_, w) in row {
                    let w = w as f64;
                    weights.push(w);
                    sum += w;
                    max = max.max(w);
                }
                let mean = sum / weights.len() as f64;
                let k = (cnp_k.min(weights.len())).saturating_sub(1);
                let (_, kth, _) = weights
                    .select_nth_unstable_by(k, |a, b| b.partial_cmp(a).expect("finite weights"));
                stats.insert(
                    node,
                    NodeStats {
                        mean,
                        max,
                        kth: *kth,
                    },
                );
            }
        }
        let empty = NodeStats {
            kth: f64::INFINITY,
            ..NodeStats::default()
        };
        let mut retained = HashSet::new();
        for (&a, row) in &fast.rows {
            let sa = stats.get(&a).unwrap_or(&empty);
            for &(b, w) in row {
                if a < b {
                    let sb = stats.get(&b).unwrap_or(&empty);
                    if rule.keeps(w as f64, sa, sb) {
                        retained.insert((a, b));
                    }
                }
            }
        }
        retained
    }

    /// Fallback for configurations outside the mirrored family: re-run the
    /// batch blocker on the materialized collection (trivially equivalent)
    /// and translate its dense candidate pairs into the stable key space.
    /// Matching still reuses the persistent caches.
    fn fallback_retained(&mut self) -> HashSet<(PKey, PKey)> {
        let collection = self.materialize_collection();
        let pipeline = Pipeline::new(self.config.clone());
        let out = pipeline.run_blocker(&collection);
        out.candidates
            .iter()
            .map(|p| {
                (
                    self.stable_of_dense(p.first.0),
                    self.stable_of_dense(p.second.0),
                )
            })
            .collect()
    }

    /// The cluster of `(source, original_id)`, or `None` for unknown ids.
    pub fn query(&mut self, source: u32, original_id: &str) -> Option<ClusterView> {
        self.counters.queries += 1;
        let &idx = self.id_index.get(&(source, original_id.to_string()))?;
        self.refresh();
        let dense = self.dense_of(pkey(source, idx));
        let clusters = self.clusters.as_ref().expect("refreshed");
        let label = clusters.cluster_of(ProfileId(dense));
        let members = self
            .cluster_members
            .get(&label)
            .cloned()
            .unwrap_or_default();
        let members = members
            .into_iter()
            .map(|d| {
                let k = self.stable_of_dense(d);
                (key_source(k), self.slot(k).profile.original_id.clone())
            })
            .collect();
        Some(ClusterView {
            cluster: label,
            members,
        })
    }

    /// Refresh and expose the current entity partition (for equivalence
    /// harnesses comparing against batch runs on arbitrary backends).
    pub fn entity_clusters(&mut self) -> &EntityClusters {
        self.refresh();
        self.clusters.as_ref().expect("refreshed")
    }

    /// Refresh and report the aggregate counts.
    pub fn stats(&mut self) -> StatsView {
        self.refresh();
        StatsView {
            profiles: self.num_profiles(),
            sources: [self.slots[0].len(), self.slots[1].len()],
            candidates: self.retained.len(),
            matches: self.matches.len(),
            entities: self
                .clusters
                .as_ref()
                .map(|c| c.num_clusters())
                .unwrap_or(0),
            fast_path: self.fast.is_some(),
            ops: self.counters,
        }
    }

    /// Assert full equivalence with a cold batch run over the materialized
    /// collection: candidate set, match edges with bit-identical scores,
    /// cluster partition, and (for connected components) the live
    /// union–find's partition. Panics on any divergence.
    pub fn verify_against_batch(&mut self) {
        self.refresh();
        self.verify_inner();
    }

    fn verify_inner(&mut self) {
        let collection = self.materialize_collection();
        let pipeline = Pipeline::new(self.config.clone());
        let result = pipeline.run_on(&ExecutionBackend::Sequential, &collection);

        let batch_candidates: BTreeSet<(PKey, PKey)> = result
            .blocker
            .candidates
            .iter()
            .map(|p| {
                (
                    self.stable_of_dense(p.first.0),
                    self.stable_of_dense(p.second.0),
                )
            })
            .collect();
        let mine: BTreeSet<(PKey, PKey)> = self.retained.iter().copied().collect();
        assert_eq!(
            mine, batch_candidates,
            "incremental candidate set diverged from the batch blocker"
        );

        let batch_matches: BTreeMap<(PKey, PKey), f64> = result
            .similarity
            .edges()
            .iter()
            .map(|&(p, s)| {
                let a = self.stable_of_dense(p.first.0);
                let b = self.stable_of_dense(p.second.0);
                ((a.min(b), a.max(b)), s)
            })
            .collect();
        assert_eq!(
            self.matches, batch_matches,
            "incremental match edges diverged from the batch matcher"
        );

        let clusters = self.clusters.as_ref().expect("refreshed");
        assert_eq!(
            clusters, &result.clusters,
            "incremental clusters diverged from the batch clusterer"
        );

        if self.config.clustering == ClusteringAlgorithm::ConnectedComponents {
            // The live forest's partition over global insertion ids must be
            // the cluster partition, relabelled.
            let mut fwd: HashMap<usize, u32> = HashMap::new();
            let mut bwd: HashMap<u32, usize> = HashMap::new();
            let labels = self.live_uf.labels();
            for (g, &key) in self.global_order.iter().enumerate() {
                let cluster = clusters.cluster_of(ProfileId(self.dense_of(key)));
                let uf_label = labels[g];
                assert_eq!(
                    *fwd.entry(uf_label).or_insert(cluster),
                    cluster,
                    "live union-find split a batch cluster"
                );
                assert_eq!(
                    *bwd.entry(cluster).or_insert(uf_label),
                    uf_label,
                    "live union-find merged two batch clusters"
                );
            }
        }
    }
}

/// Convenience: build a profile from `(source, original_id)` and
/// attribute pairs, exactly as the batch loaders do (empty values are
/// dropped by the builder).
pub fn build_profile(source: u32, original_id: &str, attrs: &[(String, String)]) -> Profile {
    let mut b = Profile::builder(
        SourceId(u8::try_from(source).expect("source fits in u8")),
        original_id,
    );
    for (k, v) in attrs {
        b = b.attr(k.clone(), v.clone());
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparker_core::PipelineConfig;

    fn profile(source: u8, id: &str, text: &str) -> Profile {
        Profile::builder(SourceId(source), id)
            .attr("name", text)
            .build()
    }

    #[test]
    fn empty_resolver_stats() {
        let mut r = ResolverState::new(PipelineConfig::default(), ErKind::Dirty);
        let s = r.stats();
        assert_eq!(s.profiles, 0);
        assert_eq!(s.candidates, 0);
        assert_eq!(s.entities, 0);
        assert!(s.fast_path);
    }

    #[test]
    fn insert_sequence_matches_batch_default_config() {
        let mut r = ResolverState::new(PipelineConfig::default(), ErKind::Dirty);
        let texts = [
            "sony bravia tv 40 inch",
            "sony bravia television 40in",
            "apple iphone 12 case",
            "iphone 12 black case",
            "garmin gps watch",
            "sony bravia tv 40 inch led",
            "garmin forerunner gps watch",
        ];
        for (i, t) in texts.iter().enumerate() {
            r.upsert(profile(0, &format!("p{i}"), t)).unwrap();
            r.verify_against_batch();
        }
    }

    #[test]
    fn insert_sequence_matches_batch_scaling_config() {
        let mut r = ResolverState::new(PipelineConfig::scaling(), ErKind::Dirty);
        let texts = [
            "canon eos camera body",
            "canon eos camera kit",
            "nikon d500 camera",
            "canon eos rebel camera body",
            "nikon d500 dslr camera",
            "gopro hero black",
        ];
        for (i, t) in texts.iter().enumerate() {
            r.upsert(profile(0, &format!("p{i}"), t)).unwrap();
            r.verify_against_batch();
        }
    }

    #[test]
    fn updates_match_batch() {
        let mut r = ResolverState::new(PipelineConfig::default(), ErKind::Dirty);
        for (i, t) in ["alpha beta gamma", "alpha beta gamma", "delta epsilon"]
            .iter()
            .enumerate()
        {
            r.upsert(profile(0, &format!("p{i}"), t)).unwrap();
        }
        r.verify_against_batch();
        // Update p1 away from the cluster, then back.
        assert_eq!(
            r.upsert(profile(0, "p1", "zeta eta theta")).unwrap(),
            OpKind::Updated
        );
        r.verify_against_batch();
        r.upsert(profile(0, "p1", "alpha beta gamma")).unwrap();
        r.verify_against_batch();
    }

    #[test]
    fn clean_clean_inserts_match_batch() {
        let mut r = ResolverState::new(PipelineConfig::default(), ErKind::CleanClean);
        let ops = [
            (0, "a0", "dell xps laptop 13"),
            (1, "b0", "dell xps 13 laptop"),
            (0, "a1", "hp spectre laptop"),
            (1, "b1", "hp spectre x360 laptop"),
            (0, "a2", "lenovo thinkpad x1"),
            (1, "b2", "thinkpad x1 carbon lenovo"),
        ];
        for (s, id, t) in ops {
            r.upsert(profile(s, id, t)).unwrap();
            r.verify_against_batch();
        }
    }

    #[test]
    fn query_returns_cluster_members() {
        let mut r = ResolverState::new(PipelineConfig::default(), ErKind::Dirty);
        r.upsert(profile(0, "a", "red widget deluxe")).unwrap();
        r.upsert(profile(0, "b", "red widget deluxe")).unwrap();
        r.upsert(profile(0, "c", "unrelated thing entirely"))
            .unwrap();
        let view = r.query(0, "a").expect("known id");
        let ids: Vec<&str> = view.members.iter().map(|(_, id)| id.as_str()).collect();
        assert_eq!(ids, vec!["a", "b"]);
        assert!(r.query(0, "missing").is_none());
    }

    #[test]
    fn bulk_load_equals_per_op_inserts() {
        let profiles: Vec<Profile> = (0..30)
            .map(|i| profile(0, &format!("p{i}"), &format!("item {} common word", i / 3)))
            .collect();
        let mut bulk = ResolverState::new(PipelineConfig::default(), ErKind::Dirty);
        bulk.bulk_load(profiles.clone()).unwrap();
        bulk.verify_against_batch();
        let mut ops = ResolverState::new(PipelineConfig::default(), ErKind::Dirty);
        for p in profiles {
            ops.upsert(p).unwrap();
        }
        assert_eq!(bulk.stats(), {
            let mut s = ops.stats();
            // Op counters differ by construction; align them for the
            // derived-result comparison.
            s.ops = bulk.stats().ops;
            s
        });
    }

    #[test]
    fn rejects_out_of_range_source() {
        let mut r = ResolverState::new(PipelineConfig::default(), ErKind::Dirty);
        assert!(r.upsert(profile(1, "x", "text")).is_err());
    }
}
