//! Query and model caches.
//!
//! The Cloud9 paper (§6, "Constraint Caches") notes that states transferred
//! between workers arrive without the source worker's solver cache, and that
//! the relevant part of the cache is rebuilt during path replay. These caches
//! are therefore owned by the [`crate::Solver`] instance of each worker, not
//! by the execution states.
//!
//! One solver is shared by every executor thread of a worker, so the query
//! cache is *lock-striped*: queries are routed to one of
//! [`QUERY_CACHE_SHARDS`] independently locked [`QueryCache`] shards by
//! their fingerprint, so concurrent threads rarely contend on the same
//! lock and all threads profit from each other's cached answers.

use crate::constraint::{expr_hash, roll};
use c9_expr::{symbols_of, Assignment, ExprRef, SymbolId};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of independently locked shards of a [`ShardedQueryCache`].
pub const QUERY_CACHE_SHARDS: usize = 16;

/// Computes the stable fingerprint of a query key — the constraint sequence
/// `constraints ++ query` — by hashing every expression tree. The solver
/// never calls this on a lookup: a [`crate::Group`] carries the rolling
/// fingerprint of its constraints, and only the extra expression is hashed.
/// Colliding fingerprints are disambiguated by storing the full key
/// alongside the entry.
fn fingerprint(constraints: &[ExprRef], query: Option<&ExprRef>) -> u64 {
    constraints
        .iter()
        .chain(query)
        .fold(0, |fp, e| roll(fp, expr_hash(e)))
}

/// Hasher of the fingerprint-keyed bucket map. A fingerprint is already a
/// mixed hash, so SipHash over it is wasted work — but it cannot be passed
/// through as is: shard routing took its low four bits, so they are the same
/// for every key of a shard, and they are where hashbrown reads its bucket
/// index. One multiply and a rotation put well-mixed bits both there and in
/// the top seven bits hashbrown uses as control bytes.
#[derive(Clone, Copy, Debug, Default)]
struct FingerprintHasher(u64);

impl Hasher for FingerprintHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("the bucket map is keyed by u64 fingerprints");
    }

    fn write_u64(&mut self, fp: u64) {
        self.0 = fp.wrapping_mul(0xf135_7aea_2e62_a9c5).rotate_left(26);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type FingerprintMap<V> = HashMap<u64, V, BuildHasherDefault<FingerprintHasher>>;

/// One cached query: the full key (the conjunction is what is cached, so a
/// query expression is stored as the key's last constraint), the recorded
/// satisfiability answer, the canonical model (backfilled lazily for sat
/// entries when a caller needs one), the second-chance reference bit, and
/// whether the entry arrived via a [`CacheSlice`] import rather than local
/// solving.
#[derive(Debug)]
struct CacheEntry {
    key: Vec<ExprRef>,
    sat: bool,
    model: Option<Arc<Assignment>>,
    referenced: bool,
    imported: bool,
}

impl CacheEntry {
    /// Whether the entry's key is `constraints ++ query`. `Arc<Expr>`
    /// equality tries the pointers before it walks the trees, and a state
    /// that followed cached answers holds this key's own `Arc`s (see
    /// [`CacheHit::query`]), so the usual match is one comparison of the
    /// fresh `query` and a pointer compare per constraint. The structural
    /// walk remains the fallback — after an eviction, for imported keys, for
    /// constraints that were never probed — so whose pointer a state holds
    /// cannot change an answer.
    fn matches(&self, constraints: &[ExprRef], query: Option<&ExprRef>) -> bool {
        match query {
            None => self.key.as_slice() == constraints,
            Some(q) => self.key.split_last().is_some_and(|(last, rest)| {
                rest.len() == constraints.len() && last == q && rest == constraints
            }),
        }
    }
}

/// A query-cache hit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CacheHit {
    /// The recorded satisfiability answer.
    pub sat: bool,
    /// The canonical model of a sat entry, if the lookup asked for it and
    /// one has been recorded.
    pub model: Option<Arc<Assignment>>,
    /// The key's own copy of the query expression the lookup passed. A
    /// caller that goes on to store the query as a constraint stores this
    /// one: the cache thereby interns constraints, and the next lookup along
    /// that path compares pointers.
    pub query: Option<ExprRef>,
}

fn flat_key(constraints: &[ExprRef], query: Option<&ExprRef>) -> Vec<ExprRef> {
    constraints.iter().chain(query).cloned().collect()
}

/// One exported cache entry: the full query key, the satisfiability bit,
/// and — for sat entries that have one — the canonical model. The `hot`
/// flag carries the source cache's clock reference bit, so receivers and
/// the coordinator's cluster hot set can rank entries by observed reuse.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SliceEntry {
    /// The constraint set the answer is keyed on (exact match required).
    pub constraints: Vec<ExprRef>,
    /// The optional extra query expression of the key.
    pub query: Option<ExprRef>,
    /// The recorded satisfiability answer.
    pub sat: bool,
    /// The canonical model, when one was computed for this exact key.
    /// Authoritative on import *because* the key match is exact: a
    /// canonical model is a pure function of the key.
    pub model: Option<Assignment>,
    /// Whether the source cache's reference bit was set (a recent hit).
    pub hot: bool,
}

impl SliceEntry {
    /// The fingerprint routing this entry to its cache shard: the rolling
    /// fingerprint a [`crate::Group`] maintains for the same sequence.
    /// Fingerprints use a fixed-key hasher, so they agree across workers and
    /// processes.
    pub fn fingerprint(&self) -> u64 {
        fingerprint(&self.constraints, self.query.as_ref())
    }

    /// Whether any of the entry's symbols appears in `footprint`.
    fn touches(&self, footprint: &BTreeSet<SymbolId>) -> bool {
        self.constraints
            .iter()
            .chain(self.query.iter())
            .any(|e| symbols_of(e).iter().any(|s| footprint.contains(s)))
    }
}

/// A bounded, transferable slice of a query cache.
///
/// Slices ride on `JobBatch` (the entries relevant to the exported jobs),
/// on `StatusReport` (each worker's hottest entries, gossiped to the
/// coordinator), and on the coordinator's rebroadcast cluster hot set.
/// Since cached answers and canonical models are pure functions of their
/// constraint sets, merging a slice into a live cache can never change what
/// any query returns — only whether it is answered from cache.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheSlice {
    /// The exported entries.
    pub entries: Vec<SliceEntry>,
}

impl CacheSlice {
    /// Number of entries in the slice.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the slice carries no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Merges another slice into this one: a key-join union where the `hot`
    /// bits are OR-ed and a present canonical model wins over an absent
    /// one. Because answers and canonical models are pure functions of the
    /// key, identical keys always agree, which makes this merge associative
    /// and commutative (the entry order is normalized by fingerprint).
    /// Returns how many of `other`'s entries were new keys — callers use
    /// this to rebroadcast a merged hot set only when it actually grew.
    pub fn merge(&mut self, other: &CacheSlice) -> u64 {
        let mut buckets: BTreeMap<u64, Vec<SliceEntry>> = BTreeMap::new();
        let mut added = 0u64;
        let own: Vec<(SliceEntry, bool)> = self.entries.drain(..).map(|e| (e, false)).collect();
        for (entry, foreign) in own
            .into_iter()
            .chain(other.entries.iter().cloned().map(|e| (e, true)))
        {
            let bucket = buckets.entry(entry.fingerprint()).or_default();
            match bucket
                .iter_mut()
                .find(|e| e.constraints == entry.constraints && e.query == entry.query)
            {
                Some(existing) => {
                    existing.hot |= entry.hot;
                    if existing.model.is_none() {
                        existing.model = entry.model;
                    }
                }
                None => {
                    if foreign {
                        added += 1;
                    }
                    bucket.push(entry);
                }
            }
        }
        // Colliding fingerprints (distinct keys, same hash) get a total
        // order via their debug rendering so the result is independent of
        // which slice contributed an entry first.
        for bucket in buckets.values_mut() {
            if bucket.len() > 1 {
                bucket.sort_by_cached_key(|e| format!("{:?}{:?}", e.constraints, e.query));
            }
        }
        self.entries = buckets.into_values().flatten().collect();
        added
    }

    /// Bounds the slice to its `max` hottest entries, deterministically:
    /// hot entries first, then by fingerprint. The rank key is cached per
    /// entry — the fingerprint hashes whole constraint trees, far too
    /// expensive to recompute at every comparison.
    pub fn truncate_ranked(&mut self, max: usize) {
        self.entries
            .sort_by_cached_key(|e| (!e.hot, e.fingerprint()));
        self.entries.truncate(max);
    }

    /// Drops entries none of whose symbols appear in `footprint`.
    pub fn retain_footprint(&mut self, footprint: &BTreeSet<SymbolId>) {
        self.entries.retain(|e| e.touches(footprint));
    }
}

/// Cache of satisfiability answers keyed by the exact constraint set, with
/// segmented second-chance (clock) eviction.
///
/// Hitting capacity evicts one *segment* (an eighth of the capacity) of
/// cold entries instead of dropping the whole cache: entries whose
/// reference bit was set by a hit since the clock hand last passed them get
/// a second chance and survive, so the hot part of the cache is preserved
/// across overflows.
#[derive(Debug, Default)]
pub struct QueryCache {
    entries: FingerprintMap<Vec<CacheEntry>>,
    /// Clock order of fingerprint buckets; each bucket appears once.
    clock: VecDeque<u64>,
    hits: u64,
    misses: u64,
    evictions: u64,
    /// Hits served by an entry that arrived via a slice import.
    warm_hits: u64,
    /// Entries added (not merely updated) by slice imports.
    imported_entries: u64,
    /// Entries added by local solving (monotonic — evictions do not
    /// decrement it), so exporters can tell whether there is anything new
    /// to gossip since their last export.
    own_insertions: u64,
    capacity: usize,
    len: usize,
}

impl QueryCache {
    /// Creates a cache bounded to `capacity` entries.
    pub fn new(capacity: usize) -> QueryCache {
        QueryCache {
            capacity,
            ..QueryCache::default()
        }
    }

    /// Looks up a previously-computed answer: the satisfiability bit plus
    /// (when `want_model`) a handle on the canonical model recorded for a
    /// sat entry.
    pub fn get(
        &mut self,
        constraints: &[ExprRef],
        query: Option<&ExprRef>,
        want_model: bool,
    ) -> Option<CacheHit> {
        self.get_with_fp(
            fingerprint(constraints, query),
            constraints,
            query,
            want_model,
        )
    }

    /// [`QueryCache::get`] with the fingerprint already computed (the
    /// sharded wrapper hashes once for routing and passes it down).
    fn get_with_fp(
        &mut self,
        fp: u64,
        constraints: &[ExprRef],
        query: Option<&ExprRef>,
        want_model: bool,
    ) -> Option<CacheHit> {
        let found = self
            .entries
            .get_mut(&fp)
            .and_then(|bucket| bucket.iter_mut().find(|e| e.matches(constraints, query)));
        let Some(entry) = found else {
            self.misses += 1;
            return None;
        };
        entry.referenced = true;
        self.hits += 1;
        if entry.imported {
            self.warm_hits += 1;
        }
        Some(CacheHit {
            sat: entry.sat,
            model: entry.model.as_ref().filter(|_| want_model).cloned(),
            query: query.and(entry.key.last()).cloned(),
        })
    }

    /// Records an answer (updating the entry in place if the key is already
    /// cached; an existing canonical model is never discarded).
    pub fn insert(
        &mut self,
        constraints: &[ExprRef],
        query: Option<&ExprRef>,
        sat: bool,
        model: Option<Arc<Assignment>>,
    ) {
        self.insert_with_fp(
            fingerprint(constraints, query),
            constraints,
            query,
            sat,
            model,
        )
    }

    /// [`QueryCache::insert`] with the fingerprint already computed.
    fn insert_with_fp(
        &mut self,
        fp: u64,
        constraints: &[ExprRef],
        query: Option<&ExprRef>,
        sat: bool,
        model: Option<Arc<Assignment>>,
    ) {
        if let Some(bucket) = self.entries.get_mut(&fp) {
            if let Some(entry) = bucket.iter_mut().find(|e| e.matches(constraints, query)) {
                entry.sat = sat;
                if model.is_some() {
                    entry.model = model;
                }
                entry.referenced = true;
                return;
            }
        }
        if self.len >= self.capacity {
            self.evict_segment();
        }
        let bucket = self.entries.entry(fp).or_default();
        if bucket.is_empty() {
            self.clock.push_back(fp);
        }
        bucket.push(CacheEntry {
            key: flat_key(constraints, query),
            sat,
            model,
            referenced: false,
            imported: false,
        });
        self.len += 1;
        self.own_insertions += 1;
    }

    /// Absorbs one imported slice entry. Existing entries are updated in
    /// place — the canonical model is backfilled if absent, and the clock
    /// reference bit is left exactly as it was. New entries are admitted
    /// only while there is spare capacity: an import never evicts resident
    /// entries (it is opportunistic warmth, not a replacement policy), so a
    /// large slice cannot flush a busy shard. Returns whether a new entry
    /// was added.
    fn import_entry(&mut self, fp: u64, entry: &SliceEntry) -> bool {
        if let Some(bucket) = self.entries.get_mut(&fp) {
            if let Some(existing) = bucket
                .iter_mut()
                .find(|e| e.matches(&entry.constraints, entry.query.as_ref()))
            {
                // The sat bit necessarily agrees (answers are pure functions
                // of the key); only the canonical model can be news.
                if existing.model.is_none() {
                    existing.model = entry.model.clone().map(Arc::new);
                }
                return false;
            }
        }
        if self.len >= self.capacity {
            return false;
        }
        let bucket = self.entries.entry(fp).or_default();
        if bucket.is_empty() {
            self.clock.push_back(fp);
        }
        bucket.push(CacheEntry {
            key: flat_key(&entry.constraints, entry.query.as_ref()),
            sat: entry.sat,
            model: entry.model.clone().map(Arc::new),
            // Imported entries start cold: they earn their second chance
            // through local hits, like any freshly inserted entry.
            referenced: false,
            imported: true,
        });
        self.len += 1;
        self.imported_entries += 1;
        true
    }

    /// Appends every *locally solved* entry to `out` as a [`SliceEntry`],
    /// carrying the clock reference bit as the `hot` flag. Entries that
    /// arrived via a slice import are skipped: gossip ships only what this
    /// cache learned itself, otherwise every worker would echo the cluster
    /// hot set back at the coordinator and slices would never converge.
    fn export_entries(&self, out: &mut Vec<SliceEntry>) {
        for bucket in self.entries.values() {
            for e in bucket {
                if e.imported {
                    continue;
                }
                out.push(SliceEntry {
                    constraints: e.key.clone(),
                    query: None,
                    sat: e.sat,
                    model: e.model.as_deref().cloned(),
                    hot: e.referenced,
                });
            }
        }
    }

    /// Evicts cold entries until a segment (an eighth of the capacity, at
    /// least one entry) is free. Buckets whose reference bit is set get the
    /// bit cleared and are put back at the clock tail — the second chance.
    fn evict_segment(&mut self) {
        let segment = (self.capacity / 8).max(1);
        let target = self.capacity.saturating_sub(segment);
        while self.len > target {
            let Some(fp) = self.clock.pop_front() else {
                break;
            };
            let Some(bucket) = self.entries.get_mut(&fp) else {
                continue; // stale hand position (bucket already gone)
            };
            if bucket.iter().any(|e| e.referenced) {
                for e in bucket.iter_mut() {
                    e.referenced = false;
                }
                self.clock.push_back(fp);
            } else {
                let removed = self.entries.remove(&fp).map(|b| b.len()).unwrap_or(0);
                self.len -= removed;
                self.evictions += removed as u64;
            }
        }
    }

    /// Number of cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Number of cache misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Number of entries evicted so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Number of hits served by imported entries so far.
    pub fn warm_hits(&self) -> u64 {
        self.warm_hits
    }

    /// Number of entries added by slice imports so far.
    pub fn imported_entries(&self) -> u64 {
        self.imported_entries
    }

    /// Entries this cache added from local solving so far (monotonic).
    pub fn own_insertions(&self) -> u64 {
        self.own_insertions
    }

    /// Number of entries currently cached.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Drops all entries (used to model a state arriving at a new worker).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.clock.clear();
        self.len = 0;
    }
}

/// A query cache striped over [`QUERY_CACHE_SHARDS`] independently locked
/// shards, routed by query fingerprint. This is what makes the solver
/// [`Sync`]: every executor thread of a worker shares one logical cache
/// instead of rebuilding a private one.
#[derive(Debug)]
pub struct ShardedQueryCache {
    shards: Vec<Mutex<QueryCache>>,
}

impl ShardedQueryCache {
    /// Creates a sharded cache bounded to roughly `capacity` entries in
    /// total (each shard holds its even share).
    pub fn new(capacity: usize) -> ShardedQueryCache {
        let per_shard = capacity.div_ceil(QUERY_CACHE_SHARDS);
        ShardedQueryCache {
            shards: (0..QUERY_CACHE_SHARDS)
                .map(|_| Mutex::new(QueryCache::new(per_shard)))
                .collect(),
        }
    }

    fn shard(&self, fp: u64) -> &Mutex<QueryCache> {
        &self.shards[(fp % self.shards.len() as u64) as usize]
    }

    /// Looks up a previously-computed answer in the owning shard; see
    /// [`QueryCache::get`].
    pub fn get(
        &self,
        constraints: &[ExprRef],
        query: Option<&ExprRef>,
        want_model: bool,
    ) -> Option<CacheHit> {
        self.get_with_fp(
            fingerprint(constraints, query),
            constraints,
            query,
            want_model,
        )
    }

    /// [`ShardedQueryCache::get`] for a caller that already holds the key's
    /// fingerprint (the solver rolls it from a group's), so the probe hashes
    /// no constraint tree.
    pub(crate) fn get_with_fp(
        &self,
        fp: u64,
        constraints: &[ExprRef],
        query: Option<&ExprRef>,
        want_model: bool,
    ) -> Option<CacheHit> {
        self.shard(fp)
            .lock()
            .expect("query cache shard poisoned")
            .get_with_fp(fp, constraints, query, want_model)
    }

    /// Records an answer in the owning shard.
    pub fn insert(
        &self,
        constraints: &[ExprRef],
        query: Option<&ExprRef>,
        sat: bool,
        model: Option<Arc<Assignment>>,
    ) {
        self.insert_with_fp(
            fingerprint(constraints, query),
            constraints,
            query,
            sat,
            model,
        );
    }

    /// [`ShardedQueryCache::insert`] with the fingerprint already computed.
    pub(crate) fn insert_with_fp(
        &self,
        fp: u64,
        constraints: &[ExprRef],
        query: Option<&ExprRef>,
        sat: bool,
        model: Option<Arc<Assignment>>,
    ) {
        self.shard(fp)
            .lock()
            .expect("query cache shard poisoned")
            .insert_with_fp(fp, constraints, query, sat, model);
    }

    /// Total entries across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("query cache shard poisoned").len())
            .sum()
    }

    /// Whether every shard is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total hits across all shards.
    pub fn hits(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.lock().expect("query cache shard poisoned").hits())
            .sum()
    }

    /// Total hits served by imported entries, across all shards.
    pub fn warm_hits(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.lock().expect("query cache shard poisoned").warm_hits())
            .sum()
    }

    /// Total entries added by slice imports, across all shards.
    pub fn imported_entries(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| {
                s.lock()
                    .expect("query cache shard poisoned")
                    .imported_entries()
            })
            .sum()
    }

    /// Total entries added by local solving across all shards (monotonic):
    /// a cheap generation counter for "anything new to gossip since the
    /// last export?" checks.
    pub fn own_insertions(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| {
                s.lock()
                    .expect("query cache shard poisoned")
                    .own_insertions()
            })
            .sum()
    }

    /// Exports the `max` hottest entries (clock reference bit first, then
    /// fingerprint) across all shards as a transferable [`CacheSlice`].
    pub fn export_slice(&self, max: usize) -> CacheSlice {
        let mut slice = CacheSlice::default();
        for shard in &self.shards {
            shard
                .lock()
                .expect("query cache shard poisoned")
                .export_entries(&mut slice.entries);
        }
        slice.truncate_ranked(max);
        slice
    }

    /// Exports the `max` hottest entries whose constraint footprint touches
    /// any of the given symbols — the slice relevant to a path prefix whose
    /// constraints mention exactly those symbols.
    pub fn export_slice_for(&self, footprint: &BTreeSet<SymbolId>, max: usize) -> CacheSlice {
        let mut slice = CacheSlice::default();
        for shard in &self.shards {
            shard
                .lock()
                .expect("query cache shard poisoned")
                .export_entries(&mut slice.entries);
        }
        slice.retain_footprint(footprint);
        slice.truncate_ranked(max);
        slice
    }

    /// Merges a slice into the live cache (see `QueryCache::import_entry`
    /// for the exact rules: in-place model backfill, no eviction of
    /// residents, reference bits untouched). Returns the number of entries
    /// newly added.
    pub fn merge_slice(&self, slice: &CacheSlice) -> u64 {
        let mut added = 0;
        for entry in &slice.entries {
            let fp = entry.fingerprint();
            if self
                .shard(fp)
                .lock()
                .expect("query cache shard poisoned")
                .import_entry(fp, entry)
            {
                added += 1;
            }
        }
        added
    }

    /// Drops all entries from every shard.
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.lock().expect("query cache shard poisoned").clear();
        }
    }
}

/// Cache of recent satisfying assignments (counterexample cache).
///
/// Before running a full search, the solver tries each cached model against
/// the new constraint set; parser-style constraints along neighbouring paths
/// frequently share models, so this avoids many searches outright. Lookups
/// take `&self` (the hit counter is atomic) so concurrent readers can scan
/// under a read lock.
#[derive(Debug, Default)]
pub struct ModelCache {
    models: Vec<Arc<Assignment>>,
    capacity: usize,
    next: usize,
    hits: AtomicU64,
}

impl ModelCache {
    /// Creates a cache that keeps up to `capacity` recent models.
    pub fn new(capacity: usize) -> ModelCache {
        ModelCache {
            models: Vec::with_capacity(capacity),
            capacity,
            next: 0,
            hits: AtomicU64::new(0),
        }
    }

    /// Returns the first cached model satisfying all `constraints`, if any.
    pub fn find_satisfying<'a>(
        &self,
        constraints: impl Iterator<Item = &'a ExprRef> + Clone,
    ) -> Option<&Arc<Assignment>> {
        let found = self
            .models
            .iter()
            .find(|m| constraints.clone().all(|c| c.eval_bool(m) == Some(true)));
        if found.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    /// Records a model, evicting the oldest when at capacity.
    pub fn insert(&mut self, model: Arc<Assignment>) {
        if self.capacity == 0 {
            return;
        }
        if self.models.len() < self.capacity {
            self.models.push(model);
        } else {
            self.models[self.next] = model;
            self.next = (self.next + 1) % self.capacity;
        }
    }

    /// Number of times a cached model answered a query.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of models currently cached.
    pub fn len(&self) -> usize {
        self.models.len()
    }

    /// Whether the cache holds no models.
    pub fn is_empty(&self) -> bool {
        self.models.is_empty()
    }

    /// Drops all cached models.
    pub fn clear(&mut self) {
        self.models.clear();
        self.next = 0;
    }
}
