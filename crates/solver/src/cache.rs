//! The query cache.
//!
//! The Cloud9 paper (§6, "Constraint Caches") notes that states transferred
//! between workers arrive without the source worker's solver cache, and that
//! the relevant part of the cache is rebuilt during path replay. This cache is
//! therefore owned by the [`crate::Solver`] instance of each worker, not
//! by the execution states.
//!
//! One solver is shared by every executor thread of a worker, so the query
//! cache is *lock-striped*: queries are routed to one of
//! [`QUERY_CACHE_SHARDS`] independently locked [`QueryCache`] shards by
//! their fingerprint, so concurrent threads rarely contend on the same
//! lock and all threads profit from each other's cached answers.

use crate::constraint::{expr_hash, roll};
use c9_expr::{Assignment, ExprRef};
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::{Arc, Mutex};

/// Number of independently locked shards of a [`ShardedQueryCache`].
pub const QUERY_CACHE_SHARDS: usize = 16;

/// Computes the stable fingerprint of a query key — the constraint sequence
/// `constraints ++ query` — by hashing every expression tree. The solver
/// never calls this on a lookup: a [`crate::Group`] carries the rolling
/// fingerprint of its constraints, and only the extra expression is hashed.
/// Colliding fingerprints are disambiguated by storing the full key
/// alongside the entry.
pub(crate) fn fingerprint(constraints: &[ExprRef], query: Option<&ExprRef>) -> u64 {
    constraints
        .iter()
        .chain(query)
        .fold(0, |fp, e| roll(fp, expr_hash(e)))
}

/// Hasher for maps keyed by one already well-spread `u64`: a query
/// fingerprint here, a state id in `c9-vm`'s searcher lists. SipHash over
/// such a key is wasted work — but the key cannot be passed through as is:
/// shard routing took a fingerprint's low four bits, so they are the same
/// for every key of a shard, and a state id is a counter whose high bits
/// are all zero, while hashbrown reads its bucket index from the low bits
/// and its control bytes from the top seven. One multiply and a rotation
/// put well-mixed bits in both places.
///
/// Its keys must come from inside the program: unlike SipHash, it gives
/// no protection against keys crafted to collide.
#[derive(Clone, Copy, Debug, Default)]
pub struct FingerprintHasher(u64);

impl Hasher for FingerprintHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("a fingerprint map is keyed by one u64");
    }

    fn write_u64(&mut self, fp: u64) {
        self.0 = fp.wrapping_mul(0xf135_7aea_2e62_a9c5).rotate_left(26);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` keyed by one `u64` (or a newtype of one), hashed by
/// [`FingerprintHasher`].
pub type FingerprintMap<K, V> = HashMap<K, V, BuildHasherDefault<FingerprintHasher>>;

/// One cached query: the full key (the conjunction is what is cached, so a
/// query expression is stored as the key's last constraint), the recorded
/// satisfiability answer, the canonical model (backfilled lazily for sat
/// entries when a caller needs one), and the second-chance reference bit.
#[derive(Debug)]
struct CacheEntry {
    key: Vec<ExprRef>,
    sat: bool,
    model: Option<Arc<Assignment>>,
    referenced: bool,
}

impl CacheEntry {
    /// Whether the entry's key is `constraints ++ query`. `Arc<Expr>`
    /// equality tries the pointers before it walks the trees, and a state
    /// that followed cached answers holds this key's own `Arc`s (see
    /// [`CacheHit::query`]), so the usual match is one comparison of the
    /// fresh `query` and a pointer compare per constraint. The structural
    /// walk remains the fallback — after an eviction, for constraints that
    /// were never probed — so whose pointer a state holds
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

/// One cached query key, as [`crate::Solver::export_slice`] copies it out.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CachedQuery {
    /// The constraint sequence the answer is keyed on.
    pub constraints: Vec<ExprRef>,
    /// Always `None`: the cache stores a key flat, its query expression
    /// last among `constraints`.
    pub query: Option<ExprRef>,
}

/// A read-only copy of a query cache's keys, hottest first — what a fresh
/// solver re-asks to time cold and warm resolution of one run's queries.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CachedQueries {
    /// The copied keys.
    pub entries: Vec<CachedQuery>,
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
    entries: FingerprintMap<u64, Vec<CacheEntry>>,
    /// Clock order of fingerprint buckets; each bucket appears once.
    clock: VecDeque<u64>,
    hits: u64,
    misses: u64,
    evictions: u64,
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
        });
        self.len += 1;
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

    /// Number of entries currently cached.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
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

    /// Copies out the `max` hottest keys across all shards: entries whose
    /// clock reference bit is set first, then by fingerprint.
    pub fn hottest_keys(&self, max: usize) -> CachedQueries {
        let mut ranked = Vec::new();
        for shard in &self.shards {
            let shard = shard.lock().expect("query cache shard poisoned");
            for (&fp, bucket) in &shard.entries {
                ranked.extend(bucket.iter().map(|e| ((!e.referenced, fp), e.key.clone())));
            }
        }
        ranked.sort_by_key(|&(rank, _)| rank);
        ranked.truncate(max);
        CachedQueries {
            entries: ranked
                .into_iter()
                .map(|(_, constraints)| CachedQuery {
                    constraints,
                    query: None,
                })
                .collect(),
        }
    }
}
