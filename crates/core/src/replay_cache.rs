//! The prefix-anchor replay cache.
//!
//! Materializing a transferred job means re-executing the program from the
//! root while following the job's recorded decision path (§3.2) — work that
//! is pure overhead, paid once per imported job. But jobs arrive in batches
//! that share long path prefixes (that is why the wire format is a prefix
//! trie), and a replaying state paused right after consuming its `k`-th
//! decision is a faithful reconstruction of that depth-`k` prefix node. The
//! [`AnchorCache`] keeps clones of such states — *anchors* — keyed by their
//! path prefix: a job whose path runs through a cached prefix replays only
//! its suffix below the deepest matching anchor.
//!
//! Anchors persist across quanta, so the cache also serves batches that
//! arrive later (sibling subtrees shipped by subsequent balancing rounds),
//! not just the batch that created them. The cache is bounded both by entry
//! count (`MAX_ANCHORS`) and by an approximate byte budget
//! (`MAX_ANCHOR_BYTES`), evicted least-recently-used first; all accesses
//! happen on the worker's dispatch thread, so no synchronization is needed
//! and `threads == 1` determinism is untouched.

use c9_vm::{ExecutionState, PathChoice};
use std::collections::BTreeMap;

/// Most anchors a worker keeps.
const MAX_ANCHORS: usize = 256;

/// Approximate byte budget across all of a worker's anchors (the estimate
/// counts logical state size, not CoW-shared physical bytes).
const MAX_ANCHOR_BYTES: u64 = 64 << 20;

/// One cached prefix snapshot.
struct Anchor {
    /// The snapshot: a replaying state paused right after consuming the
    /// decision that completed its key prefix.
    state: ExecutionState,
    /// LRU tick of the last lookup that used (or inserted) this anchor.
    last_used: u64,
    /// Approximate logical size, charged against the byte budget.
    cost: u64,
}

/// A bounded LRU cache of replay prefix anchors, keyed by job-path prefix.
pub struct AnchorCache {
    capacity: usize,
    max_bytes: u64,
    entries: BTreeMap<Vec<PathChoice>, Anchor>,
    tick: u64,
    bytes: u64,
    evictions: u64,
}

/// Approximate logical size of a state, for the byte budget. Clones share
/// CoW memory and reference-counted expressions, so this deliberately
/// over-counts physical usage; the budget is a safety valve, not an exact
/// accountant.
fn approx_cost(state: &ExecutionState) -> u64 {
    1024 + state.memory.allocated_bytes()
        + 64 * state.constraints.len() as u64
        + 16 * state.path.len() as u64
}

/// An empty cache with the worker's fixed budget: `MAX_ANCHORS` anchors
/// and `MAX_ANCHOR_BYTES` bytes.
impl Default for AnchorCache {
    fn default() -> AnchorCache {
        AnchorCache::with_budget(MAX_ANCHORS, MAX_ANCHOR_BYTES)
    }
}

impl AnchorCache {
    fn with_budget(capacity: usize, max_bytes: u64) -> AnchorCache {
        AnchorCache {
            capacity,
            max_bytes,
            entries: BTreeMap::new(),
            tick: 0,
            bytes: 0,
            evictions: 0,
        }
    }

    /// Number of anchors currently cached.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no anchors.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Approximate bytes currently charged against the budget.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Anchors evicted so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Returns a clone of the deepest cached anchor whose key is a prefix
    /// of `path` (possibly all of it), or `None` when no prefix is cached.
    pub fn lookup(&mut self, path: &[PathChoice]) -> Option<ExecutionState> {
        for depth in (1..=path.len()).rev() {
            if let Some(anchor) = self.entries.get_mut(&path[..depth]) {
                self.tick += 1;
                anchor.last_used = self.tick;
                return Some(anchor.state.clone());
            }
        }
        None
    }

    /// Caches a clone of `state` under its current path prefix. A prefix
    /// already cached is only touched (the existing snapshot is identical —
    /// replay is deterministic). Evicts least-recently-used anchors until
    /// the count and byte budgets hold; a state too large for the whole
    /// byte budget is not cached at all.
    pub fn insert(&mut self, state: &ExecutionState) {
        // An empty prefix is the initial state — cheaper to rebuild than
        // to cache (and lookups never consult depth 0).
        if state.path.is_empty() {
            return;
        }
        self.tick += 1;
        if let Some(existing) = self.entries.get_mut(state.path.as_slice()) {
            existing.last_used = self.tick;
            return;
        }
        let cost = approx_cost(state);
        if cost > self.max_bytes {
            return;
        }
        self.entries.insert(
            state.path.clone(),
            Anchor {
                state: state.clone(),
                last_used: self.tick,
                cost,
            },
        );
        self.bytes += cost;
        while self.entries.len() > self.capacity || self.bytes > self.max_bytes {
            let Some(oldest) = self
                .entries
                .iter()
                .min_by_key(|(_, a)| a.last_used)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            if let Some(evicted) = self.entries.remove(&oldest) {
                self.bytes -= evicted.cost;
                self.evictions += 1;
            }
        }
    }
}

impl std::fmt::Debug for AnchorCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AnchorCache")
            .field("anchors", &self.entries.len())
            .field("bytes", &self.bytes)
            .field("capacity", &self.capacity)
            .field("max_bytes", &self.max_bytes)
            .field("evictions", &self.evictions)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use c9_ir::{Operand, ProgramBuilder, Width};
    use c9_vm::{Executor, ExecutorConfig, NullEnvironment, StateId};
    use std::sync::Arc;

    fn state_with_path(path: &[bool]) -> ExecutionState {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main", 0, Some(Width::W32));
        f.ret(Some(Operand::word(0)));
        let main = f.finish();
        pb.set_entry(main);
        let executor = Executor::new(
            Arc::new(pb.finish()),
            Arc::new(c9_solver::Solver::new()),
            Arc::new(NullEnvironment),
            ExecutorConfig::default(),
        );
        let mut state = executor.initial_state(StateId(0));
        for &taken in path {
            state.record_choice(PathChoice::Branch(taken));
        }
        state
    }

    /// A cache bounded by anchor count alone.
    fn counted(capacity: usize) -> AnchorCache {
        AnchorCache::with_budget(capacity, u64::MAX)
    }

    #[test]
    fn lookup_finds_the_deepest_matching_prefix() {
        let mut cache = counted(8);
        cache.insert(&state_with_path(&[true]));
        cache.insert(&state_with_path(&[true, false]));
        cache.insert(&state_with_path(&[false]));
        let target: Vec<PathChoice> = [true, false, true, true]
            .iter()
            .map(|&b| PathChoice::Branch(b))
            .collect();
        let hit = cache.lookup(&target).expect("prefix cached");
        assert_eq!(hit.path.len(), 2, "deepest prefix wins");
        // No cached prefix of an unrelated path.
        let miss: Vec<PathChoice> = vec![PathChoice::Alt {
            chosen: 0,
            total: 2,
        }];
        assert!(cache.lookup(&miss).is_none());
    }

    #[test]
    fn capacity_evicts_least_recently_used() {
        let mut cache = counted(2);
        cache.insert(&state_with_path(&[true]));
        cache.insert(&state_with_path(&[false]));
        // Touch [true] so [false] is the LRU entry.
        assert!(cache.lookup(&[PathChoice::Branch(true)]).is_some());
        cache.insert(&state_with_path(&[true, true]));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 1);
        assert!(cache.lookup(&[PathChoice::Branch(false)]).is_none());
        assert!(cache.lookup(&[PathChoice::Branch(true)]).is_some());
    }

    #[test]
    fn byte_budget_bounds_the_cache() {
        // One byte is smaller than any state.
        let mut cache = AnchorCache::with_budget(100, 1);
        cache.insert(&state_with_path(&[true]));
        assert!(cache.is_empty(), "over-budget state must not be cached");

        let one_state = approx_cost(&state_with_path(&[true])) + 8;
        let mut cache = AnchorCache::with_budget(100, one_state);
        cache.insert(&state_with_path(&[true]));
        cache.insert(&state_with_path(&[false]));
        assert_eq!(cache.len(), 1, "byte budget holds one anchor");
        assert_eq!(cache.evictions(), 1);
    }

    #[test]
    fn duplicate_insert_only_touches_the_entry() {
        let mut cache = counted(4);
        cache.insert(&state_with_path(&[true]));
        let bytes = cache.bytes();
        cache.insert(&state_with_path(&[true]));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.bytes(), bytes, "duplicate insert double-charged");
    }
}
