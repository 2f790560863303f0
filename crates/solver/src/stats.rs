//! Solver statistics.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counters describing the work a [`crate::Solver`] has performed.
///
/// These feed the per-worker statistics that Cloud9 workers report to the
/// load balancer and that the evaluation harness aggregates. The live
/// counters inside a solver are [`AtomicSolverStats`] (many executor threads
/// share one solver); this struct is the serializable snapshot that crosses
/// the wire.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SolverStats {
    /// Total public solver calls (feasibility, validity, models, values).
    /// `sat + unsat + unknowns` always equals it.
    pub queries: u64,
    /// Queries answered from the query cache alone — bumped at most once
    /// per query, and only when none of the constraint groups it consulted
    /// needed a search.
    pub query_cache_hits: u64,
    /// Kept for perf_suite, always 0: the solver keeps no witness-model
    /// cache, only the query cache. `perf_suite` still adds it into
    /// `solver.cache_hit_rate`.
    pub model_cache_hits: u64,
    /// Backtracking searches run — one per constraint group that missed
    /// the caches, so a single query can account for several.
    pub searches: u64,
    /// (symbol, value) assignments the searches tried, the nodes a
    /// [`crate::SearchBudget`] bounds.
    pub search_nodes: u64,
    /// Queries that ended with `Unknown` (a search exhausted its budget or
    /// could not enumerate a domain).
    pub unknowns: u64,
    /// Queries proved unsatisfiable.
    pub unsat: u64,
    /// Queries proved satisfiable.
    pub sat: u64,
    /// Queries answered from fewer constraints than the full set (at least
    /// one independent constraint group was left out).
    pub independence_slices: u64,
}

impl SolverStats {
    /// Merges another stats snapshot into this one.
    pub fn merge(&mut self, other: &SolverStats) {
        self.queries += other.queries;
        self.query_cache_hits += other.query_cache_hits;
        self.model_cache_hits += other.model_cache_hits;
        self.searches += other.searches;
        self.search_nodes += other.search_nodes;
        self.unknowns += other.unknowns;
        self.unsat += other.unsat;
        self.sat += other.sat;
        self.independence_slices += other.independence_slices;
    }

    /// Fraction of queries answered by the query cache, in `[0, 1]`.
    pub fn cache_hit_rate(&self) -> f64 {
        if self.queries == 0 {
            return 0.0;
        }
        self.query_cache_hits as f64 / self.queries as f64
    }
}

/// Lock-free live counters of a shared [`crate::Solver`].
///
/// Every counter is a relaxed atomic: executor threads bump them
/// concurrently and only aggregate totals are ever observed, so no ordering
/// between counters is required. [`AtomicSolverStats::snapshot`] produces
/// the serializable [`SolverStats`] view.
#[derive(Debug, Default)]
pub struct AtomicSolverStats {
    queries: AtomicU64,
    query_cache_hits: AtomicU64,
    searches: AtomicU64,
    search_nodes: AtomicU64,
    unknowns: AtomicU64,
    unsat: AtomicU64,
    sat: AtomicU64,
    independence_slices: AtomicU64,
}

macro_rules! bump {
    ($($method:ident => $field:ident),* $(,)?) => {
        $(
            #[doc = concat!("Increments the `", stringify!($field), "` counter.")]
            pub fn $method(&self) {
                self.$field.fetch_add(1, Ordering::Relaxed);
            }
        )*
    };
}

impl AtomicSolverStats {
    bump! {
        inc_queries => queries,
        inc_query_cache_hits => query_cache_hits,
        inc_searches => searches,
        inc_unknowns => unknowns,
        inc_unsat => unsat,
        inc_sat => sat,
        inc_independence_slices => independence_slices,
    }

    /// Adds `nodes` to the `search_nodes` counter.
    pub fn add_search_nodes(&self, nodes: u64) {
        self.search_nodes.fetch_add(nodes, Ordering::Relaxed);
    }

    /// A point-in-time copy of all counters.
    pub fn snapshot(&self) -> SolverStats {
        SolverStats {
            queries: self.queries.load(Ordering::Relaxed),
            query_cache_hits: self.query_cache_hits.load(Ordering::Relaxed),
            model_cache_hits: 0,
            searches: self.searches.load(Ordering::Relaxed),
            search_nodes: self.search_nodes.load(Ordering::Relaxed),
            unknowns: self.unknowns.load(Ordering::Relaxed),
            unsat: self.unsat.load(Ordering::Relaxed),
            sat: self.sat.load(Ordering::Relaxed),
            independence_slices: self.independence_slices.load(Ordering::Relaxed),
        }
    }
}
