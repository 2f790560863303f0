//! The solver facade used by the symbolic execution engine.

use crate::backend::{solve_feasibility, SolverBackendKind};
use crate::cache::{CacheHit, CacheSlice, ModelCache, ShardedQueryCache};
use crate::constraint::{expr_hash, roll, ConstraintSet, Group, Probed, Site};
use crate::search::{search, SearchBudget, SearchOutcome};
use crate::stats::{AtomicSolverStats, SolverStats};
use c9_expr::{
    collect_symbols, symbols_of, Assignment, Expr, ExprRef, SymbolId, SymbolManager, Width,
};
use c9_trace::{Histogram, HistogramSnapshot, Span, SpanKind};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, RwLock};
use std::time::Instant;

/// Configuration of a [`Solver`].
#[derive(Clone, Copy, Debug)]
pub struct SolverConfig {
    /// Budget for each backtracking search.
    pub budget: SearchBudget,
    /// Whether the query (satisfiability) cache is enabled.
    pub enable_query_cache: bool,
    /// Whether the model (counterexample) cache is enabled.
    pub enable_model_cache: bool,
    /// Maximum number of entries in the query cache.
    pub query_cache_capacity: usize,
    /// Maximum number of models kept in the model cache.
    pub model_cache_capacity: usize,
    /// When a query cannot be decided within budget, treat the branch as
    /// feasible (`true`, the conservative choice used by the engine) or
    /// infeasible (`false`).
    pub unknown_is_sat: bool,
    /// Which backend strategy feasibility searches use (the canonical
    /// backtracking search alone, bit-blasting with canonical fallback, or
    /// a sequential race). Model-returning queries always resolve through
    /// the canonical search regardless of this setting.
    pub backend: SolverBackendKind,
}

impl Default for SolverConfig {
    fn default() -> SolverConfig {
        SolverConfig {
            budget: SearchBudget::default(),
            enable_query_cache: true,
            enable_model_cache: true,
            query_cache_capacity: 16_384,
            model_cache_capacity: 64,
            unknown_is_sat: true,
            backend: SolverBackendKind::Canonical,
        }
    }
}

/// Result of a satisfiability check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SatResult {
    /// Satisfiable, with a witness model.
    Sat(Assignment),
    /// Proved unsatisfiable.
    Unsat,
    /// Could not be decided within the search budget.
    Unknown,
}

impl SatResult {
    /// Whether this result is `Sat`.
    pub fn is_sat(&self) -> bool {
        matches!(self, SatResult::Sat(_))
    }

    /// Whether this result is `Unsat`.
    pub fn is_unsat(&self) -> bool {
        matches!(self, SatResult::Unsat)
    }

    /// Extracts the model if satisfiable.
    pub fn model(self) -> Option<Assignment> {
        match self {
            SatResult::Sat(m) => Some(m),
            _ => None,
        }
    }
}

/// Three-valued validity answer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Validity {
    /// The expression is true under every model of the constraints.
    True,
    /// The expression is false under every model of the constraints.
    False,
    /// Neither (or undecided within budget).
    Unknown,
}

/// The constraint solver.
///
/// A `Solver` is `Send + Sync`: all interior mutability is synchronized
/// (lock-striped query cache, read-write-locked model cache, atomic
/// statistics), so every executor thread of a Cloud9 worker shares one
/// solver instance — and one warm cache — instead of rebuilding a private
/// cache per thread.
///
/// # Determinism
///
/// Every answer is computed per independent [`Group`] of the constraint
/// set, under that group's own cache key. Model-*returning* queries
/// ([`Solver::get_model`], [`Solver::get_value`], and the public
/// [`Solver::check_sat`] entry points) always produce the *canonical*
/// model: for each group the deterministic backtracking-search result for
/// exactly that group's constraints, memoized in the query cache, merged
/// over the groups the query needs. Feasibility queries
/// ([`Solver::may_be_true`] / [`Solver::must_be_true`]) only need the
/// satisfiability bit and may be answered by any cached witness model.
/// Since satisfiability bits and canonical models are pure functions of a
/// group's constraints, every value that can influence the shape of the
/// execution tree is independent of thread interleaving — which is what
/// keeps exhaustive path sets identical across `--threads` settings.
#[derive(Debug)]
pub struct Solver {
    config: SolverConfig,
    query_cache: ShardedQueryCache,
    model_cache: RwLock<ModelCache>,
    stats: AtomicSolverStats,
    /// Wall-clock latency of every query, in microseconds, by who answered
    /// it: the query cache, a cached witness or no lookup at all (`probe`),
    /// or a search. Write-only from the engine's point of view — feeds
    /// worker status reports and `run_report.json`, never decisions.
    probe_latency: Histogram,
    search_latency: Histogram,
    /// Widths of symbols registered via [`Solver::register_symbols`]; used
    /// as a fallback for query symbols whose width cannot be learned from
    /// the query expressions themselves.
    registered_widths: RwLock<BTreeMap<SymbolId, Width>>,
}

impl Default for Solver {
    fn default() -> Solver {
        Solver::new()
    }
}

impl Solver {
    /// Creates a solver with the default configuration.
    pub fn new() -> Solver {
        Solver::with_config(SolverConfig::default())
    }

    /// Creates a solver with an explicit configuration.
    pub fn with_config(config: SolverConfig) -> Solver {
        Solver {
            query_cache: ShardedQueryCache::new(config.query_cache_capacity),
            model_cache: RwLock::new(ModelCache::new(config.model_cache_capacity)),
            stats: AtomicSolverStats::default(),
            probe_latency: Histogram::new(),
            search_latency: Histogram::new(),
            registered_widths: RwLock::new(BTreeMap::new()),
            config,
        }
    }

    /// The configuration this solver was created with.
    pub fn config(&self) -> &SolverConfig {
        &self.config
    }

    /// A snapshot of the solver statistics. The warm-cache counters live in
    /// the query cache (they are bumped under the shard locks) and are
    /// overlaid on the atomic snapshot here.
    pub fn stats(&self) -> SolverStats {
        let mut stats = self.stats.snapshot();
        stats.imported_cache_entries = self.query_cache.imported_entries();
        stats.warm_hits = self.query_cache.warm_hits();
        stats
    }

    /// Exports the `max` hottest query-cache entries as a transferable
    /// [`CacheSlice`] (see [`ShardedQueryCache::export_slice`]).
    pub fn export_slice(&self, max: usize) -> CacheSlice {
        self.query_cache.export_slice(max)
    }

    /// A monotonic counter of locally solved cache insertions; unchanged
    /// generation means an export would ship nothing an earlier export did
    /// not already carry.
    pub fn cache_generation(&self) -> u64 {
        self.query_cache.own_insertions()
    }

    /// Exports the `max` hottest query-cache entries whose constraints
    /// mention any of the `footprint` symbols.
    pub fn export_slice_for(&self, footprint: &BTreeSet<SymbolId>, max: usize) -> CacheSlice {
        self.query_cache.export_slice_for(footprint, max)
    }

    /// Merges a slice exported by another worker's solver into the query
    /// cache; returns the number of entries newly added. Imports are
    /// answer-preserving (cached answers are pure functions of their
    /// constraint sets), so this can only save searches, never change
    /// results.
    pub fn import_slice(&self, slice: &CacheSlice) -> u64 {
        if !self.config.enable_query_cache {
            return 0;
        }
        self.query_cache.merge_slice(slice)
    }

    /// A snapshot of the per-query latency histogram (microseconds, cache
    /// hits included): the two of [`Solver::latency_split_snapshot`] merged.
    pub fn latency_snapshot(&self) -> HistogramSnapshot {
        let (mut all, search) = self.latency_split_snapshot();
        all.merge(&search);
        all
    }

    /// Per-query latency by who answered: the queries the query cache, a
    /// cached witness or no lookup at all answered, and the queries for
    /// which a search ran. Every query is in exactly one of the two.
    pub fn latency_split_snapshot(&self) -> (HistogramSnapshot, HistogramSnapshot) {
        (
            self.probe_latency.snapshot(),
            self.search_latency.snapshot(),
        )
    }

    /// Registers the widths of symbols from a [`SymbolManager`]; queries
    /// mentioning unregistered symbols infer widths from the expressions that
    /// contain them.
    pub fn register_symbols(&self, manager: &SymbolManager) {
        let mut widths = self
            .registered_widths
            .write()
            .expect("width table poisoned");
        for info in manager.iter() {
            widths.insert(info.id, info.width);
        }
    }

    /// Clears both caches, modelling a job arriving at a fresh worker.
    pub fn clear_caches(&self) {
        self.query_cache.clear();
        self.model_cache
            .write()
            .expect("model cache poisoned")
            .clear();
    }

    /// Resolves the widths of `symbols` for a query over `working`: widths
    /// are learned from the query's own expressions (every symbol carries
    /// its width at each occurrence), falling back to registered widths.
    ///
    /// Widths are deliberately *not* cached across queries: symbol
    /// identifiers are allocated per execution state, so the same id can
    /// name symbols of different widths in different states — a shared
    /// learned-width table would cross-contaminate concurrent queries.
    fn widths_for(
        &self,
        working: &[ExprRef],
        symbols: &BTreeSet<SymbolId>,
    ) -> BTreeMap<SymbolId, Width> {
        let mut learned = BTreeMap::new();
        for e in working {
            learn_widths_rec(e, &mut learned);
        }
        let registered = self.registered_widths.read().expect("width table poisoned");
        symbols
            .iter()
            .map(|s| {
                let width = learned
                    .get(s)
                    .copied()
                    .or_else(|| registered.get(s).copied())
                    .unwrap_or(Width::W8);
                (*s, width)
            })
            .collect()
    }

    /// Checks whether the constraint set is satisfiable and returns a model
    /// if it is.
    pub fn check_sat(&self, constraints: &ConstraintSet) -> SatResult {
        self.query(constraints, |how| {
            self.solve_groups(constraints.groups().iter(), how)
        })
    }

    /// Checks whether `constraints ∧ extra` is satisfiable.
    pub fn check_sat_with(&self, constraints: &ConstraintSet, extra: Option<ExprRef>) -> SatResult {
        match extra {
            Some(e) => self.check_sat(&constraints.with(e)),
            None => self.check_sat(constraints),
        }
    }

    /// Wraps one public call: latency, span, and the per-call statistics
    /// (`queries`, the sat/unsat/unknown outcome, and at most one cache-hit
    /// bump however many groups `answer` looked up).
    fn query(
        &self,
        constraints: &ConstraintSet,
        answer: impl FnOnce(&mut AnsweredBy) -> SatResult,
    ) -> SatResult {
        let started = Instant::now();
        let mut span = Span::enter(SpanKind::SolverQuery);
        span.detail(constraints.len() as u64);
        let mut how = AnsweredBy::Nothing;
        let result = if constraints.is_trivially_false() {
            SatResult::Unsat
        } else {
            answer(&mut how)
        };
        match how {
            AnsweredBy::QueryCache => self.stats.inc_query_cache_hits(),
            AnsweredBy::Witness => self.stats.inc_model_cache_hits(),
            AnsweredBy::Nothing | AnsweredBy::Search => {}
        }
        self.stats.inc_queries();
        match result {
            SatResult::Sat(_) => self.stats.inc_sat(),
            SatResult::Unsat => self.stats.inc_unsat(),
            SatResult::Unknown => self.stats.inc_unknowns(),
        }
        let answered = match how {
            AnsweredBy::Search => &self.search_latency,
            _ => &self.probe_latency,
        };
        answered.record(started.elapsed().as_micros() as u64);
        result
    }

    /// The canonical model of `groups`: each group is solved under its own
    /// cache key and the models are merged, by reference — a cached model is
    /// never copied per group. The search's variable order, refined domains
    /// and value order are all local to a group, so the union of the groups'
    /// first models is the first model of their union.
    fn solve_groups<'a>(
        &self,
        groups: impl Iterator<Item = &'a Arc<Group>>,
        how: &mut AnsweredBy,
    ) -> SatResult {
        let mut merged = Assignment::new();
        for group in groups {
            match self.solve_key(group.fingerprint(), group.constraints(), None, true, how) {
                KeyAnswer::Sat(model) => {
                    let model = model.expect("a model-returning lookup yields the model");
                    if merged.is_empty() {
                        merged = Assignment::clone(&model);
                    } else {
                        merged.extend(model.iter());
                    }
                }
                KeyAnswer::Unsat => return SatResult::Unsat,
                KeyAnswer::Unknown => return SatResult::Unknown,
            }
        }
        SatResult::Sat(merged)
    }

    /// Answers one cache key — the conjunction `constraints ∧ extra`, whose
    /// fingerprint the caller rolled from a group's — through the pipeline
    /// query cache → (witness) model cache → budgeted search.
    ///
    /// `needs_model` distinguishes model-returning callers (which must get
    /// the canonical model, see the type-level documentation) from
    /// feasibility callers (which only consume the satisfiability bit and
    /// may be answered by an arbitrary cached witness, and get no model).
    ///
    /// On a query-cache hit `extra` is replaced by the cached key's own copy
    /// of it; on a miss the cache keeps the caller's. Either way the `Arc`
    /// `extra` holds afterwards is the one the cache compares against next.
    fn solve_key(
        &self,
        fp: u64,
        constraints: &[ExprRef],
        mut extra: Option<&mut ExprRef>,
        needs_model: bool,
        how: &mut AnsweredBy,
    ) -> KeyAnswer {
        // Query cache. Feasibility callers only ask for the sat bit, so
        // the shard does not hand them the stored canonical model.
        if self.config.enable_query_cache {
            if let Some(CacheHit { sat, model, query }) =
                self.query_cache
                    .get_with_fp(fp, constraints, extra.as_deref(), needs_model)
            {
                if let (Some(extra), Some(cached)) = (extra.as_deref_mut(), query) {
                    *extra = cached;
                }
                // Sat is known but no canonical model was recorded yet (the
                // bit came from a witness): fall through to the search,
                // which computes and backfills it.
                if !(sat && needs_model && model.is_none()) {
                    *how = (*how).max(AnsweredBy::QueryCache);
                    return if sat {
                        KeyAnswer::Sat(model)
                    } else {
                        KeyAnswer::Unsat
                    };
                }
            }
        }
        let extra = extra.as_deref();

        // Model (counterexample) cache — feasibility only: any witness
        // proves satisfiability, but model-returning callers need the
        // canonical model for cross-thread determinism.
        if !needs_model && self.config.enable_model_cache {
            let witnessed = self
                .model_cache
                .read()
                .expect("model cache poisoned")
                .find_satisfying(constraints.iter().chain(extra))
                .is_some();
            if witnessed {
                *how = (*how).max(AnsweredBy::Witness);
                if self.config.enable_query_cache {
                    self.query_cache
                        .insert_with_fp(fp, constraints, extra, true, None);
                }
                return KeyAnswer::Sat(None);
            }
        }

        // Full search. Model-returning callers go straight to the canonical
        // backtracking search (its model *is* the canonical model);
        // feasibility callers go through the backend selection table, which
        // may answer with a verified witness from the bit-blasting backend
        // before falling back to the canonical search.
        *how = AnsweredBy::Search;
        self.stats.inc_searches();
        let working: Vec<ExprRef> = constraints.iter().chain(extra).cloned().collect();
        let symbols: BTreeSet<SymbolId> = working.iter().flat_map(collect_symbols).collect();
        let widths = self.widths_for(&working, &symbols);
        let (outcome, via_alt) = if needs_model {
            (search(&working, &widths, self.config.budget, None), false)
        } else {
            solve_feasibility(self.config.backend, &working, &widths, self.config.budget)
        };
        match outcome {
            SearchOutcome::Sat(model) => {
                let model = Arc::new(model);
                if self.config.enable_query_cache {
                    // A witness from an alternative backend proves the sat
                    // bit but is *not* the canonical model — caching it as
                    // such would make later `get_model` answers depend on
                    // the backend choice. Leave the model slot empty; a
                    // model-returning query backfills it canonically. A
                    // canonical feasibility model is worth keeping: once the
                    // engine pushes `extra`, this key is its group's.
                    let canonical = (!via_alt).then(|| model.clone());
                    self.query_cache
                        .insert_with_fp(fp, constraints, extra, true, canonical);
                }
                if self.config.enable_model_cache {
                    self.model_cache
                        .write()
                        .expect("model cache poisoned")
                        .insert(model.clone());
                }
                KeyAnswer::Sat(Some(model))
            }
            SearchOutcome::Unsat => {
                if self.config.enable_query_cache {
                    self.query_cache
                        .insert_with_fp(fp, constraints, extra, false, None);
                }
                KeyAnswer::Unsat
            }
            SearchOutcome::Unknown => KeyAnswer::Unknown,
        }
    }

    /// Asks whether `expr` *may* be true under the constraints
    /// (feasibility), and prepares the push of `expr` that follows a
    /// feasible answer: see [`Probed`] and [`ConstraintSet::push_probed`].
    ///
    /// Only the groups `expr` touches are consulted: the engine keeps every
    /// path-constraint set satisfiable (each constraint was feasible when it
    /// was added), so the independent rest cannot change the answer.
    ///
    /// `Unknown` results are resolved according to
    /// [`SolverConfig::unknown_is_sat`].
    pub fn probe(&self, constraints: &ConstraintSet, expr: ExprRef) -> Probed {
        let site = constraints.locate(symbols_of(&expr));
        self.probe_at(constraints, site, expr)
    }

    /// [`Solver::probe`] for both sides of a branch on `cond`: `cond` and
    /// its negation mention the same symbols, so their groups are looked up
    /// once for the two questions and the one or two pushes.
    pub fn probe_branch(&self, constraints: &ConstraintSet, cond: ExprRef) -> (Probed, Probed) {
        let negated = Expr::logical_not(cond.clone());
        let site = constraints.locate(symbols_of(&cond));
        debug_assert_eq!(symbols_of(&negated), site.symbols);
        (
            self.probe_at(constraints, site.clone(), cond),
            self.probe_at(constraints, site, negated),
        )
    }

    fn probe_at(&self, constraints: &ConstraintSet, site: Site, mut expr: ExprRef) -> Probed {
        let hash = expr_hash(&expr);
        let result = self.query(constraints, |how| {
            if let Some(c) = expr.as_const() {
                return if c.is_true() {
                    self.solve_groups(constraints.groups().iter(), how)
                } else {
                    SatResult::Unsat
                };
            }
            let groups = constraints.groups();
            let bridged;
            let (fp, key): (u64, &[ExprRef]) = match *site.touched.indices() {
                [] => (0, &[]),
                [only] => (groups[only].fingerprint(), groups[only].constraints()),
                ref several => {
                    bridged = Group::merged(groups, several);
                    (bridged.fingerprint(), bridged.constraints())
                }
            };
            if key.len() < constraints.len() {
                self.stats.inc_independence_slices();
            }
            match self.solve_key(roll(fp, hash), key, Some(&mut expr), false, how) {
                // Feasibility callers discard the model; an empty
                // placeholder is enough.
                KeyAnswer::Sat(_) => SatResult::Sat(Assignment::new()),
                KeyAnswer::Unsat => SatResult::Unsat,
                KeyAnswer::Unknown => SatResult::Unknown,
            }
        });
        let feasible = match result {
            SatResult::Sat(_) => true,
            SatResult::Unsat => false,
            SatResult::Unknown => self.config.unknown_is_sat,
        };
        Probed {
            feasible,
            constraint: expr,
            hash,
            site,
        }
    }

    /// Whether `expr` *may* be true under the constraints (feasibility):
    /// the answer of [`Solver::probe`] alone.
    pub fn may_be_true(&self, constraints: &ConstraintSet, expr: ExprRef) -> bool {
        self.probe(constraints, expr).feasible
    }

    /// Whether `expr` *must* be true under the constraints (validity).
    pub fn must_be_true(&self, constraints: &ConstraintSet, expr: ExprRef) -> bool {
        !self.may_be_true(constraints, Expr::logical_not(expr))
    }

    /// Classifies `expr` as valid, unsatisfiable, or neither.
    pub fn validity(&self, constraints: &ConstraintSet, expr: ExprRef) -> Validity {
        let (can_be_true, can_be_false) = self.probe_branch(constraints, expr);
        match (can_be_true.feasible, can_be_false.feasible) {
            (true, false) => Validity::True,
            (false, true) => Validity::False,
            _ => Validity::Unknown,
        }
    }

    /// Produces a model of the constraint set (a concrete test case).
    pub fn get_model(&self, constraints: &ConstraintSet) -> Option<Assignment> {
        self.check_sat(constraints).model()
    }

    /// Produces one concrete value that `expr` can take under the
    /// constraints: its value under the canonical model, of which only the
    /// groups `expr` touches are solved.
    pub fn get_value(&self, constraints: &ConstraintSet, expr: &ExprRef) -> Option<u64> {
        if let Some(c) = expr.as_const() {
            return Some(c.value());
        }
        let Site {
            symbols, touched, ..
        } = constraints.locate(symbols_of(expr));
        let result = self.query(constraints, |how| {
            let touched = touched.indices().iter().map(|&i| &constraints.groups()[i]);
            let used: usize = touched.clone().map(|g| g.constraints().len()).sum();
            if used < constraints.len() {
                self.stats.inc_independence_slices();
            }
            self.solve_groups(touched, how)
        });
        let mut model = result.model()?;
        // Symbols of the query that the path constraints do not mention are
        // unconstrained; bind them to zero so the evaluation is total.
        for sym in symbols.iter() {
            if model.get(*sym).is_none() {
                model.set(*sym, 0);
            }
        }
        expr.eval(&model).map(|v| v.value())
    }
}

/// The answer to one cache key. A sat answer carries the canonical model
/// when the caller asked for it.
enum KeyAnswer {
    Sat(Option<Arc<Assignment>>),
    Unsat,
    Unknown,
}

/// What answered a public call, ordered so the maximum over the call's
/// group lookups is the call's: a cache hit is only counted when no group
/// needed a search.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum AnsweredBy {
    /// No lookup was needed (trivial answer, or no group to consult).
    Nothing,
    QueryCache,
    Witness,
    Search,
}

fn learn_widths_rec(e: &ExprRef, widths: &mut BTreeMap<SymbolId, Width>) {
    use c9_expr::ExprKind;
    match e.kind() {
        ExprKind::Sym(id) => {
            widths.insert(*id, e.width());
        }
        ExprKind::Const(_) => {}
        ExprKind::Unary(_, a) | ExprKind::ZExt(a) | ExprKind::SExt(a) | ExprKind::Extract(a, _) => {
            learn_widths_rec(a, widths)
        }
        ExprKind::Binary(_, a, b) | ExprKind::Concat(a, b) => {
            learn_widths_rec(a, widths);
            learn_widths_rec(b, widths);
        }
        ExprKind::Ite(c, t, f) => {
            learn_widths_rec(c, widths);
            learn_widths_rec(t, widths);
            learn_widths_rec(f, widths);
        }
    }
}
