//! The solver facade used by the symbolic execution engine.

use crate::cache::{CacheHit, CachedQueries, ShardedQueryCache};
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
    /// Maximum number of entries in the query cache.
    pub query_cache_capacity: usize,
    /// When a query cannot be decided within budget, treat the branch as
    /// feasible (`true`, the conservative choice used by the engine) or
    /// infeasible (`false`).
    pub unknown_is_sat: bool,
}

impl Default for SolverConfig {
    fn default() -> SolverConfig {
        SolverConfig {
            budget: SearchBudget::default(),
            enable_query_cache: true,
            query_cache_capacity: 16_384,
            unknown_is_sat: true,
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
/// (lock-striped query cache, atomic statistics), so every executor thread
/// of a Cloud9 worker shares one solver instance — and one warm cache —
/// instead of rebuilding a private cache per thread.
///
/// # Determinism
///
/// Every answer is computed per independent [`Group`] of the constraint
/// set, under that group's own cache key. Model-*returning* queries
/// ([`Solver::model_values`], [`Solver::get_value`], and the public
/// [`Solver::check_sat`] entry points) always produce the *canonical*
/// model: for each group the deterministic backtracking-search result for
/// exactly that group's constraints, memoized in the query cache, merged
/// over the groups the query needs. Feasibility queries
/// ([`Solver::may_be_true`] / [`Solver::must_be_true`]) only need the
/// satisfiability bit. Since satisfiability bits and canonical models are
/// pure functions of a group's constraints, every value that can influence
/// the shape of the execution tree is independent of thread interleaving —
/// which is what keeps exhaustive path sets identical across `--threads`
/// settings.
#[derive(Debug)]
pub struct Solver {
    config: SolverConfig,
    query_cache: ShardedQueryCache,
    stats: AtomicSolverStats,
    /// Wall-clock latency of every query, in microseconds, by who answered
    /// it: the query cache or no lookup at all (`probe`), or a search.
    /// Write-only from the engine's point of view — feeds worker status
    /// reports and `run_report.json`, never decisions.
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

    /// A snapshot of the solver statistics.
    pub fn stats(&self) -> SolverStats {
        self.stats.snapshot()
    }

    /// Copies out the `max` hottest query-cache keys (see
    /// [`ShardedQueryCache::hottest_keys`]).
    pub fn export_slice(&self, max: usize) -> CachedQueries {
        self.query_cache.hottest_keys(max)
    }

    /// A snapshot of the per-query latency histogram (microseconds, cache
    /// hits included): the two of [`Solver::latency_split_snapshot`] merged.
    pub fn latency_snapshot(&self) -> HistogramSnapshot {
        let (mut all, search) = self.latency_split_snapshot();
        all.merge(&search);
        all
    }

    /// Per-query latency by who answered: the queries the query cache or
    /// no lookup at all answered, and the queries for which a search ran.
    /// Every query is in exactly one of the two.
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

    /// Clears the query cache, modelling a job arriving at a fresh worker.
    pub fn clear_caches(&self) {
        self.query_cache.clear();
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
        match self.visit_group_models(groups, how, |model| {
            if merged.is_empty() {
                merged = model.clone();
            } else {
                merged.extend(model.iter());
            }
        }) {
            SatResult::Sat(_) => SatResult::Sat(merged),
            other => other,
        }
    }

    /// Solves each of `groups` under its own cache key and hands `visit`
    /// each group's canonical model where the cache keeps it. A sat answer
    /// carries an empty placeholder: the models went to `visit`.
    fn visit_group_models<'a>(
        &self,
        groups: impl Iterator<Item = &'a Arc<Group>>,
        how: &mut AnsweredBy,
        mut visit: impl FnMut(&Assignment),
    ) -> SatResult {
        for group in groups {
            match self.solve_key(group.fingerprint(), group.constraints(), None, true, how) {
                KeyAnswer::Sat(model) => {
                    visit(&model.expect("a model-returning lookup yields the model"))
                }
                KeyAnswer::Unsat => return SatResult::Unsat,
                KeyAnswer::Unknown => return SatResult::Unknown,
            }
        }
        SatResult::Sat(Assignment::new())
    }

    /// Answers one cache key — the conjunction `constraints ∧ extra`, whose
    /// fingerprint the caller rolled from a group's — through the pipeline
    /// query cache → budgeted search.
    ///
    /// `needs_model` distinguishes model-returning callers (which must get
    /// the canonical model, see the type-level documentation) from
    /// feasibility callers (which only consume the satisfiability bit and
    /// get no model).
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
                // Sat is known but no canonical model was recorded with it:
                // fall through to the search, which computes and backfills
                // it.
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

        // Full search: the backtracking search's model *is* the canonical
        // model, whether the caller asked for it or only for feasibility.
        *how = AnsweredBy::Search;
        self.stats.inc_searches();
        let working: Vec<ExprRef> = constraints.iter().chain(extra).cloned().collect();
        let symbols: BTreeSet<SymbolId> = working.iter().flat_map(collect_symbols).collect();
        let widths = self.widths_for(&working, &symbols);
        match search(&working, &widths, self.config.budget) {
            SearchOutcome::Sat(model) => {
                let model = Arc::new(model);
                if self.config.enable_query_cache {
                    // A feasibility model is worth keeping: once the engine
                    // pushes `extra`, this key is its group's.
                    self.query_cache.insert_with_fp(
                        fp,
                        constraints,
                        extra,
                        true,
                        Some(model.clone()),
                    );
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

    /// The canonical model of the constraint set as a concrete test case:
    /// `values[i]` is the value of symbol `i` for every `i < len`, zero for
    /// a symbol no constraint mentions. Each group's cached model is written
    /// straight into the vector, so no merged [`Assignment`] is built; the
    /// call is accounted as one query, exactly like [`Solver::check_sat`].
    pub fn model_values(&self, constraints: &ConstraintSet, len: usize) -> Option<Vec<u64>> {
        let mut values = vec![0; len];
        let result = self.query(constraints, |how| {
            self.visit_group_models(constraints.groups().iter(), how, |model| {
                for (sym, value) in model.iter() {
                    if let Some(slot) = values.get_mut(sym.index()) {
                        *slot = value;
                    }
                }
            })
        });
        result.is_sat().then_some(values)
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
