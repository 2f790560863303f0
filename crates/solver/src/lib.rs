//! Bit-vector constraint solver for Cloud9-RS.
//!
//! The symbolic execution engine accumulates *path constraints* — 1-bit
//! expressions over the symbolic program inputs — and needs to answer three
//! kinds of questions about them:
//!
//! * **feasibility** — can this branch condition be true given the current
//!   path constraints? ([`Solver::may_be_true`])
//! * **validity** — is this condition true on *every* input admitted by the
//!   path constraints? ([`Solver::must_be_true`])
//! * **model generation** — produce one concrete input that satisfies the
//!   path constraints, i.e. a test case ([`Solver::model_values`]).
//!
//! The solver is purpose-built for the constraints produced by the Cloud9-RS
//! targets (byte-granular parser and protocol constraints): it combines
//! construction-time simplification (done in [`c9_expr`]), a partition of
//! every path condition into independent constraint groups (maintained by
//! [`ConstraintSet::push`], so each group is solved, fingerprinted and cached
//! on its own), per-symbol domain refinement, and a budgeted backtracking
//! search with partial-evaluation pruning. Query results and models are
//! cached per group, and
//! the cache behaviour mirrors the "constraint caches" discussion in §6 of
//! the Cloud9 paper: a state migrated to another worker arrives without its
//! cache, which is then rebuilt as a side effect of path replay.
//!
//! # Examples
//!
//! ```
//! use c9_expr::{Expr, SymbolManager, Width};
//! use c9_solver::{ConstraintSet, SatResult, Solver};
//!
//! let mut syms = SymbolManager::new();
//! let x = syms.fresh("x", Width::W8);
//! let xe = Expr::sym(x, Width::W8);
//!
//! let mut pc = ConstraintSet::new();
//! pc.push(Expr::ult(xe.clone(), Expr::const_(10, Width::W8)));
//! pc.push(Expr::ne(xe.clone(), Expr::const_(0, Width::W8)));
//!
//! let solver = Solver::new();
//! match solver.check_sat(&pc) {
//!     SatResult::Sat(model) => {
//!         let v = model.get(x).unwrap();
//!         assert!(v > 0 && v < 10);
//!     }
//!     other => panic!("expected sat, got {other:?}"),
//! }
//! ```

mod cache;
mod constraint;
mod domain;
mod search;
#[cfg(test)]
mod search_reference;
mod solver;
mod stats;

pub use cache::{
    CacheHit, CachedQueries, CachedQuery, FingerprintHasher, FingerprintMap, QueryCache,
    ShardedQueryCache, QUERY_CACHE_SHARDS,
};
pub use constraint::{ConstraintSet, Group, Probed};
pub use domain::{refine_domains, Domain};
pub use search::{search, SearchBudget, SearchOutcome, Searched};
pub use solver::{SatResult, Solver, SolverConfig, Validity};
pub use stats::{AtomicSolverStats, SolverStats};

#[cfg(test)]
mod tests;
