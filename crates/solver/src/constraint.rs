//! Constraint sets: path constraints partitioned into independent groups.
//!
//! Two constraints are *dependent* if they share a symbol, directly or
//! transitively through other constraints. A query only needs the
//! constraints dependent on the symbols it mentions; the rest of the path
//! condition cannot influence the answer (KLEE's independent-constraint-set
//! optimization, on which Cloud9 builds). The partition is a property of the
//! set itself, maintained by [`ConstraintSet::push`], so no query ever
//! recomputes it.

use c9_expr::{collect_symbols, Assignment, BinaryOp, Expr, ExprKind, ExprRef, SymbolId, Width};
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Structural hash of one expression tree. Uses a fixed-key hasher, so the
/// value agrees across workers and processes.
pub(crate) fn expr_hash(e: &ExprRef) -> u64 {
    let mut h = DefaultHasher::new();
    e.hash(&mut h);
    h.finish()
}

/// One step of the rolling fingerprint of a constraint sequence: the
/// fingerprint of `seq ++ [e]` is `roll(fingerprint(seq), expr_hash(e))`, and
/// the empty sequence has fingerprint 0.
pub(crate) fn roll(fp: u64, hash: u64) -> u64 {
    (fp.rotate_left(5) ^ hash).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// A maximal set of mutually dependent constraints of a [`ConstraintSet`],
/// in insertion order, with everything the solver needs to key a cache
/// lookup on it without walking an expression tree.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Group {
    constraints: Vec<ExprRef>,
    /// `expr_hash` of each constraint, computed once when it was pushed.
    hashes: Vec<u64>,
    /// Position of each constraint in the owning set's insertion order.
    seqs: Vec<u32>,
    /// The symbols the constraints mention, sorted.
    symbols: Vec<SymbolId>,
    /// Rolling fingerprint of `hashes`.
    fingerprint: u64,
}

impl Group {
    /// The constraints of the group, in insertion order.
    pub fn constraints(&self) -> &[ExprRef] {
        &self.constraints
    }

    /// The symbols mentioned by the group's constraints, sorted.
    pub fn symbols(&self) -> &[SymbolId] {
        &self.symbols
    }

    /// The fingerprint of the constraint sequence — what
    /// [`crate::SliceEntry::fingerprint`] computes for the same sequence.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The fingerprint of the group's constraints followed by `extra`.
    pub fn fingerprint_with(&self, extra: &ExprRef) -> u64 {
        roll(self.fingerprint, expr_hash(extra))
    }

    fn touches(&self, symbols: &BTreeSet<SymbolId>) -> bool {
        symbols
            .iter()
            .any(|s| self.symbols.binary_search(s).is_ok())
    }

    fn append(&mut self, constraint: ExprRef, seq: u32, symbols: &BTreeSet<SymbolId>) {
        let hash = expr_hash(&constraint);
        self.constraints.push(constraint);
        self.hashes.push(hash);
        self.seqs.push(seq);
        self.fingerprint = roll(self.fingerprint, hash);
        for s in symbols {
            if let Err(at) = self.symbols.binary_search(s) {
                self.symbols.insert(at, *s);
            }
        }
    }

    /// The union of `groups` (pairwise disjoint groups of one set), with the
    /// constraints back in the set's insertion order.
    pub(crate) fn merged(groups: &[&Arc<Group>]) -> Group {
        let mut members: Vec<(u32, u64, &ExprRef)> = groups
            .iter()
            .flat_map(|g| {
                g.seqs
                    .iter()
                    .zip(&g.hashes)
                    .zip(&g.constraints)
                    .map(|((seq, hash), c)| (*seq, *hash, c))
            })
            .collect();
        members.sort_unstable_by_key(|m| m.0);
        let mut symbols: Vec<SymbolId> = groups
            .iter()
            .flat_map(|g| g.symbols.iter().copied())
            .collect();
        symbols.sort_unstable();
        Group {
            constraints: members.iter().map(|m| m.2.clone()).collect(),
            hashes: members.iter().map(|m| m.1).collect(),
            seqs: members.iter().map(|m| m.0).collect(),
            symbols,
            fingerprint: members.iter().fold(0, |fp, m| roll(fp, m.1)),
        }
    }
}

/// A set of path constraints, partitioned into independent [`Group`]s.
///
/// Each constraint is a 1-bit expression that must be true along the current
/// execution path. Groups are shared by `Arc`: cloning the set (a state
/// fork) copies one pointer per group, and a later [`ConstraintSet::push`]
/// on either copy rebuilds only the group the new constraint lands in.
///
/// The set also tracks whether a trivially-false constraint (`false` constant)
/// was ever added, which makes the whole set unsatisfiable regardless of the
/// other constraints.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ConstraintSet {
    /// Pairwise symbol-disjoint, ordered by their first constraint.
    groups: Vec<Arc<Group>>,
    len: usize,
    trivially_false: bool,
}

impl ConstraintSet {
    /// Creates an empty (trivially satisfiable) constraint set.
    pub fn new() -> ConstraintSet {
        ConstraintSet::default()
    }

    /// Adds a constraint to the set: the groups sharing a symbol with it are
    /// merged (in insertion order) and the constraint is appended to the
    /// result.
    ///
    /// Trivially-true constraints (the constant `1`) are dropped; a
    /// trivially-false constraint marks the whole set unsatisfiable.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the constraint is not 1 bit wide.
    pub fn push(&mut self, constraint: ExprRef) {
        debug_assert_eq!(constraint.width(), Width::W1, "constraints must be boolean");
        if let Some(c) = constraint.as_const() {
            if c.is_true() {
                return;
            }
            self.trivially_false = true;
            return;
        }
        // A top-level conjunction is split into its conjuncts: the solver's
        // per-symbol pruning works best on small independent constraints.
        if let ExprKind::Binary(BinaryOp::And, lhs, rhs) = constraint.kind() {
            self.push(lhs.clone());
            self.push(rhs.clone());
            return;
        }
        let symbols = collect_symbols(&constraint);
        let touched: Vec<usize> = (0..self.groups.len())
            .filter(|&i| self.groups[i].touches(&symbols))
            .collect();
        let target = match touched[..] {
            [] => {
                self.groups.push(Arc::default());
                self.groups.len() - 1
            }
            [only] => only,
            [first, ..] => {
                let parts: Vec<&Arc<Group>> = touched.iter().map(|&i| &self.groups[i]).collect();
                let merged = Arc::new(Group::merged(&parts));
                // The merged group starts where its earliest part did, which
                // keeps `groups` ordered by first constraint.
                self.groups[first] = merged;
                for &i in touched[1..].iter().rev() {
                    self.groups.remove(i);
                }
                first
            }
        };
        let seq = u32::try_from(self.len).expect("more than u32::MAX path constraints");
        Arc::make_mut(&mut self.groups[target]).append(constraint, seq, &symbols);
        self.len += 1;
    }

    /// Returns a copy of this set extended with one more constraint.
    pub fn with(&self, constraint: ExprRef) -> ConstraintSet {
        let mut copy = self.clone();
        copy.push(constraint);
        copy
    }

    /// The independent groups, ordered by their first constraint. Groups are
    /// pairwise symbol-disjoint and together hold every constraint once.
    pub fn groups(&self) -> &[Arc<Group>] {
        &self.groups
    }

    /// The groups mentioning any of `symbols` — all a query over those
    /// symbols needs.
    pub fn groups_touching<'a>(
        &'a self,
        symbols: &'a BTreeSet<SymbolId>,
    ) -> impl Iterator<Item = &'a Arc<Group>> {
        self.groups.iter().filter(move |g| g.touches(symbols))
    }

    /// Number of (non-trivial) constraints.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set contains no constraints.
    pub fn is_empty(&self) -> bool {
        self.len == 0 && !self.trivially_false
    }

    /// Whether a constant-false constraint was added.
    pub fn is_trivially_false(&self) -> bool {
        self.trivially_false
    }

    /// Evaluates all constraints under a total assignment.
    ///
    /// Returns `None` if some constraint references an unbound symbol and the
    /// result cannot be decided.
    pub fn eval(&self, assignment: &Assignment) -> Option<bool> {
        if self.trivially_false {
            return Some(false);
        }
        let mut all_known = true;
        for c in self.iter() {
            match c.eval_bool(assignment) {
                Some(false) => return Some(false),
                Some(true) => {}
                None => all_known = false,
            }
        }
        all_known.then_some(true)
    }

    /// Builds a single conjunction expression of all constraints (used mainly
    /// for diagnostics).
    pub fn as_conjunction(&self) -> ExprRef {
        if self.trivially_false {
            return Expr::false_();
        }
        self.iter()
            .fold(Expr::true_(), |acc, c| Expr::logical_and(acc, c.clone()))
    }

    /// Iterates over the constraints, group by group.
    pub fn iter(&self) -> impl Iterator<Item = &ExprRef> {
        self.groups.iter().flat_map(|g| g.constraints.iter())
    }
}

impl FromIterator<ExprRef> for ConstraintSet {
    fn from_iter<T: IntoIterator<Item = ExprRef>>(iter: T) -> ConstraintSet {
        let mut set = ConstraintSet::new();
        for c in iter {
            set.push(c);
        }
        set
    }
}
