//! Constraint sets: path constraints partitioned into independent groups.
//!
//! Two constraints are *dependent* if they share a symbol, directly or
//! transitively through other constraints. A query only needs the
//! constraints dependent on the symbols it mentions; the rest of the path
//! condition cannot influence the answer (KLEE's independent-constraint-set
//! optimization, on which Cloud9 builds). The partition is a property of the
//! set itself, maintained by [`ConstraintSet::push`], so no query ever
//! recomputes it.

use c9_expr::{symbols_of, Assignment, BinaryOp, ExprKind, ExprRef, SymbolId, SymbolList, Width};
use std::collections::hash_map::DefaultHasher;
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

/// What a group remembers about each of its constraints besides the
/// expression.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Member {
    /// `expr_hash` of the constraint, computed once when it was pushed.
    hash: u64,
    /// Position of the constraint in the owning set's insertion order.
    seq: u32,
}

/// A maximal set of mutually dependent constraints of a [`ConstraintSet`],
/// in insertion order, with everything the solver needs to key a cache
/// lookup on it without walking an expression tree.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Group {
    constraints: Vec<ExprRef>,
    /// Parallel to `constraints`.
    members: Vec<Member>,
    /// The symbols the constraints mention, sorted. Shared with the group
    /// this one was extended from when the new constraint brought none.
    symbols: Arc<[SymbolId]>,
    /// Rolling fingerprint of the members' hashes.
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

    /// The fingerprint of the constraint sequence — the one the query cache
    /// computes for the same sequence as a flat key.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The fingerprint of the group's constraints followed by `extra`.
    pub fn fingerprint_with(&self, extra: &ExprRef) -> u64 {
        roll(self.fingerprint, expr_hash(extra))
    }

    /// Whether the group mentions any of `symbols` (sorted).
    fn touches(&self, symbols: &[SymbolId]) -> bool {
        symbols
            .iter()
            .any(|s| self.symbols.binary_search(s).is_ok())
    }

    /// A copy of the group with `constraint` appended, built in one pass:
    /// each list is allocated once, with room for the new element.
    fn extended(&self, constraint: ExprRef, member: Member, symbols: &[SymbolId]) -> Group {
        fn with_room<T: Clone>(list: &[T]) -> Vec<T> {
            let mut copy = Vec::with_capacity(list.len() + 1);
            copy.extend_from_slice(list);
            copy
        }
        let mut next = Group {
            constraints: with_room(&self.constraints),
            members: with_room(&self.members),
            symbols: self.symbols.clone(),
            fingerprint: self.fingerprint,
        };
        next.append(constraint, member, symbols);
        next
    }

    fn append(&mut self, constraint: ExprRef, member: Member, symbols: &[SymbolId]) {
        self.constraints.push(constraint);
        self.members.push(member);
        self.fingerprint = roll(self.fingerprint, member.hash);
        if self.symbols.is_empty() {
            // A group's first constraint: no list to merge into.
            self.symbols = symbols.into();
        } else if symbols
            .iter()
            .any(|s| self.symbols.binary_search(s).is_err())
        {
            let mut all = Vec::with_capacity(self.symbols.len() + symbols.len());
            all.extend_from_slice(&self.symbols);
            for s in symbols {
                if let Err(at) = all.binary_search(s) {
                    all.insert(at, *s);
                }
            }
            self.symbols = all.into();
        }
    }

    /// The union of the groups at `picked` positions of one set's `groups`,
    /// with the constraints back in the set's insertion order.
    pub(crate) fn merged(groups: &[Arc<Group>], picked: &[usize]) -> Group {
        let mut members: Vec<(Member, &ExprRef)> = picked
            .iter()
            .flat_map(|&i| {
                groups[i]
                    .members
                    .iter()
                    .copied()
                    .zip(&groups[i].constraints)
            })
            .collect();
        members.sort_unstable_by_key(|m| m.0.seq);
        let mut symbols: Vec<SymbolId> = picked
            .iter()
            .flat_map(|&i| groups[i].symbols.iter().copied())
            .collect();
        symbols.sort_unstable();
        Group {
            constraints: members.iter().map(|m| m.1.clone()).collect(),
            fingerprint: members.iter().fold(0, |fp, m| roll(fp, m.0.hash)),
            members: members.iter().map(|m| m.0).collect(),
            symbols: symbols.into(),
        }
    }
}

/// The groups of a set that a constraint's symbols reach, by position.
#[derive(Clone, Debug)]
pub(crate) enum Touched {
    /// None: the constraint would start a group of its own.
    None,
    One(usize),
    /// Two or more, ascending: the constraint bridges them.
    Many(Vec<usize>),
}

impl Touched {
    /// The positions of the touched groups, ascending.
    pub(crate) fn indices(&self) -> &[usize] {
        match self {
            Touched::None => &[],
            Touched::One(only) => std::slice::from_ref(only),
            Touched::Many(all) => all,
        }
    }
}

/// Where a constraint lands in a [`ConstraintSet`]: its symbols and the
/// groups they reach, found by [`ConstraintSet::locate`] once for a probe,
/// for the probe of the negation, and for the push that follows.
#[derive(Clone, Debug)]
pub(crate) struct Site {
    pub(crate) symbols: SymbolList,
    pub(crate) touched: Touched,
    /// [`ConstraintSet::fingerprint`] of the set that was searched.
    stamp: u64,
}

/// The answer of [`crate::Solver::probe`], and the argument of
/// [`ConstraintSet::push_probed`]: whether the constraint may hold, and what
/// pushing it needs — found while asking, so the push repeats none of it.
#[derive(Clone, Debug)]
pub struct Probed {
    /// Whether the constraint may be true under the set that was probed.
    pub feasible: bool,
    pub(crate) constraint: ExprRef,
    /// `expr_hash` of `constraint`.
    pub(crate) hash: u64,
    pub(crate) site: Site,
}

impl Probed {
    /// The constraint to push: structurally the expression that was probed,
    /// and on a cache hit the very `Arc` the query cache keeps in its key.
    pub fn constraint(&self) -> &ExprRef {
        &self.constraint
    }

    /// How many constraints [`ConstraintSet::push_probed`] of this probe
    /// adds to a set's [`ConstraintSet::len`]: none for a constant, one per
    /// stored conjunct of a conjunction, else one.
    pub fn stored_len(&self) -> usize {
        fn stored(constraint: &ExprRef) -> usize {
            match constraint.kind() {
                ExprKind::Const(_) => 0,
                ExprKind::Binary(BinaryOp::And, lhs, rhs) => stored(lhs) + stored(rhs),
                _ => 1,
            }
        }
        stored(&self.constraint)
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
    /// A `u32` (as a constraint's position is) so that the fingerprint
    /// below costs a state no memory.
    len: u32,
    /// Rolling fingerprint of every stored constraint in insertion order:
    /// tells a [`Site`] found in this set (or a clone) from a stale one.
    fingerprint: u64,
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
        let hash = expr_hash(&constraint);
        let site = self.locate(symbols_of(&constraint));
        self.insert(constraint, hash, site);
    }

    /// [`ConstraintSet::push`] of a constraint [`crate::Solver::probe`] has
    /// just answered for, reusing the hash, the symbols and the groups the
    /// probe found. Meant for the set that was probed or a clone of it (a
    /// fork); on any other set the groups are looked up again.
    pub fn push_probed(&mut self, probed: Probed) {
        let Probed {
            constraint,
            hash,
            site,
            ..
        } = probed;
        // Constants and conjunctions are not stored as they were probed.
        if matches!(
            constraint.kind(),
            ExprKind::Const(_) | ExprKind::Binary(BinaryOp::And, ..)
        ) {
            return self.push(constraint);
        }
        let site = if site.stamp == self.fingerprint {
            site
        } else {
            self.locate(site.symbols)
        };
        self.insert(constraint, hash, site);
    }

    /// Finds the groups mentioning any of `symbols`.
    pub(crate) fn locate(&self, symbols: SymbolList) -> Site {
        let mut touched = Touched::None;
        for i in (0..self.groups.len()).filter(|&i| self.groups[i].touches(&symbols)) {
            touched = match touched {
                Touched::None => Touched::One(i),
                Touched::One(first) => Touched::Many(vec![first, i]),
                Touched::Many(mut all) => {
                    all.push(i);
                    Touched::Many(all)
                }
            };
        }
        Site {
            symbols,
            touched,
            stamp: self.fingerprint,
        }
    }

    /// Stores a non-trivial, non-conjunction constraint at its `site`.
    fn insert(&mut self, constraint: ExprRef, hash: u64, site: Site) {
        debug_assert_eq!(site.stamp, self.fingerprint, "site of another set");
        let target = match *site.touched.indices() {
            [] => {
                self.groups.push(Arc::default());
                self.groups.len() - 1
            }
            [only] => only,
            [first, ref rest @ ..] => {
                let merged = Arc::new(Group::merged(&self.groups, site.touched.indices()));
                // The merged group starts where its earliest part did, which
                // keeps `groups` ordered by first constraint.
                self.groups[first] = merged;
                for &i in rest.iter().rev() {
                    self.groups.remove(i);
                }
                first
            }
        };
        let member = Member {
            hash,
            seq: self.len,
        };
        let group = &mut self.groups[target];
        match Arc::get_mut(group) {
            Some(unshared) => unshared.append(constraint, member, &site.symbols),
            None => *group = Arc::new(group.extended(constraint, member, &site.symbols)),
        }
        self.len = self
            .len
            .checked_add(1)
            .expect("more than u32::MAX path constraints");
        self.fingerprint = roll(self.fingerprint, hash);
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

    /// The groups mentioning any of `symbols` (sorted) — all a query over
    /// those symbols needs.
    pub fn groups_touching<'a>(
        &'a self,
        symbols: &'a [SymbolId],
    ) -> impl Iterator<Item = &'a Arc<Group>> {
        self.groups.iter().filter(move |g| g.touches(symbols))
    }

    /// Number of (non-trivial) constraints.
    pub fn len(&self) -> usize {
        self.len as usize
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
