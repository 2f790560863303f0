//! What asking the solver and pushing the answer allocate, counted instead
//! of timed, and whose `Arc`s a path condition ends up holding.
//!
//! A test binary of its own because it replaces the global allocator with a
//! counting one. The counters are per thread, so the tests may run in
//! parallel.

use c9_expr::{Expr, ExprRef, SymbolId, SymbolManager, Width};
use c9_solver::{ConstraintSet, Solver, SolverConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    /// Blocks this thread has allocated, and how many of them by growing an
    /// earlier block.
    static ALLOCATED: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

struct Counting;

fn count(regrown: bool) {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = ALLOCATED.try_with(|cell| {
        let (blocks, regrowths) = cell.get();
        cell.set((blocks + 1, regrowths + u64::from(regrown)));
    });
}

// SAFETY: every request is forwarded unchanged to `System`; the counting
// touches only a `const`-initialized, destructor-free thread-local `Cell`
// and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(false);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(false);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(true);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `work` and returns its result with the (blocks, regrowths) it
/// allocated.
fn counted<R>(work: impl FnOnce() -> R) -> (R, (u64, u64)) {
    let before = ALLOCATED.with(Cell::get);
    let result = work();
    let after = ALLOCATED.with(Cell::get);
    (result, (after.0 - before.0, after.1 - before.1))
}

fn byte(sym: SymbolId) -> ExprRef {
    Expr::sym(sym, Width::W8)
}

fn constant(value: u64) -> ExprRef {
    Expr::const_(value, Width::W8)
}

/// `size` fresh bytes and a set holding one group of `size` constraints over
/// them: the first byte is below 100, every other byte is at most the first.
fn one_group(size: usize) -> (Vec<SymbolId>, ConstraintSet) {
    let bytes = SymbolManager::new().fresh_bytes("b", size);
    let mut set = ConstraintSet::new();
    set.push(Expr::ult(byte(bytes[0]), constant(100)));
    for b in &bytes[1..] {
        set.push(Expr::ule(byte(*b), byte(bytes[0])));
    }
    assert_eq!((set.groups().len(), set.len()), (1, size));
    (bytes, set)
}

#[test]
fn a_cache_hit_probe_of_one_group_allocates_nothing() {
    let (bytes, set) = one_group(40);
    let solver = Solver::new();
    let query = Expr::eq(byte(bytes[5]), constant(3));
    assert!(solver.probe(&set, query.clone()).feasible);
    let searches = solver.stats().searches;
    // The same question again, as another path would ask it: built afresh.
    let again = Expr::eq(byte(bytes[5]), constant(3));
    let (probed, cost) = counted(|| solver.probe(&set, again.clone()));
    assert_eq!(cost, (0, 0), "blocks allocated by a cache-hit probe");
    assert!(probed.feasible);
    assert_eq!(solver.stats().searches, searches, "answered by the cache");
    // What comes back to be pushed is the cache's copy, not the caller's.
    assert!(Arc::ptr_eq(probed.constraint(), &query));
    assert!(!Arc::ptr_eq(probed.constraint(), &again));
    // Both sides of a branch, once the negation has been answered too: the
    // two nodes of the negated condition (`cond ^ true`) and nothing else.
    solver.probe_branch(&set, again.clone());
    let (_, cost) = counted(|| solver.probe_branch(&set, again));
    assert_eq!(cost, (2, 0), "blocks allocated by a cache-hit branch probe");
}

#[test]
fn a_probed_push_costs_the_same_whatever_the_size_of_the_group() {
    let solver = Solver::new();
    let push_cost = |size: usize, fresh_symbol: bool| {
        let (bytes, set) = one_group(size);
        let lhs = if fresh_symbol {
            // One symbol the group has and one it has not seen.
            let other = SymbolManager::new().fresh_bytes("c", size + 1)[size];
            Expr::add(byte(bytes[1]), byte(other))
        } else {
            byte(bytes[1])
        };
        let probed = solver.probe(&set, Expr::ule(lhs, constant(7)));
        assert!(probed.feasible);
        // A fork shares the group; the push must copy it.
        let mut forked = set.clone();
        let ((), cost) = counted(|| forked.push_probed(probed));
        assert_eq!((forked.groups().len(), forked.len()), (1, size + 1));
        assert_eq!(set.len(), size, "the set forked from is untouched");
        cost
    };
    // The group, its constraint list and its per-constraint records; the
    // symbol list is shared with the group that was extended.
    assert_eq!(push_cost(5, false), (3, 0));
    assert_eq!(push_cost(40, false), (3, 0));
    assert_eq!(push_cost(400, false), (3, 0));
    // A new symbol list on top: built in a `Vec`, moved into an `Arc`.
    assert_eq!(push_cost(5, true), (5, 0));
    assert_eq!(push_cost(400, true), (5, 0));
}

#[test]
fn a_model_from_the_cache_is_not_copied_per_group() {
    let solver = Solver::new();
    let bytes = SymbolManager::new().fresh_bytes("b", 8);
    // Eight symbols in one group, and in eight.
    let mut joined = ConstraintSet::new();
    let mut apart = ConstraintSet::new();
    for (i, b) in bytes.iter().enumerate() {
        joined.push(Expr::ule(byte(*b), byte(bytes[0])));
        joined.push(Expr::ule(constant(i as u64), byte(*b)));
        apart.push(Expr::ule(constant(i as u64), byte(*b)));
    }
    assert_eq!((joined.groups().len(), apart.groups().len()), (1, 8));
    let hit_cost = |set: &ConstraintSet| {
        let cold = solver.get_model(set).expect("satisfiable");
        let searches = solver.stats().searches;
        let (warm, cost) = counted(|| solver.get_model(set));
        assert_eq!(warm, Some(cold));
        assert_eq!(solver.stats().searches, searches, "answered by the cache");
        cost
    };
    // One tree node holds the eight bindings of the model handed out; the
    // per-group models stay where the cache keeps them.
    assert_eq!(hit_cost(&joined), (1, 0));
    assert_eq!(hit_cost(&apart), (1, 0));
}

/// The conditions of one path, built from scratch on every call: some
/// feasible, some not, over two independent inputs.
fn conditions(bytes: &[SymbolId]) -> Vec<ExprRef> {
    vec![
        Expr::ult(byte(bytes[0]), constant(10)),
        Expr::eq(byte(bytes[0]), constant(20)),
        Expr::ne(byte(bytes[1]), constant(0)),
        Expr::ule(byte(bytes[0]), byte(bytes[2])),
        Expr::eq(Expr::add(byte(bytes[2]), byte(bytes[0])), constant(9)),
        Expr::ult(byte(bytes[2]), constant(3)),
        Expr::ult(byte(bytes[1]), constant(1)),
    ]
}

/// Follows `conditions` as the engine follows branches: probe, push what
/// was probed if it is feasible.
fn follow(solver: &Solver, conditions: Vec<ExprRef>) -> (Vec<bool>, ConstraintSet) {
    let mut set = ConstraintSet::new();
    let mut answers = Vec::new();
    for cond in conditions {
        let probed = solver.probe(&set, cond);
        answers.push(probed.feasible);
        if probed.feasible {
            set.push_probed(probed);
        }
    }
    (answers, set)
}

#[test]
fn paths_that_follow_cached_answers_hold_the_same_constraints() {
    let bytes = SymbolManager::new().fresh_bytes("b", 3);
    let solver = Solver::new();
    let (first_answers, first) = follow(&solver, conditions(&bytes));
    let (second_answers, second) = follow(&solver, conditions(&bytes));
    assert_eq!(first_answers, second_answers);
    assert!(first_answers.contains(&true) && first_answers.contains(&false));
    assert_eq!(first, second);
    assert!(first.len() >= 4);
    for (a, b) in first.iter().zip(second.iter()) {
        assert!(Arc::ptr_eq(a, b), "{a} is held twice");
    }

    // A cache that keeps one entry per shard, flushed between two walks of
    // the path: the second walk holds `Arc`s the cache has never seen, finds
    // its entries gone, and gets the same answers from fresh searches.
    let forgetful = Solver::with_config(SolverConfig {
        query_cache_capacity: 1,
        ..SolverConfig::default()
    });
    let (answers, set) = follow(&forgetful, conditions(&bytes));
    assert_eq!((answers, set), (first_answers.clone(), first.clone()));
    let other = SymbolManager::new().fresh_bytes("c", 4)[3];
    for value in 0..200 {
        forgetful.probe(
            &ConstraintSet::new(),
            Expr::eq(byte(other), constant(value)),
        );
    }
    let searches = forgetful.stats().searches;
    let (answers, set) = follow(&forgetful, conditions(&bytes));
    assert_eq!((answers, set), (first_answers, first));
    assert!(forgetful.stats().searches > searches, "nothing was evicted");
}

#[test]
fn a_stale_probe_is_pushed_like_a_plain_constraint() {
    let bytes = SymbolManager::new().fresh_bytes("b", 3);
    let solver = Solver::new();
    let mut probed_on = ConstraintSet::new();
    probed_on.push(Expr::ult(byte(bytes[0]), constant(10)));
    // The other set keeps the first two bytes in one group, so the groups
    // the probe found are not the groups the constraint lands in.
    let mut other = ConstraintSet::new();
    other.push(Expr::ule(byte(bytes[1]), byte(bytes[2])));
    other.push(Expr::ule(byte(bytes[0]), byte(bytes[1])));
    let cond = Expr::ult(byte(bytes[0]), constant(5));
    let mut expected = other.clone();
    expected.push(cond.clone());
    other.push_probed(solver.probe(&probed_on, cond));
    assert_eq!(other, expected);
    assert_eq!(other.groups().len(), 1);
}

#[test]
fn an_expression_node_has_not_grown() {
    // ≈ 920 k `Sym` nodes are live at the end of `lighttpd.budget`: a hash
    // or a symbol list cached per node would cost 15 MB there.
    assert_eq!(std::mem::size_of::<Expr>(), 40);
}
