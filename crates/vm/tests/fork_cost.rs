//! What a fork and the end of a path allocate, counted instead of timed.
//!
//! A test binary of its own because it replaces the global allocator with a
//! counting one. The counters are per thread, so the tests may run in
//! parallel.

use c9_expr::{Expr, SymbolManager, Width};
use c9_ir::{Operand, Program, ProgramBuilder};
use c9_solver::Solver;
use c9_vm::{
    EnvState, Environment, ExecutionState, Executor, ExecutorConfig, NullEnvState, NullEnvironment,
    PathChoice, PendingSibling, StateId, StateIdGen, StepResult, SyscallAlternative,
    SyscallContext, SyscallEffect, TerminationReason, TestCase, Value,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    /// Blocks and bytes this thread has allocated.
    static ALLOCATED: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

struct Counting;

fn count(bytes: usize) {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = ALLOCATED.try_with(|cell| {
        let (blocks, total) = cell.get();
        cell.set((blocks + 1, total + bytes as u64));
    });
}

// SAFETY: every request is forwarded unchanged to `System`; the counting
// touches only a `const`-initialized, destructor-free thread-local `Cell`
// and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `work` and returns its result with the (blocks, bytes) it allocated.
fn counted<R>(work: impl FnOnce() -> R) -> (R, (u64, u64)) {
    let before = ALLOCATED.with(Cell::get);
    let result = work();
    let after = ALLOCATED.with(Cell::get);
    (result, (after.0 - before.0, after.1 - before.1))
}

fn program() -> Program {
    let mut pb = ProgramBuilder::new();
    let mut f = pb.function("main", 0, Some(Width::W32));
    f.ret(Some(Operand::word(0)));
    let main = f.finish();
    pb.set_entry(main);
    pb.finish()
}

/// An initial state that went on to read `batches` inputs of `bytes` bytes.
fn state_with_symbols(batches: usize, bytes: usize) -> ExecutionState {
    let mut state = ExecutionState::initial(StateId(0), &program(), NullEnvironment.create_state());
    for batch in 0..batches {
        state.fresh_symbolic_bytes(&format!("packet{batch}"), bytes);
    }
    state
}

#[test]
fn a_fork_does_not_pay_for_the_symbols_it_inherits() {
    let small = state_with_symbols(20, 1);
    let large = state_with_symbols(20, 100);
    assert_eq!((small.symbols.len(), large.symbols.len()), (20, 2000));
    let (small_fork, small_cost) = counted(|| small.fork(StateId(1)));
    let (large_fork, large_cost) = counted(|| large.fork(StateId(1)));
    assert_eq!(large_cost.0, small_cost.0, "blocks allocated by a fork");
    assert!(
        large_cost.1 <= small_cost.1 + 64,
        "bytes allocated by a fork: {} with 2000 symbols, {} with 20",
        large_cost.1,
        small_cost.1
    );
    // The fork still lists every inherited symbol, under the names a test
    // case reports.
    assert_eq!(small_fork.symbols.len(), 20);
    let last = large_fork.symbols.iter().last().expect("2000 symbols");
    assert_eq!((last.id.0, last.name.as_str()), (1999, "packet19[99]"));
}

#[test]
fn cloning_a_symbol_table_allocates_nothing() {
    let large = state_with_symbols(20, 100);
    let (clone, cost) = counted(|| large.symbols.clone());
    assert_eq!(cost, (0, 0));
    assert_eq!(clone.len(), 2000);
    let (empty, cost) = counted(SymbolManager::new);
    assert_eq!(cost, (0, 0), "an empty table holds no heap memory");
    assert!(empty.is_empty());
}

#[test]
fn a_batch_of_any_length_is_a_fixed_number_of_allocations() {
    let mut symbols = SymbolManager::new();
    let (ids, short) = counted(|| symbols.fresh_bytes("packet0", 10));
    assert_eq!(ids.len(), 10);
    let (ids, long) = counted(|| symbols.fresh_bytes("packet1", 10_000));
    assert_eq!(ids.len(), 10_000);
    // The record, its base name, and the `Vec` of ids handed back.
    assert_eq!((short.0, long.0), (3, 3));
}

#[test]
fn a_deep_path_costs_a_fork_no_more_allocations_than_a_shallow_one() {
    let fork_cost_at = |depth: usize| {
        let mut state = state_with_symbols(1, 8);
        for step in 0..depth {
            state.record_choice(PathChoice::Branch(step % 2 == 0));
        }
        counted(|| state.fork(StateId(1))).1
    };
    assert_eq!(fork_cost_at(1000).0, fork_cost_at(1).0);
}

#[test]
fn a_test_case_does_not_pay_for_the_inputs_it_names() {
    // Retires a path the way a worker does with test-case generation on:
    // solve its test case, then drop the state. The first byte of every
    // batch is constrained, so the model comes from twenty groups either
    // way; a warm-up retirement of a copy fills the query cache.
    let retire_cost = |bytes: usize| {
        let mut state =
            ExecutionState::initial(StateId(0), &program(), NullEnvironment.create_state());
        for batch in 0..20 {
            let packet = state.fresh_symbolic_bytes(&format!("packet{batch}"), bytes);
            state.add_constraint(Expr::eq(packet[0].clone(), Expr::const_(batch, Width::W8)));
        }
        state.record_choice(PathChoice::Branch(true));
        state.terminate(TerminationReason::Exit(0));
        let solver = Solver::new();
        TestCase::from_state(&state.fork(StateId(1)), &solver).expect("satisfiable");
        let searches = solver.stats().searches;
        let (case, cost) = counted(move || {
            let case = TestCase::from_state(&state, &solver);
            drop(state);
            (case, solver)
        });
        let (case, solver) = case;
        assert_eq!(solver.stats().searches, searches, "answered by the cache");
        let case = case.expect("satisfiable");
        assert_eq!(case.values().len(), 20 * bytes);
        assert_eq!(case.values()[bytes], 1, "packet1[0]");
        cost
    };
    let (small, large) = (retire_cost(1), retire_cost(100));
    assert_eq!(large.0, small.0, "blocks allocated retiring a path");
    // The names are still there for whoever lists the inputs.
    let mut state = state_with_symbols(20, 100);
    state.terminate(TerminationReason::Exit(0));
    let case = TestCase::from_state(&state, &Solver::new()).expect("no constraints");
    let last = case.inputs().last().expect("2000 inputs");
    assert_eq!((last.name.as_str(), last.value), ("packet19[99]", 0));
}

/// An environment whose one syscall forks over `ways` alternatives, each
/// with an environment update, the way a fragmented read does. The
/// alternatives are built once: handing them out clones one `Vec`, so the
/// syscall itself allocates the same blocks at any width.
struct WideFork {
    alternatives: Vec<SyscallAlternative>,
}

impl WideFork {
    fn new(ways: u64) -> WideFork {
        let alternatives = (1..=ways)
            .map(|k| {
                SyscallAlternative::new("", Value::concrete(k, Width::W64)).with_update(|_| {})
            })
            .collect();
        WideFork { alternatives }
    }
}

impl Environment for WideFork {
    fn create_state(&self) -> Box<dyn EnvState> {
        Box::new(NullEnvState)
    }

    fn syscall(
        &self,
        _ctx: &mut SyscallContext<'_>,
        _nr: u32,
        _args: &[Value],
    ) -> Result<SyscallEffect, TerminationReason> {
        Ok(SyscallEffect::Fork(self.alternatives.clone()))
    }
}

/// Steps the initial state of a program whose first instruction is the
/// wide syscall, and returns the siblings and what the step allocated.
fn fork_over(ways: u64) -> (Vec<PendingSibling>, (u64, u64)) {
    let mut pb = ProgramBuilder::new();
    let mut f = pb.function("main", 0, Some(Width::W32));
    f.syscall(Program::ENV_SYSCALL_BASE, vec![]);
    f.ret(Some(Operand::word(0)));
    let main = f.finish();
    pb.set_entry(main);
    let executor = Executor::new(
        Arc::new(pb.finish()),
        Arc::new(Solver::new()),
        Arc::new(WideFork::new(ways)),
        ExecutorConfig::default(),
    );
    let mut ids = StateIdGen::new();
    let mut state = executor.initial_state(ids.fresh());
    let (result, cost) = counted(|| executor.step(&mut state, &mut ids));
    let StepResult::Forked(siblings) = result else {
        panic!("the syscall forks");
    };
    (siblings, cost)
}

#[test]
fn a_wide_syscall_fork_copies_the_state_once() {
    let (two, two_way) = fork_over(2);
    let (eight, eight_way) = fork_over(8);
    assert_eq!((two.len(), eight.len()), (1, 7));
    // One snapshot, whatever the width: only the sibling list grows.
    assert_eq!(eight_way.0, two_way.0, "blocks allocated by the fork step");
}

#[test]
fn siblings_that_never_run_cost_no_copy() {
    let (mut siblings, _) = fork_over(8);
    let last = siblings.pop().expect("seven siblings");
    // A sibling materialized while the others still hold the snapshot
    // copies it.
    let (_, copied) = counted(|| siblings.pop().expect("six left").materialize());
    // Dropping the unrun ones frees their decisions and copies nothing.
    let ((), dropped) = counted(|| drop(siblings));
    assert_eq!(dropped, (0, 0), "dropping pending siblings");
    // The last holder takes the snapshot as it is: the one block is its
    // path growing by the sibling's choice.
    let (state, taken) = counted(|| last.materialize());
    assert!(
        taken.0 <= 1 && copied.0 > taken.0 + 4,
        "blocks: {} to materialize the last holder, {} to copy",
        taken.0,
        copied.0
    );
    assert_eq!(
        state.path,
        vec![PathChoice::Alt {
            chosen: 7,
            total: 8
        }]
    );
}
