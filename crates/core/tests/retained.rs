//! What a worker keeps once its frontier is explored, counted in live bytes.
//!
//! A worker holds its frontier (boxed states and queued jobs) and nothing
//! per explored path: a completed path is a count in its statistics. This
//! binary checks that by exhausting a program with 2^n paths at two sizes
//! and comparing the bytes still allocated afterwards.
//!
//! A test binary of its own because it replaces the global allocator with a
//! counting one. The counters are per thread (the worker runs on one
//! executor thread, the test's own), so the tests may run in parallel.

use c9_core::{Worker, WorkerConfig, WorkerId};
use c9_ir::{BinaryOp, Operand, Program, ProgramBuilder, Rvalue, Width};
use c9_vm::{
    sysno, EnvState, Environment, ExecutionState, NullEnvState, NullEnvironment, StrategyKind,
    SyscallAlternative, SyscallContext, SyscallEffect, TerminationReason, Value,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    /// Bytes this thread has allocated minus the bytes it has freed.
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

struct Counting;

fn count(delta: i64) {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = LIVE.try_with(|cell| cell.set(cell.get() + delta));
}

// SAFETY: every request is forwarded unchanged to `System`; the counting
// touches only a `const`-initialized, destructor-free thread-local `Cell`
// and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `n` independent symbolic bytes, one two-way branch on each: 2^n paths,
/// whose constraints fall into `n` one-symbol groups.
fn branching_program(n: usize) -> Program {
    let mut pb = ProgramBuilder::new();
    let mut f = pb.function("main", 0, Some(Width::W32));
    let buf = f.alloc(Operand::word(n as u32));
    f.syscall(
        sysno::MAKE_SYMBOLIC,
        vec![Operand::Reg(buf), Operand::word(n as u32)],
    );
    for i in 0..n {
        let addr = f.binary(BinaryOp::Add, Operand::Reg(buf), Operand::word(i as u32));
        let byte = f.load(Operand::Reg(addr), Width::W8);
        let cond = f.binary(
            BinaryOp::Ult,
            Operand::Reg(byte),
            Operand::byte(32 + i as u8),
        );
        let then_bb = f.create_block();
        let next = f.create_block();
        f.branch(Operand::Reg(cond), then_bb, next);
        f.switch_to(then_bb);
        f.jump(next);
        f.switch_to(next);
    }
    f.ret(Some(Operand::word(0)));
    let main = f.finish();
    pb.set_entry(main);
    pb.finish()
}

/// Exhausts `branching_program(n)` under DFS on one thread and returns the
/// paths it completed and the bytes the worker (with its solver) still
/// holds afterwards, counted from before the worker was created.
fn exhaust(n: usize) -> (u64, i64) {
    let program = Arc::new(branching_program(n));
    let config = WorkerConfig {
        strategy: StrategyKind::Dfs,
        threads: 1,
        ..WorkerConfig::default()
    };
    let before = LIVE.with(Cell::get);
    let mut worker = Worker::new(WorkerId(0), program, Arc::new(NullEnvironment), config);
    worker.seed_root();
    while worker.has_work() {
        worker.run_quantum(10_000);
    }
    let live = LIVE.with(Cell::get) - before;
    assert_eq!(worker.queue_length(), 0);
    (worker.stats.paths_completed, live)
}

#[test]
fn retained_bytes_do_not_grow_with_the_paths_explored() {
    let (small_paths, small) = exhaust(10);
    let (large_paths, large) = exhaust(14);
    assert_eq!((small_paths, large_paths), (1 << 10, 1 << 14));
    // Sixteen times the paths may cost the few bytes a deeper program and
    // its longer DFS stack take, not a record per path: at ~129 B a path,
    // 15 360 more paths would be ~2 MB.
    assert!(
        large - small <= 64 << 10,
        "{small} B live after {small_paths} paths, {large} B after {large_paths}"
    );
}

/// An environment whose one syscall forks eight ways.
struct EightWays;

impl Environment for EightWays {
    fn create_state(&self) -> Box<dyn EnvState> {
        Box::new(NullEnvState)
    }

    fn syscall(
        &self,
        _ctx: &mut SyscallContext<'_>,
        _nr: u32,
        _args: &[Value],
    ) -> Result<SyscallEffect, TerminationReason> {
        let ways = (1..=8).map(|k| SyscallAlternative::new("", Value::concrete(k, Width::W64)));
        Ok(SyscallEffect::Fork(ways.collect()))
    }
}

/// Forks eight ways, branches on a symbolic byte, then counts to 10 000:
/// a quantum of 200 instructions leaves seven pending siblings at depth 1
/// sharing one snapshot, the branch's pending sibling at depth 2, and the
/// running state at depth 2.
fn wide_fork_program() -> Program {
    let mut pb = ProgramBuilder::new();
    let mut f = pb.function("main", 0, Some(Width::W32));
    let buf = f.alloc(Operand::word(1));
    f.syscall(
        sysno::MAKE_SYMBOLIC,
        vec![Operand::Reg(buf), Operand::word(1)],
    );
    f.syscall(Program::ENV_SYSCALL_BASE, vec![]);
    let byte = f.load(Operand::Reg(buf), Width::W8);
    let cond = f.binary(BinaryOp::Ult, Operand::Reg(byte), Operand::byte(10));
    let (then_bb, loop_bb, done_bb) = (f.create_block(), f.create_block(), f.create_block());
    f.branch(Operand::Reg(cond), then_bb, loop_bb);
    f.switch_to(then_bb);
    f.jump(loop_bb);
    f.switch_to(loop_bb);
    let counter = f.copy(Operand::word(0));
    let body = f.create_block();
    f.jump(body);
    f.switch_to(body);
    let next = f.binary(BinaryOp::Add, Operand::Reg(counter), Operand::word(1));
    f.assign_to(counter, Rvalue::Use(Operand::Reg(next)));
    let more = f.binary(BinaryOp::Ult, Operand::Reg(counter), Operand::word(10_000));
    f.branch(Operand::Reg(more), body, done_bb);
    f.switch_to(done_bb);
    f.ret(Some(Operand::word(0)));
    let main = f.finish();
    pb.set_entry(main);
    pb.finish()
}

/// Bytes freed by exporting the `count` shallowest candidates after the
/// first quantum of `wide_fork_program`, with the jobs dropped.
fn freed_by_exporting(count: u64) -> i64 {
    let config = WorkerConfig {
        strategy: StrategyKind::Dfs,
        threads: 1,
        ..WorkerConfig::default()
    };
    let program = Arc::new(wide_fork_program());
    let mut worker = Worker::new(WorkerId(0), program, Arc::new(EightWays), config);
    worker.seed_root();
    worker.run_quantum(200);
    assert_eq!(
        worker.queue_length(),
        9,
        "7 + 1 pending siblings, 1 running state"
    );
    let before = LIVE.with(Cell::get);
    let jobs = worker.export_jobs(count);
    assert!(
        jobs.iter().all(|job| job.path.len() == 1),
        "the fork's siblings"
    );
    drop(jobs);
    before - LIVE.with(Cell::get)
}

#[test]
fn exporting_every_pending_sibling_of_a_fork_frees_its_snapshot() {
    let six = freed_by_exporting(6);
    let seven = freed_by_exporting(7);
    // The seventh export takes the snapshot with it: at least the state
    // struct itself, on top of one more frontier entry.
    let state = std::mem::size_of::<ExecutionState>() as i64;
    assert!(
        seven - six >= state,
        "{six} B freed exporting six of seven siblings, {seven} B exporting all seven"
    );
}
