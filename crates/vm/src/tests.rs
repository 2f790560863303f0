//! Integration-style tests for the symbolic execution engine.

use crate::{
    sysno, BugKind, DfsSearcher, Engine, EngineConfig, Environment, ExecutionState, Executor,
    ExecutorConfig, NullEnvironment, PathChoice, StateId, StateIdGen, StepResult,
    TerminationReason,
};
use c9_ir::{AbortKind, BinaryOp, Operand, Program, ProgramBuilder, Width};
use std::sync::Arc;

fn run_program(program: Program, config: EngineConfig) -> crate::RunSummary {
    let mut engine = Engine::new(
        Arc::new(program),
        Arc::new(NullEnvironment),
        Box::new(DfsSearcher::new()),
        config,
    );
    engine.run()
}

fn run_default(program: Program) -> crate::RunSummary {
    run_program(program, EngineConfig::default())
}

/// A program with `n` symbolic input bytes; each byte is compared against a
/// distinct constant, giving 2^n paths.
pub(crate) fn branching_program(n: usize) -> Program {
    let mut pb = ProgramBuilder::new();
    pb.set_name("branching");
    let mut f = pb.function("main", 0, Some(Width::W32));
    let buf = f.alloc(Operand::word(n as u32));
    f.syscall(
        sysno::MAKE_SYMBOLIC,
        vec![Operand::Reg(buf), Operand::word(n as u32)],
    );
    let counter = f.copy(Operand::word(0));
    let mut next = f.create_block();
    for i in 0..n {
        let addr = f.binary(BinaryOp::Add, Operand::Reg(buf), Operand::word(i as u32));
        let byte = f.load(Operand::Reg(addr), Width::W8);
        let cond = f.binary(
            BinaryOp::Eq,
            Operand::Reg(byte),
            Operand::byte(b'A' + i as u8),
        );
        let then_bb = f.create_block();
        f.branch(Operand::Reg(cond), then_bb, next);
        f.switch_to(then_bb);
        let bumped = f.binary(BinaryOp::Add, Operand::Reg(counter), Operand::word(1));
        f.assign_to(counter, c9_ir::Rvalue::Use(Operand::Reg(bumped)));
        f.jump(next);
        f.switch_to(next);
        if i + 1 < n {
            next = f.create_block();
        }
    }
    f.ret(Some(Operand::Reg(counter)));
    let main = f.finish();
    pb.set_entry(main);
    pb.finish()
}

#[test]
fn concrete_program_runs_to_exit() {
    let mut pb = ProgramBuilder::new();
    let mut f = pb.function("main", 0, Some(Width::W32));
    let a = f.copy(Operand::word(20));
    let b = f.binary(BinaryOp::Mul, Operand::Reg(a), Operand::word(2));
    let c = f.binary(BinaryOp::Add, Operand::Reg(b), Operand::word(2));
    f.ret(Some(Operand::Reg(c)));
    let main = f.finish();
    pb.set_entry(main);

    let summary = run_default(pb.finish());
    assert_eq!(summary.paths_completed, 1);
    assert!(summary.exhausted);
    assert_eq!(summary.bugs.len(), 0);
    assert_eq!(
        summary.test_cases[0].termination,
        TerminationReason::Exit(42)
    );
}

#[test]
fn symbolic_branches_explore_all_paths() {
    for n in 1..=4usize {
        let summary = run_default(branching_program(n));
        assert_eq!(
            summary.paths_completed,
            1 << n,
            "expected 2^{n} paths for {n} symbolic bytes"
        );
        assert!(summary.exhausted);
    }
}

#[test]
fn test_cases_reproduce_path_constraints() {
    let summary = run_default(branching_program(3));
    // One of the paths must have all three bytes equal to 'A', 'B', 'C'.
    let all_match = summary.test_cases.iter().any(|tc| {
        let bytes = tc.bytes_with_prefix("sym0");
        bytes == vec![b'A', b'B', b'C']
    });
    assert!(all_match, "no test case drives the all-match path");
}

#[test]
fn coverage_accumulates_over_paths() {
    let summary = run_default(branching_program(2));
    assert!(summary.coverage.count() > 0);
    // Exhaustive exploration of this program covers every line.
    assert!(
        summary.coverage_ratio() > 0.95,
        "coverage {:.2} unexpectedly low",
        summary.coverage_ratio()
    );
}

#[test]
fn out_of_bounds_access_is_reported() {
    let mut pb = ProgramBuilder::new();
    let mut f = pb.function("main", 0, Some(Width::W32));
    let buf = f.alloc(Operand::word(4));
    let past_end = f.binary(BinaryOp::Add, Operand::Reg(buf), Operand::word(4));
    let _ = f.load(Operand::Reg(past_end), Width::W8);
    f.ret(Some(Operand::word(0)));
    let main = f.finish();
    pb.set_entry(main);

    let summary = run_default(pb.finish());
    assert_eq!(summary.bugs.len(), 1);
    assert!(matches!(
        summary.bugs[0].termination,
        TerminationReason::Bug(BugKind::OutOfBounds { .. })
    ));
}

#[test]
fn division_by_zero_is_reported() {
    let mut pb = ProgramBuilder::new();
    let mut f = pb.function("main", 0, Some(Width::W32));
    let d = f.binary(BinaryOp::UDiv, Operand::word(10), Operand::word(0));
    f.ret(Some(Operand::Reg(d)));
    let main = f.finish();
    pb.set_entry(main);

    let summary = run_default(pb.finish());
    assert!(matches!(
        summary.bugs[0].termination,
        TerminationReason::Bug(BugKind::DivisionByZero)
    ));
}

#[test]
fn abort_site_produces_bug_with_inputs() {
    // Crash only when the symbolic byte is '!': the generated test case must
    // contain exactly that byte.
    let mut pb = ProgramBuilder::new();
    let mut f = pb.function("main", 0, Some(Width::W32));
    let buf = f.alloc(Operand::word(1));
    f.syscall(
        sysno::MAKE_SYMBOLIC,
        vec![Operand::Reg(buf), Operand::word(1)],
    );
    let b = f.load(Operand::Reg(buf), Width::W8);
    let cond = f.binary(BinaryOp::Eq, Operand::Reg(b), Operand::byte(b'!'));
    let crash_bb = f.create_block();
    let ok_bb = f.create_block();
    f.branch(Operand::Reg(cond), crash_bb, ok_bb);
    f.switch_to(crash_bb);
    f.abort(AbortKind::Crash, "boom");
    f.switch_to(ok_bb);
    f.ret(Some(Operand::word(0)));
    let main = f.finish();
    pb.set_entry(main);

    let summary = run_default(pb.finish());
    assert_eq!(summary.paths_completed, 2);
    assert_eq!(summary.bugs.len(), 1);
    let bug = &summary.bugs[0];
    assert_eq!(bug.bytes_with_prefix("sym0"), vec![b'!']);
}

#[test]
fn assert_failure_forks_a_bug_state() {
    let mut pb = ProgramBuilder::new();
    let mut f = pb.function("main", 0, Some(Width::W32));
    let buf = f.alloc(Operand::word(1));
    f.syscall(
        sysno::MAKE_SYMBOLIC,
        vec![Operand::Reg(buf), Operand::word(1)],
    );
    let b = f.load(Operand::Reg(buf), Width::W8);
    let cond = f.binary(BinaryOp::Ult, Operand::Reg(b), Operand::byte(200));
    f.assert_(Operand::Reg(cond), "byte must be small");
    f.ret(Some(Operand::word(0)));
    let main = f.finish();
    pb.set_entry(main);

    let summary = run_default(pb.finish());
    assert_eq!(summary.bugs.len(), 1);
    // The violating test case has a byte >= 200.
    let bytes = summary.bugs[0].bytes_with_prefix("sym0");
    assert!(bytes[0] >= 200);
    // And the passing path also completed.
    assert_eq!(summary.paths_completed, 2);
}

#[test]
fn assume_prunes_paths() {
    let mut pb = ProgramBuilder::new();
    let mut f = pb.function("main", 0, Some(Width::W32));
    let buf = f.alloc(Operand::word(1));
    f.syscall(
        sysno::MAKE_SYMBOLIC,
        vec![Operand::Reg(buf), Operand::word(1)],
    );
    let b = f.load(Operand::Reg(buf), Width::W8);
    let small = f.binary(BinaryOp::Ult, Operand::Reg(b), Operand::byte(10));
    f.syscall(sysno::ASSUME, vec![Operand::Reg(small)]);
    // After the assumption, this comparison can only be true.
    let cond = f.binary(BinaryOp::Ult, Operand::Reg(b), Operand::byte(50));
    let then_bb = f.create_block();
    let else_bb = f.create_block();
    f.branch(Operand::Reg(cond), then_bb, else_bb);
    f.switch_to(then_bb);
    f.ret(Some(Operand::word(1)));
    f.switch_to(else_bb);
    f.ret(Some(Operand::word(2)));
    let main = f.finish();
    pb.set_entry(main);

    let summary = run_default(pb.finish());
    assert_eq!(summary.paths_completed, 1);
    assert_eq!(
        summary.test_cases[0].termination,
        TerminationReason::Exit(1)
    );
}

#[test]
fn infinite_loop_detected_as_hang() {
    let mut pb = ProgramBuilder::new();
    let mut f = pb.function("main", 0, Some(Width::W32));
    let loop_bb = f.create_block();
    f.jump(loop_bb);
    f.switch_to(loop_bb);
    f.jump(loop_bb);
    let main = f.finish();
    pb.set_entry(main);

    let config = EngineConfig {
        executor: ExecutorConfig {
            max_instructions_per_path: 10_000,
        },
        ..EngineConfig::default()
    };
    let summary = run_program(pb.finish(), config);
    assert_eq!(summary.paths_completed, 1);
    assert_eq!(
        summary.test_cases[0].termination,
        TerminationReason::MaxInstructions
    );
}

#[test]
fn function_calls_pass_arguments_and_return_values() {
    let mut pb = ProgramBuilder::new();
    let add = {
        let mut f = pb.function("add", 2, Some(Width::W32));
        let a = f.param(0);
        let b = f.param(1);
        let sum = f.binary(BinaryOp::Add, Operand::Reg(a), Operand::Reg(b));
        f.ret(Some(Operand::Reg(sum)));
        f.finish()
    };
    let mut f = pb.function("main", 0, Some(Width::W32));
    let r = f.call(add, vec![Operand::word(40), Operand::word(2)]);
    f.ret(Some(Operand::Reg(r)));
    let main = f.finish();
    pb.set_entry(main);

    let summary = run_default(pb.finish());
    assert_eq!(
        summary.test_cases[0].termination,
        TerminationReason::Exit(42)
    );
}

#[test]
fn runaway_recursion_is_killed() {
    let mut pb = ProgramBuilder::new();
    let rec = pb.declare("rec", 0, Some(Width::W32));
    let mut f = pb.build_declared(rec);
    let r = f.call(rec, vec![]);
    f.ret(Some(Operand::Reg(r)));
    f.finish();
    let mut m = pb.function("main", 0, Some(Width::W32));
    let r = m.call(rec, vec![]);
    m.ret(Some(Operand::Reg(r)));
    let main = m.finish();
    pb.set_entry(main);

    let summary = run_default(pb.finish());
    assert_eq!(summary.bugs.len(), 1);
}

// ---------------------------------------------------------------------------
// Threads, processes, shared memory.
// ---------------------------------------------------------------------------

/// Builds a program where a worker thread stores 7 into a shared cell and
/// notifies the main thread, which sleeps until the store happened.
fn producer_program() -> Program {
    let mut pb = ProgramBuilder::new();
    let worker = pb.declare("worker", 1, None);

    let mut f = pb.function("main", 0, Some(Width::W32));
    let cell = f.alloc(Operand::word(8));
    f.syscall(sysno::MAKE_SHARED, vec![Operand::Reg(cell)]);
    let wlist = f.syscall(sysno::GET_WLIST, vec![]);
    // Store the wait list id into the shared cell's second word so the
    // worker can find it (simple calling convention for the test).
    let wl_slot = f.binary(BinaryOp::Add, Operand::Reg(cell), Operand::word(4));
    f.store(Operand::Reg(wl_slot), Operand::Reg(wlist), Width::W32);
    f.syscall(
        sysno::THREAD_CREATE,
        vec![
            Operand::Const(u64::from(worker.0), Width::W32),
            Operand::Reg(cell),
        ],
    );
    // Wait until the worker writes a non-zero value.
    let check_bb = f.create_block();
    let sleep_bb = f.create_block();
    let done_bb = f.create_block();
    f.jump(check_bb);
    f.switch_to(check_bb);
    let v = f.load(Operand::Reg(cell), Width::W32);
    let ready = f.binary(BinaryOp::Ne, Operand::Reg(v), Operand::word(0));
    f.branch(Operand::Reg(ready), done_bb, sleep_bb);
    f.switch_to(sleep_bb);
    f.syscall(sysno::THREAD_SLEEP, vec![Operand::Reg(wlist)]);
    f.jump(check_bb);
    f.switch_to(done_bb);
    let result = f.load(Operand::Reg(cell), Width::W32);
    f.ret(Some(Operand::Reg(result)));
    let main = f.finish();

    let mut w = pb.build_declared(worker);
    let cell = w.param(0);
    w.store(Operand::Reg(cell), Operand::word(7), Width::W32);
    let wl_slot = w.binary(BinaryOp::Add, Operand::Reg(cell), Operand::word(4));
    let wlist = w.load(Operand::Reg(wl_slot), Width::W32);
    w.syscall(
        sysno::THREAD_NOTIFY,
        vec![Operand::Reg(wlist), Operand::word(1)],
    );
    w.ret(None);
    w.finish();

    pb.set_entry(main);
    pb.finish()
}

#[test]
fn threads_sleep_and_notify() {
    let summary = run_default(producer_program());
    assert_eq!(summary.paths_completed, 1);
    assert_eq!(summary.bugs.len(), 0);
    assert_eq!(
        summary.test_cases[0].termination,
        TerminationReason::Exit(7)
    );
}

#[test]
fn deadlock_is_detected() {
    // Main sleeps on a wait list nobody ever notifies.
    let mut pb = ProgramBuilder::new();
    let mut f = pb.function("main", 0, Some(Width::W32));
    let wlist = f.syscall(sysno::GET_WLIST, vec![]);
    f.syscall(sysno::THREAD_SLEEP, vec![Operand::Reg(wlist)]);
    f.ret(Some(Operand::word(0)));
    let main = f.finish();
    pb.set_entry(main);

    let summary = run_default(pb.finish());
    assert_eq!(summary.bugs.len(), 1);
    assert!(matches!(
        summary.bugs[0].termination,
        TerminationReason::Bug(BugKind::Deadlock)
    ));
}

#[test]
fn process_fork_gives_child_zero_and_parent_child_pid() {
    let mut pb = ProgramBuilder::new();
    let mut f = pb.function("main", 0, Some(Width::W32));
    let pid = f.syscall(sysno::PROCESS_FORK, vec![]);
    let is_child = f.binary(BinaryOp::Eq, Operand::Reg(pid), Operand::word(0));
    let child_bb = f.create_block();
    let parent_bb = f.create_block();
    f.branch(Operand::Reg(is_child), child_bb, parent_bb);
    f.switch_to(child_bb);
    // Child terminates its own process.
    f.syscall(sysno::PROCESS_TERMINATE, vec![Operand::word(0)]);
    f.ret(Some(Operand::word(0)));
    f.switch_to(parent_bb);
    f.ret(Some(Operand::Reg(pid)));
    let main = f.finish();
    pb.set_entry(main);

    let summary = run_default(pb.finish());
    assert_eq!(summary.paths_completed, 1);
    // The parent returns the child's pid (1).
    assert_eq!(
        summary.test_cases[0].termination,
        TerminationReason::Exit(1)
    );
}

#[test]
fn fork_all_scheduler_explores_interleavings() {
    // Two worker threads each increment a (non-shared per-thread) counter and
    // preempt; with the fork-all scheduler, every interleaving is explored, so
    // there is more than one completed path.
    let mut pb = ProgramBuilder::new();
    let worker = pb.declare("worker", 1, None);

    let mut f = pb.function("main", 0, Some(Width::W32));
    f.syscall(sysno::SET_SCHEDULER, vec![Operand::word(1)]);
    f.syscall(
        sysno::THREAD_CREATE,
        vec![
            Operand::Const(u64::from(worker.0), Width::W32),
            Operand::word(1),
        ],
    );
    f.syscall(
        sysno::THREAD_CREATE,
        vec![
            Operand::Const(u64::from(worker.0), Width::W32),
            Operand::word(2),
        ],
    );
    f.syscall(sysno::THREAD_PREEMPT, vec![]);
    f.syscall(sysno::THREAD_PREEMPT, vec![]);
    f.ret(Some(Operand::word(0)));
    let main = f.finish();

    let mut w = pb.build_declared(worker);
    w.syscall(sysno::THREAD_PREEMPT, vec![]);
    w.ret(None);
    w.finish();

    pb.set_entry(main);
    let summary = run_default(pb.finish());
    assert!(
        summary.paths_completed > 1,
        "fork-all scheduling should explore multiple interleavings, got {}",
        summary.paths_completed
    );
}

// ---------------------------------------------------------------------------
// Replay (job materialization).
// ---------------------------------------------------------------------------

#[test]
fn replaying_a_recorded_path_reaches_the_same_outcome() {
    let program = Arc::new(branching_program(3));
    let mut engine = Engine::new(
        program.clone(),
        Arc::new(NullEnvironment),
        Box::new(DfsSearcher::new()),
        EngineConfig::default(),
    );
    let summary = engine.run();
    assert_eq!(summary.paths_completed, 8);

    // Replay each recorded path on a fresh executor and check the recorded
    // path is reproduced exactly (no broken replays — the deterministic
    // allocator and symbol numbering guarantee this).
    let solver = Arc::new(c9_solver::Solver::new());
    let executor = crate::Executor::new(
        program,
        solver,
        Arc::new(NullEnvironment),
        ExecutorConfig::default(),
    );
    for tc in &summary.test_cases {
        let mut ids = StateIdGen::new();
        let id = ids.fresh();
        let mut state = executor.replay_state(id, tc.path.clone());
        loop {
            match executor.step(&mut state, &mut ids) {
                StepResult::Continue => continue,
                StepResult::Forked(_) | StepResult::BugForked(_) => continue,
                StepResult::Terminated(reason) => {
                    assert_eq!(reason, tc.termination, "replay diverged");
                    break;
                }
            }
        }
        assert_eq!(state.path, tc.path, "replayed path differs from original");
        assert!(state.stats.replay_instructions > 0);
    }
}

#[test]
fn replayed_path_counts_as_replay_work_until_path_exhausted() {
    let program = Arc::new(branching_program(2));
    let solver = Arc::new(c9_solver::Solver::new());
    let executor = crate::Executor::new(
        program,
        solver,
        Arc::new(NullEnvironment),
        ExecutorConfig::default(),
    );
    // Build a partial path: only the first decision.
    let mut ids = StateIdGen::new();
    let id = ids.fresh();
    let mut state = executor.replay_state(id, vec![PathChoice::Branch(false)]);
    // Run a handful of steps: once the replay cursor is exhausted, further
    // instructions count as useful work again.
    for _ in 0..200 {
        match executor.step(&mut state, &mut ids) {
            StepResult::Terminated(_) => break,
            _ => continue,
        }
    }
    assert!(state.stats.replay_instructions > 0);
    assert!(state.stats.instructions > 0);
}

#[test]
fn state_ids_are_unique_across_forks() {
    let summary = run_default(branching_program(4));
    // Every test case ends a distinct path.
    assert_eq!(summary.test_cases.len(), 16);
    let mut paths: Vec<_> = summary
        .test_cases
        .iter()
        .map(|tc| tc.path.clone())
        .collect();
    paths.sort();
    paths.dedup();
    assert_eq!(paths.len(), 16, "duplicate paths explored");
}

/// The execution stack must be shareable across executor threads: states
/// move between threads, and the executor (program + solver + environment)
/// is borrowed by all of them simultaneously.
#[test]
fn execution_stack_is_thread_safe() {
    fn send<T: Send>() {}
    fn send_sync<T: Send + Sync>() {}
    // Sync too: the siblings of one fork share its snapshot until each is
    // materialized, on whichever thread leases it.
    send_sync::<ExecutionState>();
    send_sync::<crate::PendingSibling>();
    send::<StateIdGen>();
    send_sync::<Executor>();
    send_sync::<std::sync::Arc<dyn Environment>>();
    send_sync::<c9_solver::Solver>();
}

#[test]
fn strided_id_generators_produce_disjoint_lanes() {
    let mut lanes: Vec<StateIdGen> = (0..4).map(|k| StateIdGen::strided(10 + k, 4)).collect();
    let mut seen = std::collections::BTreeSet::new();
    for _ in 0..32 {
        for lane in &mut lanes {
            assert!(seen.insert(lane.fresh()), "lane collision");
        }
    }
    // Stride 1 reproduces the dense single-thread sequence.
    let mut dense = StateIdGen::new();
    assert_eq!(dense.fresh(), StateId(0));
    assert_eq!(dense.fresh(), StateId(1));
    dense.advance_to(100);
    assert_eq!(dense.fresh(), StateId(100));
    dense.advance_to(50); // never moves backwards
    assert_eq!(dense.fresh(), StateId(101));
}
