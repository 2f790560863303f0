//! The eager fork the pending siblings replaced, kept as the reference they
//! are compared against: every sibling a fork leaves pending must
//! materialize into the state the eager fork built straight away — a full
//! copy of the state at the fork point with the decision applied — with the
//! same id, path, constraints, registers, environment, statistics and
//! searcher metadata.
//!
//! The property drives the real executor over generated programs that fork
//! on symbolic branches, at fork-all schedule points, over fragmented reads
//! (up to eight alternatives, each with an environment update and a guest
//! write) and over constraint-guarded fault-injection alternatives. A
//! generated order decides which siblings materialize at once and which
//! stay pending on the exploration stack while their fork's stepped state
//! keeps running, so the shared snapshot is both copied and taken, and is
//! checked not to see what the stepped state does after the fork.

use crate::env::{
    EnvState, Environment, GuestWrite, SyscallAlternative, SyscallContext, SyscallEffect,
};
use crate::errors::TerminationReason;
use crate::executor::{Executor, ExecutorConfig, StepResult};
use crate::pending::{Candidate, Decision};
use crate::searcher::StateMeta;
use crate::state::{ExecutionState, PathChoice, StateId, StateIdGen};
use crate::sysno;
use crate::value::{ByteValue, Value};
use c9_expr::{Expr, Width};
use c9_ir::{BinaryOp, Operand, Program, ProgramBuilder};
use c9_solver::Solver;
use proptest::prelude::*;
use std::any::Any;
use std::sync::Arc;

/// The sibling the eager fork built: `parent.fork(id)`, then the decision.
fn eager_sibling(parent: &ExecutionState, id: StateId, decision: &Decision) -> ExecutionState {
    let mut sibling = parent.fork(id);
    match decision.clone() {
        Decision::Branch { probed, target } => {
            sibling.add_probed(probed);
            sibling.record_choice(PathChoice::Branch(false));
            let frame = sibling.thread_mut().top_frame_mut().expect("active frame");
            frame.block = target;
            frame.instr_idx = 0;
        }
        Decision::Schedule {
            thread,
            chosen,
            total,
        } => {
            sibling.current_thread = thread;
            sibling.record_choice(PathChoice::Alt { chosen, total });
        }
        Decision::Syscall {
            dst,
            chosen,
            total,
            retval,
            probed,
            update,
            output,
        } => {
            if let Some(probed) = probed {
                sibling.add_probed(*probed);
            }
            sibling.write_reg(dst, retval);
            sibling.record_choice(PathChoice::Alt { chosen, total });
            if let Some(update) = update {
                update(sibling.env.as_deref_mut().expect("environment state"));
            }
            if let Some(GuestWrite { addr, bytes }) = output.map(|o| *o) {
                let space = sibling.current_space();
                let _ = sibling.memory.write_bytes(space, addr, &bytes);
            }
        }
    }
    sibling
}

/// A fragmented read: forks over returning 1..=n bytes.
const FRAGMENT: u32 = Program::ENV_SYSCALL_BASE;
/// A fault-injection point guarded by a constraint on a symbolic byte.
const FAULT: u32 = Program::ENV_SYSCALL_BASE + 1;
/// Size of the buffer fragmented reads write into.
const READ_LEN: usize = 8;

/// The per-path data of [`ForkEnvironment`]: a read budget and a count of
/// injected faults, which the alternatives' updates change.
#[derive(Clone, Debug)]
struct ForkEnvState {
    budget: u64,
    injected: u32,
}

impl EnvState for ForkEnvState {
    fn clone_box(&self) -> Box<dyn EnvState> {
        Box::new(self.clone())
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// An environment whose two syscalls fork the way the POSIX model's
/// fragmented reads and fault injection do.
struct ForkEnvironment;

impl Environment for ForkEnvironment {
    fn create_state(&self) -> Box<dyn EnvState> {
        Box::new(ForkEnvState {
            budget: 1_000,
            injected: 0,
        })
    }

    fn syscall(
        &self,
        _ctx: &mut SyscallContext<'_>,
        nr: u32,
        args: &[Value],
    ) -> Result<SyscallEffect, TerminationReason> {
        let alternatives = match nr {
            FRAGMENT => {
                let addr = args[0].as_u64().expect("concrete buffer");
                let n = args[1].as_u64().expect("concrete length");
                (1..=n)
                    .map(|k| {
                        SyscallAlternative::new("frag", Value::concrete(k, Width::W64))
                            .with_update(move |env| {
                                env.downcast_mut::<ForkEnvState>().budget -= k;
                            })
                            .with_output(addr, vec![ByteValue::Concrete(k as u8); k as usize])
                    })
                    .collect()
            }
            FAULT => {
                let byte = args[0].to_expr();
                let bound = Expr::const_(args[1].as_u64().expect("concrete bound"), Width::W8);
                let ok = Expr::ult(byte.clone(), bound.clone());
                let fault = Expr::ule(bound, byte);
                vec![
                    SyscallAlternative::with_constraint("ok", ok, Value::concrete(0, Width::W64)),
                    SyscallAlternative::with_constraint(
                        "fault",
                        fault,
                        Value::concrete(u64::MAX, Width::W64),
                    )
                    .with_update(|env| env.downcast_mut::<ForkEnvState>().injected += 1),
                ]
            }
            _ => return Err(TerminationReason::Bug(crate::BugKind::UnknownSyscall(nr))),
        };
        Ok(SyscallEffect::Fork(alternatives))
    }
}

/// One step of a generated program.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// A two-way branch on `input[byte] < bound`.
    Branch { byte: usize, bound: u8 },
    /// A fragmented read offering `ways` lengths.
    Fragment { ways: u32 },
    /// A fault-injection point guarded by `input[byte] < bound`.
    Fault { byte: usize, bound: u8 },
    /// A preemption point.
    Preempt,
}

/// Symbolic input bytes of a generated program.
const INPUT: usize = 3;

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..INPUT, any::<u8>()).prop_map(|(byte, bound)| Op::Branch { byte, bound }),
        (2u32..=8).prop_map(|ways| Op::Fragment { ways }),
        // Bounds 0 and 255 make one side of the guard infeasible, or the
        // other trivially so.
        (0..INPUT, prop_oneof![Just(0u8), Just(255u8), any::<u8>()])
            .prop_map(|(byte, bound)| Op::Fault { byte, bound }),
        Just(Op::Preempt),
    ]
}

/// `main` reads `INPUT` symbolic bytes after a buffer for the fragmented
/// reads, optionally switches to fork-all scheduling and starts a thread
/// that preempts twice, then runs `ops`.
fn program(ops: &[Op], fork_all: bool) -> Program {
    let mut pb = ProgramBuilder::new();
    let worker = pb.declare("worker", 1, None);
    let mut f = pb.function("main", 0, Some(Width::W32));
    let read_buf = f.alloc(Operand::word(READ_LEN as u32));
    let input = f.alloc(Operand::word(INPUT as u32));
    f.syscall(
        sysno::MAKE_SYMBOLIC,
        vec![Operand::Reg(input), Operand::word(INPUT as u32)],
    );
    if fork_all {
        f.syscall(sysno::SET_SCHEDULER, vec![Operand::word(1)]);
        f.syscall(
            sysno::THREAD_CREATE,
            vec![
                Operand::Const(u64::from(worker.0), Width::W32),
                Operand::word(0),
            ],
        );
    }
    let byte = |f: &mut c9_ir::FunctionBuilder<'_>, i: usize| {
        let addr = f.binary(BinaryOp::Add, Operand::Reg(input), Operand::word(i as u32));
        f.load(Operand::Reg(addr), Width::W8)
    };
    for op in ops {
        match *op {
            Op::Branch { byte: i, bound } => {
                let value = byte(&mut f, i);
                let cond = f.binary(BinaryOp::Ult, Operand::Reg(value), Operand::byte(bound));
                let then_bb = f.create_block();
                let next = f.create_block();
                f.branch(Operand::Reg(cond), then_bb, next);
                f.switch_to(then_bb);
                f.jump(next);
                f.switch_to(next);
            }
            Op::Fragment { ways } => {
                f.syscall(FRAGMENT, vec![Operand::Reg(read_buf), Operand::word(ways)]);
            }
            Op::Fault { byte: i, bound } => {
                let value = byte(&mut f, i);
                f.syscall(FAULT, vec![Operand::Reg(value), Operand::byte(bound)]);
            }
            Op::Preempt => {
                f.syscall(sysno::THREAD_PREEMPT, vec![]);
            }
        }
    }
    f.ret(Some(Operand::word(0)));
    let main = f.finish();
    let mut w = pb.build_declared(worker);
    w.syscall(sysno::THREAD_PREEMPT, vec![]);
    w.syscall(sysno::THREAD_PREEMPT, vec![]);
    w.ret(None);
    w.finish();
    pb.set_entry(main);
    pb.finish()
}

fn env(state: &ExecutionState) -> String {
    format!("{:?}", state.env)
}

/// Asserts that `got` is the state `want` is, in everything a sibling's
/// fork decides.
fn assert_same(got: &ExecutionState, want: &ExecutionState) {
    assert_eq!(got.id, want.id, "id");
    assert_eq!(got.path, want.path, "path of {:?}", want.id);
    assert_eq!(got.constraints, want.constraints, "constraints");
    assert_eq!(got.current_thread, want.current_thread, "current thread");
    assert_eq!(got.threads, want.threads, "threads and their registers");
    assert_eq!(got.memory, want.memory, "memory");
    assert_eq!(env(got), env(want), "env");
    assert_eq!(got.stats, want.stats, "stats, forks included");
    assert_eq!(StateMeta::of(got), StateMeta::of(want), "searcher metadata");
}

/// Explores `program` depth-first for at most `max_steps` steps and checks
/// every pending sibling against its eager reference. `keep` decides, per
/// sibling in fork order, whether it materializes at once or waits on the
/// stack. Returns the siblings checked.
fn check_exploration(program: Program, keep: &[bool], max_steps: usize) -> usize {
    let executor = Executor::new(
        Arc::new(program),
        Arc::new(Solver::new()),
        Arc::new(ForkEnvironment),
        ExecutorConfig::default(),
    );
    let mut ids = StateIdGen::new();
    let root = executor.initial_state(ids.fresh());
    let mut stack: Vec<(Candidate, Option<ExecutionState>)> =
        vec![(Candidate::Live(Box::new(root)), None)];
    let (mut steps, mut checked, mut decided) = (0, 0, 0);
    while let Some((candidate, want)) = stack.pop() {
        let pending = candidate.meta();
        let mut state = candidate.into_state();
        assert_eq!(pending, StateMeta::of(&state), "pending metadata");
        if let Some(want) = want {
            assert_same(&state, &want);
            checked += 1;
        }
        loop {
            steps += 1;
            if steps > max_steps {
                return checked;
            }
            // What no fork of these programs changes before it snapshots
            // the state, and every alternative changes after.
            let before = (state.path.clone(), state.constraints.clone(), env(&state));
            match executor.step(&mut state, &mut ids) {
                StepResult::Continue | StepResult::BugForked(_) => {}
                StepResult::Forked(siblings) => {
                    let snapshot = siblings[0].snapshot();
                    let at_fork = (
                        snapshot.path.clone(),
                        snapshot.constraints.clone(),
                        env(snapshot),
                    );
                    assert_eq!(at_fork, before, "a snapshot of the state before the fork");
                    let refs: Vec<ExecutionState> = siblings
                        .iter()
                        .map(|s| eager_sibling(s.snapshot(), s.id, s.decision()))
                        .collect();
                    for (sibling, want) in siblings.into_iter().zip(refs) {
                        assert_eq!(sibling.meta(), StateMeta::of(&want), "pending metadata");
                        assert_eq!(sibling.path(), want.path, "pending path");
                        assert_eq!(sibling.depth(), want.depth(), "pending depth");
                        let wait = keep.get(decided % keep.len().max(1)).copied();
                        decided += 1;
                        if wait.unwrap_or(false) {
                            stack.push((Candidate::Pending(sibling), Some(want)));
                        } else {
                            let got = sibling.materialize();
                            assert_same(&got, &want);
                            checked += 1;
                            stack.push((Candidate::Live(Box::new(got)), None));
                        }
                    }
                }
                StepResult::Terminated(_) => break,
            }
        }
    }
    checked
}

proptest! {
    /// Every pending sibling materializes into the eager fork's sibling.
    #[test]
    fn pending_siblings_materialize_into_the_eager_siblings(
        ops in proptest::collection::vec(op(), 1..7),
        fork_all in any::<bool>(),
        keep in proptest::collection::vec(any::<bool>(), 1..9),
    ) {
        check_exploration(program(&ops, fork_all), &keep, 3_000);
    }
}

#[test]
fn every_fork_kind_is_checked() {
    let ops = [
        Op::Branch { byte: 0, bound: 9 },
        Op::Fragment { ways: 8 },
        Op::Fault { byte: 1, bound: 7 },
        Op::Preempt,
    ];
    // Two fork-all threads, a branch, eight read lengths, two fault sides.
    let checked = check_exploration(program(&ops, true), &[true, false, false], 100_000);
    assert!(checked > 30, "{checked} siblings checked");
}
