//! The forking interpreter: executes one instruction of one state at a time.
//!
//! The executor is stateless apart from its configuration: all mutable
//! execution context lives in the [`ExecutionState`]. This is what allows a
//! Cloud9 worker to juggle thousands of states and to materialize transferred
//! jobs by replaying their paths with the very same stepping code.

use crate::env::{Environment, SyscallAlternative, SyscallContext, SyscallEffect};
use crate::errors::{BugKind, TerminationReason};
use crate::pending::{Decision, PendingSibling};
use crate::state::{
    ExecutionState, PathChoice, ReplayCursor, SchedulerPolicy, StateId, StateIdGen,
};
use crate::sysno;
use crate::thread::{Frame, Process, ProcessId, Thread, ThreadId, ThreadStatus, WaitListId};
use crate::value::{ByteValue, Value};
use c9_expr::{BinaryOp, Expr, ExprRef, Width};
use c9_ir::{FuncId, Instr, Operand, Program, RegId, Rvalue, Terminator};
use c9_solver::{Probed, Solver};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Maximum call-stack depth before a path is killed as a bug (guards
/// against runaway recursion in target programs).
const MAX_CALL_DEPTH: usize = 256;

/// Configuration of an [`Executor`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExecutorConfig {
    /// Maximum instructions executed along a single path before the path is
    /// terminated with [`TerminationReason::MaxInstructions`] (the hang
    /// detector of §7.3.3). Zero disables the limit.
    pub max_instructions_per_path: u64,
}

impl Default for ExecutorConfig {
    fn default() -> ExecutorConfig {
        ExecutorConfig {
            max_instructions_per_path: 5_000_000,
        }
    }
}

/// The result of stepping a state by one instruction.
#[derive(Debug)]
pub enum StepResult {
    /// The state executed one instruction and can continue.
    Continue,
    /// The state forked: it continues with the first alternative, and every
    /// other one is a sibling that must also be explored, returned pending
    /// (the fork's shared snapshot plus its decision; see [`PendingSibling`]).
    Forked(Vec<PendingSibling>),
    /// The state continues, and the step split off a sibling that
    /// terminated at birth: a feasible bug (an out-of-bounds access, a
    /// failing assertion), carrying the constraint that triggers it.
    BugForked(Box<ExecutionState>),
    /// The state terminated.
    Terminated(TerminationReason),
}

/// The symbolic interpreter for one program.
pub struct Executor {
    program: Arc<Program>,
    solver: Arc<Solver>,
    env: Arc<dyn Environment>,
    config: ExecutorConfig,
}

impl Executor {
    /// Creates an executor for `program` using `solver` for feasibility
    /// queries and `env` to model the environment.
    pub fn new(
        program: Arc<Program>,
        solver: Arc<Solver>,
        env: Arc<dyn Environment>,
        config: ExecutorConfig,
    ) -> Executor {
        Executor {
            program,
            solver,
            env,
            config,
        }
    }

    /// The program under test.
    pub fn program(&self) -> &Arc<Program> {
        &self.program
    }

    /// The solver used by this executor.
    pub fn solver(&self) -> &Arc<Solver> {
        &self.solver
    }

    /// The executor configuration.
    pub fn config(&self) -> &ExecutorConfig {
        &self.config
    }

    /// Creates the initial execution state (the root of the execution tree).
    pub fn initial_state(&self, id: StateId) -> ExecutionState {
        ExecutionState::initial(id, &self.program, self.env.create_state())
    }

    /// Creates a state that will replay `path` from the root; used to
    /// materialize a job received from another worker.
    pub fn replay_state(&self, id: StateId, path: Vec<PathChoice>) -> ExecutionState {
        let mut state = self.initial_state(id);
        state.replay = ReplayCursor::new(path);
        state
    }

    /// Executes one instruction (or terminator) of `state`.
    pub fn step(&self, state: &mut ExecutionState, ids: &mut StateIdGen) -> StepResult {
        if let Some(reason) = &state.termination {
            return StepResult::Terminated(reason.clone());
        }

        // Per-path instruction budget (hang detection).
        if self.config.max_instructions_per_path > 0
            && state.total_instructions() >= self.config.max_instructions_per_path
        {
            state.terminate(TerminationReason::MaxInstructions);
            return StepResult::Terminated(TerminationReason::MaxInstructions);
        }

        // Make sure a runnable thread is scheduled.
        if !state.thread().is_runnable() && !state.schedule_round_robin() {
            return self.no_runnable_thread(state);
        }

        // Fetch.
        let frame = match state.thread().top_frame() {
            Some(f) => f.clone_position(),
            None => {
                // A runnable thread without frames is finished.
                state.thread_mut().status = ThreadStatus::Terminated;
                return StepResult::Continue;
            }
        };
        let function = self.program.function(frame.0);
        let block = function.block(frame.1);

        // Account the instruction.
        if state.is_replaying() {
            state.stats.replay_instructions += 1;
        } else {
            state.stats.instructions += 1;
        }

        if frame.2 < block.instrs.len() {
            let instr = &block.instrs[frame.2];
            state.last_new_coverage = usize::from(state.coverage.cover(instr.line()));
            // Advance the pc before executing so calls/returns see the right
            // continuation point; sleep-with-restart rewinds explicitly.
            if let Some(f) = state.thread_mut().top_frame_mut() {
                f.instr_idx += 1;
            }
            self.exec_instr(state, instr, ids)
        } else {
            let terminator = block
                .terminator
                .as_ref()
                .expect("validated program has terminators");
            state.last_new_coverage = usize::from(state.coverage.cover(terminator.line()));
            self.exec_terminator(state, terminator, ids)
        }
    }

    // -- Thread/termination helpers ------------------------------------------

    fn no_runnable_thread(&self, state: &mut ExecutionState) -> StepResult {
        let reason = if state.sleeping_threads() > 0 {
            TerminationReason::Bug(BugKind::Deadlock)
        } else {
            let code = state.processes.first().map(|p| p.exit_code).unwrap_or(0);
            TerminationReason::Exit(code)
        };
        state.terminate(reason.clone());
        StepResult::Terminated(reason)
    }

    fn concretize(&self, state: &mut ExecutionState, value: &Value) -> u64 {
        match value.as_u64() {
            Some(v) => v,
            None => {
                let expr = value.to_expr();
                let v = self
                    .solver
                    .get_value(&state.constraints, &expr)
                    .unwrap_or(0);
                state.add_constraint(Expr::eq(expr, Expr::const_(v, value.width())));
                v
            }
        }
    }

    fn bug(&self, state: &mut ExecutionState, kind: BugKind) -> StepResult {
        let reason = TerminationReason::Bug(kind);
        state.terminate(reason.clone());
        StepResult::Terminated(reason)
    }

    /// Resolves a possibly-symbolic memory address for an access of `size`
    /// bytes. For symbolic addresses, checks whether the address can point
    /// outside the object it resolves to; if so, a terminated bug sibling
    /// carrying the out-of-bounds constraint is stored in `bug`, and
    /// the current state continues with the in-bounds (concretized) address —
    /// this is how the engine finds missing bounds checks such as the
    /// Bandicoot out-of-bounds read of §7.3.5.
    fn resolve_address(
        &self,
        state: &mut ExecutionState,
        addr_v: &Value,
        size: usize,
        ids: &mut StateIdGen,
        bug: &mut Option<Box<ExecutionState>>,
    ) -> u64 {
        let Value::Symbolic(addr_expr) = addr_v else {
            return addr_v.as_u64().unwrap_or(0);
        };
        let addr_expr = if addr_expr.width() == Width::W64 {
            addr_expr.clone()
        } else {
            Expr::zext(addr_expr.clone(), Width::W64)
        };
        // Pick one concrete solution and find the object it lands in.
        let example = self
            .solver
            .get_value(&state.constraints, &addr_expr)
            .unwrap_or(0);
        let space = state.current_space();
        if let (Some(base), Some(obj_size)) = (
            state.memory.object_base(space, example),
            state.memory.object_size(space, example),
        ) {
            if !state.is_replaying() {
                // Out of bounds iff addr < base or addr + size > base + size.
                let below = Expr::ult(addr_expr.clone(), Expr::const_(base, Width::W64));
                let last_ok = base + obj_size as u64 - size as u64;
                let above = Expr::ult(Expr::const_(last_ok, Width::W64), addr_expr.clone());
                let oob = Expr::logical_or(below, above);
                let oob = self.solver.probe(&state.constraints, oob);
                if oob.feasible {
                    let mut bug_state = state.fork(ids.fresh());
                    bug_state.add_probed(oob);
                    bug_state.terminate(TerminationReason::Bug(BugKind::OutOfBounds {
                        addr: example,
                        size,
                    }));
                    *bug = Some(Box::new(bug_state));
                }
            }
        }
        // Continue on the concretized in-bounds address.
        state.add_constraint(Expr::eq(addr_expr, Expr::const_(example, Width::W64)));
        example
    }

    // -- Value computation ----------------------------------------------------

    fn harmonize(a: Value, b: Value) -> (Value, Value) {
        let wa = a.width();
        let wb = b.width();
        if wa == wb {
            (a, b)
        } else if wa.bits() > wb.bits() {
            let b = b.zext_or_trunc(wa);
            (a, b)
        } else {
            let a = a.zext_or_trunc(wb);
            (a, b)
        }
    }

    fn eval_binary(
        &self,
        state: &mut ExecutionState,
        op: BinaryOp,
        a: Value,
        b: Value,
    ) -> Result<Value, BugKind> {
        let (a, b) = Self::harmonize(a, b);
        // Division safety: only definitely-zero divisors are reported; a
        // possibly-zero symbolic divisor is constrained to be non-zero.
        if matches!(
            op,
            BinaryOp::UDiv | BinaryOp::SDiv | BinaryOp::URem | BinaryOp::SRem
        ) {
            match b.as_u64() {
                Some(0) => return Err(BugKind::DivisionByZero),
                Some(_) => {}
                None => {
                    let divisor = b.to_expr();
                    let zero = Expr::const_(0, divisor.width());
                    let nonzero = self
                        .solver
                        .probe(&state.constraints, Expr::ne(divisor, zero));
                    if !nonzero.feasible {
                        return Err(BugKind::DivisionByZero);
                    }
                    state.add_probed(nonzero);
                }
            }
        }
        match (a.as_concrete(), b.as_concrete()) {
            (Some(ca), Some(cb)) => Ok(Value::Concrete(op.apply(ca, cb))),
            _ => Ok(Value::from_expr(Expr::binary(op, a.to_expr(), b.to_expr()))),
        }
    }

    fn eval_rvalue(&self, state: &mut ExecutionState, rv: &Rvalue) -> Result<Value, BugKind> {
        match rv {
            Rvalue::Use(a) => Ok(state.read_operand(a)),
            Rvalue::Binary(op, a, b) => {
                let va = state.read_operand(a);
                let vb = state.read_operand(b);
                self.eval_binary(state, *op, va, vb)
            }
            Rvalue::Unary(op, a) => {
                let va = state.read_operand(a);
                Ok(match va.as_concrete() {
                    Some(c) => Value::Concrete(op.apply(c)),
                    None => Value::from_expr(Expr::unary(*op, va.to_expr())),
                })
            }
            Rvalue::ZExt(a, w) => {
                let va = state.read_operand(a);
                Ok(match va.as_concrete() {
                    Some(c) => Value::Concrete(c.zext(*w)),
                    None => Value::from_expr(Expr::zext(va.to_expr(), *w)),
                })
            }
            Rvalue::SExt(a, w) => {
                let va = state.read_operand(a);
                Ok(match va.as_concrete() {
                    Some(c) => Value::Concrete(c.sext(*w)),
                    None => Value::from_expr(Expr::sext(va.to_expr(), *w)),
                })
            }
            Rvalue::Trunc(a, w) => {
                let va = state.read_operand(a);
                Ok(va.zext_or_trunc(*w))
            }
            Rvalue::Select(c, a, b) => {
                let vc = state.read_operand(c);
                let va = state.read_operand(a);
                let vb = state.read_operand(b);
                let cond = Self::to_bool_expr(&vc);
                match cond.as_const() {
                    Some(k) => Ok(if k.is_true() { va } else { vb }),
                    None => {
                        let (va, vb) = Self::harmonize(va, vb);
                        Ok(Value::from_expr(Expr::ite(
                            cond,
                            va.to_expr(),
                            vb.to_expr(),
                        )))
                    }
                }
            }
        }
    }

    /// Converts a value of any width into a 1-bit "is non-zero" expression.
    fn to_bool_expr(v: &Value) -> ExprRef {
        let e = v.to_expr();
        if e.width() == Width::W1 {
            e
        } else {
            Expr::ne(e.clone(), Expr::const_(0, e.width()))
        }
    }

    // -- Instructions ----------------------------------------------------------

    fn exec_instr(
        &self,
        state: &mut ExecutionState,
        instr: &Instr,
        ids: &mut StateIdGen,
    ) -> StepResult {
        match instr {
            Instr::Assign { dst, rvalue, .. } => match self.eval_rvalue(state, rvalue) {
                Ok(v) => {
                    state.write_reg(*dst, v);
                    StepResult::Continue
                }
                Err(bug) => self.bug(state, bug),
            },
            Instr::Load {
                dst, addr, width, ..
            } => {
                let addr_v = state.read_operand(addr);
                let mut bug = None;
                let addr_c = self.resolve_address(state, &addr_v, width.bytes(), ids, &mut bug);

                match state.memory.read(state.current_space(), addr_c, *width) {
                    Ok(v) => {
                        state.write_reg(*dst, v);
                        bug.map_or(StepResult::Continue, StepResult::BugForked)
                    }
                    Err(bug) => self.bug(state, bug),
                }
            }
            Instr::Store {
                addr, value, width, ..
            } => {
                let addr_v = state.read_operand(addr);
                let mut bug = None;
                let addr_c = self.resolve_address(state, &addr_v, width.bytes(), ids, &mut bug);
                let v = state.read_operand(value).zext_or_trunc(*width);
                let space = state.current_space();
                match state.memory.write(space, addr_c, &v, *width) {
                    Ok(()) => bug.map_or(StepResult::Continue, StepResult::BugForked),
                    Err(bug) => self.bug(state, bug),
                }
            }
            Instr::Alloc { dst, size, .. } => {
                let size_v = state.read_operand(size);
                let size_c = self.concretize(state, &size_v);
                if let Some(limit) = state.max_heap {
                    if state.memory.allocated_bytes() + size_c > limit {
                        return self.bug(
                            state,
                            BugKind::OutOfMemory {
                                requested: size_c,
                                limit,
                            },
                        );
                    }
                }
                let space = state.current_space();
                let base = state.memory.alloc(space, size_c as usize);
                state.write_reg(*dst, Value::concrete(base, Width::W64));
                StepResult::Continue
            }
            Instr::Free { addr, .. } => {
                let addr_v = state.read_operand(addr);
                let addr_c = self.concretize(state, &addr_v);
                let space = state.current_space();
                match state.memory.free(space, addr_c) {
                    Ok(()) => StepResult::Continue,
                    Err(bug) => self.bug(state, bug),
                }
            }
            Instr::Call {
                dst, func, args, ..
            } => self.exec_call(state, *dst, *func, args),
            Instr::Syscall { dst, nr, args, .. } => {
                state.stats.syscalls += 1;
                let arg_values: Vec<Value> = args.iter().map(|a| state.read_operand(a)).collect();
                if *nr < Program::ENV_SYSCALL_BASE {
                    self.engine_syscall(state, *dst, *nr, &arg_values, ids)
                } else {
                    self.env_syscall(state, *dst, *nr, &arg_values, ids)
                }
            }
            Instr::Assert { cond, message, .. } => {
                let v = state.read_operand(cond);
                let cond_expr = Self::to_bool_expr(&v);
                if let Some(c) = cond_expr.as_const() {
                    if c.is_true() {
                        return StepResult::Continue;
                    }
                    return self.bug(
                        state,
                        BugKind::AssertFailure {
                            message: message.clone(),
                        },
                    );
                }
                let violated = self
                    .solver
                    .probe(&state.constraints, Expr::logical_not(cond_expr.clone()));
                if !violated.feasible {
                    return StepResult::Continue;
                }
                // The assertion can fail for some inputs: fork a terminated
                // bug state carrying the violating constraint, and continue
                // the current state on the passing side.
                let mut bug_state = state.fork(ids.fresh());
                bug_state.add_probed(violated);
                bug_state.terminate(TerminationReason::Bug(BugKind::AssertFailure {
                    message: message.clone(),
                }));
                state.add_constraint(cond_expr);
                StepResult::BugForked(Box::new(bug_state))
            }
        }
    }

    fn exec_call(
        &self,
        state: &mut ExecutionState,
        dst: Option<RegId>,
        func: FuncId,
        args: &[Operand],
    ) -> StepResult {
        if state.thread().frames.len() >= MAX_CALL_DEPTH {
            return self.bug(
                state,
                BugKind::AssertFailure {
                    message: "call depth limit exceeded".to_string(),
                },
            );
        }
        let arg_values: Vec<Value> = args.iter().map(|a| state.read_operand(a)).collect();
        let callee = self.program.function(func);
        let mut frame = Frame::new(func, callee.entry, callee.num_regs, dst);
        for (i, v) in arg_values.into_iter().enumerate() {
            frame.regs[i] = v;
        }
        state.thread_mut().frames.push(frame);
        StepResult::Continue
    }

    // -- Terminators -----------------------------------------------------------

    fn exec_terminator(
        &self,
        state: &mut ExecutionState,
        term: &Terminator,
        ids: &mut StateIdGen,
    ) -> StepResult {
        match term {
            Terminator::Jump { target, .. } => {
                state.goto(*target);
                StepResult::Continue
            }
            Terminator::Branch {
                cond,
                then_block,
                else_block,
                ..
            } => {
                let v = state.read_operand(cond);
                let cond_expr = Self::to_bool_expr(&v);
                if let Some(c) = cond_expr.as_const() {
                    let target = if c.is_true() {
                        *then_block
                    } else {
                        *else_block
                    };
                    state.goto(target);
                    return StepResult::Continue;
                }
                self.symbolic_branch(state, cond_expr, *then_block, *else_block, ids)
            }
            Terminator::Return { value, .. } => self.exec_return(state, value.as_ref()),
            Terminator::Abort { kind, message, .. } => self.bug(
                state,
                BugKind::Abort {
                    kind: *kind,
                    message: message.clone(),
                },
            ),
        }
    }

    fn symbolic_branch(
        &self,
        state: &mut ExecutionState,
        cond: ExprRef,
        then_block: c9_ir::BlockId,
        else_block: c9_ir::BlockId,
        ids: &mut StateIdGen,
    ) -> StepResult {
        // Replay mode: follow the recorded decision without solver queries.
        if state.is_replaying() {
            let choice = state.next_replay_choice();
            return match choice {
                Some(PathChoice::Branch(taken)) => {
                    let constraint = if taken { cond } else { Expr::logical_not(cond) };
                    state.add_constraint(constraint);
                    state.record_choice(PathChoice::Branch(taken));
                    state.goto(if taken { then_block } else { else_block });
                    StepResult::Continue
                }
                other => {
                    let reason = TerminationReason::ReplayDivergence {
                        depth: state.depth(),
                        detail: format!(
                            "symbolic branch reached but the recorded decision is {other:?}"
                        ),
                    };
                    state.terminate(reason.clone());
                    StepResult::Terminated(reason)
                }
            };
        }

        let (then_side, else_side) = self.solver.probe_branch(&state.constraints, cond);
        match (then_side.feasible, else_side.feasible) {
            (true, true) => {
                let sibling = PendingSibling::new(
                    ids.fresh(),
                    Arc::new(state.clone()),
                    Decision::Branch {
                        probed: else_side,
                        target: else_block,
                    },
                );
                state.add_probed(then_side);
                state.record_choice(PathChoice::Branch(true));
                state.goto(then_block);
                StepResult::Forked(vec![sibling])
            }
            (true, false) => {
                state.add_probed(then_side);
                state.record_choice(PathChoice::Branch(true));
                state.goto(then_block);
                StepResult::Continue
            }
            (false, true) => {
                state.add_probed(else_side);
                state.record_choice(PathChoice::Branch(false));
                state.goto(else_block);
                StepResult::Continue
            }
            (false, false) => {
                let reason = TerminationReason::Infeasible;
                state.terminate(reason.clone());
                StepResult::Terminated(reason)
            }
        }
    }

    fn exec_return(&self, state: &mut ExecutionState, value: Option<&Operand>) -> StepResult {
        let retval = value.map(|v| state.read_operand(v));
        let finished_frame = state
            .thread_mut()
            .frames
            .pop()
            .expect("return without a frame");
        if state.thread().frames.is_empty() {
            // The thread's start function returned.
            let tid = state.thread().tid;
            state.thread_mut().status = ThreadStatus::Terminated;
            if tid == ThreadId(0) {
                let code = retval
                    .as_ref()
                    .and_then(|v| v.as_u64())
                    .map(|v| v as i64)
                    .unwrap_or(0);
                let reason = TerminationReason::Exit(code);
                state.terminate(reason.clone());
                return StepResult::Terminated(reason);
            }
            if !state.schedule_round_robin() {
                return self.no_runnable_thread(state);
            }
            return StepResult::Continue;
        }
        if let (Some(dst), Some(v)) = (finished_frame.return_to, retval) {
            state.write_reg(dst, v);
        }
        StepResult::Continue
    }

    // -- Engine primitives -----------------------------------------------------

    fn engine_syscall(
        &self,
        state: &mut ExecutionState,
        dst: RegId,
        nr: u32,
        args: &[Value],
        ids: &mut StateIdGen,
    ) -> StepResult {
        let arg = |i: usize| {
            args.get(i)
                .cloned()
                .unwrap_or(Value::concrete(0, Width::W64))
        };
        match nr {
            sysno::MAKE_SHARED => {
                let addr_v = arg(0);
                let addr = self.concretize(state, &addr_v);
                let space = state.current_space();
                match state.memory.make_shared(space, addr) {
                    Ok(base) => {
                        state.write_reg(dst, Value::concrete(base, Width::W64));
                        StepResult::Continue
                    }
                    Err(bug) => self.bug(state, bug),
                }
            }
            sysno::THREAD_CREATE => {
                let func_v = arg(0);
                let func_idx = self.concretize(state, &func_v) as u32;
                if func_idx as usize >= self.program.functions.len() {
                    return self.bug(state, BugKind::UnknownSyscall(nr));
                }
                let func = FuncId(func_idx);
                let callee = self.program.function(func);
                let mut frame = Frame::new(func, callee.entry, callee.num_regs, None);
                if callee.num_params >= 1 {
                    frame.regs[0] = arg(1);
                }
                let tid = ThreadId(state.threads.len() as u32);
                let pid = state.thread().pid;
                state.threads.push(Thread {
                    tid,
                    pid,
                    frames: vec![frame],
                    status: ThreadStatus::Runnable,
                    restart_syscall: false,
                });
                state.write_reg(dst, Value::concrete(u64::from(tid.0), Width::W64));
                StepResult::Continue
            }
            sysno::THREAD_TERMINATE => {
                state.thread_mut().status = ThreadStatus::Terminated;
                if !state.schedule_round_robin() {
                    return self.no_runnable_thread(state);
                }
                StepResult::Continue
            }
            sysno::PROCESS_FORK => {
                let parent_space = state.current_space();
                let child_space = state.memory.fork_space(parent_space);
                let child_pid = ProcessId(state.processes.len() as u32);
                let parent_pid = state.thread().pid;
                state.processes.push(Process {
                    pid: child_pid,
                    parent: Some(parent_pid),
                    space: child_space,
                    terminated: false,
                    exit_code: 0,
                });
                // Clone the calling thread into the child process; its saved
                // pc already points after this syscall.
                let mut child_thread = state.thread().clone();
                child_thread.tid = ThreadId(state.threads.len() as u32);
                child_thread.pid = child_pid;
                if let Some(f) = child_thread.frames.last_mut() {
                    f.regs[dst.0 as usize] = Value::concrete(0, Width::W64);
                }
                state.threads.push(child_thread);
                state.write_reg(dst, Value::concrete(u64::from(child_pid.0), Width::W64));
                StepResult::Continue
            }
            sysno::PROCESS_TERMINATE => {
                let code_v = arg(0);
                let code = self.concretize(state, &code_v) as i64;
                let pid = state.thread().pid;
                state.processes[pid.0 as usize].terminated = true;
                state.processes[pid.0 as usize].exit_code = code;
                for t in &mut state.threads {
                    if t.pid == pid {
                        t.status = ThreadStatus::Terminated;
                    }
                }
                if pid == ProcessId(0) {
                    let reason = TerminationReason::Exit(code);
                    state.terminate(reason.clone());
                    return StepResult::Terminated(reason);
                }
                if !state.schedule_round_robin() {
                    return self.no_runnable_thread(state);
                }
                StepResult::Continue
            }
            sysno::GET_CONTEXT => {
                let pid = u64::from(state.thread().pid.0);
                let tid = u64::from(state.thread().tid.0);
                state.write_reg(dst, Value::concrete((pid << 16) | tid, Width::W64));
                StepResult::Continue
            }
            sysno::THREAD_PREEMPT => {
                state.write_reg(dst, Value::concrete(0, Width::W64));
                self.preemption_point(state, ids)
            }
            sysno::THREAD_SLEEP => {
                let wlist_v = arg(0);
                let wlist = WaitListId(self.concretize(state, &wlist_v) as u32);
                state.write_reg(dst, Value::concrete(0, Width::W64));
                let tid = state.thread().tid;
                state.wait_lists.enqueue(wlist, tid);
                state.thread_mut().status = ThreadStatus::Sleeping(wlist);
                if !state.schedule_round_robin() {
                    return self.no_runnable_thread(state);
                }
                StepResult::Continue
            }
            sysno::THREAD_NOTIFY => {
                let wlist_v = arg(0);
                let wlist = WaitListId(self.concretize(state, &wlist_v) as u32);
                let all_v = arg(1);
                let all = self.concretize(state, &all_v) != 0;
                let woken = state.wait_lists.dequeue(wlist, all);
                for tid in &woken {
                    state.threads[tid.0 as usize].status = ThreadStatus::Runnable;
                }
                state.write_reg(dst, Value::concrete(woken.len() as u64, Width::W64));
                StepResult::Continue
            }
            sysno::GET_WLIST => {
                let id = state.wait_lists.create();
                state.write_reg(dst, Value::concrete(u64::from(id.0), Width::W64));
                StepResult::Continue
            }
            sysno::MAKE_SYMBOLIC => {
                let addr_v = arg(0);
                let len_v = arg(1);
                let addr = self.concretize(state, &addr_v);
                let len = self.concretize(state, &len_v) as usize;
                let name = format!("sym{}", state.symbols.len());
                let bytes = state.fresh_symbolic_bytes(&name, len);
                let data: Vec<ByteValue> = bytes.into_iter().map(ByteValue::from_expr).collect();
                let space = state.current_space();
                match state.memory.write_bytes(space, addr, &data) {
                    Ok(()) => {
                        state.write_reg(dst, Value::concrete(0, Width::W64));
                        StepResult::Continue
                    }
                    Err(bug) => self.bug(state, bug),
                }
            }
            sysno::SYMBOLIC_VALUE => {
                let bits_v = arg(0);
                let bits = self.concretize(state, &bits_v).clamp(1, 64) as u32;
                let name = format!("sym{}", state.symbols.len());
                let expr = state.fresh_symbolic(&name, Width::new(bits));
                state.write_reg(dst, Value::from_expr(expr));
                StepResult::Continue
            }
            sysno::EXIT => {
                let code_v = arg(0);
                let code = self.concretize(state, &code_v) as i64;
                let reason = TerminationReason::Exit(code);
                state.terminate(reason.clone());
                StepResult::Terminated(reason)
            }
            sysno::ASSUME => {
                let cond = Self::to_bool_expr(&arg(0));
                if let Some(c) = cond.as_const() {
                    if c.is_true() {
                        state.write_reg(dst, Value::concrete(0, Width::W64));
                        return StepResult::Continue;
                    }
                    let reason = TerminationReason::Infeasible;
                    state.terminate(reason.clone());
                    return StepResult::Terminated(reason);
                }
                let assumed = self.solver.probe(&state.constraints, cond);
                if assumed.feasible {
                    state.add_probed(assumed);
                    state.write_reg(dst, Value::concrete(0, Width::W64));
                    StepResult::Continue
                } else {
                    let reason = TerminationReason::Infeasible;
                    state.terminate(reason.clone());
                    StepResult::Terminated(reason)
                }
            }
            sysno::PRINT => {
                state.write_reg(dst, Value::concrete(0, Width::W64));
                StepResult::Continue
            }
            sysno::SET_MAX_HEAP => {
                let limit_v = arg(0);
                let limit = self.concretize(state, &limit_v);
                state.max_heap = if limit == 0 { None } else { Some(limit) };
                state.write_reg(dst, Value::concrete(0, Width::W64));
                StepResult::Continue
            }
            sysno::SET_SCHEDULER => {
                let policy_v = arg(0);
                let policy = self.concretize(state, &policy_v);
                state.scheduler = match policy {
                    0 => SchedulerPolicy::RoundRobin,
                    1 => SchedulerPolicy::ForkAll,
                    n => SchedulerPolicy::ContextBound((n - 1) as u32),
                };
                state.write_reg(dst, Value::concrete(0, Width::W64));
                StepResult::Continue
            }
            _ => self.bug(state, BugKind::UnknownSyscall(nr)),
        }
    }

    /// Handles an explicit preemption point according to the scheduling
    /// policy, possibly forking over all runnable threads.
    fn preemption_point(&self, state: &mut ExecutionState, ids: &mut StateIdGen) -> StepResult {
        state.stats.preemptions += 1;
        let runnable = state.runnable_threads();
        if runnable.len() <= 1 {
            return StepResult::Continue;
        }
        let should_fork = match state.scheduler {
            SchedulerPolicy::RoundRobin => false,
            SchedulerPolicy::ForkAll => true,
            SchedulerPolicy::ContextBound(bound) => state.stats.preemptions <= u64::from(bound),
        };
        if !should_fork {
            state.schedule_round_robin();
            return StepResult::Continue;
        }

        // Replay: follow the recorded scheduling decision.
        if state.is_replaying() {
            let choice = state.next_replay_choice();
            return match choice {
                Some(PathChoice::Alt { chosen, total }) if (chosen as usize) < runnable.len() => {
                    state.current_thread = runnable[chosen as usize];
                    state.record_choice(PathChoice::Alt { chosen, total });
                    StepResult::Continue
                }
                other => {
                    let reason = TerminationReason::ReplayDivergence {
                        depth: state.depth(),
                        detail: format!(
                            "schedule fork over {} runnable threads but the recorded \
                             decision is {other:?}",
                            runnable.len()
                        ),
                    };
                    state.terminate(reason.clone());
                    StepResult::Terminated(reason)
                }
            };
        }

        let total = runnable.len() as u32;
        let snapshot = Arc::new(state.clone());
        let siblings = runnable
            .iter()
            .enumerate()
            .skip(1)
            .map(|(i, &thread)| {
                let decision = Decision::Schedule {
                    thread,
                    chosen: i as u32,
                    total,
                };
                PendingSibling::new(ids.fresh(), snapshot.clone(), decision)
            })
            .collect();
        state.current_thread = runnable[0];
        state.record_choice(PathChoice::Alt { chosen: 0, total });
        StepResult::Forked(siblings)
    }

    // -- Environment syscalls --------------------------------------------------

    fn env_syscall(
        &self,
        state: &mut ExecutionState,
        dst: RegId,
        nr: u32,
        args: &[Value],
        ids: &mut StateIdGen,
    ) -> StepResult {
        state.thread_mut().restart_syscall = false;
        let mut env = match state.env.take() {
            Some(e) => e,
            None => return self.bug(state, BugKind::UnknownSyscall(nr)),
        };
        let effect = {
            let mut ctx = SyscallContext {
                state,
                env: env.as_mut(),
                solver: &self.solver,
            };
            self.env.syscall(&mut ctx, nr, args)
        };
        state.env = Some(env);
        match effect {
            Err(reason) => {
                state.terminate(reason.clone());
                StepResult::Terminated(reason)
            }
            Ok(SyscallEffect::Return(v)) => {
                state.write_reg(dst, v);
                StepResult::Continue
            }
            Ok(SyscallEffect::Terminate(reason)) => {
                state.terminate(reason.clone());
                StepResult::Terminated(reason)
            }
            Ok(SyscallEffect::Sleep {
                wlist,
                restart,
                retval,
            }) => {
                let tid = state.thread().tid;
                state.wait_lists.enqueue(wlist, tid);
                state.thread_mut().status = ThreadStatus::Sleeping(wlist);
                if restart {
                    // Rewind the pc so the syscall re-executes on wakeup.
                    if let Some(f) = state.thread_mut().top_frame_mut() {
                        f.instr_idx = f.instr_idx.saturating_sub(1);
                    }
                    state.thread_mut().restart_syscall = true;
                } else {
                    state.write_reg(dst, retval);
                }
                if !state.schedule_round_robin() {
                    return self.no_runnable_thread(state);
                }
                StepResult::Continue
            }
            Ok(SyscallEffect::Fork(alternatives)) => {
                self.apply_syscall_fork(state, dst, alternatives, ids)
            }
        }
    }

    fn apply_syscall_fork(
        &self,
        state: &mut ExecutionState,
        dst: RegId,
        alternatives: Vec<SyscallAlternative>,
        ids: &mut StateIdGen,
    ) -> StepResult {
        if alternatives.is_empty() {
            let reason = TerminationReason::Infeasible;
            state.terminate(reason.clone());
            return StepResult::Terminated(reason);
        }
        let total = alternatives.len() as u32;

        // Replay: take the recorded alternative.
        if state.is_replaying() {
            let choice = state.next_replay_choice();
            return match choice {
                Some(PathChoice::Alt { chosen, .. }) if (chosen as usize) < alternatives.len() => {
                    let alt = &alternatives[chosen as usize];
                    if let Some(c) = &alt.constraint {
                        state.add_constraint(c.clone());
                    }
                    state.take_alternative(
                        dst,
                        alt.retval.clone(),
                        PathChoice::Alt { chosen, total },
                        alt.apply.as_ref(),
                        alt.output.as_ref(),
                    );
                    StepResult::Continue
                }
                other => {
                    let reason = TerminationReason::ReplayDivergence {
                        depth: state.depth(),
                        detail: format!(
                            "syscall fork over {} alternatives but the recorded \
                             decision is {other:?}",
                            alternatives.len()
                        ),
                    };
                    state.terminate(reason.clone());
                    StepResult::Terminated(reason)
                }
            };
        }

        // Keep only feasible alternatives, each with what its constraint's
        // probe found for the push.
        let mut feasible: Vec<(u32, SyscallAlternative, Option<Probed>)> =
            Vec::with_capacity(alternatives.len());
        for (idx, alt) in alternatives.into_iter().enumerate() {
            let probed = alt
                .constraint
                .as_ref()
                .map(|c| self.solver.probe(&state.constraints, c.clone()));
            if probed.as_ref().is_none_or(|p| p.feasible) {
                feasible.push((idx as u32, alt, probed));
            }
        }
        if feasible.is_empty() {
            let reason = TerminationReason::Infeasible;
            state.terminate(reason.clone());
            return StepResult::Terminated(reason);
        }

        // Every alternative after the first is a sibling pending on one
        // snapshot of the state as it is now; the first continues in the
        // state.
        let mut rest = feasible.into_iter();
        let (chosen, alt, probed) = rest.next().expect("a feasible alternative");
        let siblings: Vec<PendingSibling> = if rest.len() == 0 {
            Vec::new()
        } else {
            let snapshot = Arc::new(state.clone());
            rest.map(|(chosen, alt, probed)| {
                let decision = Decision::Syscall {
                    dst,
                    chosen,
                    total,
                    retval: alt.retval,
                    probed: probed.map(Box::new),
                    update: alt.apply,
                    output: alt.output.map(Box::new),
                };
                PendingSibling::new(ids.fresh(), snapshot.clone(), decision)
            })
            .collect()
        };
        if let Some(probed) = probed {
            state.add_probed(probed);
        }
        state.take_alternative(
            dst,
            alt.retval,
            PathChoice::Alt { chosen, total },
            alt.apply.as_ref(),
            alt.output.as_ref(),
        );
        if siblings.is_empty() {
            StepResult::Continue
        } else {
            StepResult::Forked(siblings)
        }
    }
}

/// Small helper: (func, block, instr_idx) of a frame without borrowing it.
trait FramePosition {
    fn clone_position(&self) -> (FuncId, c9_ir::BlockId, usize);
}

impl FramePosition for Frame {
    fn clone_position(&self) -> (FuncId, c9_ir::BlockId, usize) {
        (self.func, self.block, self.instr_idx)
    }
}
