//! Execution states.

use crate::coverage::CoverageSet;
use crate::env::{AlternativeUpdate, EnvState, GuestWrite};
use crate::errors::TerminationReason;
use crate::memory::{AddressSpaceId, Memory};
use crate::thread::{Frame, Process, ProcessId, Thread, ThreadId, ThreadStatus, WaitLists};
use crate::value::Value;
use c9_expr::{Expr, ExprRef, SymbolManager, Width};
use c9_ir::{BlockId, Operand, Program, RegId};
use c9_solver::{ConstraintSet, Probed};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// Identifier of an execution state (unique within one worker).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct StateId(pub u64);

/// Generator of fresh state identifiers.
///
/// Supports *strided* allocation for multi-threaded quanta: when `N`
/// executor threads step disjoint states concurrently, thread `k` allocates
/// from `StateIdGen::strided(base + k, N)`, so fork identifiers are unique
/// across threads without any synchronization, and the single-thread case
/// (`stride == 1`) allocates exactly the dense sequence it always did.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct StateIdGen {
    next: u64,
    stride: u64,
}

impl Default for StateIdGen {
    fn default() -> StateIdGen {
        StateIdGen { next: 0, stride: 1 }
    }
}

impl StateIdGen {
    /// Creates a generator starting at zero with stride 1.
    pub fn new() -> StateIdGen {
        StateIdGen::default()
    }

    /// Creates a generator producing `start`, `start + stride`,
    /// `start + 2·stride`, … (one executor thread's lane of the id space).
    pub fn strided(start: u64, stride: u64) -> StateIdGen {
        StateIdGen {
            next: start,
            stride: stride.max(1),
        }
    }

    /// Returns a fresh identifier.
    pub fn fresh(&mut self) -> StateId {
        let id = StateId(self.next);
        self.next += self.stride.max(1);
        id
    }

    /// The next raw identifier value this generator would hand out.
    pub fn next_unused(&self) -> u64 {
        self.next
    }

    /// Moves the generator forward to at least `value` (never backwards);
    /// used to re-merge the per-thread lanes after a parallel round.
    pub fn advance_to(&mut self, value: u64) {
        self.next = self.next.max(value);
    }
}

/// One decision recorded along an execution path.
///
/// The sequence of choices from the root of the execution tree to a state is
/// the *job encoding* that Cloud9 workers exchange (§3.2): it is enough to
/// deterministically reconstruct the state by replay.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum PathChoice {
    /// A conditional branch on a symbolic condition; `true` means the
    /// then-branch was taken.
    Branch(bool),
    /// A multi-way fork (fault injection alternative, scheduling decision,
    /// symbolic syscall outcome). `chosen` is the index taken out of `total`
    /// alternatives.
    Alt {
        /// Index of the alternative this path took.
        chosen: u32,
        /// Number of alternatives at the fork point.
        total: u32,
    },
}

/// The scheduling policy for symbolic threads (§5.1, `cloud9_set_scheduler`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum SchedulerPolicy {
    /// Deterministic round-robin at preemption points.
    #[default]
    RoundRobin,
    /// Fork the state for every possible next thread at each preemption
    /// point (exhaustive schedule exploration).
    ForkAll,
    /// Iterative context bounding: fork over threads only while the number
    /// of preemptions along the path is below the bound.
    ContextBound(u32),
}

/// Per-state execution statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StateStats {
    /// Instructions executed while exploring new work.
    pub instructions: u64,
    /// Instructions executed while replaying a job path received from
    /// another worker (not "useful work" in the paper's terminology).
    pub replay_instructions: u64,
    /// Number of forks this state has gone through (its depth in forks).
    pub forks: u64,
    /// Number of syscalls executed.
    pub syscalls: u64,
    /// Number of preemption points encountered.
    pub preemptions: u64,
}

/// Cursor over a path being replayed (job materialization).
///
/// The recorded decisions are shared, not owned: every clone of a replaying
/// state (a prefix anchor, a fork crossed mid-replay) points at the one
/// allocation made when the job was installed. A cursor exists only while
/// decisions remain — [`ExecutionState::next_replay_choice`] drops it with
/// the last one, so a state that finished replaying carries nothing of the
/// job it came from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReplayCursor {
    /// The decisions to follow.
    pub choices: Arc<[PathChoice]>,
    /// How many have been consumed.
    pub pos: usize,
}

impl ReplayCursor {
    /// Creates a cursor over `choices`; `None` when there is nothing to
    /// replay.
    pub fn new(choices: Vec<PathChoice>) -> Option<ReplayCursor> {
        (!choices.is_empty()).then(|| ReplayCursor {
            choices: choices.into(),
            pos: 0,
        })
    }
}

/// A complete symbolic execution state: one node of the execution tree.
///
/// A fork clones the stepped state once, into the `Arc` snapshot its
/// continuing siblings share, and returns each sibling *pending*: the
/// snapshot plus its decision ([`crate::PendingSibling`]). A sibling costs
/// a whole state only when it is leased to run, and then it takes the
/// snapshot without a copy if no other sibling still holds it. What one
/// state holds, field by field, as measured over the 57 464 states left on
/// the frontier of a seed-1 `perf_suite` `lighttpd.budget` run when each
/// was a full copy (depth ≈ 10, 117 symbols a state; live heap per state,
/// counting allocator):
///
/// | field | shared with the state it was forked from | heap per state |
/// |---|---|---|
/// | the struct itself (boxed on the frontier) | — | 416 B |
/// | `env` | nothing: `clone_box` copies the model's fd table and stream buffers | 752 B |
/// | `threads` | the register values (`Arc`-shared expressions); the frames are copied | 465 B |
/// | `memory` | the objects (`Arc`, copied on write); the address-space and CoW-domain maps are copied | 456 B |
/// | `path` | nothing, O(depth) | 208 B |
/// | `symbols` | the whole chain: one reference count | 0 |
/// | `constraints` | every group (`Arc`); the group index is copied | < 1 B |
/// | `replay` | the recorded decisions (`Arc<[_]>`); `None` once consumed | 0 |
/// | `processes`, `wait_lists`, `coverage` | nothing (one small `Vec` each) | ≈ 40 B |
///
/// The containers are not wrapped in copy-on-write cells: a sibling writes
/// a register, its path and often its env as soon as it exists, so a
/// whole-container cell would copy at once. Deferring those writes until
/// the sibling runs is what shares them: 92 % of that frontier was born at
/// fragmented-read forks of up to eight alternatives, from 21 206 distinct
/// fork points, and most of those siblings never run within the budget.
/// Pending, they hold 21 206 snapshots between them (live heap 162.5 MB →
/// 98.5 MB, state clones 66 026 → 29 769 over the run).
pub struct ExecutionState {
    /// Identifier of the state (unique per worker).
    pub id: StateId,
    /// Symbol allocator for this path.
    pub symbols: SymbolManager,
    /// Path constraints accumulated so far.
    pub constraints: ConstraintSet,
    /// All memory: address spaces and CoW domains.
    pub memory: Memory,
    /// Processes, indexed by [`ProcessId`].
    pub processes: Vec<Process>,
    /// Threads, indexed by [`ThreadId`].
    pub threads: Vec<Thread>,
    /// Index of the currently scheduled thread.
    pub current_thread: usize,
    /// Wait lists for sleeping threads.
    pub wait_lists: WaitLists,
    /// Environment-model state (taken out temporarily while handling a
    /// syscall).
    pub env: Option<Box<dyn EnvState>>,
    /// The decisions taken along this path.
    pub path: Vec<PathChoice>,
    /// Lines covered along this path.
    pub coverage: CoverageSet,
    /// Execution statistics.
    pub stats: StateStats,
    /// Set once the state has stopped executing.
    pub termination: Option<TerminationReason>,
    /// Replay cursor (present while materializing a transferred job).
    pub replay: Option<ReplayCursor>,
    /// Scheduling policy for preemption points.
    pub scheduler: SchedulerPolicy,
    /// Modelled heap limit in bytes (None = unlimited), set via
    /// `set_max_heap`.
    pub max_heap: Option<u64>,
    /// Number of newly covered lines in the most recent step (used by the
    /// coverage-optimized searcher).
    pub last_new_coverage: usize,
}

impl Clone for ExecutionState {
    fn clone(&self) -> ExecutionState {
        ExecutionState {
            id: self.id,
            symbols: self.symbols.clone(),
            constraints: self.constraints.clone(),
            memory: self.memory.clone(),
            processes: self.processes.clone(),
            threads: self.threads.clone(),
            current_thread: self.current_thread,
            wait_lists: self.wait_lists.clone(),
            env: self.env.as_ref().map(|e| e.clone_box()),
            path: self.path.clone(),
            coverage: self.coverage.clone(),
            stats: self.stats,
            termination: self.termination.clone(),
            replay: self.replay.clone(),
            scheduler: self.scheduler,
            max_heap: self.max_heap,
            last_new_coverage: self.last_new_coverage,
        }
    }
}

impl fmt::Debug for ExecutionState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ExecutionState")
            .field("id", &self.id)
            .field("depth", &self.path.len())
            .field("constraints", &self.constraints.len())
            .field("threads", &self.threads.len())
            .field("terminated", &self.termination)
            .finish()
    }
}

impl ExecutionState {
    /// Creates the initial state of `program`: one process, one thread,
    /// positioned at the entry function.
    pub fn initial(id: StateId, program: &Program, env: Box<dyn EnvState>) -> ExecutionState {
        let memory = Memory::new();
        let entry = program.function(program.entry);
        let frame = Frame::new(program.entry, entry.entry, entry.num_regs, None);
        let process = Process {
            pid: ProcessId(0),
            parent: None,
            space: memory.initial_space(),
            terminated: false,
            exit_code: 0,
        };
        let thread = Thread {
            tid: ThreadId(0),
            pid: ProcessId(0),
            frames: vec![frame],
            status: ThreadStatus::Runnable,
            restart_syscall: false,
        };
        ExecutionState {
            id,
            symbols: SymbolManager::new(),
            constraints: ConstraintSet::new(),
            memory,
            processes: vec![process],
            threads: vec![thread],
            current_thread: 0,
            wait_lists: WaitLists::default(),
            env: Some(env),
            path: Vec::new(),
            coverage: CoverageSet::new(program.loc()),
            stats: StateStats::default(),
            termination: None,
            replay: None,
            scheduler: SchedulerPolicy::RoundRobin,
            max_heap: None,
            last_new_coverage: 0,
        }
    }

    /// Clones this state into a sibling with a new identifier: the copy an
    /// eager fork made per sibling, and what a born-terminated bug sibling
    /// still is.
    pub fn fork(&self, new_id: StateId) -> ExecutionState {
        let mut clone = self.clone();
        clone.id = new_id;
        clone.stats.forks += 1;
        clone
    }

    /// Whether the state has stopped executing.
    pub fn is_terminated(&self) -> bool {
        self.termination.is_some()
    }

    /// Depth of the state in the execution tree (number of recorded
    /// decisions).
    pub fn depth(&self) -> usize {
        self.path.len()
    }

    /// Whether the state is currently replaying a transferred job path.
    pub fn is_replaying(&self) -> bool {
        self.replay.is_some()
    }

    /// Consumes the next recorded decision of the job being replayed, and
    /// drops the cursor together with its last one.
    pub fn next_replay_choice(&mut self) -> Option<PathChoice> {
        let cursor = self.replay.as_mut()?;
        let choice = cursor.choices[cursor.pos];
        cursor.pos += 1;
        if cursor.pos == cursor.choices.len() {
            self.replay = None;
        }
        Some(choice)
    }

    /// The currently scheduled thread.
    pub fn thread(&self) -> &Thread {
        &self.threads[self.current_thread]
    }

    /// The currently scheduled thread, mutably.
    pub fn thread_mut(&mut self) -> &mut Thread {
        &mut self.threads[self.current_thread]
    }

    /// The process of the currently scheduled thread.
    pub fn process(&self) -> &Process {
        &self.processes[self.thread().pid.0 as usize]
    }

    /// The address space of the currently scheduled thread.
    pub fn current_space(&self) -> AddressSpaceId {
        self.process().space
    }

    /// Indices of all runnable threads.
    pub fn runnable_threads(&self) -> Vec<usize> {
        self.threads
            .iter()
            .enumerate()
            .filter(|(_, t)| t.is_runnable())
            .map(|(i, _)| i)
            .collect()
    }

    /// Number of threads that are sleeping on a wait list.
    pub fn sleeping_threads(&self) -> usize {
        self.threads
            .iter()
            .filter(|t| matches!(t.status, ThreadStatus::Sleeping(_)))
            .count()
    }

    /// Picks the next runnable thread after `self.current_thread`
    /// (round-robin). Returns `false` if no thread is runnable.
    pub fn schedule_round_robin(&mut self) -> bool {
        let n = self.threads.len();
        for offset in 1..=n {
            let idx = (self.current_thread + offset) % n;
            if self.threads[idx].is_runnable() {
                self.current_thread = idx;
                return true;
            }
        }
        false
    }

    /// Adds a path constraint.
    pub fn add_constraint(&mut self, constraint: ExprRef) {
        self.constraints.push(constraint);
    }

    /// Adds the path constraint the solver has just found feasible for this
    /// state (or for the state this one was forked from since).
    pub fn add_probed(&mut self, probed: Probed) {
        self.constraints.push_probed(probed);
    }

    /// Records a path decision.
    pub fn record_choice(&mut self, choice: PathChoice) {
        self.path.push(choice);
    }

    /// Continues the current frame at the start of `target`.
    pub(crate) fn goto(&mut self, target: BlockId) {
        let frame = self
            .thread_mut()
            .top_frame_mut()
            .expect("active frame required");
        frame.block = target;
        frame.instr_idx = 0;
    }

    /// Takes one alternative of a forking syscall (its constraint already
    /// pushed): `retval` into `dst`, `choice` into the path, then the
    /// alternative's environment update and guest-memory write.
    pub(crate) fn take_alternative(
        &mut self,
        dst: RegId,
        retval: Value,
        choice: PathChoice,
        update: Option<&AlternativeUpdate>,
        output: Option<&GuestWrite>,
    ) {
        self.write_reg(dst, retval);
        self.record_choice(choice);
        if let Some(update) = update {
            update(self.env.as_deref_mut().expect("environment state taken"));
        }
        if let Some(output) = output {
            let space = self.current_space();
            let _ = self.memory.write_bytes(space, output.addr, &output.bytes);
        }
    }

    /// Allocates `count` fresh symbolic bytes named `name[i]` and returns
    /// their expressions.
    pub fn fresh_symbolic_bytes(&mut self, name: &str, count: usize) -> Vec<ExprRef> {
        self.symbols
            .fresh_bytes(name, count)
            .into_iter()
            .map(|s| Expr::sym(s, Width::W8))
            .collect()
    }

    /// Allocates a fresh symbolic value of the given width.
    pub fn fresh_symbolic(&mut self, name: &str, width: Width) -> ExprRef {
        let sym = self.symbols.fresh(name, width);
        Expr::sym(sym, width)
    }

    /// Reads an operand in the context of the current frame.
    ///
    /// # Panics
    ///
    /// Panics if the current thread has no frame (callers check this).
    pub fn read_operand(&self, op: &Operand) -> Value {
        match op {
            Operand::Const(v, w) => Value::concrete(*v, *w),
            Operand::Reg(r) => {
                let frame = self.thread().top_frame().expect("no active frame");
                frame.regs[r.0 as usize].clone()
            }
        }
    }

    /// Writes a register of the current frame.
    pub fn write_reg(&mut self, reg: RegId, value: Value) {
        let frame = self.thread_mut().top_frame_mut().expect("no active frame");
        frame.regs[reg.0 as usize] = value;
    }

    /// Marks the state as terminated.
    pub fn terminate(&mut self, reason: TerminationReason) {
        if self.termination.is_none() {
            self.termination = Some(reason);
        }
    }

    /// Total instructions executed (useful + replay).
    pub fn total_instructions(&self) -> u64 {
        self.stats.instructions + self.stats.replay_instructions
    }
}
