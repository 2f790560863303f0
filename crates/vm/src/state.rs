//! Execution states.

use crate::coverage::CoverageSet;
use crate::env::EnvState;
use crate::errors::TerminationReason;
use crate::memory::{AddressSpaceId, Memory};
use crate::thread::{Frame, Process, ProcessId, Thread, ThreadId, ThreadStatus, WaitLists};
use crate::value::Value;
use c9_expr::{Expr, ExprRef, SymbolManager, Width};
use c9_ir::{Operand, Program, RegId};
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
/// States are cloned when execution forks. What a fork shares with its
/// parent and what it copies, field by field, with the clone / drop time
/// measured over the 57 464 live states at the end of `perf_suite`'s
/// `lighttpd.budget` (depth ≈ 10, 117 symbols a state; the whole state is
/// 1.7 / 0.8 µs, see ARCHITECTURE.md "State lifecycle"):
///
/// | field | a fork | clone / drop µs |
/// |---|---|---|
/// | `symbols` | shares the whole chain: one reference count | 0.02 / 0.01 |
/// | `constraints` | shares every group (`Arc`); copies the group index | 0.03 / 0.01 |
/// | `memory` | shares the objects (`Arc`, copied on write); copies the address-space and CoW-domain maps | 0.47 / 0.11 |
/// | `replay` | shares the recorded decisions (`Arc<[_]>`); `None` once consumed | 0.01 / 0.00 |
/// | `processes` | copies (one small `Vec`) | 0.13 / 0.01 |
/// | `threads` | copies every frame's register file (values are `Arc`-shared expressions) | 0.56 / 0.24 |
/// | `wait_lists` | copies (usually empty) | 0.01 / 0.00 |
/// | `env` | `clone_box`: the model copies its fd table and stream buffers | 0.61 / 0.17 |
/// | `path` | copies, O(depth) | 0.15 / 0.04 |
/// | `coverage` | copies one bit per line of the program | 0.12 / 0.01 |
///
/// The copied containers are deliberately not wrapped in copy-on-write
/// cells: the dominant fork sites write a register, the env and guest
/// memory in every sibling straight after the fork, so there would be
/// nothing left to share.
///
/// The struct itself is 416 bytes on x86-64. A worker's frontier holds
/// its states boxed, so entering or leaving the frontier map moves a
/// pointer; a state is boxed once, when it is forked or materialized, and
/// keeps that box through every slice it runs.
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

    /// Clones this state into a sibling with a new identifier (a fork).
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

    /// Downcasts the environment state to a concrete type.
    ///
    /// # Panics
    ///
    /// Panics if the environment state has been taken out (i.e. called from
    /// within a syscall handler) or is of a different type.
    pub fn env_as<T: 'static>(&self) -> &T {
        self.env
            .as_ref()
            .expect("environment state taken")
            .as_any()
            .downcast_ref::<T>()
            .expect("environment state has unexpected type")
    }

    /// Downcasts the environment state mutably.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`ExecutionState::env_as`].
    pub fn env_as_mut<T: 'static>(&mut self) -> &mut T {
        self.env
            .as_mut()
            .expect("environment state taken")
            .as_any_mut()
            .downcast_mut::<T>()
            .expect("environment state has unexpected type")
    }
}
