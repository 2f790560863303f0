//! The Cloud9-RS single-node symbolic execution engine.
//!
//! This crate is the stand-in for KLEE in the Cloud9 architecture (§3.1 of
//! the paper): it executes programs written in the [`c9_ir`] intermediate
//! representation with symbolic inputs, forking execution at branches whose
//! condition depends on symbolic data, and uses the [`c9_solver`] constraint
//! solver to keep only feasible paths and to produce concrete test cases.
//!
//! The crate provides:
//!
//! * symbolic [`Value`]s and copy-on-write symbolic [`memory`](Memory) with
//!   multiple address spaces per state and CoW domains (§4.2),
//! * [`ExecutionState`] — one node of the execution tree, including threads,
//!   processes, wait lists, the modelled environment, and the recorded
//!   [`PathChoice`] sequence used for job transfers,
//! * the [`Executor`] — a forking interpreter with the engine primitives of
//!   Table 1 (`make_shared`, thread/process management, sleep/notify),
//! * [`Searcher`] strategies (random-path, coverage-optimized, DFS, BFS, and
//!   their interleaving), and
//! * a single-node [`Engine`] equivalent to classic sequential symbolic
//!   execution, used as the baseline in the evaluation.
//!
//! # Examples
//!
//! Exhaustively explore a tiny program with one symbolic byte:
//!
//! ```
//! use std::sync::Arc;
//! use c9_ir::{BinaryOp, Operand, ProgramBuilder, Width};
//! use c9_vm::{sysno, Engine, EngineConfig, NullEnvironment, DfsSearcher};
//!
//! let mut pb = ProgramBuilder::new();
//! let mut f = pb.function("main", 0, Some(Width::W32));
//! let buf = f.alloc(Operand::word(1));
//! f.syscall(sysno::MAKE_SYMBOLIC, vec![Operand::Reg(buf), Operand::word(1)]);
//! let b = f.load(Operand::Reg(buf), Width::W8);
//! let is_a = f.binary(BinaryOp::Eq, Operand::Reg(b), Operand::byte(b'a'));
//! let then_bb = f.create_block();
//! let else_bb = f.create_block();
//! f.branch(Operand::Reg(is_a), then_bb, else_bb);
//! f.switch_to(then_bb);
//! f.ret(Some(Operand::word(1)));
//! f.switch_to(else_bb);
//! f.ret(Some(Operand::word(0)));
//! let main = f.finish();
//! pb.set_entry(main);
//!
//! let mut engine = Engine::new(
//!     Arc::new(pb.finish()),
//!     Arc::new(NullEnvironment),
//!     Box::new(DfsSearcher::new()),
//!     EngineConfig::default(),
//! );
//! let summary = engine.run();
//! assert_eq!(summary.paths_completed, 2);
//! assert!(summary.exhausted);
//! ```

#![deny(missing_docs)]

mod coverage;
mod engine;
mod env;
mod errors;
mod executor;
mod memory;
mod replay;
mod scheduler;
mod searcher;
mod state;
pub mod sysno;
mod testcase;
mod thread;
mod value;
mod weighted;

pub use coverage::CoverageSet;
pub use engine::{Engine, EngineConfig, RunSummary};
pub use env::{
    AlternativeUpdate, EnvState, Environment, NullEnvState, NullEnvironment, SyscallAlternative,
    SyscallContext, SyscallEffect,
};
pub use errors::{BugKind, TerminationReason};
pub use executor::{Executor, ExecutorConfig, StepResult};
pub use memory::{AddressSpaceId, CowDomain, CowDomainId, MemObject, Memory};
pub use replay::{ReplayCacheConfig, ReplayEngine, ReplayProgress, ReplayRun};
pub use scheduler::Scheduler;
pub use searcher::{
    build_searcher, BfsSearcher, CoverageOptimizedSearcher, CupaSearcher, DfsSearcher,
    InterleavedSearcher, ParseStrategyError, RandomPathSearcher, RandomSearcher, Searcher,
    StateMeta, StrategyKind,
};
pub use state::{
    ExecutionState, PathChoice, ReplayCursor, SchedulerPolicy, StateId, StateIdGen, StateStats,
};
pub use testcase::{InputBinding, TestCase};
pub use thread::{
    Frame, Process, ProcessId, Thread, ThreadId, ThreadStatus, WaitListId, WaitLists,
};
pub use value::{ByteValue, Value};

#[cfg(test)]
mod linear_reference;
#[cfg(test)]
mod tests;
