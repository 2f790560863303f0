//! The environment-model interface.
//!
//! The Cloud9 paper splits environment handling into a small set of *engine
//! primitives* (Table 1) built into the symbolic execution engine, and a
//! *model* (the POSIX model, §4) layered on top. In Cloud9-RS the engine
//! primitives are implemented directly by the executor (see
//! [`crate::sysno`]); everything else is routed to an [`Environment`]
//! implementation registered with the executor. The POSIX model in
//! `c9-posix` is one such implementation.
//!
//! Environment models keep their per-path data (file descriptor tables,
//! socket buffers, …) inside the execution state as a boxed [`EnvState`], so
//! that forking a state forks the modelled environment with it — the property
//! that makes modelled syscalls safe where concrete external calls are not
//! (§4.1).

use crate::errors::TerminationReason;
use crate::state::ExecutionState;
use crate::thread::WaitListId;
use crate::value::{ByteValue, Value};
use c9_expr::ExprRef;
use c9_solver::Solver;
use std::any::Any;
use std::fmt::Debug;

/// Per-state data owned by an environment model.
///
/// `Sync` because a pending fork sibling shares its pre-fork snapshot, env
/// included, with the siblings of the same fork until it is materialized,
/// possibly on another executor thread.
pub trait EnvState: Debug + Send + Sync {
    /// Clones the state into a new box (states are cloned on fork).
    fn clone_box(&self) -> Box<dyn EnvState>;
    /// Upcasts to [`Any`] for downcasting to the concrete model type.
    fn as_any(&self) -> &dyn Any;
    /// Upcasts mutably.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

impl Clone for Box<dyn EnvState> {
    fn clone(&self) -> Box<dyn EnvState> {
        self.clone_box()
    }
}

impl dyn EnvState + '_ {
    /// Downcasts to the model's concrete type.
    ///
    /// # Panics
    ///
    /// Panics if the type does not match.
    pub fn downcast_mut<T: 'static>(&mut self) -> &mut T {
        self.as_any_mut()
            .downcast_mut::<T>()
            .expect("environment state has unexpected type")
    }
}

/// A per-alternative update applied to the environment of the successor
/// state of a forking syscall (e.g. "this alternative consumed k bytes from
/// the socket").
///
/// It sees only the environment: an alternative cannot terminate its state
/// or change what a searcher ranks it by, which is what lets a fork keep its
/// siblings pending (a shared snapshot plus the decision) until one is run.
pub type AlternativeUpdate = std::sync::Arc<dyn Fn(&mut dyn EnvState) + Send + Sync>;

/// Bytes an alternative stores into the calling process's memory, as a
/// read that returns them does.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GuestWrite {
    /// Guest address of the first byte.
    pub addr: u64,
    /// The bytes, in order.
    pub bytes: Vec<ByteValue>,
}

/// One alternative outcome of a forking syscall (fault injection, symbolic
/// packet fragmentation, schedule exploration).
#[derive(Clone)]
pub struct SyscallAlternative {
    /// Human-readable label used in diagnostics (e.g. `"EINTR"`).
    pub label: String,
    /// Extra path constraint this alternative assumes, if any.
    pub constraint: Option<ExprRef>,
    /// The value the syscall returns in this alternative.
    pub retval: Value,
    /// Optional update applied to the environment of the state that takes
    /// this alternative, after the fork.
    pub apply: Option<AlternativeUpdate>,
    /// Optional guest-memory write of the state that takes this
    /// alternative, made after `apply`.
    pub output: Option<GuestWrite>,
}

impl Debug for SyscallAlternative {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SyscallAlternative")
            .field("label", &self.label)
            .field("constraint", &self.constraint)
            .field("retval", &self.retval)
            .field("apply", &self.apply.is_some())
            .field("output", &self.output)
            .finish()
    }
}

impl SyscallAlternative {
    /// Creates an alternative with no extra constraint.
    pub fn new(label: &str, retval: Value) -> SyscallAlternative {
        SyscallAlternative {
            label: label.to_string(),
            constraint: None,
            retval,
            apply: None,
            output: None,
        }
    }

    /// Creates an alternative guarded by a constraint.
    pub fn with_constraint(label: &str, constraint: ExprRef, retval: Value) -> SyscallAlternative {
        SyscallAlternative {
            label: label.to_string(),
            constraint: Some(constraint),
            retval,
            apply: None,
            output: None,
        }
    }

    /// Attaches an environment update executed on the successor taking this
    /// alternative.
    pub fn with_update(
        mut self,
        update: impl Fn(&mut dyn EnvState) + Send + Sync + 'static,
    ) -> SyscallAlternative {
        self.apply = Some(std::sync::Arc::new(update));
        self
    }

    /// Attaches the bytes the successor taking this alternative finds at
    /// `addr` in its memory.
    pub fn with_output(mut self, addr: u64, bytes: Vec<ByteValue>) -> SyscallAlternative {
        self.output = Some(GuestWrite { addr, bytes });
        self
    }
}

/// The effect of a handled syscall, applied by the executor.
#[derive(Clone, Debug)]
pub enum SyscallEffect {
    /// Return a value to the calling thread and continue.
    Return(Value),
    /// Fork the state: one successor per (feasible) alternative. The chosen
    /// alternative index is recorded in the path for replay.
    Fork(Vec<SyscallAlternative>),
    /// Block the calling thread on a wait list.
    Sleep {
        /// The wait list to sleep on.
        wlist: WaitListId,
        /// When true, the same syscall instruction re-executes after the
        /// thread is woken (so the handler can re-check the condition it was
        /// waiting for); when false, the syscall completes with `retval` upon
        /// wakeup.
        restart: bool,
        /// Value returned if `restart` is false.
        retval: Value,
    },
    /// Terminate the entire state.
    Terminate(TerminationReason),
}

/// Context handed to environment syscall handlers.
///
/// The environment state is temporarily moved out of the execution state so
/// the handler can mutate both without aliasing.
pub struct SyscallContext<'a> {
    /// The execution state (memory, threads, constraints, …).
    pub state: &'a mut ExecutionState,
    /// The environment model's own per-path data.
    pub env: &'a mut dyn EnvState,
    /// The worker's solver, for concretization queries.
    pub solver: &'a Solver,
}

impl<'a> SyscallContext<'a> {
    /// Downcasts the environment data to the model's concrete type.
    ///
    /// # Panics
    ///
    /// Panics if the type does not match.
    pub fn env_mut<T: 'static>(&mut self) -> &mut T {
        self.env.downcast_mut::<T>()
    }

    /// Reads `len` guest bytes at `addr` from the current address space.
    pub fn read_guest(&self, addr: u64, len: usize) -> Result<Vec<ByteValue>, crate::BugKind> {
        self.state
            .memory
            .read_bytes(self.state.current_space(), addr, len)
    }

    /// Writes guest bytes at `addr` in the current address space.
    pub fn write_guest(&mut self, addr: u64, data: &[ByteValue]) -> Result<(), crate::BugKind> {
        let space = self.state.current_space();
        self.state.memory.write_bytes(space, addr, data)
    }

    /// Concretizes a value under the current path constraints, adding the
    /// binding constraint so later execution stays consistent.
    pub fn concretize(&mut self, value: &Value) -> u64 {
        match value.as_u64() {
            Some(v) => v,
            None => {
                let expr = value.to_expr();
                let v = self
                    .solver
                    .get_value(&self.state.constraints, &expr)
                    .unwrap_or(0);
                self.state.add_constraint(c9_expr::Expr::eq(
                    expr,
                    c9_expr::Expr::const_(v, value.width()),
                ));
                v
            }
        }
    }
}

/// The environment model registered with an executor.
pub trait Environment: Send + Sync {
    /// Creates the per-state environment data for a fresh initial state.
    fn create_state(&self) -> Box<dyn EnvState>;

    /// Handles a syscall with number `nr` (always ≥
    /// [`c9_ir::Program::ENV_SYSCALL_BASE`]).
    fn syscall(
        &self,
        ctx: &mut SyscallContext<'_>,
        nr: u32,
        args: &[Value],
    ) -> Result<SyscallEffect, TerminationReason>;

    /// Human-readable name for diagnostics.
    fn name(&self) -> &str {
        "environment"
    }
}

/// An environment with no state that rejects every syscall.
///
/// Useful for programs that only exercise pure computation, and as the
/// baseline in tests.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullEnvironment;

/// The (empty) per-state data of [`NullEnvironment`].
#[derive(Debug, Default, Clone, Copy)]
pub struct NullEnvState;

impl EnvState for NullEnvState {
    fn clone_box(&self) -> Box<dyn EnvState> {
        Box::new(*self)
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

impl Environment for NullEnvironment {
    fn create_state(&self) -> Box<dyn EnvState> {
        Box::new(NullEnvState)
    }

    fn syscall(
        &self,
        _ctx: &mut SyscallContext<'_>,
        nr: u32,
        _args: &[Value],
    ) -> Result<SyscallEffect, TerminationReason> {
        Err(TerminationReason::Bug(crate::BugKind::UnknownSyscall(nr)))
    }

    fn name(&self) -> &str {
        "null"
    }
}
