//! Pending fork siblings: a shared pre-fork snapshot plus one decision.
//!
//! A fork clones the stepped state once, into an `Arc` snapshot, before any
//! alternative is applied; the stepped state goes on with the first
//! alternative, and every other one becomes a [`PendingSibling`]: its id
//! (allocated at the fork, as an eager sibling's was), the snapshot, and the
//! [`Decision`] that turns the snapshot into the sibling. All siblings of one
//! fork share the snapshot.
//!
//! A pending sibling answers everything the frontier asks of it — its
//! [`StateMeta`] for the searcher, its depth and its path for an export —
//! from the snapshot and the decision, without a copy. Only
//! [`PendingSibling::materialize`], when the sibling is leased to run,
//! builds the state: it takes the snapshot without a copy when it holds the
//! last reference, clones it otherwise, and applies the decision. Most
//! siblings of a wide fork (a fragmented read offers up to eight) never run
//! within a budget, so they never cost a state.

use crate::env::{AlternativeUpdate, GuestWrite};
use crate::searcher::StateMeta;
use crate::state::{ExecutionState, PathChoice, StateId};
use crate::value::Value;
use c9_ir::{BlockId, RegId};
use c9_solver::Probed;
use std::sync::Arc;

/// What a pending sibling does to its fork's snapshot when it is
/// materialized. A closed set: a decision writes the path, the constraints,
/// a register or the schedule, and (through [`AlternativeUpdate`]) the
/// environment, and it never terminates the state.
///
/// A frontier holds one per pending sibling (144 bytes), so a syscall
/// alternative's rarely present parts are boxed: a fragmented read's
/// sibling, the common kind, carries neither a probe nor a guest write. A
/// branch sibling keeps its probe inline, which spares the two-way fork,
/// by far the most frequent, an allocation.
#[derive(Clone)]
pub(crate) enum Decision {
    /// The else side of a symbolic branch: push the probed negation, record
    /// `Branch(false)`, continue at `target`.
    Branch {
        /// The probe of the negated condition.
        probed: Probed,
        /// The else block.
        target: BlockId,
    },
    /// One thread of a fork-all schedule point: run `thread` next.
    Schedule {
        /// Index of the thread the sibling runs.
        thread: usize,
        /// The recorded `Alt` choice.
        chosen: u32,
        /// Runnable threads at the schedule point.
        total: u32,
    },
    /// One alternative of a forking syscall.
    Syscall {
        /// The register that receives `retval`.
        dst: RegId,
        /// Index of this alternative.
        chosen: u32,
        /// Alternatives the syscall offered.
        total: u32,
        /// What the syscall returns in this alternative.
        retval: Value,
        /// The probe of the alternative's constraint, if it has one.
        probed: Option<Box<Probed>>,
        /// The alternative's environment update.
        update: Option<AlternativeUpdate>,
        /// The alternative's guest-memory write.
        output: Option<Box<GuestWrite>>,
    },
}

impl Decision {
    /// The path choice the decision records.
    pub(crate) fn choice(&self) -> PathChoice {
        match self {
            Decision::Branch { .. } => PathChoice::Branch(false),
            Decision::Schedule { chosen, total, .. } | Decision::Syscall { chosen, total, .. } => {
                PathChoice::Alt {
                    chosen: *chosen,
                    total: *total,
                }
            }
        }
    }

    /// Constraints the decision adds to the snapshot's.
    fn stored_constraints(&self) -> usize {
        match self {
            Decision::Branch { probed, .. } => probed.stored_len(),
            Decision::Syscall { probed, .. } => probed.as_ref().map_or(0, |p| p.stored_len()),
            Decision::Schedule { .. } => 0,
        }
    }

    /// Applies the decision to a state at its fork point: the state the
    /// stepped state was before the fork, or a copy of it.
    pub(crate) fn apply(self, state: &mut ExecutionState) {
        let choice = self.choice();
        match self {
            Decision::Branch { probed, target } => {
                state.add_probed(probed);
                state.record_choice(choice);
                state.goto(target);
            }
            Decision::Schedule { thread, .. } => {
                state.current_thread = thread;
                state.record_choice(choice);
            }
            Decision::Syscall {
                dst,
                retval,
                probed,
                update,
                output,
                ..
            } => {
                if let Some(probed) = probed {
                    state.add_probed(*probed);
                }
                state.take_alternative(dst, retval, choice, update.as_ref(), output.as_deref());
            }
        }
    }
}

impl std::fmt::Debug for Decision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Decision::Branch { target, .. } => f
                .debug_struct("Branch")
                .field("target", target)
                .finish_non_exhaustive(),
            Decision::Schedule {
                thread,
                chosen,
                total,
            } => f
                .debug_struct("Schedule")
                .field("thread", thread)
                .field("chosen", chosen)
                .field("total", total)
                .finish(),
            Decision::Syscall {
                dst,
                chosen,
                total,
                retval,
                ..
            } => f
                .debug_struct("Syscall")
                .field("dst", dst)
                .field("chosen", chosen)
                .field("total", total)
                .field("retval", retval)
                .finish_non_exhaustive(),
        }
    }
}

/// A fork sibling that has not run yet: the fork's shared snapshot plus its
/// own decision.
#[derive(Debug)]
pub struct PendingSibling {
    /// The sibling's identifier, allocated at the fork.
    pub id: StateId,
    snapshot: Arc<ExecutionState>,
    decision: Decision,
}

impl PendingSibling {
    /// A sibling `id` that is `snapshot` after `decision`.
    pub(crate) fn new(
        id: StateId,
        snapshot: Arc<ExecutionState>,
        decision: Decision,
    ) -> PendingSibling {
        PendingSibling {
            id,
            snapshot,
            decision,
        }
    }

    /// The state at the fork point, before any alternative, shared with
    /// the other siblings of the fork. Its instruction counts and coverage
    /// are the sibling's.
    pub(crate) fn snapshot(&self) -> &ExecutionState {
        &self.snapshot
    }

    /// The decision that makes the snapshot this sibling.
    #[cfg(test)]
    pub(crate) fn decision(&self) -> &Decision {
        &self.decision
    }

    /// Depth of the sibling: the fork point's plus its decision.
    pub(crate) fn depth(&self) -> usize {
        self.snapshot.depth() + 1
    }

    /// The sibling's path: the fork point's plus its decision.
    pub(crate) fn path(&self) -> Vec<PathChoice> {
        let mut path = Vec::with_capacity(self.depth());
        path.extend_from_slice(&self.snapshot.path);
        path.push(self.decision.choice());
        path
    }

    /// What a searcher ranks the sibling by; equal to [`StateMeta::of`] its
    /// materialized state.
    pub(crate) fn meta(&self) -> StateMeta {
        let snapshot = &*self.snapshot;
        let thread = match &self.decision {
            Decision::Schedule { thread, .. } => &snapshot.threads[*thread],
            _ => snapshot.thread(),
        };
        StateMeta {
            id: self.id,
            depth: self.depth(),
            new_coverage: snapshot.last_new_coverage,
            call_site: thread.top_frame().map(|f| f.func.0).unwrap_or(0),
            query_cost: snapshot.constraints.len() + self.decision.stored_constraints(),
        }
    }

    /// Builds the sibling's state: the snapshot (taken without a copy when
    /// this is its last holder) with the sibling's id, one more fork, and
    /// the decision applied.
    pub fn materialize(self) -> ExecutionState {
        let mut state = Arc::try_unwrap(self.snapshot).unwrap_or_else(|shared| (*shared).clone());
        state.id = self.id;
        state.stats.forks += 1;
        self.decision.apply(&mut state);
        state
    }
}

/// One candidate of a frontier: a state that has run, or a fork sibling
/// that has not.
#[derive(Debug)]
pub enum Candidate {
    /// A materialized state. Boxed, so moving a candidate moves a pointer.
    Live(Box<ExecutionState>),
    /// A sibling still pending.
    Pending(PendingSibling),
}

impl Candidate {
    /// The candidate's state id.
    pub fn id(&self) -> StateId {
        match self {
            Candidate::Live(state) => state.id,
            Candidate::Pending(sibling) => sibling.id,
        }
    }

    /// Depth of the candidate in the execution tree.
    pub fn depth(&self) -> usize {
        match self {
            Candidate::Live(state) => state.depth(),
            Candidate::Pending(sibling) => sibling.depth(),
        }
    }

    /// What a searcher ranks the candidate by.
    pub fn meta(&self) -> StateMeta {
        match self {
            Candidate::Live(state) => StateMeta::of(state),
            Candidate::Pending(sibling) => sibling.meta(),
        }
    }

    /// The candidate's path.
    pub fn path(&self) -> Vec<PathChoice> {
        match self {
            Candidate::Live(state) => state.path.clone(),
            Candidate::Pending(sibling) => sibling.path(),
        }
    }

    /// The candidate's path, dropping the candidate (an export).
    pub fn into_path(self) -> Vec<PathChoice> {
        match self {
            Candidate::Live(state) => state.path,
            Candidate::Pending(sibling) => sibling.path(),
        }
    }

    /// The state as it was when it last stopped or forked: its instruction
    /// counts and coverage are the candidate's.
    pub(crate) fn base(&self) -> &ExecutionState {
        match self {
            Candidate::Live(state) => state,
            Candidate::Pending(sibling) => sibling.snapshot(),
        }
    }

    /// The candidate's state, materializing a pending sibling (a lease).
    /// In debug builds, checks that the sibling's pending [`StateMeta`] is
    /// its state's.
    pub fn into_state(self) -> Box<ExecutionState> {
        match self {
            Candidate::Live(state) => state,
            Candidate::Pending(sibling) => {
                #[cfg(debug_assertions)]
                let pending = sibling.meta();
                let state = Box::new(sibling.materialize());
                #[cfg(debug_assertions)]
                debug_assert_eq!(pending, StateMeta::of(&state), "pending sibling's meta");
                state
            }
        }
    }
}
