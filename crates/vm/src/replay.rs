//! Job replay: reconstructing transferred execution states.
//!
//! A transferred job is the decision path from the root of the execution
//! tree to the node it designates (§3.2); the receiving worker rebuilds
//! ("materializes") the node by re-executing the program and following the
//! recorded decisions. The [`ReplayEngine`] owns that re-execution loop —
//! previously an ad-hoc loop around [`ReplayCursor`] in the worker — and
//! adds the two capabilities batched materialization is built on:
//!
//! * **Resumable prefixes.** A replaying state paused right after consuming
//!   its `k`-th decision is a faithful reconstruction of the depth-`k`
//!   prefix node. Cloning it (cheap: memory and expressions are
//!   copy-on-write) yields an *anchor* from which any job sharing that
//!   prefix can be materialized by replaying only its suffix —
//!   [`ReplayEngine::resume`]. The [`ReplayEngine::run`] driver reports
//!   every consumed decision to an `on_choice` hook so callers can snapshot
//!   anchors exactly at those points.
//! * **Structured divergence.** A job whose recorded decisions no longer
//!   match the branches the replayed execution reaches (a corrupted or
//!   stale job) terminates with
//!   [`TerminationReason::ReplayDivergence`] and is reported as
//!   [`ReplayProgress::Diverged`] — never a panic, and never a silently
//!   mis-explored path.
//!
//! Determinism: replay never queries the searcher, never forks surviving
//! siblings (fork sites follow the recorded decision instead), and every
//! solver value it concretizes is the canonical model for the exact
//! constraint set — so a state materialized from an anchor is the same
//! state a from-root replay produces, decision for decision, constraint
//! for constraint.

use crate::errors::TerminationReason;
use crate::executor::{Executor, StepResult};
use crate::state::{ExecutionState, PathChoice, ReplayCursor, StateId, StateIdGen};
use serde::{Deserialize, Serialize};

/// Configuration of a worker's prefix-anchor replay cache (the
/// `--replay-cache` flag). The cache itself lives in `c9-core`; the
/// configuration is defined here so the wire run spec can carry it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReplayCacheConfig {
    /// Maximum number of anchors kept. Zero disables the cache entirely
    /// (every materialization replays from the root — the paper's
    /// baseline behaviour).
    pub capacity: usize,
    /// Approximate byte budget across all cached anchor states (the
    /// estimate counts logical state size, not CoW-shared physical bytes).
    /// Zero means no byte limit beyond `capacity`.
    pub max_bytes: u64,
}

impl Default for ReplayCacheConfig {
    fn default() -> ReplayCacheConfig {
        ReplayCacheConfig {
            capacity: 256,
            max_bytes: 64 << 20,
        }
    }
}

impl ReplayCacheConfig {
    /// The disabled configuration (naive per-job root replay).
    pub const DISABLED: ReplayCacheConfig = ReplayCacheConfig {
        capacity: 0,
        max_bytes: 0,
    };

    /// Whether any anchors may be cached.
    pub fn enabled(&self) -> bool {
        self.capacity > 0
    }
}

/// How one [`ReplayEngine::run`] drive ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplayProgress {
    /// Every recorded decision was consumed; the state is live at the
    /// job's node and ready to explore.
    Ready,
    /// The state terminated exactly at the end of the recorded path: the
    /// job designates a completed path (a replayed bug or exit), which the
    /// caller accounts like any other terminated state.
    Completed,
    /// The recorded path disagrees with the replayed execution; the state
    /// carries [`TerminationReason::ReplayDivergence`] and must be
    /// discarded, not explored.
    Diverged,
    /// The instruction budget ran out mid-replay. The state is live and
    /// still replaying; it can be driven again (or stepped in normal
    /// execution slices, which keep following the cursor).
    OutOfBudget,
}

/// The outcome of one [`ReplayEngine::run`] drive.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReplayRun {
    /// How the drive ended.
    pub progress: ReplayProgress,
    /// Instructions actually executed by this drive (the replay work that
    /// was *not* avoided).
    pub executed: u64,
}

/// Replays execution states along recorded decision paths.
///
/// Stateless apart from the borrowed [`Executor`]; one engine can serve any
/// number of materializations.
pub struct ReplayEngine<'a> {
    executor: &'a Executor,
}

impl<'a> ReplayEngine<'a> {
    /// Creates a replay engine stepping states with `executor`.
    pub fn new(executor: &'a Executor) -> ReplayEngine<'a> {
        ReplayEngine { executor }
    }

    /// Creates a from-root replay state for `path`: the initial state of
    /// the program with the full decision path installed as its cursor.
    pub fn start(&self, id: StateId, path: Vec<PathChoice>) -> ExecutionState {
        self.executor.replay_state(id, path)
    }

    /// Resumes replay from an anchor snapshot: `anchor` must be a clone of
    /// a replaying state paused right after consuming its last decision
    /// (i.e. `anchor.path` is a prefix of the target job's path), and
    /// `suffix` the remaining decisions below that prefix. The trunk the
    /// anchor already executed is not re-run — that is the entire saving.
    pub fn resume(
        &self,
        mut anchor: ExecutionState,
        id: StateId,
        suffix: Vec<PathChoice>,
    ) -> ExecutionState {
        anchor.id = id;
        anchor.replay = ReplayCursor::new(suffix);
        anchor
    }

    /// Drives `state` until its cursor is exhausted, it terminates, or
    /// `budget` instructions have executed. `on_choice` fires after every
    /// consumed decision, with the state paused right after it — the
    /// positions prefix anchors are snapshotted at. Fork results during
    /// replay carry only already-terminated siblings (duplicate bug states
    /// the exporting worker has already accounted); they are dropped, as
    /// the classic materialization loop always did.
    pub fn run(
        &self,
        state: &mut ExecutionState,
        ids: &mut StateIdGen,
        budget: u64,
        mut on_choice: impl FnMut(&ExecutionState),
    ) -> ReplayRun {
        let mut span = c9_trace::Span::enter(c9_trace::SpanKind::Replay);
        let mut executed = 0u64;
        while state.is_replaying() && !state.is_terminated() {
            if executed >= budget {
                span.detail(executed);
                return ReplayRun {
                    progress: ReplayProgress::OutOfBudget,
                    executed,
                };
            }
            let depth_before = state.depth();
            match self.executor.step(state, ids) {
                StepResult::Continue | StepResult::Forked(_) => {
                    executed += 1;
                    if state.depth() > depth_before {
                        on_choice(state);
                    }
                }
                StepResult::Terminated(_) => {
                    executed += 1;
                    break;
                }
            }
        }
        let progress = if !state.is_terminated() {
            ReplayProgress::Ready
        } else if matches!(
            state.termination,
            Some(TerminationReason::ReplayDivergence { .. })
        ) {
            ReplayProgress::Diverged
        } else if state.is_replaying() {
            // The program ended before the recorded path did: the job
            // claims decisions below a node that terminates. Reclassify as
            // a divergence so the caller never counts it as a completed
            // path (the exporting worker still owns that accounting).
            let reason = TerminationReason::ReplayDivergence {
                depth: state.depth(),
                detail: format!(
                    "execution terminated ({:?}) with recorded decisions remaining",
                    state.termination
                ),
            };
            state.termination = Some(reason);
            ReplayProgress::Diverged
        } else {
            ReplayProgress::Completed
        };
        if progress == ReplayProgress::Diverged {
            c9_trace::warn!(
                "replay diverged at depth {} after {executed} instructions",
                state.depth()
            );
        }
        span.detail(executed);
        ReplayRun { progress, executed }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::NullEnvironment;
    use crate::executor::ExecutorConfig;
    use crate::state::StateId;
    use c9_ir::{BinaryOp, Operand, Program, ProgramBuilder, Width};
    use std::sync::Arc;

    /// A program with `n` symbolic bytes and 2^n paths.
    fn branching_program(n: usize) -> Program {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main", 0, Some(Width::W32));
        let buf = f.alloc(Operand::word(n as u32));
        f.syscall(
            crate::sysno::MAKE_SYMBOLIC,
            vec![Operand::Reg(buf), Operand::word(n as u32)],
        );
        let mut next = f.create_block();
        for i in 0..n {
            let addr = f.binary(BinaryOp::Add, Operand::Reg(buf), Operand::word(i as u32));
            let byte = f.load(Operand::Reg(addr), Width::W8);
            let cond = f.binary(BinaryOp::Ult, Operand::Reg(byte), Operand::byte(64));
            let then_bb = f.create_block();
            f.branch(Operand::Reg(cond), then_bb, next);
            f.switch_to(then_bb);
            f.jump(next);
            f.switch_to(next);
            if i + 1 < n {
                next = f.create_block();
            }
        }
        f.ret(Some(Operand::word(0)));
        let main = f.finish();
        pb.set_entry(main);
        pb.finish()
    }

    fn executor(n: usize) -> Executor {
        Executor::new(
            Arc::new(branching_program(n)),
            Arc::new(c9_solver::Solver::new()),
            Arc::new(NullEnvironment),
            ExecutorConfig::default(),
        )
    }

    fn fingerprint(state: &ExecutionState) -> (Vec<PathChoice>, usize, u64, u64) {
        (
            state.path.clone(),
            state.constraints.len(),
            state.stats.replay_instructions,
            state.coverage.count() as u64,
        )
    }

    #[test]
    fn resumed_replay_matches_from_root_replay() {
        let exec = executor(4);
        let engine = ReplayEngine::new(&exec);
        let path: Vec<PathChoice> = (0..4).map(|i| PathChoice::Branch(i % 2 == 0)).collect();

        // Baseline: full from-root replay, snapshotting at depth 2.
        let mut ids = StateIdGen::new();
        let mut full = engine.start(ids.fresh(), path.clone());
        let mut anchor: Option<ExecutionState> = None;
        let run = engine.run(&mut full, &mut ids, u64::MAX, |s| {
            if s.depth() == 2 {
                anchor = Some(s.clone());
            }
        });
        assert_eq!(run.progress, ReplayProgress::Ready);
        let anchor = anchor.expect("depth-2 snapshot taken");
        assert_eq!(anchor.path, &path[..2]);

        // Resume the suffix from the anchor; the result must be the same
        // state the full replay produced (same decisions, constraints,
        // canonical per-path stats, coverage) at a fraction of the work.
        let mut ids2 = StateIdGen::strided(100, 1);
        let saved = anchor.stats.replay_instructions;
        assert!(saved > 0);
        let mut resumed = engine.resume(anchor, StateId(100), path[2..].to_vec());
        let run2 = engine.run(&mut resumed, &mut ids2, u64::MAX, |_| {});
        assert_eq!(run2.progress, ReplayProgress::Ready);
        assert_eq!(fingerprint(&resumed), fingerprint(&full));
        assert_eq!(run2.executed + saved, run.executed, "trunk not skipped");
    }

    #[test]
    fn mismatched_choice_kind_is_a_structured_divergence() {
        let exec = executor(2);
        let engine = ReplayEngine::new(&exec);
        // The program only records Branch decisions; an Alt is corrupt.
        let mut ids = StateIdGen::new();
        let mut state = engine.start(
            ids.fresh(),
            vec![PathChoice::Alt {
                chosen: 1,
                total: 3,
            }],
        );
        let run = engine.run(&mut state, &mut ids, u64::MAX, |_| {});
        assert_eq!(run.progress, ReplayProgress::Diverged);
        match &state.termination {
            Some(TerminationReason::ReplayDivergence { depth, .. }) => assert_eq!(*depth, 0),
            other => panic!("expected ReplayDivergence, got {other:?}"),
        }
    }

    #[test]
    fn path_longer_than_execution_is_a_divergence() {
        let exec = executor(1);
        let engine = ReplayEngine::new(&exec);
        // One real decision, five recorded: the program exits with
        // decisions left over.
        let path: Vec<PathChoice> = (0..5).map(|_| PathChoice::Branch(true)).collect();
        let mut ids = StateIdGen::new();
        let mut state = engine.start(ids.fresh(), path);
        let run = engine.run(&mut state, &mut ids, u64::MAX, |_| {});
        assert_eq!(run.progress, ReplayProgress::Diverged);
        assert!(matches!(
            state.termination,
            Some(TerminationReason::ReplayDivergence { depth: 1, .. })
        ));
    }

    #[test]
    fn budget_exhaustion_leaves_a_resumable_state() {
        let exec = executor(3);
        let engine = ReplayEngine::new(&exec);
        let path: Vec<PathChoice> = (0..3).map(|_| PathChoice::Branch(false)).collect();
        let mut ids = StateIdGen::new();
        let mut state = engine.start(ids.fresh(), path);
        let first = engine.run(&mut state, &mut ids, 2, |_| {});
        assert_eq!(first.progress, ReplayProgress::OutOfBudget);
        assert_eq!(first.executed, 2);
        let rest = engine.run(&mut state, &mut ids, u64::MAX, |_| {});
        assert_eq!(rest.progress, ReplayProgress::Ready);
        assert_eq!(state.depth(), 3);
    }

    #[test]
    fn a_consumed_cursor_is_dropped_and_a_live_one_is_shared() {
        let exec = executor(200);
        let engine = ReplayEngine::new(&exec);
        let path: Vec<PathChoice> = (0..200).map(|i| PathChoice::Branch(i % 3 == 0)).collect();
        let mut ids = StateIdGen::new();
        let mut state = engine.start(ids.fresh(), path.clone());

        // Mid-replay, forks (and anchors) point at the job's one allocation.
        let mut forks = Vec::new();
        let run = engine.run(&mut state, &mut ids, u64::MAX, |s| {
            if s.depth() == 100 {
                forks.push(s.fork(StateId(1000)));
                forks.push(s.fork(StateId(1001)));
            }
        });
        let cursors: Vec<&ReplayCursor> = forks
            .iter()
            .map(|fork| fork.replay.as_ref().expect("forked mid-replay"))
            .collect();
        assert!(Arc::ptr_eq(&cursors[0].choices, &cursors[1].choices));
        assert_eq!((cursors[0].pos, cursors[0].choices.len()), (100, 200));

        // Once every decision is consumed nothing of the job is left on the
        // state, so nothing of it is copied into the forks that follow.
        assert_eq!(run.progress, ReplayProgress::Ready);
        assert_eq!(state.path, path);
        assert_eq!(state.replay, None);
        assert!(!state.is_replaying());

        // Nothing to replay installs no cursor either.
        assert_eq!(engine.start(ids.fresh(), Vec::new()).replay, None);
        let resumed = engine.resume(forks.pop().expect("two forks"), StateId(7), Vec::new());
        assert_eq!(resumed.replay, None);
    }

    #[test]
    fn completed_replay_is_reported_as_completed() {
        let exec = executor(1);
        let engine = ReplayEngine::new(&exec);
        // Replay a full path to a leaf and keep stepping: consuming the
        // single decision leaves a live state whose continued execution
        // terminates normally (not a divergence).
        let mut ids = StateIdGen::new();
        let mut state = engine.start(ids.fresh(), vec![PathChoice::Branch(true)]);
        let run = engine.run(&mut state, &mut ids, u64::MAX, |_| {});
        assert_eq!(run.progress, ReplayProgress::Ready);
        while !state.is_terminated() {
            exec.step(&mut state, &mut ids);
        }
        assert!(matches!(
            state.termination,
            Some(TerminationReason::Exit(0))
        ));
    }
}
