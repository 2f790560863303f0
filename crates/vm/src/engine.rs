//! The single-node symbolic execution engine.
//!
//! [`Engine`] drives exploration of one program on one node, the way KLEE
//! does: it owns the set of active states, asks its [`Searcher`] which state
//! to run next, steps it with the [`Executor`], and collects test cases and
//! bug reports from terminated paths. The cluster layer (`c9-core`) does not
//! use `Engine` directly — each worker embeds an `Executor` and adds the
//! execution-tree bookkeeping required for job transfers — but `Engine` is
//! the single-node baseline the evaluation compares against ("1-worker
//! Cloud9" / KLEE).

use crate::coverage::CoverageSet;
use crate::env::Environment;
use crate::executor::{Executor, ExecutorConfig, StepResult};
use crate::pending::Candidate;
use crate::searcher::{Searcher, StateMeta};
use crate::state::{ExecutionState, StateId, StateIdGen};
use crate::testcase::TestCase;
use c9_ir::Program;
use c9_solver::Solver;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Limits for a single-node exploration run.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Executor (per-path) configuration.
    pub executor: ExecutorConfig,
    /// Stop after this many paths have terminated (0 = unlimited).
    pub max_paths: usize,
    /// Stop after this many instructions in total (0 = unlimited).
    pub max_instructions: u64,
    /// Stop after this much wall-clock time.
    pub max_time: Option<Duration>,
    /// Whether to solve for a concrete test case at the end of every path
    /// (disable to measure pure exploration throughput).
    pub generate_test_cases: bool,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            executor: ExecutorConfig::default(),
            max_paths: 0,
            max_instructions: 0,
            max_time: None,
            generate_test_cases: true,
        }
    }
}

/// Outcome of a run: everything the paper's evaluation measures at the level
/// of one node.
#[derive(Clone, Debug, Default)]
pub struct RunSummary {
    /// Number of completed (terminated) paths.
    pub paths_completed: usize,
    /// Test cases generated (one per completed path, when enabled).
    pub test_cases: Vec<TestCase>,
    /// Test cases that expose bugs.
    pub bugs: Vec<TestCase>,
    /// Union of line coverage over all explored paths.
    pub coverage: CoverageSet,
    /// Useful (non-replay) instructions executed.
    pub instructions: u64,
    /// Replay instructions executed (always 0 on a single node).
    pub replay_instructions: u64,
    /// Number of states still active when the run stopped.
    pub states_remaining: usize,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Whether the exploration exhausted every path (no states remaining).
    pub exhausted: bool,
}

impl RunSummary {
    /// Line coverage as a fraction of the program's lines.
    pub fn coverage_ratio(&self) -> f64 {
        self.coverage.ratio()
    }
}

/// A single-node symbolic execution engine.
pub struct Engine {
    executor: Executor,
    solver: Arc<Solver>,
    config: EngineConfig,
    searcher: Box<dyn Searcher>,
    states: BTreeMap<StateId, Candidate>,
    ids: StateIdGen,
    program_lines: usize,
}

impl Engine {
    /// Creates an engine for `program` with the given environment model,
    /// searcher and configuration.
    pub fn new(
        program: Arc<Program>,
        env: Arc<dyn Environment>,
        searcher: Box<dyn Searcher>,
        config: EngineConfig,
    ) -> Engine {
        let solver = Arc::new(Solver::new());
        let program_lines = program.loc();
        let executor = Executor::new(program.clone(), solver.clone(), env, config.executor);
        Engine {
            executor,
            solver,
            config,
            searcher,
            states: BTreeMap::new(),
            ids: StateIdGen::new(),
            program_lines,
        }
    }

    /// Access to the executor (e.g. for setting up custom initial states).
    pub fn executor(&self) -> &Executor {
        &self.executor
    }

    /// Access to the solver shared by this engine.
    pub fn solver(&self) -> &Arc<Solver> {
        &self.solver
    }

    /// Adds an initial state. When none is added before [`Engine::run`], the
    /// program's default initial state is used.
    pub fn add_state(&mut self, state: ExecutionState) {
        self.reinsert(Box::new(state));
    }

    /// Creates and adds the default initial state, returning its id.
    pub fn add_initial_state(&mut self) -> StateId {
        let id = self.ids.fresh();
        let state = self.executor.initial_state(id);
        self.add_state(state);
        id
    }

    /// Runs until a stopping condition from the configuration is reached, or
    /// every path has been explored.
    pub fn run(&mut self) -> RunSummary {
        let start = Instant::now();
        if self.states.is_empty() {
            self.add_initial_state();
        }
        let mut summary = RunSummary {
            coverage: CoverageSet::new(self.program_lines),
            ..RunSummary::default()
        };

        loop {
            if self.should_stop(&summary, start) {
                break;
            }
            let Some(id) = self.searcher.select() else {
                summary.exhausted = true;
                break;
            };
            let Some(candidate) = self.states.remove(&id) else {
                self.searcher.remove(id);
                continue;
            };
            self.searcher.remove(id);
            let mut state = candidate.into_state();

            // Step the selected state until it forks or terminates, bounded
            // so the searcher still gets a say periodically.
            let mut budget = 512u32;
            loop {
                match self.executor.step(&mut state, &mut self.ids) {
                    StepResult::Continue => {
                        budget -= 1;
                        if budget == 0 {
                            self.reinsert(state);
                            break;
                        }
                    }
                    StepResult::Forked(siblings) => {
                        for sibling in siblings {
                            self.searcher.add(sibling.meta());
                            self.states.insert(sibling.id, Candidate::Pending(sibling));
                        }
                        self.reinsert(state);
                        break;
                    }
                    StepResult::BugForked(bug) => {
                        self.finish_path(*bug, &mut summary);
                        self.reinsert(state);
                        break;
                    }
                    StepResult::Terminated(_) => {
                        self.finish_path(*state, &mut summary);
                        break;
                    }
                }
            }
        }

        summary.states_remaining = self.states.len();
        if self.states.is_empty() {
            summary.exhausted = true;
        }
        summary.elapsed = start.elapsed();
        // Account instructions of still-active states too.
        for state in self.states.values().map(Candidate::base) {
            summary.instructions += state.stats.instructions;
            summary.replay_instructions += state.stats.replay_instructions;
            summary.coverage.merge(&state.coverage);
        }
        summary
    }

    fn reinsert(&mut self, state: Box<ExecutionState>) {
        self.searcher.add(StateMeta::of(&state));
        self.states.insert(state.id, Candidate::Live(state));
    }

    fn should_stop(&self, summary: &RunSummary, start: Instant) -> bool {
        if self.config.max_paths > 0 && summary.paths_completed >= self.config.max_paths {
            return true;
        }
        if self.config.max_instructions > 0 && summary.instructions >= self.config.max_instructions
        {
            return true;
        }
        if let Some(limit) = self.config.max_time {
            if start.elapsed() >= limit {
                return true;
            }
        }
        false
    }

    fn finish_path(&mut self, state: ExecutionState, summary: &mut RunSummary) {
        summary.paths_completed += 1;
        summary.instructions += state.stats.instructions;
        summary.replay_instructions += state.stats.replay_instructions;
        summary.coverage.merge(&state.coverage);
        let is_bug = state
            .termination
            .as_ref()
            .map(|t| t.is_bug())
            .unwrap_or(false);
        if self.config.generate_test_cases || is_bug {
            if let Some(tc) = TestCase::from_state(&state, &self.solver) {
                if tc.is_bug() {
                    summary.bugs.push(tc.clone());
                }
                if self.config.generate_test_cases {
                    summary.test_cases.push(tc);
                }
            }
        }
    }
}
