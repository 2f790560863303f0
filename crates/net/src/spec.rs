//! Validated construction of [`RunSpec`]s.
//!
//! A `RunSpec` is the contract between the coordinator and every worker of
//! a run; a malformed one (no program, a zero quantum, the reserved service
//! run id) used to surface only as a hung or silently idle cluster, because
//! the binaries hand-assembled the public struct field by field. The
//! builder makes the invariants explicit: every way to construct a spec
//! goes through [`RunSpecBuilder::build`], which returns a typed
//! [`RunSpecError`] instead of shipping a spec the cluster cannot execute.

use crate::id::RunId;
use crate::message::{EnvSpec, ExportOrder, RunSpec};
use c9_ir::Program;
use c9_solver::SolverBackendKind;
use c9_vm::{ExecutorConfig, ReplayCacheConfig, StrategyKind};
use std::time::Duration;

/// Instructions a worker executes per quantum between message-handling
/// points, unless `--quantum` says otherwise. Controls (`Balance`, `Stop`,
/// `Inject`) are read only between quanta, so this is the bound on how
/// stale a control can get: 2 000 instructions take a few milliseconds
/// even on solver-bound code.
pub const DEFAULT_QUANTUM: u64 = 2_000;

/// Why a [`RunSpecBuilder`] refused to build a [`RunSpec`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RunSpecError {
    /// No program under test was supplied.
    MissingProgram,
    /// The run id is the reserved [`RunId::SERVICE`] sentinel, which
    /// addresses the worker daemon itself and can never name a run.
    ReservedRunId,
    /// The execution quantum is zero: workers would never step a state
    /// between message-handling points.
    ZeroQuantum,
    /// The executor thread count is zero.
    ZeroThreads,
    /// The status-report interval is zero: workers would flood the
    /// coordinator with back-to-back reports.
    ZeroStatusInterval,
}

impl std::fmt::Display for RunSpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunSpecError::MissingProgram => write!(f, "run spec has no program under test"),
            RunSpecError::ReservedRunId => {
                write!(f, "run id {} is reserved for the service", RunId::SERVICE)
            }
            RunSpecError::ZeroQuantum => write!(f, "execution quantum must be non-zero"),
            RunSpecError::ZeroThreads => write!(f, "executor thread count must be non-zero"),
            RunSpecError::ZeroStatusInterval => {
                write!(f, "status-report interval must be non-zero")
            }
        }
    }
}

impl std::error::Error for RunSpecError {}

/// Builder for [`RunSpec`] with validation.
///
/// Defaults mirror a fresh single-run cluster: run id 1, null environment,
/// default strategy, one executor thread, a [`DEFAULT_QUANTUM`]-instruction
/// quantum, and a 10 ms status interval.
#[derive(Clone, Debug)]
pub struct RunSpecBuilder {
    program: Option<Program>,
    env: EnvSpec,
    executor: ExecutorConfig,
    seed: u64,
    strategy: StrategyKind,
    generate_test_cases: bool,
    export_order: ExportOrder,
    replay_cache: ReplayCacheConfig,
    threads: usize,
    quantum: u64,
    status_interval: Duration,
    seed_root: bool,
    run: RunId,
    worker_epoch: u64,
    heartbeat_interval: Duration,
    snapshot_every: u32,
    solver_cache: Option<usize>,
    solver_backend: SolverBackendKind,
    cache_gossip: bool,
}

impl Default for RunSpecBuilder {
    fn default() -> RunSpecBuilder {
        RunSpecBuilder {
            program: None,
            env: EnvSpec::Null,
            executor: ExecutorConfig::default(),
            seed: 1,
            strategy: StrategyKind::default(),
            generate_test_cases: false,
            export_order: ExportOrder::Shallowest,
            replay_cache: ReplayCacheConfig::default(),
            threads: 1,
            quantum: DEFAULT_QUANTUM,
            status_interval: Duration::from_millis(10),
            seed_root: false,
            run: RunId(1),
            worker_epoch: 0,
            heartbeat_interval: Duration::ZERO,
            snapshot_every: 0,
            solver_cache: None,
            solver_backend: SolverBackendKind::Canonical,
            cache_gossip: true,
        }
    }
}

impl RunSpecBuilder {
    /// A builder with the documented defaults.
    pub fn new() -> RunSpecBuilder {
        RunSpecBuilder::default()
    }

    /// Sets the program under test (required).
    pub fn program(mut self, program: Program) -> Self {
        self.program = Some(program);
        self
    }

    /// Sets the environment model workers should instantiate.
    pub fn env(mut self, env: EnvSpec) -> Self {
        self.env = env;
        self
    }

    /// Sets the per-path executor limits.
    pub fn executor(mut self, executor: ExecutorConfig) -> Self {
        self.executor = executor;
        self
    }

    /// Sets the random seed (combined with the worker id).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the exploration strategy.
    pub fn strategy(mut self, strategy: StrategyKind) -> Self {
        self.strategy = strategy;
        self
    }

    /// Enables or disables concrete test-case generation per completed path.
    pub fn generate_test_cases(mut self, on: bool) -> Self {
        self.generate_test_cases = on;
        self
    }

    /// Sets which frontier candidates are exported first when shedding load.
    pub fn export_order(mut self, order: ExportOrder) -> Self {
        self.export_order = order;
        self
    }

    /// Sets the prefix-anchor replay cache budget.
    pub fn replay_cache(mut self, config: ReplayCacheConfig) -> Self {
        self.replay_cache = config;
        self
    }

    /// Sets the number of executor threads per worker (must be non-zero).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the instructions per worker quantum (must be non-zero).
    pub fn quantum(mut self, quantum: u64) -> Self {
        self.quantum = quantum;
        self
    }

    /// Sets the status-report interval (must be non-zero).
    pub fn status_interval(mut self, interval: Duration) -> Self {
        self.status_interval = interval;
        self
    }

    /// Marks the receiving worker as the one seeding the root job.
    pub fn seed_root(mut self, seed_root: bool) -> Self {
        self.seed_root = seed_root;
        self
    }

    /// Sets the run identity (must not be [`RunId::SERVICE`]).
    pub fn run(mut self, run: RunId) -> Self {
        self.run = run;
        self
    }

    /// Sets the receiving worker's fencing epoch.
    pub fn worker_epoch(mut self, epoch: u64) -> Self {
        self.worker_epoch = epoch;
        self
    }

    /// Sets the transport heartbeat interval (zero disables heartbeats).
    pub fn heartbeat_interval(mut self, interval: Duration) -> Self {
        self.heartbeat_interval = interval;
        self
    }

    /// Includes a frontier snapshot in every `n`-th status report (zero =
    /// never).
    pub fn snapshot_every(mut self, n: u32) -> Self {
        self.snapshot_every = n;
        self
    }

    /// Overrides the solver query-cache capacity (`None` keeps the
    /// solver's built-in default).
    pub fn solver_cache(mut self, capacity: Option<usize>) -> Self {
        self.solver_cache = capacity;
        self
    }

    /// Sets the solver backend strategy workers run.
    pub fn solver_backend(mut self, backend: SolverBackendKind) -> Self {
        self.solver_backend = backend;
        self
    }

    /// Enables or disables constraint-cache gossip for the run.
    pub fn cache_gossip(mut self, on: bool) -> Self {
        self.cache_gossip = on;
        self
    }

    /// Validates the configuration and builds the [`RunSpec`].
    pub fn build(self) -> Result<RunSpec, RunSpecError> {
        let program = self.program.ok_or(RunSpecError::MissingProgram)?;
        if self.run == RunId::SERVICE {
            return Err(RunSpecError::ReservedRunId);
        }
        if self.quantum == 0 {
            return Err(RunSpecError::ZeroQuantum);
        }
        if self.threads == 0 {
            return Err(RunSpecError::ZeroThreads);
        }
        if self.status_interval.is_zero() {
            return Err(RunSpecError::ZeroStatusInterval);
        }
        Ok(RunSpec {
            program,
            env: self.env,
            executor: self.executor,
            seed: self.seed,
            strategy: self.strategy,
            generate_test_cases: self.generate_test_cases,
            export_order: self.export_order,
            replay_cache: self.replay_cache,
            threads: self.threads,
            quantum: self.quantum,
            status_interval: self.status_interval,
            seed_root: self.seed_root,
            run: self.run,
            worker_epoch: self.worker_epoch,
            heartbeat_interval: self.heartbeat_interval,
            snapshot_every: self.snapshot_every,
            solver_cache: self.solver_cache,
            solver_backend: self.solver_backend,
            cache_gossip: self.cache_gossip,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn program() -> Program {
        let mut pb = c9_ir::ProgramBuilder::new();
        pb.set_name("trivial");
        let mut f = pb.function("main", 0, Some(c9_ir::Width::W32));
        f.ret(Some(c9_ir::Operand::word(0)));
        let main = f.finish();
        pb.set_entry(main);
        pb.finish()
    }

    #[test]
    fn builds_with_defaults_once_program_is_set() {
        let spec = RunSpecBuilder::new()
            .program(program())
            .build()
            .expect("valid spec");
        assert_eq!(spec.run, RunId(1));
        assert_eq!(spec.threads, 1);
        assert_eq!(spec.quantum, DEFAULT_QUANTUM);
        assert_eq!(spec.export_order, ExportOrder::Shallowest);
        assert_eq!(spec.solver_cache, None);
        assert_eq!(spec.solver_backend, SolverBackendKind::Canonical);
        assert!(spec.cache_gossip, "gossip defaults on");
    }

    #[test]
    fn solver_settings_flow_into_the_spec() {
        let spec = RunSpecBuilder::new()
            .program(program())
            .solver_cache(Some(4096))
            .solver_backend(SolverBackendKind::Race)
            .cache_gossip(false)
            .build()
            .expect("valid spec");
        assert_eq!(spec.solver_cache, Some(4096));
        assert_eq!(spec.solver_backend, SolverBackendKind::Race);
        assert!(!spec.cache_gossip);
    }

    #[test]
    fn missing_program_is_rejected() {
        assert_eq!(
            RunSpecBuilder::new().build().unwrap_err(),
            RunSpecError::MissingProgram
        );
    }

    #[test]
    fn reserved_run_id_is_rejected() {
        let err = RunSpecBuilder::new()
            .program(program())
            .run(RunId::SERVICE)
            .build()
            .unwrap_err();
        assert_eq!(err, RunSpecError::ReservedRunId);
    }

    #[test]
    fn zero_quantum_threads_and_interval_are_rejected() {
        let base = RunSpecBuilder::new().program(program());
        assert_eq!(
            base.clone().quantum(0).build().unwrap_err(),
            RunSpecError::ZeroQuantum
        );
        assert_eq!(
            base.clone().threads(0).build().unwrap_err(),
            RunSpecError::ZeroThreads
        );
        assert_eq!(
            base.status_interval(Duration::ZERO).build().unwrap_err(),
            RunSpecError::ZeroStatusInterval
        );
    }

    #[test]
    fn export_order_round_trips_through_display() {
        for order in [ExportOrder::Shallowest, ExportOrder::Deepest] {
            let parsed: ExportOrder = order.to_string().parse().expect("round-trip");
            assert_eq!(parsed, order);
        }
        assert!("middle-out".parse::<ExportOrder>().is_err());
    }
}
