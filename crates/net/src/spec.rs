//! Run-spec validation and the defaults a spec's fields start from.
//!
//! A `RunSpec` is the contract between the coordinator and every worker of
//! a run. A malformed one (a zero quantum, zero threads) would surface
//! only as a hung or silently idle cluster: a worker given a zero quantum
//! has work, runs zero instructions and never sleeps. So both
//! ends check it with [`RunSpec::validate`]: the coordinator before it
//! ships a spec, a worker before it arms heartbeats for one it received.

use crate::message::RunSpec;
use std::time::Duration;

/// Instructions a worker executes per quantum between message-handling
/// points, unless `--quantum` says otherwise. Controls (`Balance`, `Stop`,
/// `Inject`) are read only between quanta, so this is the bound on how
/// stale a control can get: 2 000 instructions take a few milliseconds
/// even on solver-bound code.
pub const DEFAULT_QUANTUM: u64 = 2_000;

/// How often a worker's transport sends a liveness heartbeat to the
/// coordinator, independently of the worker loop, so a worker deep in a
/// solver call still looks alive. A `--heartbeat-timeout` should span many
/// of these.
pub const HEARTBEAT_INTERVAL: Duration = Duration::from_millis(25);

/// Why [`RunSpec::validate`] refused a [`RunSpec`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RunSpecError {
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
            RunSpecError::ZeroQuantum => write!(f, "execution quantum must be non-zero"),
            RunSpecError::ZeroThreads => write!(f, "executor thread count must be non-zero"),
            RunSpecError::ZeroStatusInterval => {
                write!(f, "status-report interval must be non-zero")
            }
        }
    }
}

impl std::error::Error for RunSpecError {}

impl RunSpec {
    /// Checks the invariants a worker needs to execute this spec: a
    /// non-zero quantum, thread count and status interval.
    pub fn validate(&self) -> Result<(), RunSpecError> {
        if self.quantum == 0 {
            return Err(RunSpecError::ZeroQuantum);
        }
        if self.threads == 0 {
            return Err(RunSpecError::ZeroThreads);
        }
        if self.status_interval.is_zero() {
            return Err(RunSpecError::ZeroStatusInterval);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::EnvSpec;
    use c9_vm::{ExecutorConfig, StrategyKind};

    fn spec() -> RunSpec {
        let mut pb = c9_ir::ProgramBuilder::new();
        pb.set_name("trivial");
        let mut f = pb.function("main", 0, Some(c9_ir::Width::W32));
        f.ret(Some(c9_ir::Operand::word(0)));
        let main = f.finish();
        pb.set_entry(main);
        RunSpec {
            program: pb.finish(),
            env: EnvSpec::Null,
            executor: ExecutorConfig::default(),
            seed: 1,
            strategy: StrategyKind::default(),
            generate_test_cases: false,
            threads: 1,
            quantum: DEFAULT_QUANTUM,
            status_interval: Duration::from_millis(10),
            seed_root: false,
            worker_epoch: 0,
        }
    }

    #[test]
    fn a_spec_with_nonzero_settings_is_valid() {
        assert_eq!(spec().validate(), Ok(()));
    }

    #[test]
    fn zero_quantum_threads_and_interval_are_rejected() {
        let zero_quantum = RunSpec {
            quantum: 0,
            ..spec()
        };
        assert_eq!(zero_quantum.validate(), Err(RunSpecError::ZeroQuantum));
        let zero_threads = RunSpec {
            threads: 0,
            ..spec()
        };
        assert_eq!(zero_threads.validate(), Err(RunSpecError::ZeroThreads));
        let zero_interval = RunSpec {
            status_interval: Duration::ZERO,
            ..spec()
        };
        assert_eq!(
            zero_interval.validate(),
            Err(RunSpecError::ZeroStatusInterval)
        );
    }
}
