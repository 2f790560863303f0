//! Shared command-line configuration of the two daemons.
//!
//! `c9-coordinator` and `c9-worker` used to carry their own hand-rolled
//! flag loops; this module owns the grammar for both, so a flag means the
//! same thing everywhere, unknown flags and bad values are typed errors
//! ([`ConfigError`]) instead of ad-hoc `usage()` exits, and the lowering
//! from flags into a [`ClusterConfig`] lives next to the parsing it
//! depends on. The binaries keep only their usage text (which references
//! the target list of `c9-targets` — a crate this one does not depend on)
//! and the exit policy.

use crate::cluster::ClusterConfig;
use c9_trace::Level;
use c9_vm::StrategyKind;
use std::path::PathBuf;
use std::time::Duration;

/// A rejected command line, with enough context to tell the operator what
/// to fix.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// A flag the grammar does not know.
    UnknownFlag(String),
    /// A flag that takes a value appeared last, or its value failed to
    /// parse and looked like the next flag.
    MissingValue(String),
    /// A value that does not parse for its flag.
    InvalidValue {
        /// The flag the value belonged to.
        flag: String,
        /// The offending value text.
        value: String,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::UnknownFlag(flag) => write!(f, "unknown argument: {flag}"),
            ConfigError::MissingValue(flag) => write!(f, "{flag} needs a value"),
            ConfigError::InvalidValue { flag, value } => {
                write!(f, "invalid value for {flag}: {value:?}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Flags shared by both daemons: local resource overrides and
/// observability sinks.
#[derive(Clone, Debug, Default)]
pub struct CommonArgs {
    /// `--threads N`: executor threads (worker: overrides run specs).
    pub threads: Option<usize>,
    /// `--log-level LEVEL`.
    pub log_level: Option<Level>,
    /// `--trace-out FILE`: structured JSONL event sink.
    pub trace_out: Option<PathBuf>,
    /// `--trace-chrome FILE`: Chrome-trace span timeline.
    pub trace_chrome: Option<PathBuf>,
}

/// The parsed `c9-coordinator` command line.
#[derive(Clone, Debug)]
pub struct CoordinatorArgs {
    /// Shared daemon flags.
    pub common: CommonArgs,
    /// `--listen HOST:PORT`: accept worker joins (required).
    pub listen: String,
    /// `--min-workers N`.
    pub min_workers: Option<usize>,
    /// `--join-wait SECS`.
    pub join_wait: Duration,
    /// `--target NAME`.
    pub target: String,
    /// `--time-limit SECS`.
    pub time_limit: Option<Duration>,
    /// `--max-paths N`.
    pub max_paths: Option<u64>,
    /// `--generate-tests`.
    pub generate_tests: bool,
    /// `--heartbeat-timeout S`.
    pub heartbeat_timeout: Option<Duration>,
    /// `--checkpoint FILE`.
    pub checkpoint: Option<PathBuf>,
    /// `--resume FILE`.
    pub resume: Option<PathBuf>,
    /// `--quantum N`.
    pub quantum: Option<u64>,
    /// `--status-interval-ms MS`.
    pub status_interval: Option<Duration>,
    /// `--strategy NAME`.
    pub strategy: Option<StrategyKind>,
    /// `--report-out FILE`.
    pub report_out: Option<PathBuf>,
}

/// The parsed `c9-worker` command line.
#[derive(Clone, Debug)]
pub struct WorkerArgs {
    /// Shared daemon flags.
    pub common: CommonArgs,
    /// `--listen HOST:PORT`: where peers dial this worker for job
    /// transfers (default `127.0.0.1:0`).
    pub listen: String,
    /// `--join HOST:PORT`: the coordinator to join (required).
    pub join: String,
    /// `--once`: exit once the first run ends instead of serving forever.
    pub once: bool,
}

struct Cursor<'a> {
    argv: &'a [String],
    i: usize,
}

impl<'a> Cursor<'a> {
    fn next(&mut self) -> Option<&'a str> {
        let arg = self.argv.get(self.i)?;
        self.i += 1;
        Some(arg)
    }

    fn value(&mut self, flag: &str) -> Result<&'a str, ConfigError> {
        self.next()
            .ok_or_else(|| ConfigError::MissingValue(flag.to_string()))
    }

    fn parsed<T: std::str::FromStr>(&mut self, flag: &str) -> Result<T, ConfigError> {
        let value = self.value(flag)?;
        value.parse().map_err(|_| ConfigError::InvalidValue {
            flag: flag.to_string(),
            value: value.to_string(),
        })
    }

    /// A count that must be at least 1: zero is invalid, like text that is
    /// not a number.
    fn positive(&mut self, flag: &str) -> Result<u64, ConfigError> {
        let value = self.value(flag)?;
        value
            .parse::<u64>()
            .ok()
            .filter(|&n| n > 0)
            .ok_or_else(|| ConfigError::InvalidValue {
                flag: flag.to_string(),
                value: value.to_string(),
            })
    }

    /// A duration in (fractional) seconds. Negative, NaN and overflowing
    /// values are invalid, like text that is not a number.
    fn secs(&mut self, flag: &str) -> Result<Duration, ConfigError> {
        let value = self.value(flag)?;
        value
            .parse::<f64>()
            .ok()
            .and_then(|secs| Duration::try_from_secs_f64(secs).ok())
            .ok_or_else(|| ConfigError::InvalidValue {
                flag: flag.to_string(),
                value: value.to_string(),
            })
    }

    fn path(&mut self, flag: &str) -> Result<PathBuf, ConfigError> {
        Ok(PathBuf::from(self.value(flag)?))
    }
}

fn parse_common(
    cursor: &mut Cursor<'_>,
    flag: &str,
    common: &mut CommonArgs,
) -> Option<Result<(), ConfigError>> {
    let result = match flag {
        "--threads" => cursor
            .positive(flag)
            .map(|n| common.threads = Some(n as usize)),
        "--log-level" => cursor
            .parsed::<Level>(flag)
            .map(|level| common.log_level = Some(level)),
        "--trace-out" => cursor.path(flag).map(|p| common.trace_out = Some(p)),
        "--trace-chrome" => cursor.path(flag).map(|p| common.trace_chrome = Some(p)),
        _ => return None,
    };
    Some(result)
}

/// Parses the `c9-coordinator` argument vector (without the program name).
/// `Err` means the command line is unusable; the caller prints the error
/// and its usage text.
pub fn parse_coordinator_args(argv: &[String]) -> Result<CoordinatorArgs, ConfigError> {
    let mut args = CoordinatorArgs {
        common: CommonArgs::default(),
        listen: String::new(),
        min_workers: None,
        join_wait: Duration::from_secs(60),
        target: String::new(),
        time_limit: None,
        max_paths: None,
        generate_tests: false,
        heartbeat_timeout: None,
        checkpoint: None,
        resume: None,
        quantum: None,
        status_interval: None,
        strategy: None,
        report_out: None,
    };
    let mut cursor = Cursor { argv, i: 0 };
    while let Some(flag) = cursor.next() {
        if let Some(result) = parse_common(&mut cursor, flag, &mut args.common) {
            result?;
            continue;
        }
        match flag {
            "--listen" => args.listen = cursor.value(flag)?.to_string(),
            "--min-workers" => args.min_workers = Some(cursor.parsed(flag)?),
            "--join-wait" => args.join_wait = cursor.secs(flag)?,
            "--target" => args.target = cursor.value(flag)?.to_string(),
            "--time-limit" => args.time_limit = Some(cursor.secs(flag)?),
            "--max-paths" => args.max_paths = Some(cursor.parsed(flag)?),
            "--generate-tests" => args.generate_tests = true,
            "--heartbeat-timeout" => args.heartbeat_timeout = Some(cursor.secs(flag)?),
            "--checkpoint" => args.checkpoint = Some(cursor.path(flag)?),
            "--resume" => args.resume = Some(cursor.path(flag)?),
            "--quantum" => args.quantum = Some(cursor.positive(flag)?),
            "--status-interval-ms" => {
                args.status_interval = Some(Duration::from_millis(cursor.positive(flag)?))
            }
            "--strategy" => args.strategy = Some(cursor.parsed(flag)?),
            "--report-out" => args.report_out = Some(cursor.path(flag)?),
            other => return Err(ConfigError::UnknownFlag(other.to_string())),
        }
    }
    if args.target.is_empty() {
        return Err(ConfigError::MissingValue("--target".into()));
    }
    if args.listen.is_empty() {
        return Err(ConfigError::MissingValue("--listen".into()));
    }
    Ok(args)
}

/// Parses the `c9-worker` argument vector (without the program name).
pub fn parse_worker_args(argv: &[String]) -> Result<WorkerArgs, ConfigError> {
    let mut args = WorkerArgs {
        common: CommonArgs::default(),
        listen: String::from("127.0.0.1:0"),
        join: String::new(),
        once: false,
    };
    let mut cursor = Cursor { argv, i: 0 };
    while let Some(flag) = cursor.next() {
        if let Some(result) = parse_common(&mut cursor, flag, &mut args.common) {
            result?;
            continue;
        }
        match flag {
            "--listen" => args.listen = cursor.value(flag)?.to_string(),
            "--join" => args.join = cursor.value(flag)?.to_string(),
            "--once" => args.once = true,
            other => return Err(ConfigError::UnknownFlag(other.to_string())),
        }
    }
    if args.join.is_empty() {
        return Err(ConfigError::MissingValue("--join".into()));
    }
    Ok(args)
}

impl CoordinatorArgs {
    /// Lowers the parsed flags into the run configuration, minus the resume
    /// checkpoint (loading it from disk is the binary's job — it owns the
    /// target-mismatch exit policy).
    pub fn cluster_config(&self) -> ClusterConfig {
        let mut config = ClusterConfig {
            num_workers: self.min_workers.unwrap_or(1),
            time_limit: self.time_limit,
            max_total_paths: self.max_paths,
            failure_timeout: self.heartbeat_timeout,
            checkpoint_path: self.checkpoint.clone(),
            ..ClusterConfig::default()
        };
        config.worker.generate_test_cases = self.generate_tests;
        if let Some(strategy) = self.strategy {
            config.worker.strategy = strategy;
        }
        if let Some(quantum) = self.quantum {
            config.quantum = quantum;
        }
        if let Some(threads) = self.common.threads {
            config.worker.threads = threads;
        }
        if let Some(interval) = self.status_interval {
            config.status_interval = interval;
        }
        config
    }
}

#[cfg(test)]
mod config_tests {
    use super::*;

    fn argv(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn rejects_unknown_flags() {
        let err = parse_coordinator_args(&argv("--target foo --listen a:1 --frobnicate"))
            .expect_err("unknown flag must be rejected");
        assert_eq!(err, ConfigError::UnknownFlag("--frobnicate".into()));
        let err = parse_worker_args(&argv("--join a:1 --max-paths 5"))
            .expect_err("coordinator-only flag must be rejected by the worker");
        assert_eq!(err, ConfigError::UnknownFlag("--max-paths".into()));
        // One export order, one solver search, share-nothing workers, one
        // strategy per run, fixed worker caches, one run per cluster, and
        // derived or fixed cadences: their former switches are unknown
        // flags like any other.
        for (flag, value) in [
            ("--solver-backend", "race"),
            ("--export-order", "deepest"),
            ("--cache-gossip", "on"),
            ("--portfolio", "dfs"),
            ("--portfolio-adapt", ""),
            ("--replay-cache", "0"),
            ("--solver-cache", "0"),
            ("--serve", "127.0.0.1:0"),
            ("--max-runs", "4"),
            ("--report-dir", "out"),
            ("--snapshot-every", "1"),
            ("--heartbeat-interval-ms", "25"),
            ("--balance-interval-ms", "20"),
            ("--checkpoint-interval", "1"),
            ("--timeline-out", "timeline.csv"),
            ("--quiet", ""),
        ] {
            let err =
                parse_coordinator_args(&argv(&format!("--target foo --listen a:1 {flag} {value}")))
                    .expect_err("a removed flag must be rejected");
            assert_eq!(err, ConfigError::UnknownFlag(flag.into()));
        }
        for (flag, value) in [
            ("--replay-cache", "0"),
            ("--solver-cache", "0"),
            ("--quiet", ""),
        ] {
            let err = parse_worker_args(&argv(&format!("--join a:1 {flag} {value}")))
                .expect_err("a removed flag must be rejected by the worker");
            assert_eq!(err, ConfigError::UnknownFlag(flag.into()));
        }
    }

    #[test]
    fn rejects_missing_values() {
        let err = parse_coordinator_args(&argv("--listen a:1 --target"))
            .expect_err("--target without a value must be rejected");
        assert_eq!(err, ConfigError::MissingValue("--target".into()));
        let err = parse_coordinator_args(&argv("--listen a:1"))
            .expect_err("a missing --target must be rejected");
        assert_eq!(err, ConfigError::MissingValue("--target".into()));
        let err = parse_coordinator_args(&argv("--target foo"))
            .expect_err("a missing --listen must be rejected");
        assert_eq!(err, ConfigError::MissingValue("--listen".into()));
        let err = parse_worker_args(&argv("--listen a:1 --once"))
            .expect_err("a worker without --join must be rejected");
        assert_eq!(err, ConfigError::MissingValue("--join".into()));
        let err = parse_coordinator_args(&argv("--target foo --time-limit soon --listen a:1"))
            .expect_err("non-numeric duration must be rejected");
        assert_eq!(
            err,
            ConfigError::InvalidValue {
                flag: "--time-limit".into(),
                value: "soon".into()
            }
        );
    }

    #[test]
    fn rejects_seconds_that_are_not_a_duration() {
        for flag in ["--time-limit", "--join-wait", "--heartbeat-timeout"] {
            for value in ["-1", "nan", "1e300"] {
                let err = parse_coordinator_args(&argv(&format!(
                    "--target foo --listen a:1 {flag} {value}"
                )))
                .expect_err("a value that is no duration must be rejected");
                assert_eq!(
                    err,
                    ConfigError::InvalidValue {
                        flag: flag.into(),
                        value: value.into()
                    }
                );
            }
            let args =
                parse_coordinator_args(&argv(&format!("--target foo --listen a:1 {flag} 0.5")))
                    .expect("fractional seconds are a duration");
            let parsed = match flag {
                "--time-limit" => args.time_limit,
                "--join-wait" => Some(args.join_wait),
                _ => args.heartbeat_timeout,
            };
            assert_eq!(parsed, Some(Duration::from_millis(500)), "{flag}");
        }
    }

    #[test]
    fn rejects_a_zero_quantum_or_status_interval() {
        for flag in ["--quantum", "--status-interval-ms"] {
            let err = parse_coordinator_args(&argv(&format!("--target foo --listen a:1 {flag} 0")))
                .expect_err("zero must be rejected before the coordinator listens");
            assert_eq!(
                err,
                ConfigError::InvalidValue {
                    flag: flag.into(),
                    value: "0".into()
                }
            );
        }
    }

    #[test]
    fn rejects_zero_threads_in_both_parsers() {
        let expected = ConfigError::InvalidValue {
            flag: "--threads".into(),
            value: "0".into(),
        };
        let err = parse_coordinator_args(&argv("--target foo --listen a:1 --threads 0"))
            .expect_err("zero threads must be rejected before the coordinator listens");
        assert_eq!(err, expected);
        let err = parse_worker_args(&argv("--join a:1 --listen 0.0.0.0:9101 --threads 0"))
            .expect_err("zero threads must be rejected before the worker listens");
        assert_eq!(err, expected);
    }

    #[test]
    fn lowers_flags_into_cluster_config() {
        let args = parse_coordinator_args(&argv(
            "--target foo --listen a:1 --min-workers 2 --max-paths 100 --quantum 64 \
             --threads 3 --generate-tests \
             --status-interval-ms 7",
        ))
        .expect("valid command line");
        let config = args.cluster_config();
        assert_eq!(config.num_workers, 2);
        assert_eq!(config.max_total_paths, Some(100));
        assert_eq!(config.quantum, 64);
        assert_eq!(config.worker.threads, 3);
        assert!(config.worker.generate_test_cases);
        assert_eq!(config.status_interval, Duration::from_millis(7));
    }

    #[test]
    fn parses_worker_args() {
        let args = parse_worker_args(&argv(
            "--join a:1 --listen 0.0.0.0:9101 --once --threads 2 --log-level error",
        ))
        .expect("valid worker command line");
        assert_eq!(args.join, "a:1");
        assert_eq!(args.listen, "0.0.0.0:9101");
        assert!(args.once);
        assert_eq!(args.common.threads, Some(2));
        assert_eq!(args.common.log_level, Some(Level::Error));
    }
}
