//! Intra-worker parallelism equivalence: a worker stepping states on
//! `--threads N` executor threads must explore *exactly* the same
//! exhaustive path set as the classic single-threaded loop — same paths,
//! same useful-instruction total, same bugs, same coverage, same test
//! cases. The shared solver guarantees this by construction (satisfiability
//! bits and canonical models are pure functions of the constraint set), and
//! these tests pin the property on the targets the paper exercises.

use cloud9::core::{Cluster, ClusterConfig, Worker, WorkerConfig};
use cloud9::net::WorkerId;
use cloud9::posix::PosixEnvironment;
use cloud9::targets::{curl, named_workload, printf_util};
use cloud9::vm::{StrategyKind, TestCase};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

/// The observable outcome of exhausting one worker: everything that must
/// be independent of the executor-thread count.
#[derive(Debug, PartialEq)]
struct ExhaustionOutcome {
    paths: u64,
    useful_instructions: u64,
    bugs: u64,
    covered_lines: u64,
    /// Every completed path's test case — inputs, path, termination and
    /// instructions — sorted by path: the execution tree itself, plus what
    /// the slots solved for it.
    test_cases: Vec<TestCase>,
}

/// A worker's test cases as a multiset: sorted by path, which is unique
/// per completed path.
fn sorted_by_path(mut test_cases: Vec<TestCase>) -> Vec<TestCase> {
    test_cases.sort_by(|a, b| a.path.cmp(&b.path));
    test_cases
}

fn exhaust_worker(
    program: c9_ir::Program,
    threads: usize,
    strategy: StrategyKind,
) -> ExhaustionOutcome {
    let mut worker = Worker::new(
        WorkerId(0),
        Arc::new(program),
        Arc::new(PosixEnvironment::new()),
        WorkerConfig {
            threads,
            strategy,
            generate_test_cases: true,
            ..WorkerConfig::default()
        },
    );
    worker.seed_root();
    let mut guard = 0u32;
    while worker.has_work() {
        worker.run_quantum(50_000);
        guard += 1;
        assert!(guard < 100_000, "worker failed to exhaust");
    }
    ExhaustionOutcome {
        paths: worker.stats.paths_completed,
        useful_instructions: worker.stats.useful_instructions,
        bugs: worker.stats.bugs_found,
        covered_lines: worker.coverage.count() as u64,
        test_cases: sorted_by_path(std::mem::take(&mut worker.test_cases)),
    }
}

/// `run_quantum` with `--threads 4` reaches the same exhaustive path set
/// as single-threaded on printf-6 (the Fig. 8 workload shape).
#[test]
fn printf6_path_set_is_thread_count_invariant() {
    let single = exhaust_worker(printf_util::program(6), 1, StrategyKind::KleeDefault);
    assert!(single.paths > 0);
    assert_eq!(single.paths as usize, single.test_cases.len());
    let parallel = exhaust_worker(printf_util::program(6), 4, StrategyKind::KleeDefault);
    assert_eq!(parallel, single, "printf-6 tree depends on thread count");
}

/// Same property on the multi-threaded-target workload: the
/// producer/consumer benchmark forks over schedules, the worst case for
/// accidental ordering dependence.
#[test]
fn producer_consumer_path_set_is_thread_count_invariant() {
    let program = || {
        named_workload("producer-consumer")
            .expect("registered")
            .program
    };
    let single = exhaust_worker(program(), 1, StrategyKind::KleeDefault);
    assert!(single.paths > 0);
    let parallel = exhaust_worker(program(), 4, StrategyKind::KleeDefault);
    assert_eq!(
        parallel, single,
        "producer-consumer tree depends on thread count"
    );
}

/// A full loopback cluster (load balancing, job transfer, replay) with
/// multi-threaded workers still explores exactly the baseline tree.
#[test]
fn cluster_with_threaded_workers_stays_exact() {
    let run = |threads: usize| {
        let workload = named_workload("memcached").expect("registered target");
        let mut config = ClusterConfig {
            num_workers: 2,
            time_limit: Some(Duration::from_secs(120)),
            ..ClusterConfig::default()
        };
        config.worker.threads = threads;
        Cluster::new(
            Arc::new(workload.program),
            Arc::new(PosixEnvironment::new()),
            config,
        )
        .run()
    };
    let single = run(1);
    assert!(single.summary.exhausted);
    let threaded = run(4);
    assert!(threaded.summary.exhausted);
    assert_eq!(
        threaded.summary.paths_completed(),
        single.summary.paths_completed(),
        "threaded cluster lost or duplicated paths"
    );
    // Worker reports carry the thread count and shared-solver totals.
    assert!(threaded.summary.worker_stats.iter().all(|w| w.threads == 4));
    assert!(threaded.summary.solver_stats().queries > 0);
}

/// A worker at two threads runs the subtree under each leased state for a
/// whole slice instead of handing every state back at its first fork or
/// termination, so one round (a handoff to the lane and back) covers many
/// paths. Measured on curl-6: 28 instructions per round when every round
/// stepped one state per slot until its first fork or termination, 694
/// with subtree slices.
#[test]
fn a_round_runs_a_subtree_not_a_state() {
    let mut worker = Worker::new(
        WorkerId(0),
        Arc::new(curl::program(6)),
        Arc::new(PosixEnvironment::new()),
        WorkerConfig {
            threads: 2,
            ..WorkerConfig::default()
        },
    );
    worker.seed_root();
    let mut executed = 0;
    while worker.has_work() {
        executed += worker.run_quantum(50_000);
    }
    let rounds = worker.report_stats().metrics.histograms["quantum_rounds"].sum;
    assert!(rounds > 0);
    assert!(
        executed / rounds >= 100,
        "{executed} instructions over {rounds} rounds"
    );
}

/// A budgeted run at two threads is reproducible: the same seed and the
/// same instruction budget complete the same paths and yield the same
/// test cases in the same order, however the slots interleaved.
#[test]
fn budgeted_threaded_runs_are_deterministic() {
    let run = || {
        let mut worker = Worker::new(
            WorkerId(0),
            Arc::new(curl::program(6)),
            Arc::new(PosixEnvironment::new()),
            WorkerConfig {
                threads: 2,
                seed: 7,
                generate_test_cases: true,
                ..WorkerConfig::default()
            },
        );
        worker.seed_root();
        let mut executed = 0;
        while worker.has_work() && executed < 20_000 {
            executed += worker.run_quantum(2_000);
        }
        assert!(worker.has_work(), "the budget must stop the run early");
        (worker.stats.paths_completed, worker.test_cases)
    };
    let (paths, test_cases) = run();
    assert!(paths > 0 && !test_cases.is_empty());
    assert_eq!(run(), (paths, test_cases));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Property: for any seed and strategy, exhausting printf-6 with 4
    /// executor threads completes the same path set as with 1.
    #[test]
    fn prop_thread_count_never_changes_the_tree(seed in 1u64..10_000, pick in 0usize..4) {
        let strategy = [
            StrategyKind::KleeDefault,
            StrategyKind::Dfs,
            StrategyKind::Cupa,
            StrategyKind::RandomPath,
        ][pick];
        let build = |threads: usize| {
            let mut worker = Worker::new(
                WorkerId(0),
                Arc::new(printf_util::program(6)),
                Arc::new(PosixEnvironment::new()),
                WorkerConfig {
                    threads,
                    strategy,
                    seed,
                    generate_test_cases: true,
                    ..WorkerConfig::default()
                },
            );
            worker.seed_root();
            while worker.has_work() {
                worker.run_quantum(20_000);
            }
            (
                worker.stats.paths_completed,
                worker.stats.useful_instructions,
                sorted_by_path(worker.test_cases),
            )
        };
        let single = build(1);
        let parallel = build(4);
        prop_assert_eq!(single, parallel);
    }
}
