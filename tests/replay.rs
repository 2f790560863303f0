//! Trie-batched job materialization equivalence: materializing transferred
//! jobs through the replay engine and the prefix-anchor cache must explore
//! *exactly* the tree a solo exhaustion explores — same path sets, same
//! coverage, same bugs — while executing strictly less replay work than
//! replaying every transferred job from the root. Exercised on the targets
//! the paper uses (printf-6, the producer/consumer benchmark,
//! memcached-3x5), across seeds, strategies, and executor-thread counts
//! (`C9_THREADS`, via the CI matrix).

use cloud9::core::{Cluster, ClusterConfig, Job, Worker, WorkerConfig, WorkerId};
use cloud9::net::WorkerId as NetWorkerId;
use cloud9::posix::PosixEnvironment;
use cloud9::solver::Solver;
use cloud9::targets::{named_workload, printf_util};
use cloud9::vm::{
    Executor, ExecutorConfig, PathChoice, ReplayEngine, ReplayProgress, StateIdGen, StrategyKind,
    TestCase,
};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

/// Everything that must be identical between a run that transfers jobs
/// and a solo exhaustion of the same program.
#[derive(Debug, PartialEq)]
struct Outcome {
    paths: u64,
    covered_lines: u64,
    bug_paths: Vec<Vec<PathChoice>>,
    path_set: Vec<Vec<PathChoice>>,
}

/// The replay work the run actually executed (not part of the equivalence
/// check — this is what the cache is allowed, and expected, to change),
/// and what replaying every transferred job from the root would cost.
struct Work {
    replay: u64,
    saved: u64,
    anchor_hits: u64,
    naive: u64,
}

fn worker_config(strategy: StrategyKind, seed: u64) -> WorkerConfig {
    WorkerConfig {
        strategy,
        seed,
        generate_test_cases: true,
        ..WorkerConfig::default()
    }
}

fn run_to_exhaustion(workers: &mut [&mut Worker]) {
    for _ in 0..10_000_000 {
        if workers.iter().all(|w| !w.has_work()) {
            return;
        }
        for w in workers.iter_mut() {
            w.run_quantum(20_000);
        }
    }
    panic!("workers failed to exhaust");
}

fn outcome_of(workers: &[&Worker]) -> Outcome {
    let mut coverage = workers[0].coverage_snapshot();
    for w in &workers[1..] {
        coverage.merge(&w.coverage_snapshot());
    }
    let sorted_paths = |cases: fn(&Worker) -> &[TestCase]| {
        let mut paths: Vec<_> = workers
            .iter()
            .flat_map(|w| cases(w))
            .map(|tc| tc.path.clone())
            .collect();
        paths.sort();
        paths
    };
    Outcome {
        paths: workers.iter().map(|w| w.stats.paths_completed).sum(),
        covered_lines: coverage.count() as u64,
        bug_paths: sorted_paths(|w| &w.bugs),
        path_set: sorted_paths(|w| &w.test_cases),
    }
}

/// One worker explores the whole tree: the reference every transferring
/// run must reproduce.
fn solo_exhaust(program: c9_ir::Program, strategy: StrategyKind, seed: u64) -> Outcome {
    let env = Arc::new(PosixEnvironment::new());
    let config = worker_config(strategy, seed);
    let mut solo = Worker::new(WorkerId(0), Arc::new(program), env, config);
    solo.seed_root();
    run_to_exhaustion(&mut [&mut solo]);
    outcome_of(&[&solo])
}

/// Instructions a from-root replay of every job in `jobs` executes through
/// the replay engine: the materialization cost without prefix anchors.
fn root_replay_cost(program: &Arc<c9_ir::Program>, jobs: &[Job]) -> u64 {
    let executor = Executor::new(
        program.clone(),
        Arc::new(Solver::new()),
        Arc::new(PosixEnvironment::new()),
        ExecutorConfig::default(),
    );
    let engine = ReplayEngine::new(&executor);
    let mut ids = StateIdGen::new();
    jobs.iter()
        .map(|job| {
            let mut state = engine.start(ids.fresh(), job.path.clone());
            let run = engine.run(&mut state, &mut ids, u64::MAX, |_| {});
            assert_ne!(
                run.progress,
                ReplayProgress::Diverged,
                "job {job:?} diverged"
            );
            run.executed
        })
        .sum()
}

/// Deterministic two-worker harness: worker 0 expands the frontier, sheds
/// half of it to worker 1 (which materializes the batch through the
/// anchor cache), and both run to exhaustion.
fn split_and_exhaust(
    program: c9_ir::Program,
    strategy: StrategyKind,
    seed: u64,
) -> (Outcome, Work) {
    let program = Arc::new(program);
    let env = Arc::new(PosixEnvironment::new());
    let config = worker_config(strategy, seed);
    let mut w1 = Worker::new(WorkerId(0), program.clone(), env.clone(), config);
    w1.seed_root();
    // Expand until the frontier is worth splitting; narrow-frontier
    // strategies (DFS) may exhaust small trees before it ever is, in which
    // case the transfer is simply empty and the run degenerates to the
    // solo one.
    for _ in 0..100_000 {
        if w1.queue_length() >= 16 || !w1.has_work() {
            break;
        }
        w1.run_quantum(50);
    }
    let jobs = w1.export_jobs(w1.queue_length() / 2);
    let naive = root_replay_cost(&program, &jobs);
    let mut w2 = Worker::new(NetWorkerId(1), program, env, config);
    w2.import_jobs(jobs);
    run_to_exhaustion(&mut [&mut w1, &mut w2]);

    let work = Work {
        replay: w1.stats.replay_instructions + w2.stats.replay_instructions,
        saved: w1.stats.replay_saved_instructions + w2.stats.replay_saved_instructions,
        anchor_hits: w1.stats.anchor_hits + w2.stats.anchor_hits,
        naive,
    };
    (outcome_of(&[&w1, &w2]), work)
}

/// printf-6 (the Fig. 8 workload): trie-batched materialization explores
/// the identical exhaustive tree and strictly reduces executed replay.
#[test]
fn printf6_trie_batched_materialization_is_exact_and_cheaper() {
    let solo = solo_exhaust(printf_util::program(6), StrategyKind::KleeDefault, 1);
    assert!(solo.paths > 0);
    assert_eq!(solo.paths as usize, solo.path_set.len());
    let (batched, work) = split_and_exhaust(printf_util::program(6), StrategyKind::KleeDefault, 1);
    assert_eq!(batched, solo, "the transfer changed the explored tree");
    assert!(work.anchor_hits > 0, "anchors never hit");
    assert!(
        work.replay < work.naive,
        "no replay was saved: {} vs {}",
        work.replay,
        work.naive
    );
    assert_eq!(work.replay + work.saved, work.naive);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Property: for any seed and strategy, the producer/consumer benchmark
    /// (schedule forks — the Alt-heavy decision shape) explores the same
    /// exhaustive path set when jobs are materialized through the anchor
    /// cache as a solo run does.
    #[test]
    fn prop_cache_never_changes_the_tree(seed in 1u64..10_000, pick in 0usize..4) {
        let strategy = [
            StrategyKind::KleeDefault,
            StrategyKind::Dfs,
            StrategyKind::Cupa,
            StrategyKind::RandomPath,
        ][pick];
        let program = || {
            named_workload("producer-consumer")
                .expect("registered")
                .program
        };
        let solo = solo_exhaust(program(), strategy, seed);
        let (batched, work) = split_and_exhaust(program(), strategy, seed);
        prop_assert_eq!(&batched, &solo);
        prop_assert_eq!(batched.paths as usize, batched.path_set.len());
        // Identical accounting: executed + skipped == the naive total.
        prop_assert!(work.saved == 0 || work.anchor_hits > 0);
        prop_assert_eq!(work.replay + work.saved, work.naive);
    }
}

/// The acceptance scenario: a transfer-heavy 4-worker memcached-3x5
/// cluster, whose imports go through the anchor cache, explores exactly
/// the tree a one-worker run explores without importing anything (path
/// vectors, coverage, bug sets), and the anchor counters flow into the
/// cluster summary.
#[test]
fn memcached_cluster_is_exact_with_cache_on_and_off() {
    let run = |num_workers: usize| {
        let workload = named_workload("memcached-3x5").expect("registered target");
        let mut config = ClusterConfig {
            num_workers,
            time_limit: Some(Duration::from_secs(300)),
            // Transfer-heavy: small quanta and tight reporting/balancing
            // intervals keep jobs moving between workers all run long.
            quantum: 2_000,
            status_interval: Duration::from_millis(2),
            ..ClusterConfig::default()
        };
        config.worker.generate_test_cases = true;
        Cluster::new(
            Arc::new(workload.program),
            Arc::new(PosixEnvironment::new()),
            config,
        )
        .run()
    };
    let collect = |result: &cloud9::core::ClusterRunResult| -> Outcome {
        let mut path_set: Vec<Vec<PathChoice>> =
            result.test_cases.iter().map(|tc| tc.path.clone()).collect();
        path_set.sort();
        let mut bug_paths: Vec<Vec<PathChoice>> =
            result.bugs.iter().map(|tc| tc.path.clone()).collect();
        bug_paths.sort();
        Outcome {
            paths: result.summary.paths_completed(),
            covered_lines: result.summary.coverage.count() as u64,
            bug_paths,
            path_set,
        }
    };

    let solo = run(1);
    assert!(solo.summary.exhausted, "solo run did not exhaust");
    let batched = run(4);
    assert!(batched.summary.exhausted, "cluster run did not exhaust");
    assert_eq!(
        collect(&batched),
        collect(&solo),
        "the transfers changed the explored tree"
    );
    assert_eq!(solo.summary.jobs_transferred(), 0);
    assert!(batched.summary.jobs_transferred() > 0);
    assert_eq!(batched.summary.replay_divergences(), 0);
    // The anchor counters reach the coordinator-side summary. (The replay
    // saving depends on how much the balancer moved — the deterministic
    // >=3x bound is pinned by `anchor_cache_skips_shared_trunk_replay` in
    // c9-core; the `replay_cost` bench records the cluster-level figure.)
    eprintln!(
        "memcached-3x5 cluster replay: {} executed, {} saved ({:.1}% anchor hit-rate)",
        batched.summary.replay_instructions(),
        batched.summary.replay_saved_instructions(),
        100.0 * batched.summary.anchor_hit_rate(),
    );
    assert!(
        batched.summary.replay_saved_instructions() > 0,
        "the cache never engaged in a transfer-heavy run"
    );
}
