//! Tests of the cluster-parallel engine.
//!
//! The key correctness property (§3.2): dynamic partitioning keeps worker
//! frontiers disjoint while covering the whole execution tree, so the number
//! of explored paths must be the same no matter how many workers explore
//! them.

use crate::{Cluster, ClusterConfig, Job, StrategyKind, Worker, WorkerConfig, WorkerId};
use c9_ir::{AbortKind, BinaryOp, Operand, Program, ProgramBuilder, Width};
use c9_solver::Solver;
use c9_vm::{
    sysno, Executor, ExecutorConfig, NullEnvironment, PathChoice, ReplayEngine, ReplayProgress,
    StateIdGen,
};
use std::sync::Arc;
use std::time::Duration;

/// A program with `n` symbolic bytes and 2^n paths (one branch per byte).
pub(crate) fn branching_program(n: usize) -> Program {
    let mut pb = ProgramBuilder::new();
    pb.set_name("branching");
    let mut f = pb.function("main", 0, Some(Width::W32));
    let buf = f.alloc(Operand::word(n as u32));
    f.syscall(
        sysno::MAKE_SYMBOLIC,
        vec![Operand::Reg(buf), Operand::word(n as u32)],
    );
    let mut next = f.create_block();
    for i in 0..n {
        let addr = f.binary(BinaryOp::Add, Operand::Reg(buf), Operand::word(i as u32));
        let byte = f.load(Operand::Reg(addr), Width::W8);
        let cond = f.binary(
            BinaryOp::Ult,
            Operand::Reg(byte),
            Operand::byte(32 + i as u8),
        );
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

/// A program that crashes only for one specific 2-byte input.
fn crashing_program() -> Program {
    let mut pb = ProgramBuilder::new();
    let mut f = pb.function("main", 0, Some(Width::W32));
    let buf = f.alloc(Operand::word(2));
    f.syscall(
        sysno::MAKE_SYMBOLIC,
        vec![Operand::Reg(buf), Operand::word(2)],
    );
    let b0 = f.load(Operand::Reg(buf), Width::W8);
    let addr1 = f.binary(BinaryOp::Add, Operand::Reg(buf), Operand::word(1));
    let b1 = f.load(Operand::Reg(addr1), Width::W8);
    let is_b = f.binary(BinaryOp::Eq, Operand::Reg(b0), Operand::byte(b'B'));
    let is_u = f.binary(BinaryOp::Eq, Operand::Reg(b1), Operand::byte(b'U'));
    let both = f.binary(BinaryOp::And, Operand::Reg(is_b), Operand::Reg(is_u));
    let crash_bb = f.create_block();
    let ok_bb = f.create_block();
    f.branch(Operand::Reg(both), crash_bb, ok_bb);
    f.switch_to(crash_bb);
    f.abort(AbortKind::Crash, "segfault");
    f.switch_to(ok_bb);
    f.ret(Some(Operand::word(0)));
    let main = f.finish();
    pb.set_entry(main);
    pb.finish()
}

fn run_cluster(program: Program, workers: usize, config: ClusterConfig) -> crate::ClusterRunResult {
    let cluster = Cluster::new(
        Arc::new(program),
        Arc::new(NullEnvironment),
        ClusterConfig {
            num_workers: workers,
            ..config
        },
    );
    cluster.run()
}

fn default_config() -> ClusterConfig {
    ClusterConfig {
        time_limit: Some(Duration::from_secs(30)),
        status_interval: Duration::from_millis(2),
        balance_interval: Duration::from_millis(5),
        sample_interval: Duration::from_millis(20),
        quantum: 2_000,
        ..ClusterConfig::default()
    }
}

#[test]
fn single_worker_cluster_explores_all_paths() {
    let result = run_cluster(branching_program(4), 1, default_config());
    assert!(result.summary.exhausted, "run did not exhaust the tree");
    assert_eq!(result.summary.paths_completed(), 16);
}

#[test]
fn path_count_is_independent_of_worker_count() {
    let expected = 1u64 << 5;
    for workers in [1usize, 2, 4] {
        let result = run_cluster(branching_program(5), workers, default_config());
        assert!(
            result.summary.exhausted,
            "{workers}-worker run did not exhaust"
        );
        assert_eq!(
            result.summary.paths_completed(),
            expected,
            "wrong number of paths with {workers} workers"
        );
        assert_eq!(result.summary.worker_stats.len(), workers);
    }
}

#[test]
fn multi_worker_cluster_transfers_jobs_and_does_replay_work() {
    let mut config = default_config();
    // A deeper tree and small quanta so that load balancing has a chance to
    // move work before the first worker finishes everything on its own.
    config.quantum = 300;
    config.status_interval = Duration::from_millis(1);
    config.balance_interval = Duration::from_millis(1);
    let result = run_cluster(branching_program(9), 3, config);
    assert!(result.summary.exhausted);
    assert_eq!(result.summary.paths_completed(), 512);
    // With more than one worker, some jobs must have moved and been replayed.
    assert!(
        result.summary.jobs_transferred() > 0,
        "no jobs were transferred between workers"
    );
    assert!(
        result.summary.replay_instructions() > 0,
        "job materialization should count as replay work"
    );
    // Replays never diverge thanks to the deterministic per-state allocator.
    for w in &result.summary.worker_stats {
        assert_eq!(w.replay_divergences, 0);
    }
}

#[test]
fn bug_is_found_regardless_of_worker_count() {
    for workers in [1usize, 3] {
        let mut config = default_config();
        config.worker.generate_test_cases = true;
        let result = run_cluster(crashing_program(), workers, config);
        assert!(result.summary.exhausted);
        assert_eq!(result.summary.bugs_found, 1, "workers = {workers}");
        let bug = &result.bugs[0];
        let bytes = bug.bytes_with_prefix("sym0");
        assert_eq!(bytes, vec![b'B', b'U']);
    }
}

#[test]
fn coverage_reaches_one_on_exhaustive_run() {
    let result = run_cluster(branching_program(3), 2, default_config());
    assert!(result.summary.exhausted);
    assert!(
        result.summary.coverage_ratio() > 0.9,
        "coverage {:.2} too low",
        result.summary.coverage_ratio()
    );
}

#[test]
fn time_limit_stops_an_unbounded_run() {
    // A wide program (2^16 paths) with a very short time limit: the run must
    // stop quickly and report that it did not exhaust.
    let mut config = default_config();
    config.time_limit = Some(Duration::from_millis(300));
    let result = run_cluster(branching_program(16), 2, config);
    assert!(!result.summary.exhausted || result.summary.paths_completed() == 1 << 16);
    assert!(result.summary.elapsed < Duration::from_secs(10));
}

#[test]
fn static_partitioning_still_completes_small_trees() {
    let mut config = default_config();
    config.static_partition = true;
    let result = run_cluster(branching_program(5), 3, config);
    assert!(result.summary.exhausted);
    assert_eq!(result.summary.paths_completed(), 32);
}

#[test]
fn timeline_samples_are_recorded() {
    let result = run_cluster(branching_program(6), 2, default_config());
    assert!(!result.summary.timeline.is_empty());
    let last = result.summary.timeline.last().unwrap();
    assert!(last.useful_instructions > 0);
}

#[test]
fn dfs_strategy_also_exhausts() {
    let mut config = default_config();
    config.worker.strategy = StrategyKind::Dfs;
    let result = run_cluster(branching_program(4), 2, config);
    assert!(result.summary.exhausted);
    assert_eq!(result.summary.paths_completed(), 16);
}

// ---------------------------------------------------------------------------
// Worker-level unit tests (no threads).
// ---------------------------------------------------------------------------

#[test]
fn worker_export_import_roundtrip_preserves_completeness() {
    let program = Arc::new(branching_program(4));
    let env = Arc::new(NullEnvironment);
    let mut w1 = Worker::new(
        WorkerId(0),
        program.clone(),
        env.clone(),
        WorkerConfig::default(),
    );
    w1.seed_root();

    // Let the first worker expand until it has a few frontier candidates,
    // then move half of them to a second worker.
    for _ in 0..1000 {
        if w1.queue_length() >= 4 {
            break;
        }
        w1.run_quantum(10);
    }
    let before_queue = w1.queue_length();
    assert!(before_queue >= 4, "worker did not expand its frontier");
    let count = (before_queue / 2).max(1);
    let jobs: Vec<Job> = w1.export_jobs(count);
    assert!(!jobs.is_empty());
    assert_eq!(w1.stats.jobs_sent, jobs.len() as u64);

    let mut w2 = Worker::new(WorkerId(1), program, env, WorkerConfig::default());
    w2.import_jobs(jobs);
    assert_eq!(w2.stats.jobs_received, w2.queue_length());

    // Both workers run to completion; together they must find all 16 paths.
    for _ in 0..10_000 {
        if !w1.has_work() && !w2.has_work() {
            break;
        }
        w1.run_quantum(1_000);
        w2.run_quantum(1_000);
    }
    assert!(!w1.has_work() && !w2.has_work());
    let total = w1.stats.paths_completed + w2.stats.paths_completed;
    assert_eq!(total, 16);
    // The second worker had to replay the received paths.
    assert!(w2.stats.replay_instructions > 0);
    assert!(w2.stats.materializations > 0);
    assert_eq!(w1.stats.replay_divergences + w2.stats.replay_divergences, 0);
}

/// The paper's node life cycle as the worker keeps it: every candidate is
/// on the frontier until it is explored, and an explored one is a completed
/// path and nothing else.
#[test]
fn worker_tree_tracks_node_lifecycle_during_exploration() {
    let program = Arc::new(branching_program(3));
    let mut w = Worker::new(
        WorkerId(0),
        program,
        Arc::new(NullEnvironment),
        WorkerConfig::default(),
    );
    w.seed_root();
    while w.has_work() {
        w.run_quantum(1_000);
    }
    assert_eq!(w.queue_length(), 0, "all candidates must be consumed");
    assert_eq!(w.stats.paths_completed, 8);
    assert_eq!(w.stats.replay_divergences, 0);
}

#[test]
fn corrupted_job_diverges_without_panic_or_wrong_exploration() {
    let program = Arc::new(branching_program(3));
    let mut w = Worker::new(
        WorkerId(0),
        program,
        Arc::new(NullEnvironment),
        WorkerConfig::default(),
    );
    // Two deliberately corrupted jobs: one claims a multi-way decision at a
    // symbolic two-way branch, the other records more decisions than the
    // program has along that path.
    w.import_jobs(vec![
        Job::new(vec![
            PathChoice::Alt {
                chosen: 7,
                total: 9,
            },
            PathChoice::Branch(true),
        ]),
        Job::new(vec![PathChoice::Branch(true); 12]),
    ]);
    while w.has_work() {
        w.run_quantum(10_000);
    }
    // Both replays diverged: reported, counted, and dropped — never
    // explored as (wrong) paths, never counted as completed ones.
    assert_eq!(w.stats.replay_divergences, 2);
    assert_eq!(w.stats.materializations, 2);
    assert_eq!(w.stats.paths_completed, 0);
    assert_eq!(w.stats.bugs_found, 0);
    assert_eq!(
        w.queue_length(),
        0,
        "diverged jobs must leave no candidates"
    );
    // The divergence counter reaches the coordinator with every report.
    assert_eq!(w.report_stats().replay_divergences, 2);
}

#[test]
fn divergence_past_the_materialization_budget_is_still_dropped() {
    // A concrete trunk longer than the 1M-instruction materialization
    // budget: replay runs out of budget mid-trunk, the still-replaying
    // state continues in normal execution slices, and only *there* reaches
    // the symbolic branch where the corrupted decision (an Alt at a
    // two-way branch) diverges. The slice loop must classify it exactly
    // like the replay engine: counted, dropped, never a completed path.
    let mut pb = ProgramBuilder::new();
    let mut f = pb.function("main", 0, Some(Width::W32));
    let buf = f.alloc(Operand::word(1));
    f.syscall(
        sysno::MAKE_SYMBOLIC,
        vec![Operand::Reg(buf), Operand::word(1)],
    );
    let counter = f.copy(Operand::word(0));
    let loop_bb = f.create_block();
    let done_bb = f.create_block();
    f.jump(loop_bb);
    f.switch_to(loop_bb);
    let next = f.binary(BinaryOp::Add, Operand::Reg(counter), Operand::word(1));
    f.assign_to(counter, c9_ir::Rvalue::Use(Operand::Reg(next)));
    let more = f.binary(BinaryOp::Ult, Operand::Reg(counter), Operand::word(300_000));
    f.branch(Operand::Reg(more), loop_bb, done_bb);
    f.switch_to(done_bb);
    let byte = f.load(Operand::Reg(buf), Width::W8);
    let cond = f.binary(BinaryOp::Ult, Operand::Reg(byte), Operand::byte(64));
    let then_bb = f.create_block();
    let else_bb = f.create_block();
    f.branch(Operand::Reg(cond), then_bb, else_bb);
    f.switch_to(then_bb);
    f.ret(Some(Operand::word(0)));
    f.switch_to(else_bb);
    f.ret(Some(Operand::word(1)));
    let main = f.finish();
    pb.set_entry(main);

    let mut w = Worker::new(
        WorkerId(0),
        Arc::new(pb.finish()),
        Arc::new(NullEnvironment),
        WorkerConfig::default(),
    );
    w.import_jobs(vec![Job::new(vec![PathChoice::Alt {
        chosen: 1,
        total: 3,
    }])]);
    for _ in 0..100_000 {
        if !w.has_work() {
            break;
        }
        w.run_quantum(10_000);
    }
    assert!(!w.has_work());
    assert_eq!(w.stats.replay_divergences, 1);
    assert_eq!(w.stats.paths_completed, 0, "divergence counted as a path");
    assert_eq!(w.stats.bugs_found, 0);
    assert!(
        w.stats.replay_instructions > 1_000_000,
        "the trunk must outlive the materialization budget \
         (executed {} replay instructions)",
        w.stats.replay_instructions
    );
}

#[test]
fn export_prefers_virtual_jobs_over_materialized_states() {
    let program = Arc::new(branching_program(6));
    let env = Arc::new(NullEnvironment);
    let mut w = Worker::new(WorkerId(0), program, env, WorkerConfig::default());
    w.seed_root();
    for _ in 0..1000 {
        if w.queue_length() >= 4 {
            break;
        }
        w.run_quantum(10);
    }
    let materialized_before = w.frontier_snapshot().len() as u64;
    // Hand the worker three virtual jobs, then ask it to shed three: the
    // virtual jobs must go back out — this worker paid no replay for them
    // — leaving every materialized state (whose replay was already paid)
    // in place.
    let foreign: Vec<Job> = vec![
        Job::new(vec![PathChoice::Branch(true); 5]),
        Job::new(vec![PathChoice::Branch(false); 5]),
        Job::new(vec![
            PathChoice::Branch(true),
            PathChoice::Branch(false),
            PathChoice::Branch(true),
        ]),
    ];
    w.import_jobs(foreign.clone());
    let materializations_before = w.stats.materializations;
    let exported = w.export_jobs(3);
    let mut exported_sorted = exported.clone();
    exported_sorted.sort();
    let mut foreign_sorted = foreign;
    foreign_sorted.sort();
    assert_eq!(
        exported_sorted, foreign_sorted,
        "virtual jobs must ship first"
    );
    assert_eq!(w.stats.materializations, materializations_before);
    assert_eq!(w.frontier_snapshot().len() as u64, materialized_before);
}

#[test]
fn export_ships_virtual_jobs_then_the_shallowest_states() {
    let program = Arc::new(branching_program(9));
    let env = Arc::new(NullEnvironment);
    let mut w = Worker::new(WorkerId(0), program, env, WorkerConfig::default());
    w.seed_root();
    for _ in 0..10_000 {
        if w.queue_length() >= 12 {
            break;
        }
        w.run_quantum(10);
    }
    // The snapshot lists materialized states in id order, so a stable sort
    // by depth is the export's (depth, id) order.
    let mut states = w.frontier_snapshot();
    assert!(states.len() >= 12, "frontier did not expand");
    states.sort_by_key(Job::depth);
    assert!(
        states.first().map(Job::depth) < states.last().map(Job::depth),
        "the frontier must span several depths"
    );

    let foreign = vec![
        Job::new(vec![PathChoice::Branch(true); 8]),
        Job::new(vec![PathChoice::Branch(false); 8]),
    ];
    w.import_jobs(foreign.clone());

    // Virtual jobs first, then the shallowest materialized states.
    let first = w.export_jobs(5);
    let mut virtuals = first[..2].to_vec();
    virtuals.sort();
    let mut foreign_sorted = foreign;
    foreign_sorted.sort();
    assert_eq!(virtuals, foreign_sorted, "virtual jobs must ship first");
    assert_eq!(&first[2..], &states[..3], "then the shallowest states");

    // Asked for everything, the worker keeps exactly one candidate: its
    // deepest.
    let rest = w.export_jobs(u64::MAX);
    assert_eq!(&rest[..], &states[3..states.len() - 1]);
    assert_eq!(w.frontier_snapshot(), states[states.len() - 1..]);
    assert_eq!(w.stats.jobs_sent, states.len() as u64 + 1);
}

#[test]
fn anchor_cache_skips_shared_trunk_replay() {
    // One worker expands a deep tree and sheds a large sibling-heavy
    // batch; a receiver materializes it through the prefix-anchor cache.
    // It must explore exactly the subtrees a solo exhaustion finds below
    // the shipped jobs, for a fraction of the replay work of replaying
    // every job from the root.
    let program = Arc::new(branching_program(13));
    let env = Arc::new(NullEnvironment);
    let config = WorkerConfig {
        generate_test_cases: true,
        ..WorkerConfig::default()
    };
    // One thread, whatever `C9_THREADS` says: at more, subtree slices leave
    // a different frontier behind, and the shipped set would depend on the
    // environment.
    let source_config = WorkerConfig {
        threads: 1,
        ..config
    };
    let mut source = Worker::new(WorkerId(0), program.clone(), env.clone(), source_config);
    source.seed_root();
    for _ in 0..100_000 {
        if source.queue_length() >= 128 {
            break;
        }
        source.run_quantum(100);
    }
    // The deep end of the frontier: long sibling-heavy paths, the worst
    // case for naive per-job root replay.
    let mut jobs = source.frontier_snapshot();
    jobs.sort_by_key(|job| std::cmp::Reverse(job.depth()));
    jobs.truncate(96);
    assert_eq!(jobs.len(), 96);

    // The reference: every path of a solo exhaustion that runs through
    // one of the shipped jobs, and the cost of replaying each shipped job
    // from the root.
    let mut solo = Worker::new(WorkerId(0), program.clone(), env.clone(), config);
    solo.seed_root();
    while solo.has_work() {
        solo.run_quantum(10_000);
    }
    let below_jobs = |paths: Vec<Vec<PathChoice>>| {
        let mut paths: Vec<_> = paths
            .into_iter()
            .filter(|path| jobs.iter().any(|job| path.starts_with(&job.path)))
            .collect();
        paths.sort();
        paths
    };
    let expected = below_jobs(solo.test_cases.iter().map(|tc| tc.path.clone()).collect());
    let executor = Executor::new(
        program.clone(),
        Arc::new(Solver::new()),
        env.clone(),
        ExecutorConfig::default(),
    );
    let engine = ReplayEngine::new(&executor);
    let mut ids = StateIdGen::new();
    let replay_off: u64 = jobs
        .iter()
        .map(|job| {
            let mut state = engine.start(ids.fresh(), job.path.clone());
            let run = engine.run(&mut state, &mut ids, u64::MAX, |_| {});
            assert_eq!(run.progress, ReplayProgress::Ready);
            run.executed
        })
        .sum();

    let mut w = Worker::new(WorkerId(1), program.clone(), env.clone(), config);
    w.import_jobs(jobs.clone());
    for _ in 0..1_000_000 {
        if !w.has_work() {
            break;
        }
        w.run_quantum(10_000);
    }
    assert!(!w.has_work());
    let replay_on = w.stats.replay_instructions;
    let saved_on = w.stats.replay_saved_instructions;
    let hits_on = w.stats.anchor_hits;
    eprintln!(
        "anchor cache replay drop: {replay_off} -> {replay_on} \
         ({:.1}x, {saved_on} saved, {hits_on} hits)",
        replay_off as f64 / replay_on.max(1) as f64
    );
    let explored = below_jobs(w.test_cases.iter().map(|tc| tc.path.clone()).collect());
    assert_eq!(explored.len() as u64, w.stats.paths_completed);
    assert_eq!(explored, expected, "the cache changed the explored tree");
    assert!(hits_on > 0, "no anchor was ever hit");
    assert!(saved_on > 0, "no replay work was saved");
    assert!(
        replay_on * 3 <= replay_off,
        "expected >=3x replay drop: {replay_on} (cache on) vs {replay_off} (root replay)"
    );
    // The executed+saved total accounts for exactly the work the root
    // replay performs.
    assert_eq!(replay_on + saved_on, replay_off);
}

#[test]
fn exporting_worker_never_gives_away_its_last_candidate() {
    let program = Arc::new(branching_program(3));
    let mut w = Worker::new(
        WorkerId(0),
        program,
        Arc::new(NullEnvironment),
        WorkerConfig::default(),
    );
    w.seed_root();
    // Before any exploration there is exactly one candidate (the root); an
    // export request must not take it.
    let jobs = w.export_jobs(10);
    assert!(jobs.is_empty());
    assert!(w.has_work());
}
