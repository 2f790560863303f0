//! Cluster-equivalence tests: a cluster on a loopback TCP fabric must
//! explore exactly the tree one solo [`Worker`] driven to exhaustion does.
//! The reference shares no cluster code: no coordinator, no transport, no
//! job transfer.

use c9_core::{Cluster, ClusterConfig, TcpTransport, Worker, WorkerConfig, WorkerId};
use c9_ir::{BinaryOp, Operand, Program, ProgramBuilder, Width};
use c9_net::{send_leave, Inbound, JobTree, StatusReport, WorkerStats, HEARTBEAT_INTERVAL};
use c9_posix::PosixEnvironment;
use c9_vm::{sysno, CoverageSet, Environment, NullEnvironment, PathChoice, TestCase};
use std::sync::Arc;
use std::time::Duration;

/// A program with `n` symbolic bytes and 2^n paths (one branch per byte).
fn branching_program(n: usize) -> Program {
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

/// One worker that seeds the root and runs quanta until its frontier is
/// empty.
fn solo(program: &Arc<Program>, env: Arc<dyn Environment>, config: WorkerConfig) -> Worker {
    let mut worker = Worker::new(WorkerId(0), program.clone(), env, config);
    worker.seed_root();
    while worker.has_work() {
        worker.run_quantum(50_000);
    }
    worker
}

fn config(workers: usize) -> ClusterConfig {
    ClusterConfig {
        num_workers: workers,
        time_limit: Some(Duration::from_secs(60)),
        status_interval: Duration::from_millis(2),
        quantum: 2_000,
        ..ClusterConfig::default()
    }
}

#[test]
fn loopback_tcp_two_worker_cluster_matches_solo_path_count() {
    let program = Arc::new(branching_program(6));
    let env = Arc::new(NullEnvironment);

    let solo = solo(&program, env.clone(), WorkerConfig::default());
    assert!(!solo.has_work(), "solo run must exhaust");

    let tcp = Cluster::new(program, env, config(2)).run_with_transport(TcpTransport::loopback());
    assert!(tcp.summary.exhausted, "loopback-TCP run must exhaust");

    assert_eq!(
        solo.stats.paths_completed,
        tcp.summary.paths_completed(),
        "the cluster must explore exactly the solo tree"
    );
    assert_eq!(solo.stats.paths_completed, 64);
    assert!(
        (tcp.summary.coverage_ratio() - solo.coverage_snapshot().ratio()).abs() < f64::EPSILON,
        "coverage must match"
    );
}

#[test]
fn loopback_tcp_cluster_transfers_jobs_between_processes_boundaries() {
    let program = Arc::new(branching_program(9));
    let env = Arc::new(NullEnvironment);
    // A deeper tree and small quanta so that load balancing has a chance to
    // move work before the first worker finishes everything on its own.
    let mut config = config(3);
    config.quantum = 300;
    config.status_interval = Duration::from_millis(1);
    let result = Cluster::new(program, env, config).run_with_transport(TcpTransport::loopback());
    assert!(result.summary.exhausted);
    assert_eq!(result.summary.paths_completed(), 512);
    // Work started on worker 0 only; exhaustion on 3 workers therefore
    // requires real job transfer over the sockets.
    assert!(
        result.summary.jobs_transferred() > 0,
        "expected TCP job transfers, got none"
    );
    let workers_with_work = result
        .summary
        .worker_stats
        .iter()
        .filter(|w| w.paths_completed > 0)
        .count();
    assert!(workers_with_work >= 2, "load balancing never spread work");
}

/// Every local worker runs with the epoch its own admission assigned, and
/// its transport heartbeats (every 25 ms) carry that epoch. With the
/// failure detector armed at 2 s and status reports 2.5 s apart, only
/// accepted heartbeats keep the members alive between reports. A worker
/// that runs dry reports at once, so an exhaustible program would end the
/// run before a heartbeat mattered: this one has far more paths than the
/// 3 s time limit explores, both workers stay busy past the detector's
/// timeout, and the run must end on its time limit with no worker failed.
#[test]
fn loopback_tcp_workers_heartbeat_with_their_admitted_epochs() {
    let program = Arc::new(branching_program(24));
    let detecting = ClusterConfig {
        failure_timeout: Some(Duration::from_secs(2)),
        status_interval: Duration::from_millis(2_500),
        time_limit: Some(Duration::from_secs(3)),
        ..config(2)
    };
    let env = Arc::new(NullEnvironment);
    let tcp = Cluster::new(program, env, detecting).run_with_transport(TcpTransport::loopback());
    assert!(!tcp.summary.exhausted, "2^24 paths do not exhaust in 3 s");
    assert_eq!(
        tcp.summary.workers_failed, 0,
        "a live worker was declared dead"
    );
    let stats = &tcp.summary.worker_stats;
    assert!(
        stats.iter().all(|w| w.paths_completed > 0),
        "both workers explored: {stats:?}"
    );
}

fn sorted_paths(test_cases: &[TestCase]) -> Vec<Vec<PathChoice>> {
    let mut paths: Vec<Vec<PathChoice>> = test_cases.iter().map(|t| t.path.clone()).collect();
    paths.sort();
    paths
}

/// Test cases stream to the coordinator with the status reports and the
/// finals carry only the remainder: the two-worker cluster's test-case set
/// is the solo run's, each case exactly once.
#[test]
fn two_worker_test_cases_match_solo() {
    let workload = c9_targets::named_workload("memcached-3x5").expect("registered target");
    let program = Arc::new(workload.program);
    let env = Arc::new(PosixEnvironment::new());
    let worker_config = WorkerConfig {
        generate_test_cases: true,
        ..WorkerConfig::default()
    };

    let solo = solo(&program, env.clone(), worker_config);
    let expected = sorted_paths(&solo.test_cases);
    assert_eq!(expected.len(), 1098);

    let cluster_config = ClusterConfig {
        num_workers: 2,
        worker: worker_config,
        time_limit: Some(Duration::from_secs(120)),
        ..ClusterConfig::default()
    };
    let result = Cluster::new(program, env, cluster_config).run();
    assert!(result.summary.exhausted, "the cluster run must exhaust");
    assert_eq!(result.summary.paths_completed(), 1098);
    assert_eq!(sorted_paths(&result.test_cases), expected);
}

/// Every frame a worker sends the coordinator travels its one coordinator
/// connection, and the coordinator endpoint hands joins, reports and leaves
/// out of one queue: k reports, the last report and a leave come out
/// exactly in send order, while the heartbeats the worker's transport sent
/// in between stay on their side channel.
#[test]
fn a_members_reports_and_leave_arrive_in_the_order_it_sent_them() {
    const K: u64 = 40;
    let wait = Duration::from_secs(10);
    let (mut coordinator, mut workers) = TcpTransport::loopback()
        .establish(1)
        .expect("loopback fabric");
    let mut worker = workers.pop().expect("one worker endpoint");
    let Some(Inbound::Join(join)) = coordinator.recv(Duration::ZERO) else {
        panic!("no pending join");
    };
    coordinator
        .admit(join.token, WorkerId(0), 1, Vec::new())
        .expect("admit");
    worker.admission(wait).expect("admitted");
    worker.start_heartbeat();

    // Spread over a few heartbeat intervals, so heartbeats interleave.
    let pause = HEARTBEAT_INTERVAL * 4 / K as u32;
    for seq in 0..=K {
        let last = seq == K;
        let report = StatusReport {
            worker: WorkerId(0),
            epoch: 1,
            queue_length: seq,
            coverage: CoverageSet::new(8),
            stats: WorkerStats::default(),
            idle: last,
            last,
            frontier: last.then(|| JobTree::from_jobs(&[]).encode()),
            new_bugs: Vec::new(),
            transfers: Vec::new(),
            test_cases: Vec::new(),
        };
        worker.send_status(report).expect("send a report");
        std::thread::sleep(pause);
    }
    send_leave(&worker).expect("send the leave");

    // Drain the side channel before every frame, as the driver does before
    // every tick: that surfaces everything the reactor has received.
    let mut heartbeats = Vec::new();
    for seq in 0..=K {
        heartbeats.extend(coordinator.take_heartbeats());
        match coordinator.recv(wait) {
            Some(Inbound::Status(report)) => {
                assert_eq!((report.queue_length, report.last), (seq, seq == K));
            }
            other => panic!("report {seq} expected, got {other:?}"),
        }
    }
    heartbeats.extend(coordinator.take_heartbeats());
    match coordinator.recv(wait) {
        Some(Inbound::Leave { worker, epoch }) => assert_eq!((worker, epoch), (WorkerId(0), 1)),
        other => panic!("the leave expected, got {other:?}"),
    }
    assert!(coordinator.recv(Duration::from_millis(50)).is_none());
    assert!(!heartbeats.is_empty(), "no heartbeat arrived");
    assert!(heartbeats.iter().all(|&beat| beat == (WorkerId(0), 1)));
}
