//! Transport-equivalence tests: the same cluster must produce the same
//! exploration results over in-process channels and over real TCP sockets.

use c9_core::{Cluster, ClusterConfig, TcpTransport, Worker, WorkerConfig, WorkerId};
use c9_ir::{BinaryOp, Operand, Program, ProgramBuilder, Width};
use c9_posix::PosixEnvironment;
use c9_vm::{sysno, NullEnvironment, PathChoice, TestCase};
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

fn config(workers: usize) -> ClusterConfig {
    ClusterConfig {
        num_workers: workers,
        time_limit: Some(Duration::from_secs(60)),
        status_interval: Duration::from_millis(2),
        balance_interval: Duration::from_millis(5),
        quantum: 2_000,
        ..ClusterConfig::default()
    }
}

#[test]
fn loopback_tcp_two_worker_cluster_matches_in_proc_path_count() {
    let program = Arc::new(branching_program(6));
    let env = Arc::new(NullEnvironment);

    let in_proc = Cluster::new(program.clone(), env.clone(), config(2)).run();
    assert!(in_proc.summary.exhausted, "in-proc run must exhaust");

    let tcp = Cluster::new(program, env, config(2)).run_with_transport(TcpTransport::loopback());
    assert!(tcp.summary.exhausted, "loopback-TCP run must exhaust");

    assert_eq!(
        in_proc.summary.paths_completed(),
        tcp.summary.paths_completed(),
        "TCP transport must explore exactly the same tree"
    );
    assert_eq!(in_proc.summary.paths_completed(), 64);
    assert!(
        (tcp.summary.coverage_ratio() - in_proc.summary.coverage_ratio()).abs() < f64::EPSILON,
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
    config.balance_interval = Duration::from_millis(1);
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

fn sorted_paths(test_cases: &[TestCase]) -> Vec<Vec<PathChoice>> {
    let mut paths: Vec<Vec<PathChoice>> = test_cases.iter().map(|t| t.path.clone()).collect();
    paths.sort();
    paths
}

/// Test cases stream to the coordinator with the status reports and the
/// finals carry only the remainder: over either transport the two-worker
/// cluster's test-case set is the solo run's, each case exactly once.
#[test]
fn two_worker_test_cases_match_solo_on_both_transports() {
    let workload = c9_targets::named_workload("memcached-3x5").expect("registered target");
    let program = Arc::new(workload.program);
    let env = Arc::new(PosixEnvironment::new());
    let worker_config = WorkerConfig {
        generate_test_cases: true,
        ..WorkerConfig::default()
    };

    let mut solo = Worker::new(WorkerId(0), program.clone(), env.clone(), worker_config);
    solo.seed_root();
    while solo.has_work() {
        solo.run_quantum(50_000);
    }
    let expected = sorted_paths(&solo.test_cases);
    assert_eq!(expected.len(), 1098);

    let cluster_config = ClusterConfig {
        num_workers: 2,
        worker: worker_config,
        time_limit: Some(Duration::from_secs(120)),
        ..ClusterConfig::default()
    };
    let cluster = Cluster::new(program, env, cluster_config);
    for (transport, result) in [
        ("in-proc", cluster.run()),
        (
            "loopback TCP",
            cluster.run_with_transport(TcpTransport::loopback()),
        ),
    ] {
        assert!(result.summary.exhausted, "{transport} run must exhaust");
        assert_eq!(result.summary.paths_completed(), 1098, "{transport}");
        assert_eq!(sorted_paths(&result.test_cases), expected, "{transport}");
    }
}
