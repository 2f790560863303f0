//! The paper's deployment, end to end: a cluster of separate OS processes.
//!
//! Starts the `c9-coordinator` binary listening on localhost, joins four
//! `c9-worker` daemons to it over TCP, and checks that the exhaustive path
//! count of a `targets` program matches one solo `Worker` driven to
//! exhaustion — the cluster must explore exactly the same tree.

use cloud9::core::{Worker, WorkerConfig, WorkerId};
use cloud9::posix::PosixEnvironment;
use cloud9::targets::named_workload;
use std::io::{BufRead, BufReader, Read};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;

/// A child process that is killed and reaped when dropped.
struct Proc(Child);

impl Drop for Proc {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn four_process_tcp_cluster_matches_solo_path_count() {
    const TARGET: &str = "memcached";
    const WORKERS: usize = 4;

    // Baseline: the same workload on one worker, in quanta to exhaustion.
    let workload = named_workload(TARGET).expect("registered target");
    let mut solo = Worker::new(
        WorkerId(0),
        Arc::new(workload.program),
        Arc::new(PosixEnvironment::new()),
        WorkerConfig::default(),
    );
    solo.seed_root();
    while solo.has_work() {
        solo.run_quantum(50_000);
    }
    let expected_paths = solo.stats.paths_completed;
    assert!(expected_paths > 0);

    // The real deployment: the coordinator binary + four joining daemons.
    let workers = WORKERS.to_string();
    let mut coordinator = Proc(
        Command::new(env!("CARGO_BIN_EXE_c9-coordinator"))
            .args(["--listen", "127.0.0.1:0", "--min-workers", &workers])
            .args(["--target", TARGET, "--time-limit", "120"])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn c9-coordinator"),
    );
    let stdout = coordinator.0.stdout.take().expect("coordinator stdout");
    let mut stdout_reader = BufReader::new(stdout);
    let mut banner = String::new();
    stdout_reader
        .read_line(&mut banner)
        .expect("read coordinator banner");
    assert!(banner.contains("listening on"), "banner: {banner}");
    let addr = banner.trim().rsplit(' ').next().expect("an address");
    let _workers: Vec<Proc> = (0..WORKERS)
        .map(|_| {
            let child = Command::new(env!("CARGO_BIN_EXE_c9-worker"))
                .args(["--join", addr, "--once", "--log-level", "error"])
                .stdout(Stdio::null())
                .stderr(Stdio::null())
                .spawn()
                .expect("spawn c9-worker");
            Proc(child)
        })
        .collect();

    let mut stdout = String::new();
    stdout_reader
        .read_to_string(&mut stdout)
        .expect("read coordinator output");
    let status = coordinator.0.wait().expect("wait for c9-coordinator");
    assert!(status.success(), "coordinator failed:\n{stdout}");

    let total_paths: u64 = stdout
        .lines()
        .find_map(|l| l.strip_prefix("total paths:"))
        .expect("coordinator printed a path count")
        .trim()
        .parse()
        .expect("path count is a number");
    assert!(
        stdout.contains("exhausted:         true"),
        "TCP cluster did not exhaust:\n{stdout}"
    );
    assert_eq!(
        total_paths, expected_paths,
        "4-process TCP cluster explored a different tree:\n{stdout}"
    );
}
