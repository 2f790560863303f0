//! The paper's deployment, end to end: a cluster of separate OS processes.
//!
//! Spawns four `c9-worker` daemons, drives them with the `c9-coordinator`
//! binary over localhost TCP, and checks that the exhaustive path count of a
//! `targets` program matches an in-process `Cluster::run` with the same
//! number of workers — the transports must explore exactly the same tree.

use cloud9::core::{Cluster, ClusterConfig};
use cloud9::posix::PosixEnvironment;
use cloud9::targets::named_workload;
use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::Duration;

struct WorkerProc {
    child: Child,
    addr: String,
}

impl Drop for WorkerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn spawn_worker() -> WorkerProc {
    let mut child = Command::new(env!("CARGO_BIN_EXE_c9-worker"))
        .args(["--listen", "127.0.0.1:0", "--once", "--log-level", "error"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn c9-worker");
    let stdout = child.stdout.take().expect("worker stdout");
    let mut lines = BufReader::new(stdout).lines();
    let banner = lines
        .next()
        .expect("worker printed nothing")
        .expect("read worker banner");
    let addr = banner
        .rsplit(' ')
        .next()
        .expect("banner has an address")
        .to_string();
    assert!(
        banner.contains("listening on"),
        "unexpected worker banner: {banner}"
    );
    WorkerProc { child, addr }
}

#[test]
fn four_process_tcp_cluster_matches_in_proc_path_count() {
    const TARGET: &str = "memcached";
    const WORKERS: usize = 4;

    // Baseline: the same workload on an in-process 4-worker cluster.
    let workload = named_workload(TARGET).expect("registered target");
    let in_proc = Cluster::new(
        Arc::new(workload.program),
        Arc::new(PosixEnvironment::new()),
        ClusterConfig {
            num_workers: WORKERS,
            time_limit: Some(Duration::from_secs(120)),
            ..ClusterConfig::default()
        },
    )
    .run();
    assert!(in_proc.summary.exhausted, "in-proc run must exhaust");
    let expected_paths = in_proc.summary.paths_completed();
    assert!(expected_paths > 0);

    // The real deployment: four worker daemons + the coordinator binary.
    let workers: Vec<WorkerProc> = (0..WORKERS).map(|_| spawn_worker()).collect();
    let addr_list = workers
        .iter()
        .map(|w| w.addr.clone())
        .collect::<Vec<_>>()
        .join(",");

    let output = Command::new(env!("CARGO_BIN_EXE_c9-coordinator"))
        .args([
            "--workers",
            &addr_list,
            "--target",
            TARGET,
            "--time-limit",
            "120",
        ])
        .stderr(Stdio::null())
        .output()
        .expect("run c9-coordinator");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(output.status.success(), "coordinator failed:\n{stdout}");

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
