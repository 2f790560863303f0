//! Experiment harnesses regenerating the tables and figures of the Cloud9
//! paper's evaluation (§7).
//!
//! Each figure/table has a binary in `src/bin/` that runs the corresponding
//! experiment at laptop scale and prints the same rows/series the paper
//! reports. The gated benchmark of the engine itself is `perf_suite`
//! (`perf/README.md`).
//!
//! The shared code here builds clusters for the standard workloads and
//! formats results.

use c9_core::{Cluster, ClusterConfig, ClusterRunResult, WorkerConfig};
use c9_posix::{PosixConfig, PosixEnvironment};
use c9_targets::memcached::MemcachedConfig;
use c9_vm::{Environment, ExecutorConfig};
use std::sync::Arc;
use std::time::Duration;

/// Worker counts used by the scaling experiments (the paper uses 1–48 cluster
/// nodes; we scale to what one machine can host).
pub fn scaling_worker_counts() -> Vec<usize> {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    [1usize, 2, 4, 8]
        .into_iter()
        .filter(|n| *n <= cores.max(2))
        .collect()
}

/// Builds the default cluster configuration used by the experiments.
pub fn experiment_cluster_config(num_workers: usize, time_limit: Duration) -> ClusterConfig {
    ClusterConfig {
        num_workers,
        worker: WorkerConfig {
            executor: ExecutorConfig {
                max_instructions_per_path: 2_000_000,
            },
            generate_test_cases: false,
            ..WorkerConfig::default()
        },
        time_limit: Some(time_limit),
        status_interval: Duration::from_millis(5),
        sample_interval: Duration::from_millis(200),
        quantum: 10_000,
        ..ClusterConfig::default()
    }
}

/// Runs a cluster over `program` with the POSIX environment.
pub fn run_cluster(
    program: c9_ir::Program,
    env: Arc<dyn Environment>,
    config: ClusterConfig,
) -> ClusterRunResult {
    Cluster::new(Arc::new(program), env, config).run()
}

/// The two-packet memcached symbolic-packet workload of Fig. 9 / Fig. 12 /
/// Fig. 13 (104 paths).
pub fn memcached_workload() -> (c9_ir::Program, Arc<dyn Environment>) {
    memcached_packets(2)
}

/// The memcached workload of Fig. 7: four 5-byte symbolic packets, 11 644
/// paths, the size `perf_suite`'s memcached workloads exhaust. Two packets
/// exhaust in milliseconds, too fast to time a cluster by.
pub fn memcached_scaling_workload() -> (c9_ir::Program, Arc<dyn Environment>) {
    memcached_packets(4)
}

fn memcached_packets(packets: u32) -> (c9_ir::Program, Arc<dyn Environment>) {
    let program = c9_targets::memcached::program(&MemcachedConfig {
        packets,
        packet_size: 5,
        ..MemcachedConfig::default()
    });
    (program, Arc::new(PosixEnvironment::new()))
}

/// The printf workload of Fig. 8 / Fig. 10.
pub fn printf_workload(fmt_len: u32) -> (c9_ir::Program, Arc<dyn Environment>) {
    (
        c9_targets::printf_util::program(fmt_len),
        Arc::new(PosixEnvironment::new()),
    )
}

/// The test-utility workload of Fig. 10.
pub fn test_workload() -> (c9_ir::Program, Arc<dyn Environment>) {
    (
        c9_targets::test_util::program(6),
        Arc::new(PosixEnvironment::new()),
    )
}

/// The lighttpd fragmentation workload of Table 6.
pub fn lighttpd_workload(
    version: c9_targets::LighttpdVersion,
) -> (c9_ir::Program, Arc<dyn Environment>) {
    let env = PosixEnvironment::with_config(PosixConfig {
        max_symbolic_chunk: 28,
        max_fragment_alternatives: 3,
        ..PosixConfig::default()
    });
    (c9_targets::lighttpd::program(version), Arc::new(env))
}

/// Formats a duration as fractional seconds.
pub fn secs(d: Duration) -> String {
    format!("{:.3}s", d.as_secs_f64())
}

/// Prints a table header followed by rows (simple fixed-width formatting).
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    println!("{}", header.join("\t| "));
    println!("{}", "-".repeat(16 * header.len()));
    for row in rows {
        println!("{}", row.join("\t| "));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_counts_start_at_one() {
        let counts = scaling_worker_counts();
        assert_eq!(counts[0], 1);
        assert!(counts.iter().all(|c| *c >= 1));
    }

    #[test]
    fn workloads_build_valid_programs() {
        assert!(memcached_workload().0.validate().is_ok());
        assert!(memcached_scaling_workload().0.validate().is_ok());
        assert!(printf_workload(6).0.validate().is_ok());
        assert!(test_workload().0.validate().is_ok());
        assert!(lighttpd_workload(c9_targets::LighttpdVersion::V1_4_12)
            .0
            .validate()
            .is_ok());
    }
}
