//! Table 5: memcached path counts and coverage for the different testing
//! methods — a concrete "test suite", symbolic packets, and the test suite
//! with fault injection.

use c9_bench::print_table;
use c9_posix::PosixEnvironment;
use c9_targets::memcached::{self, MemcachedConfig};
use c9_vm::{DfsSearcher, Engine, EngineConfig, ExecutorConfig};
use std::sync::Arc;
use std::time::Duration;

fn run(program: c9_ir::Program, env: PosixEnvironment) -> (usize, f64) {
    let mut engine = Engine::new(
        Arc::new(program),
        Arc::new(env),
        Box::new(DfsSearcher::new()),
        EngineConfig {
            max_time: Some(Duration::from_secs(60)),
            generate_test_cases: false,
            executor: ExecutorConfig::default(),
            ..EngineConfig::default()
        },
    );
    let summary = engine.run();
    (summary.paths_completed, summary.coverage_ratio() * 100.0)
}

/// The "concrete test suite" row is approximated by bounding exploration of
/// the single-packet program to a handful of paths: a fixed regression suite
/// exercises a fixed, small set of paths.
fn concrete_suite_program() -> c9_ir::Program {
    memcached::program(&MemcachedConfig {
        packets: 1,
        packet_size: 5,
        ..MemcachedConfig::default()
    })
}

fn main() {
    let mut rows = Vec::new();

    // Row 1: the "entire test suite" — concrete commands only (bounded paths).
    {
        let program = concrete_suite_program();
        let mut engine = Engine::new(
            Arc::new(program),
            Arc::new(PosixEnvironment::new()),
            Box::new(DfsSearcher::new()),
            EngineConfig {
                max_paths: 6,
                generate_test_cases: false,
                ..EngineConfig::default()
            },
        );
        let summary = engine.run();
        rows.push(vec![
            "concrete test suite (bounded)".to_string(),
            summary.paths_completed.to_string(),
            format!("{:.1}%", summary.coverage_ratio() * 100.0),
        ]);
    }

    // Row 2: symbolic packets (two fully symbolic commands).
    {
        let program = memcached::program(&MemcachedConfig {
            packets: 2,
            packet_size: 5,
            ..MemcachedConfig::default()
        });
        let (paths, cov) = run(program, PosixEnvironment::new());
        rows.push(vec![
            "symbolic packets (2 commands)".to_string(),
            paths.to_string(),
            format!("{cov:.1}%"),
        ]);
    }

    // Row 3: symbolic packets with stream fragmentation enabled as well —
    // the analogue of augmenting the suite with environment perturbation
    // (the paper's fault-injection row explores many more paths for a small
    // additional coverage gain; the same effect shows here).
    {
        let program = memcached::program(&MemcachedConfig {
            packets: 2,
            packet_size: 5,
            fragment: true,
            ..MemcachedConfig::default()
        });
        let (paths, cov) = run(program, PosixEnvironment::new());
        rows.push(vec![
            "symbolic packets + fragmentation".to_string(),
            paths.to_string(),
            format!("{cov:.1}%"),
        ]);
    }

    print_table(
        "Table 5 — memcached: paths and coverage per testing method",
        &["method", "paths covered", "coverage"],
        &rows,
    );
}
