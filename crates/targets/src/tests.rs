//! Smoke and behaviour tests of the target programs under the engine.

use crate::{
    all_targets, bandicoot, coreutils, curl, lighttpd, memcached, printf_util, producer_consumer,
    test_util, LighttpdVersion,
};
use c9_posix::{PosixConfig, PosixEnvironment};
use c9_vm::{
    BugKind, DfsSearcher, Engine, EngineConfig, ExecutorConfig, RunSummary, TerminationReason,
};
use std::sync::Arc;
use std::time::Duration;

fn run(program: c9_ir::Program, config: EngineConfig) -> RunSummary {
    let mut engine = Engine::new(
        Arc::new(program),
        Arc::new(PosixEnvironment::new()),
        Box::new(DfsSearcher::new()),
        config,
    );
    engine.run()
}

fn bounded(max_paths: usize) -> EngineConfig {
    EngineConfig {
        max_paths,
        max_time: Some(Duration::from_secs(20)),
        generate_test_cases: false,
        executor: ExecutorConfig {
            max_instructions_per_path: 200_000,
        },
        ..EngineConfig::default()
    }
}

#[test]
fn every_target_validates_and_runs_at_least_one_path() {
    for target in all_targets() {
        assert!(
            target.program.validate().is_ok(),
            "{} fails validation",
            target.name
        );
        let summary = run(target.program.clone(), bounded(3));
        assert!(
            summary.paths_completed >= 1,
            "{} completed no paths",
            target.name
        );
    }
}

#[test]
fn memcached_exhaustive_single_packet() {
    let config = memcached::MemcachedConfig {
        packets: 1,
        packet_size: 5,
        ..memcached::MemcachedConfig::default()
    };
    let summary = run(memcached::program(&config), bounded(0));
    assert!(summary.exhausted, "single-packet test should be exhaustive");
    // All protocol outcomes reachable with an empty table.
    assert!(
        summary.paths_completed >= 8,
        "too few protocol outcomes: {}",
        summary.paths_completed
    );
    assert_eq!(summary.bugs.len(), 0);
}

#[test]
fn memcached_two_packets_explode_combinatorially() {
    let one = run(
        memcached::program(&memcached::MemcachedConfig {
            packets: 1,
            packet_size: 5,
            ..memcached::MemcachedConfig::default()
        }),
        bounded(0),
    );
    let two = run(
        memcached::program(&memcached::MemcachedConfig {
            packets: 2,
            packet_size: 5,
            ..memcached::MemcachedConfig::default()
        }),
        bounded(0),
    );
    assert!(two.exhausted);
    // The second packet multiplies the number of paths (the Table 5 effect).
    assert!(
        two.paths_completed > 3 * one.paths_completed,
        "1 packet: {} paths, 2 packets: {} paths",
        one.paths_completed,
        two.paths_completed
    );
}

#[test]
fn memcached_udp_hang_is_detected() {
    let config = memcached::MemcachedConfig {
        packets: 1,
        packet_size: 4,
        udp_mode: true,
        ..memcached::MemcachedConfig::default()
    };
    let mut engine_config = bounded(0);
    engine_config.executor.max_instructions_per_path = 20_000;
    let summary = run(memcached::program(&config), engine_config);
    let hangs = summary
        .test_cases
        .iter()
        .chain(summary.bugs.iter())
        .filter(|tc| tc.termination == TerminationReason::MaxInstructions)
        .count();
    assert!(
        hangs >= 1
            || summary
                .bugs
                .iter()
                .any(|b| b.termination == TerminationReason::MaxInstructions),
        "the UDP hang was not detected"
    );
}

#[test]
fn lighttpd_pre_patch_crashes_post_patch_still_crashes_fixed_does_not() {
    let env_config = PosixConfig {
        max_symbolic_chunk: 28,
        max_fragment_alternatives: 3,
        ..PosixConfig::default()
    };
    let mut crash_counts = Vec::new();
    for version in [
        LighttpdVersion::V1_4_12,
        LighttpdVersion::V1_4_13,
        LighttpdVersion::Fixed,
    ] {
        let mut engine = Engine::new(
            Arc::new(lighttpd::program(version)),
            Arc::new(PosixEnvironment::with_config(env_config)),
            Box::new(DfsSearcher::new()),
            EngineConfig {
                max_paths: 400,
                max_time: Some(Duration::from_secs(30)),
                generate_test_cases: false,
                ..EngineConfig::default()
            },
        );
        let summary = engine.run();
        let crashes = summary
            .bugs
            .iter()
            .filter(|b| matches!(b.termination, TerminationReason::Bug(BugKind::Abort { .. })))
            .count();
        crash_counts.push(crashes);
    }
    assert!(crash_counts[0] > 0, "pre-patch version must crash");
    assert!(
        crash_counts[1] > 0,
        "post-patch version must still crash for some fragmentations (incomplete fix)"
    );
    assert_eq!(crash_counts[2], 0, "fixed version must never crash");
}

#[test]
fn curl_unmatched_brace_is_found_and_reproduced() {
    let mut config = bounded(0);
    config.generate_test_cases = false;
    let summary = run(curl::program(5), config);
    assert!(summary.exhausted);
    assert!(!summary.bugs.is_empty(), "the glob bug was not found");
    let bug = &summary.bugs[0];
    // The crashing URL must contain an unmatched '{'.
    let url = bug.bytes_with_prefix("sym");
    let opens = url.iter().filter(|b| **b == b'{').count();
    let closes = url.iter().filter(|b| **b == b'}').count();
    assert!(opens > closes, "crashing input {url:?} has balanced braces");
}

#[test]
fn bandicoot_out_of_bounds_read_is_found() {
    let summary = run(bandicoot::program(), bounded(0));
    assert!(summary.exhausted);
    let oob = summary.bugs.iter().any(|b| {
        matches!(
            b.termination,
            TerminationReason::Bug(BugKind::OutOfBounds { .. })
        )
    });
    assert!(oob, "the out-of-bounds read was not detected");
}

#[test]
fn printf_explores_many_format_paths() {
    let mut config = bounded(200);
    config.generate_test_cases = false;
    let summary = run(printf_util::program(4), config);
    assert!(
        summary.paths_completed >= 20,
        "printf produced only {} paths",
        summary.paths_completed
    );
    assert!(summary.coverage.count() > 0);
}

#[test]
fn test_util_covers_true_false_and_usage_error() {
    let mut config = bounded(0);
    config.generate_test_cases = true;
    let summary = run(test_util::program(6), config);
    assert!(summary.exhausted);
    let mut exits: Vec<i64> = summary
        .test_cases
        .iter()
        .filter_map(|tc| match tc.termination {
            TerminationReason::Exit(c) => Some(c),
            _ => None,
        })
        .collect();
    exits.sort_unstable();
    exits.dedup();
    assert!(exits.contains(&0), "no true outcome");
    assert!(exits.contains(&1), "no false outcome");
    assert!(exits.contains(&2), "no usage-error outcome");
}

#[test]
fn coreutils_suite_programs_all_run_and_branch() {
    for (name, program) in coreutils::suite(3) {
        let mut config = bounded(100);
        config.generate_test_cases = false;
        let summary = run(program, config);
        assert!(
            summary.paths_completed >= 2,
            "{name} explored only {} paths",
            summary.paths_completed
        );
    }
}

#[test]
fn producer_consumer_runs_without_bugs_and_balances_tokens() {
    let summary = run(producer_consumer::program(2, 2), bounded(5));
    assert_eq!(summary.bugs.len(), 0, "bugs: {:?}", summary.bugs);
    assert!(summary.paths_completed >= 1);
    // Exit code: 100 * (1 datagram byte) + tokens left (0 when every consumer
    // finds a token, up to 2 when consumers run before producers).
    let ok = summary.test_cases.iter().all(|tc| match tc.termination {
        TerminationReason::Exit(code) => (100..=102).contains(&code),
        _ => false,
    });
    assert!(ok || summary.test_cases.is_empty());
}
