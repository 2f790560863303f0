//! Cross-worker constraint-cache sharing, end to end: gossiped cache
//! slices (JobBatch piggyback + status gossip + coordinator hot-set
//! rebroadcast) are a pure cache layer. The invariant under test is that
//! they never change what a cluster explores — path sets, coverage, and
//! bug sets are compared bit-for-bit between gossip off and on — while the
//! per-run isolation probe shows a gossip-free tenant sharing the fleet
//! with a gossiping one sees none of its warmth.

use cloud9::core::{
    serve_inproc, Cluster, ClusterConfig, RunId, RunInfo, RunServiceConfig, RunState,
    RunSubmission, ServiceHandle,
};
use cloud9::net::EnvSpec;
use cloud9::posix::PosixEnvironment;
use cloud9::targets::{named_workload, WorkloadEnv};
use cloud9::vm::{Environment, NullEnvironment, PathChoice, TestCase};
use std::sync::Arc;
use std::time::{Duration, Instant};

const WORKERS: usize = 4;

/// Everything that must be identical when only cache/witness layers change.
#[derive(Debug, PartialEq)]
struct Outcome {
    paths: u64,
    covered_lines: u64,
    bug_paths: Vec<Vec<PathChoice>>,
    path_set: Vec<Vec<PathChoice>>,
}

/// Solver-side activity that the legs are allowed (and expected) to change.
struct Warmth {
    warm_hits: u64,
    imported_entries: u64,
    gossip_bytes: u64,
}

fn path_set(test_cases: &[TestCase]) -> Vec<Vec<PathChoice>> {
    let mut paths: Vec<Vec<PathChoice>> = test_cases.iter().map(|t| t.path.clone()).collect();
    paths.sort();
    paths
}

/// Transfer-heavy 4-worker config: small quanta and tight cadences keep
/// jobs, gossip slices, and hot-set rebroadcasts moving all run long.
fn transfer_heavy_config() -> ClusterConfig {
    let mut config = ClusterConfig {
        num_workers: WORKERS,
        time_limit: Some(Duration::from_secs(120)),
        quantum: 2_000,
        status_interval: Duration::from_millis(2),
        balance_interval: Duration::from_millis(4),
        ..ClusterConfig::default()
    };
    config.worker.generate_test_cases = true;
    config
}

fn cluster_outcome(target: &str, configure: impl FnOnce(&mut ClusterConfig)) -> (Outcome, Warmth) {
    let workload = named_workload(target).expect("registered target");
    let mut config = transfer_heavy_config();
    configure(&mut config);
    let result = Cluster::new(
        Arc::new(workload.program),
        Arc::new(PosixEnvironment::new()),
        config,
    )
    .run();
    assert!(result.summary.exhausted, "{target} cluster must exhaust");
    let solver = result.summary.solver_stats();
    let outcome = Outcome {
        paths: result.summary.paths_completed(),
        covered_lines: result.summary.coverage.count() as u64,
        bug_paths: path_set(&result.bugs),
        path_set: path_set(&result.test_cases),
    };
    let warmth = Warmth {
        warm_hits: solver.warm_hits,
        imported_entries: solver.imported_cache_entries,
        gossip_bytes: result
            .summary
            .worker_stats
            .iter()
            .map(|w| w.gossip_bytes_sent + w.gossip_bytes_received)
            .sum(),
    };
    (outcome, warmth)
}

/// Gossip off vs on: bit-identical trees, and the gossip leg actually
/// moved slices and served warm hits (otherwise the parity is vacuous).
#[test]
fn gossip_does_not_change_the_explored_tree() {
    let (off, off_warmth) = cluster_outcome("memcached-3x5", |c| {
        c.worker.cache_gossip = false;
    });
    assert!(off.paths > 0);
    assert_eq!(off_warmth.gossip_bytes, 0, "gossip off must move no bytes");
    assert_eq!(off_warmth.imported_entries, 0);

    let (on, on_warmth) = cluster_outcome("memcached-3x5", |c| {
        c.worker.cache_gossip = true;
    });
    assert_eq!(on, off, "cache gossip changed the explored tree");
    assert!(on_warmth.gossip_bytes > 0, "gossip on moved no slice bytes");
    assert!(
        on_warmth.imported_entries > 0 && on_warmth.warm_hits > 0,
        "gossip on warmed nothing ({} imported, {} warm hits)",
        on_warmth.imported_entries,
        on_warmth.warm_hits
    );
}

fn env_factory(spec: EnvSpec) -> Arc<dyn Environment> {
    match spec {
        EnvSpec::Null => Arc::new(NullEnvironment),
        EnvSpec::Posix => Arc::new(PosixEnvironment::new()),
    }
}

fn submission(target: &str, gossip: bool) -> RunSubmission {
    let workload = named_workload(target).expect("registered target");
    let env = match workload.env {
        WorkloadEnv::Null => EnvSpec::Null,
        WorkloadEnv::Posix => EnvSpec::Posix,
    };
    // The same transfer-heavy shape as the direct cluster legs: small
    // quanta keep both tenants' jobs migrating and the gossiping one's
    // slices flowing long enough to serve warm hits before exhaustion.
    let mut config = transfer_heavy_config();
    config.worker.cache_gossip = gossip;
    RunSubmission {
        name: format!("{target}-gossip-{gossip}"),
        program: Arc::new(workload.program),
        env,
        config,
    }
}

fn wait_done(handle: &ServiceHandle, run: RunId) -> RunInfo {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let info = handle.status(run).expect("run is registered");
        if info.state == RunState::Done {
            return info;
        }
        assert!(
            Instant::now() < deadline,
            "timed out waiting for run {run} (state {})",
            info.state
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Per-run isolation on the shared fleet: a gossip-free tenant admitted
/// concurrently with a gossiping one must finish with zero imported
/// entries, zero warm hits, and zero gossip bytes — run-scoped hot sets
/// and per-run solvers mean tenants never see each other's constraints.
#[test]
fn concurrent_tenants_do_not_share_cache_warmth() {
    let (quiet, chatty) = serve_inproc(
        WORKERS,
        RunServiceConfig {
            max_concurrent: 2,
            ..RunServiceConfig::default()
        },
        env_factory,
        |handle| {
            let quiet = handle
                .submit(submission("memcached-3x5", false))
                .expect("submit gossip-free run");
            let chatty = handle
                .submit(submission("memcached-3x5", true))
                .expect("submit gossiping run");
            wait_done(&handle, quiet);
            wait_done(&handle, chatty);
            let quiet = handle.results(quiet).expect("results of a done run");
            let chatty = handle.results(chatty).expect("results of a done run");
            handle.shutdown();
            (quiet, chatty)
        },
    );

    // Both tenants explored the identical exhaustive tree.
    assert_eq!(path_set(&quiet.test_cases), path_set(&chatty.test_cases));

    let quiet_solver = quiet.summary.solver_stats();
    assert_eq!(
        quiet_solver.imported_cache_entries, 0,
        "a gossip-free run imported cache entries from a neighbor"
    );
    assert_eq!(quiet_solver.warm_hits, 0);
    let quiet_bytes: u64 = quiet
        .summary
        .worker_stats
        .iter()
        .map(|w| w.gossip_bytes_sent + w.gossip_bytes_received)
        .sum();
    assert_eq!(quiet_bytes, 0, "a gossip-free run moved gossip bytes");

    let chatty_bytes: u64 = chatty
        .summary
        .worker_stats
        .iter()
        .map(|w| w.gossip_bytes_sent + w.gossip_bytes_received)
        .sum();
    assert!(chatty_bytes > 0, "the gossiping run moved no slice bytes");
    assert!(chatty.summary.solver_stats().warm_hits > 0);
}
