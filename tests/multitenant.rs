//! The multi-tenant run service, end to end over in-process channels.
//!
//! One 4-worker cluster hosts several concurrent symbolic-execution runs
//! through the [`RunService`](cloud9::core::RunService) registry. Isolation
//! is the invariant under test: every run multiplexed onto the shared
//! fleet must explore *exactly* the tree a dedicated solo cluster explores
//! — path sets compared bit-for-bit via solved test cases — through
//! concurrency, preemption + resumption, and a neighbor's cancellation.

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

fn env_factory(spec: EnvSpec) -> Arc<dyn Environment> {
    match spec {
        EnvSpec::Null => Arc::new(NullEnvironment),
        EnvSpec::Posix => Arc::new(PosixEnvironment::new()),
    }
}

fn base_config() -> ClusterConfig {
    let mut config = ClusterConfig {
        num_workers: WORKERS,
        time_limit: Some(Duration::from_secs(120)),
        ..ClusterConfig::default()
    };
    config.worker.generate_test_cases = true;
    config
}

fn submission(target: &str) -> RunSubmission {
    let workload = named_workload(target).expect("registered target");
    let env = match workload.env {
        WorkloadEnv::Null => EnvSpec::Null,
        WorkloadEnv::Posix => EnvSpec::Posix,
    };
    RunSubmission {
        name: target.to_string(),
        program: Arc::new(workload.program),
        env,
        config: base_config(),
    }
}

/// The canonical form for bit-identity comparison: every completed path's
/// decision sequence, sorted.
fn path_set(test_cases: &[TestCase]) -> Vec<Vec<PathChoice>> {
    let mut paths: Vec<Vec<PathChoice>> = test_cases.iter().map(|t| t.path.clone()).collect();
    paths.sort();
    paths
}

/// The baseline: the same workload, exhausted by a dedicated solo cluster
/// of the same size.
fn solo_path_set(target: &str) -> Vec<Vec<PathChoice>> {
    let workload = named_workload(target).expect("registered target");
    let env: Arc<dyn Environment> = match workload.env {
        WorkloadEnv::Null => Arc::new(NullEnvironment),
        WorkloadEnv::Posix => Arc::new(PosixEnvironment::new()),
    };
    let result = Cluster::new(Arc::new(workload.program), env, base_config()).run();
    assert!(result.summary.exhausted, "solo {target} run must exhaust");
    path_set(&result.test_cases)
}

fn wait_until(
    handle: &ServiceHandle,
    run: RunId,
    what: &str,
    pred: impl Fn(&RunInfo) -> bool,
) -> RunInfo {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let info = handle.status(run).expect("run is registered");
        if pred(&info) {
            return info;
        }
        assert!(
            Instant::now() < deadline,
            "timed out waiting for run {run} to be {what} (state {}, {} paths)",
            info.state,
            info.paths_completed
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Two runs executing concurrently on the same 4 workers explore exactly
/// the trees their dedicated solo clusters explore.
#[test]
fn concurrent_runs_match_solo_path_sets() {
    let solo_small = solo_path_set("memcached");
    let solo_large = solo_path_set("memcached-3x5");

    let (small, large) = serve_inproc(
        WORKERS,
        RunServiceConfig {
            max_concurrent: 2,
            report_dir: None,
        },
        env_factory,
        |handle| {
            let small = handle.submit(submission("memcached")).expect("submit");
            let large = handle.submit(submission("memcached-3x5")).expect("submit");
            wait_until(&handle, small, "done", |i| i.state == RunState::Done);
            wait_until(&handle, large, "done", |i| i.state == RunState::Done);
            let small = handle.results(small).expect("results of a done run");
            let large = handle.results(large).expect("results of a done run");
            assert!(small.summary.exhausted, "small run must exhaust");
            assert!(large.summary.exhausted, "large run must exhaust");
            (small, large)
        },
    );
    assert_eq!(
        path_set(&small.test_cases),
        solo_small,
        "concurrent memcached run explored a different tree than solo"
    );
    assert_eq!(
        path_set(&large.test_cases),
        solo_large,
        "concurrent memcached-3x5 run explored a different tree than solo"
    );
    assert_eq!(small.summary.paths_completed(), solo_small.len() as u64);
    assert_eq!(large.summary.paths_completed(), solo_large.len() as u64);
}

/// A run preempted mid-flight (frontier frozen into an in-memory
/// checkpoint) and later resumed completes the exact solo tree, while a
/// concurrent run keeps executing undisturbed across the preemption.
#[test]
fn preempted_and_resumed_run_matches_solo_path_set() {
    let solo_victim = solo_path_set("memcached-3x5");
    let solo_survivor = solo_path_set("memcached");

    let (victim, survivor, frozen) = serve_inproc(
        WORKERS,
        RunServiceConfig {
            max_concurrent: 2,
            report_dir: None,
        },
        env_factory,
        |handle| {
            // A tiny quantum keeps the victim exploring long enough for the
            // preemption to land mid-flight rather than after exhaustion.
            let mut slow = submission("memcached-3x5");
            slow.config.quantum = 8;
            slow.config.status_interval = Duration::from_millis(1);
            let victim = handle.submit(slow).expect("submit");
            wait_until(&handle, victim, "making progress", |i| {
                i.state == RunState::Running && i.paths_completed > 0
            });
            assert!(handle.preempt(victim), "running run must be preemptable");
            let frozen = wait_until(&handle, victim, "preempted", |i| {
                i.state == RunState::Preempted
            });

            // While the victim sits frozen, a second run executes to
            // completion on the freed slot.
            let survivor = handle.submit(submission("memcached")).expect("submit");
            wait_until(&handle, survivor, "done", |i| i.state == RunState::Done);

            assert!(handle.resume(victim), "preempted run must be resumable");
            wait_until(&handle, victim, "done", |i| i.state == RunState::Done);

            let victim = handle.results(victim).expect("results of a done run");
            let survivor = handle.results(survivor).expect("results of a done run");
            (victim, survivor, frozen)
        },
    );
    assert!(victim.summary.exhausted, "resumed run must exhaust");
    assert!(frozen.pending_jobs > 0, "the checkpoint froze no work");
    assert_eq!(
        victim.summary.jobs_reclaimed, frozen.pending_jobs,
        "the resumed activation must re-inject exactly the frozen jobs"
    );
    assert!(
        (frozen.paths_completed as usize) < solo_victim.len(),
        "preemption landed after the run already finished — no resumption \
         was exercised"
    );
    assert_eq!(
        path_set(&victim.test_cases),
        solo_victim,
        "preempted+resumed run explored a different tree than solo"
    );
    assert_eq!(
        path_set(&survivor.test_cases),
        solo_survivor,
        "survivor of a neighbor's preemption explored a different tree"
    );
    assert_eq!(victim.summary.paths_completed(), solo_victim.len() as u64);
}

/// Cancelling one run mid-flight frees its slot for the queued run behind
/// it, and the surviving runs still explore their exact solo trees.
#[test]
fn cancel_mid_run_leaves_survivors_exact() {
    let solo_first = solo_path_set("memcached");
    let solo_third = solo_path_set("producer-consumer");

    let (first, third, cancelled) = serve_inproc(
        WORKERS,
        RunServiceConfig {
            max_concurrent: 2,
            report_dir: None,
        },
        env_factory,
        |handle| {
            let first = handle.submit(submission("memcached")).expect("submit");
            let second = handle.submit(submission("memcached-3x5")).expect("submit");
            // Two slots: the third run queues behind the first two.
            let third = handle
                .submit(submission("producer-consumer"))
                .expect("submit");
            wait_until(&handle, second, "running", |i| i.state == RunState::Running);
            assert!(handle.cancel(second), "running run must be cancellable");
            let cancelled = wait_until(&handle, second, "done", |i| i.state == RunState::Done);
            assert!(cancelled.cancelled, "cancelled run must say so");

            wait_until(&handle, first, "done", |i| i.state == RunState::Done);
            wait_until(&handle, third, "done", |i| i.state == RunState::Done);
            let first = handle.results(first).expect("results of a done run");
            let third = handle.results(third).expect("results of a done run");
            assert!(
                !handle.cancel(second),
                "a finished run must not be cancellable again"
            );
            (first, third, cancelled)
        },
    );
    assert!(!cancelled.cancelled || cancelled.state == RunState::Done);
    assert!(first.summary.exhausted, "first run must exhaust");
    assert!(third.summary.exhausted, "third run must exhaust");
    assert_eq!(
        path_set(&first.test_cases),
        solo_first,
        "run sharing the fleet with a cancelled neighbor diverged from solo"
    );
    assert_eq!(
        path_set(&third.test_cases),
        solo_third,
        "run admitted after a cancellation diverged from solo"
    );
}

/// The registry life cycle as seen through the handle: list order,
/// queued-run cancellation, and unknown-run errors.
#[test]
fn registry_bookkeeping() {
    serve_inproc(
        WORKERS,
        RunServiceConfig {
            max_concurrent: 1,
            report_dir: None,
        },
        env_factory,
        |handle| {
            let a = handle.submit(submission("memcached")).expect("submit");
            let b = handle
                .submit(submission("producer-consumer"))
                .expect("submit");
            assert_ne!(a, b, "run ids must be unique");

            // A queued run can be cancelled before it ever touches a worker.
            let queued = handle.submit(submission("memcached-3x5")).expect("submit");
            assert!(handle.cancel(queued), "queued run must be cancellable");
            let info = handle.status(queued).expect("cancelled run stays listed");
            assert_eq!(info.state, RunState::Done);
            assert!(info.cancelled);
            assert_eq!(info.paths_completed, 0);

            assert!(handle.status(RunId(999)).is_none(), "unknown run id");
            assert!(!handle.cancel(RunId(999)));
            assert!(!handle.preempt(queued), "done run is not preemptable");
            assert!(!handle.resume(queued), "done run is not resumable");

            wait_until(&handle, a, "done", |i| i.state == RunState::Done);
            wait_until(&handle, b, "done", |i| i.state == RunState::Done);
            let listed = handle.list();
            assert_eq!(listed.len(), 3, "all submissions stay listed");
            assert_eq!(
                listed.iter().map(|i| i.id).collect::<Vec<_>>(),
                vec![a, b, queued],
                "list follows submission order"
            );
            assert!(
                listed.iter().all(|i| i.state == RunState::Done),
                "everything finished"
            );
        },
    );
}
