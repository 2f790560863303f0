//! Observability-layer guarantees.
//!
//! The tracing/metrics layer must be *write-only* with respect to the
//! exploration: arming spans, raising the log level, and recording
//! histograms may never change which paths a worker explores, which bugs
//! it finds, or what it covers. These tests pin that property (tracing
//! on vs off, single- and multi-threaded), and validate the
//! machine-readable artifacts: `run_report.json` totals must equal the
//! in-memory summary, its timeline included.

use cloud9::core::{digest_hex, run_report, Cluster, ClusterConfig, Worker, WorkerConfig};
use cloud9::net::WorkerId;
use cloud9::posix::PosixEnvironment;
use cloud9::targets::named_workload;
use cloud9::trace::json::Json;
use cloud9::trace::Level;
use cloud9::vm::PathChoice;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

/// Serializes tests that flip the process-global tracer state (level,
/// span switch) so parallel test threads cannot race on it.
static TRACE_STATE: Mutex<()> = Mutex::new(());

fn trace_lock() -> MutexGuard<'static, ()> {
    TRACE_STATE.lock().unwrap_or_else(|e| e.into_inner())
}

/// Everything observable about one exhaustive run that tracing must not
/// perturb.
#[derive(Debug, PartialEq)]
struct Outcome {
    paths: u64,
    useful_instructions: u64,
    bugs: u64,
    covered_lines: u64,
    path_set: Vec<Vec<PathChoice>>,
}

fn exhaust(target: &str, threads: usize) -> Outcome {
    let workload = named_workload(target).expect("registered target");
    let mut worker = Worker::new(
        WorkerId(0),
        Arc::new(workload.program),
        Arc::new(PosixEnvironment::new()),
        WorkerConfig {
            threads,
            generate_test_cases: true,
            ..WorkerConfig::default()
        },
    );
    worker.seed_root();
    while worker.has_work() {
        worker.run_quantum(50_000);
    }
    let mut path_set: Vec<Vec<PathChoice>> =
        worker.test_cases.iter().map(|tc| tc.path.clone()).collect();
    path_set.sort();
    Outcome {
        paths: worker.stats.paths_completed,
        useful_instructions: worker.stats.useful_instructions,
        bugs: worker.stats.bugs_found,
        covered_lines: worker.coverage.count() as u64,
        path_set,
    }
}

/// Arming full tracing (debug level + span recording) must leave the
/// exhaustive path set, bug count, and coverage bit-identical, at one
/// executor thread and at four.
#[test]
fn tracing_never_changes_the_tree() {
    let _guard = trace_lock();
    let baseline_level = cloud9::trace::level();
    for threads in [1usize, 4] {
        cloud9::trace::set_level(Level::Error);
        cloud9::trace::enable_spans(false);
        let off = exhaust("memcached-3x5", threads);
        assert!(off.paths > 0);

        cloud9::trace::set_level(Level::Debug);
        cloud9::trace::enable_spans(true);
        let on = exhaust("memcached-3x5", threads);
        let recorded = cloud9::trace::drain_spans();
        assert!(
            !recorded.is_empty(),
            "armed run recorded no spans (threads {threads})"
        );

        cloud9::trace::enable_spans(false);
        assert_eq!(on, off, "tracing changed the tree at threads {threads}");
    }
    cloud9::trace::set_level(baseline_level);
}

/// Runs a transfer-heavy loopback cluster to exhaustion, test cases on,
/// so the report has non-trivial per-worker histograms, a timeline and a
/// test-case digest to validate.
fn cluster_run() -> cloud9::core::ClusterRunResult {
    let workload = named_workload("memcached-3x5").expect("registered target");
    let mut config = ClusterConfig {
        num_workers: 4,
        time_limit: Some(Duration::from_secs(120)),
        quantum: 2_000,
        status_interval: Duration::from_millis(2),
        ..ClusterConfig::default()
    };
    config.worker.threads = 1;
    config.worker.generate_test_cases = true;
    let result = Cluster::new(
        Arc::new(workload.program),
        Arc::new(PosixEnvironment::new()),
        config,
    )
    .run();
    assert!(result.summary.exhausted, "cluster did not exhaust");
    result
}

fn obj<'a>(json: &'a Json, key: &str) -> &'a Json {
    json.get(key).unwrap_or_else(|| panic!("missing key {key}"))
}

/// `run_report` round-trips through its own renderer/parser, and every
/// total in the document equals the in-memory summary it was built from —
/// the same invariant the CI report check enforces against the printed
/// summary of a real multi-process run.
#[test]
fn run_report_totals_match_summary() {
    let result = cluster_run();
    let summary = &result.summary;
    let rendered = run_report(7, &result).render();
    let report = Json::parse(&rendered).expect("report must be valid JSON");

    assert_eq!(obj(&report, "run").as_u64(), Some(7));
    let totals = obj(&report, "totals");
    assert_eq!(
        obj(totals, "paths_completed").as_u64(),
        Some(summary.paths_completed())
    );
    assert_eq!(obj(totals, "bugs_found").as_u64(), Some(summary.bugs_found));
    assert_eq!(
        obj(totals, "useful_instructions").as_u64(),
        Some(summary.useful_instructions())
    );
    assert_eq!(
        obj(totals, "jobs_transferred").as_u64(),
        Some(summary.jobs_transferred())
    );
    assert_eq!(result.test_cases.len() as u64, summary.paths_completed());
    assert_eq!(
        obj(totals, "testcase_digest").as_str(),
        Some(digest_hex(&result.test_cases).as_str())
    );
    assert_eq!(
        obj(&report, "num_workers").as_u64(),
        Some(summary.num_workers as u64)
    );

    // Per-worker entries carry the piggybacked histogram snapshots; the
    // sum of per-worker paths must re-derive the cluster total.
    let workers = obj(&report, "workers").as_arr().expect("workers array");
    assert_eq!(workers.len(), summary.worker_stats.len());
    let mut paths_sum = 0;
    let mut quantum_count = 0;
    for worker in workers {
        paths_sum += obj(worker, "paths_completed").as_u64().unwrap();
        let histograms = obj(obj(worker, "metrics"), "histograms");
        let solver = obj(histograms, "solver_query_us");
        assert!(obj(solver, "count").as_u64().is_some());
        if let Some(quantum) = histograms.get("quantum_us") {
            quantum_count += obj(quantum, "count").as_u64().unwrap();
        }
    }
    assert_eq!(paths_sum, summary.paths_completed());
    assert!(quantum_count > 0, "no quantum durations recorded");

    // The cluster-wide merge must carry the tentpole histograms.
    let merged = obj(obj(&report, "metrics"), "histograms");
    for name in ["quantum_us", "quantum_instructions", "batch_jobs"] {
        assert!(
            merged.get(name).is_some(),
            "merged histogram {name} missing"
        );
    }

    let timeline = obj(&report, "timeline").as_arr().expect("timeline array");
    assert_eq!(timeline.len(), summary.timeline.len());
}
