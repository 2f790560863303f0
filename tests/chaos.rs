//! Chaos tests for elastic fault-tolerant membership: a cluster of real OS
//! processes must survive a SIGKILLed worker, fold late joiners into a
//! running run, and continue an interrupted run from a checkpoint — all
//! without ever losing or double-counting a path. Jobs are replayable path
//! prefixes (§3.2 of the paper), so every recovery is just a re-send of the
//! affected job tree; these tests assert the resulting *exactness*: the
//! final path count always equals one uninterrupted solo worker's.

use cloud9::core::{Worker, WorkerConfig, WorkerId, CHECKPOINT_MAGIC, CHECKPOINT_VERSION};
use cloud9::posix::PosixEnvironment;
use cloud9::targets::named_workload;
use std::io::{BufRead, BufReader, Read};
use std::process::{Child, ChildStderr, ChildStdout, Command, Stdio};
use std::sync::mpsc;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Large enough (35 153 paths, seconds of exploration in a debug build)
/// that a fault fired on the first signs of progress lands mid-run.
const TARGET: &str = "curl";

/// A fault is injected once the coordinator has seen this many completed
/// paths: the run is demonstrably underway on the workers, and far from
/// done.
const FAULT_AFTER_PATHS: u64 = 200;

/// The exhaustive path count of the target, from one uninterrupted worker
/// run in quanta to exhaustion (the count is schedule-independent, so it is
/// every cluster's reference). Computed once for all tests of this file.
fn baseline_paths() -> u64 {
    static BASELINE: OnceLock<u64> = OnceLock::new();
    *BASELINE.get_or_init(|| {
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
        let paths = solo.stats.paths_completed;
        assert!(paths > FAULT_AFTER_PATHS);
        paths
    })
}

/// A worker daemon that is killed and reaped when dropped.
struct WorkerProc {
    child: Child,
}

impl Drop for WorkerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Spawns a worker daemon that joins the coordinator at `addr`, serves one
/// run and logs only errors.
fn spawn_worker(addr: &str) -> WorkerProc {
    let child = Command::new(env!("CARGO_BIN_EXE_c9-worker"))
        .args(["--join", addr, "--once", "--log-level", "error"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn c9-worker");
    WorkerProc { child }
}

/// A coordinator command line for a run of [`TARGET`] that waits for
/// `workers` joins on a fresh port, then small quanta (so the frontier
/// spreads across all workers well before a fault lands) and a 2 ms status
/// cadence, then `extra`.
fn run_args(workers: usize, extra: &[&str]) -> Vec<String> {
    let workers = workers.to_string();
    let run = [
        "--listen",
        "127.0.0.1:0",
        "--min-workers",
        &workers,
        "--target",
        TARGET,
        "--quantum",
        "100",
        "--status-interval-ms",
        "2",
    ];
    run.iter().chain(extra).map(|s| s.to_string()).collect()
}

/// The command line of a run a fault is injected into: a time limit, the
/// failure detector on with `heartbeat_timeout` seconds, and the `debug`
/// progress lines [`await_progress`] fires the fault on.
fn fault_args(workers: usize, heartbeat_timeout: &str) -> Vec<String> {
    let extra = [
        "--time-limit",
        "180",
        "--log-level",
        "debug",
        "--heartbeat-timeout",
        heartbeat_timeout,
    ];
    run_args(workers, &extra)
}

/// Spawns the coordinator with piped stdio and a thread draining stderr;
/// returns the child and a receiver of stderr lines.
fn spawn_coordinator(args: &[String]) -> (Child, mpsc::Receiver<String>) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_c9-coordinator"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn c9-coordinator");
    let stderr: ChildStderr = child.stderr.take().expect("coordinator stderr");
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        for line in BufReader::new(stderr).lines() {
            let Ok(line) = line else { break };
            if tx.send(line).is_err() {
                break;
            }
        }
    });
    (child, rx)
}

/// A running coordinator whose join address has been read off its stdout
/// banner.
struct Coordinator {
    child: Child,
    stdout: BufReader<ChildStdout>,
    stderr: mpsc::Receiver<String>,
    addr: String,
}

impl Coordinator {
    /// Starts the coordinator of `args` (which listen on a fresh port) and
    /// reads the address it prints first.
    fn start(args: &[String]) -> Coordinator {
        let (mut child, stderr) = spawn_coordinator(args);
        let mut stdout = BufReader::new(child.stdout.take().expect("coordinator stdout"));
        let mut banner = String::new();
        stdout
            .read_line(&mut banner)
            .expect("read coordinator banner");
        assert!(banner.contains("listening on"), "banner: {banner}");
        let addr = banner.trim().rsplit(' ').next().unwrap().to_string();
        Coordinator {
            child,
            stdout,
            stderr,
            addr,
        }
    }

    /// Waits for the run to end and returns the rest of its stdout, which
    /// must come from a successful exit.
    fn finish(&mut self) -> String {
        let mut stdout = String::new();
        self.stdout
            .read_to_string(&mut stdout)
            .expect("read stdout");
        let status = self.child.wait().expect("wait coordinator");
        assert!(status.success(), "coordinator failed:\n{stdout}");
        stdout
    }
}

/// Blocks until the coordinator (run with `--log-level debug`) logs a
/// `progress:` line showing at least [`FAULT_AFTER_PATHS`] completed paths:
/// the moment to inject a fault that must land mid-run. Lines read on the
/// way are handed to `seen`.
fn await_progress(stderr: &mpsc::Receiver<String>, mut seen: impl FnMut(&str)) {
    let deadline = std::time::Instant::now() + Duration::from_secs(120);
    while std::time::Instant::now() < deadline {
        match stderr.recv_timeout(Duration::from_millis(100)) {
            Ok(line) => {
                seen(&line);
                let paths = line
                    .split_once("progress: ")
                    .and_then(|(_, rest)| rest.split(' ').next()?.parse::<u64>().ok());
                if paths.is_some_and(|paths| paths >= FAULT_AFTER_PATHS) {
                    return;
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => continue,
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        }
    }
    panic!("coordinator never reported {FAULT_AFTER_PATHS} completed paths");
}

fn stdout_field(stdout: &str, field: &str) -> u64 {
    stdout
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .unwrap_or_else(|| panic!("coordinator output missing {field:?}:\n{stdout}"))
        .trim()
        .parse()
        .unwrap_or_else(|_| panic!("field {field:?} is not a number:\n{stdout}"))
}

/// The acceptance-criteria test: SIGKILL one of four TCP workers mid-run.
/// The failure detector must declare it dead, reclaim its pending jobs
/// from the coordinator's ledger, re-inject them into the three survivors,
/// and the run must finish with exactly the uninterrupted path count.
#[test]
fn sigkill_one_of_four_workers_mid_run_preserves_the_path_count() {
    let expected = baseline_paths();

    let mut coordinator = Coordinator::start(&fault_args(4, "0.75"));
    let mut workers: Vec<WorkerProc> = (0..4).map(|_| spawn_worker(&coordinator.addr)).collect();

    await_progress(&coordinator.stderr, |_| {});
    // SIGKILL — no cleanup, no goodbye; its unsent results and its pending
    // jobs exist only as replayable path prefixes in the coordinator's
    // ledger now.
    let victim = &mut workers[1];
    victim.child.kill().expect("kill worker");
    victim.child.wait().expect("reap worker");

    let stdout = coordinator.finish();
    assert_eq!(
        stdout_field(&stdout, "workers failed:"),
        1,
        "the kill must be detected as exactly one failure:\n{stdout}"
    );
    assert!(
        stdout.contains("exhausted:         true"),
        "the surviving cluster did not exhaust:\n{stdout}"
    );
    assert_eq!(
        stdout_field(&stdout, "total paths:"),
        expected,
        "crash recovery lost or double-counted paths:\n{stdout}"
    );
}

/// Elastic membership: one worker attaches after the run started. The late
/// joiner is folded into the next balancing round and the exploration
/// stays exact.
#[test]
fn late_joiner_is_folded_into_a_running_elastic_cluster() {
    let expected = baseline_paths();

    let mut coordinator = Coordinator::start(&fault_args(2, "2"));
    let _w1 = spawn_worker(&coordinator.addr);
    let _w2 = spawn_worker(&coordinator.addr);
    await_progress(&coordinator.stderr, |_| {});
    let _w3 = spawn_worker(&coordinator.addr);

    let stdout = coordinator.finish();
    assert_eq!(
        stdout_field(&stdout, "workers:"),
        3,
        "the late joiner never became a member:\n{stdout}"
    );
    assert!(
        stdout.contains("exhausted:         true"),
        "elastic cluster did not exhaust:\n{stdout}"
    );
    assert_eq!(
        stdout_field(&stdout, "total paths:"),
        expected,
        "elastic membership changed the explored tree:\n{stdout}"
    );
}

/// Churn: of four joined workers one is SIGKILLed mid-run and a
/// replacement joins right away. The coordinator must admit all five,
/// detect exactly one failure, and finish with exactly the uninterrupted
/// path count. The only test that combines a kill with a replacement
/// joiner.
#[test]
fn crash_and_replacement_joiner_preserve_the_path_count() {
    let expected = baseline_paths();

    let mut coordinator = Coordinator::start(&fault_args(4, "0.75"));
    let mut workers: Vec<WorkerProc> = (0..4).map(|_| spawn_worker(&coordinator.addr)).collect();
    // The coordinator's membership log has one line per admitted join.
    let mut joins = 0;
    let mut note_join = |line: &str| {
        if line.contains(" joined (epoch ") {
            joins += 1;
        }
    };
    await_progress(&coordinator.stderr, &mut note_join);

    // SIGKILL one member and send in a replacement immediately: its join
    // lands within milliseconds, well before the failure detector (0.75s)
    // reclaims the victim's jobs — the survivors' recovery work keeps the
    // run alive long enough for both to matter.
    let victim = &mut workers[1];
    victim.child.kill().expect("kill worker");
    victim.child.wait().expect("reap worker");
    let _replacement = spawn_worker(&coordinator.addr);

    let stdout = coordinator.finish();
    while let Ok(line) = coordinator.stderr.try_recv() {
        note_join(&line);
    }
    assert_eq!(joins, 5, "expected 4 initial joins + 1 replacement");
    assert_eq!(
        stdout_field(&stdout, "workers failed:"),
        1,
        "the kill must be detected as exactly one failure:\n{stdout}"
    );
    assert!(
        stdout.contains("exhausted:         true"),
        "the churned cluster did not exhaust:\n{stdout}"
    );
    assert_eq!(
        stdout_field(&stdout, "total paths:"),
        expected,
        "crash/rejoin lost or double-counted paths:\n{stdout}"
    );
}

/// Checkpoint/resume: a run stopped by a path limit writes its final
/// checkpoint (completed stats + pending frontier); a second run with
/// fresh worker processes resumes it and must land on exactly the
/// uninterrupted total.
#[test]
fn checkpoint_resume_continues_an_interrupted_run_exactly() {
    let expected = baseline_paths();
    let dir = std::env::temp_dir().join(format!("c9-chaos-resume-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let checkpoint = dir.join("run.ckpt");
    let checkpoint_arg = checkpoint.display().to_string();

    let phase = |extra: &[&str]| -> String {
        let mut coordinator = Coordinator::start(&run_args(2, extra));
        let _workers: Vec<WorkerProc> = (0..2).map(|_| spawn_worker(&coordinator.addr)).collect();
        coordinator.finish()
    };

    // Phase 1: stop early, checkpointing the frontier.
    let limit = (expected / 3).max(1).to_string();
    let stdout = phase(&["--max-paths", &limit, "--checkpoint", &checkpoint_arg]);
    let phase1_paths = stdout_field(&stdout, "total paths:");
    assert!(
        phase1_paths < expected,
        "phase 1 was supposed to stop early:\n{stdout}"
    );
    assert!(checkpoint.exists(), "no checkpoint written");

    // Phase 2: fresh workers, resumed run.
    let stdout = phase(&["--time-limit", "180", "--resume", &checkpoint_arg]);
    assert!(
        stdout.contains("exhausted:         true"),
        "resumed run did not exhaust:\n{stdout}"
    );
    assert_eq!(
        stdout_field(&stdout, "total paths:"),
        expected,
        "resume lost or double-counted paths:\n{stdout}"
    );
    let phase2_paths = stdout_field(&stdout, "total paths:");
    assert!(phase2_paths > phase1_paths);

    std::fs::remove_dir_all(&dir).ok();
}

/// `--resume` of a checkpoint this build cannot read — another layout
/// version, or a file cut short — exits with the loader's error instead of
/// panicking or resuming from garbage. The checkpoint is loaded before the
/// coordinator listens, so no worker is needed.
#[test]
fn resume_of_an_unreadable_checkpoint_exits_with_its_error() {
    let dir = std::env::temp_dir().join(format!("c9-chaos-bad-ckpt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let checkpoint = dir.join("run.ckpt");
    // The header: the magic, then the little-endian layout version.
    let header = |version: u32| [CHECKPOINT_MAGIC.as_slice(), &version.to_le_bytes()].concat();
    let mut other_version = header(CHECKPOINT_VERSION + 1);
    other_version.extend_from_slice(&[0; 16]);
    let other = format!("version {}", CHECKPOINT_VERSION + 1);
    let mut truncated = header(CHECKPOINT_VERSION);
    truncated.extend_from_slice(&[7, 0, 0]);
    for (bytes, expected) in [(other_version, other.as_str()), (truncated, "")] {
        std::fs::write(&checkpoint, &bytes).expect("write checkpoint");
        let args: Vec<String> = [
            "--listen",
            "127.0.0.1:0",
            "--target",
            "memcached-3x5",
            "--resume",
            &checkpoint.display().to_string(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let (child, stderr) = spawn_coordinator(&args);
        let output = child.wait_with_output().expect("run c9-coordinator");
        let log: Vec<String> = stderr.iter().collect();
        assert_eq!(output.status.code(), Some(1), "stderr: {log:?}");
        assert!(
            log.iter()
                .any(|l| l.contains("cannot load checkpoint") && l.contains(expected)),
            "expected {expected:?} in the error: {log:?}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
