//! `c9-worker`: one Cloud9 worker daemon per OS process.
//!
//! Executes symbolic-execution runs behind a TCP listener, one at a time,
//! exactly as in the paper's deployment (§3.3). Two ways to meet the
//! coordinator:
//!
//! * `--listen HOST:PORT` (static): wait for a coordinator to dial in and
//!   ship a run spec. After the run, the daemon waits for the next one (a
//!   later coordinator may dial in again).
//! * `--join HOST:PORT` (elastic): dial a listening coordinator and attach
//!   to its — possibly already running — cluster. If the connection is
//!   lost, the daemon re-joins with its previous identity so the
//!   coordinator can fence off the stale incarnation; when a run finishes
//!   and `--once` was given, it sends a graceful `Leave` before exiting.
//!
//! Either way the worker then explores, exchanges job batches directly with
//! its peer workers, and reports status (with frontier snapshots for the
//! coordinator's crash-recovery ledger) and final results back to the
//! coordinator. The daemon keeps serving runs until killed, or, with
//! `--once`, until its first run ends.
//!
//! ```text
//! c9-worker --listen 127.0.0.1:9101
//! c9-worker --join 127.0.0.1:9100
//! ```

use c9_core::config::{parse_worker_args, WorkerArgs};
use c9_net::{
    send_leave, EnvSpec, RunSpec, TcpWorkerEndpoint, TcpWorkerHost, WorkerEndpoint, WorkerId,
};
use c9_posix::PosixEnvironment;
use c9_trace::{error, info, warn};
use c9_vm::{Environment, NullEnvironment};
use std::io::Write;
use std::sync::Arc;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: c9-worker [--listen HOST:PORT] [--join HOST:PORT] [--once] [options]\n\
         \n\
         options:\n\
         \x20 --listen HOST:PORT  address to listen on (default 127.0.0.1:0)\n\
         \x20 --join HOST:PORT    attach to a listening coordinator (elastic membership)\n\
         \x20 --once              exit once the first run ends instead of serving forever\n\
         \x20 --threads N         executor threads (overrides the coordinator's run spec)\n\
         \n\
         observability:\n\
         \x20 --log-level LEVEL   stderr log level: error|warn|info|debug|trace\n\
         \x20                     (default: C9_LOG or info)\n\
         \x20 --trace-out FILE    append structured events to FILE as JSON lines\n\
         \x20 --trace-chrome FILE write a Chrome-trace span timeline after each run"
    );
    std::process::exit(2);
}

fn environment_for(spec: EnvSpec) -> Arc<dyn Environment> {
    match spec {
        EnvSpec::Null => Arc::new(NullEnvironment),
        EnvSpec::Posix => Arc::new(PosixEnvironment::new()),
    }
}

/// Drains the span buffers into `--trace-chrome` (latest run wins) and
/// flushes the JSONL event sink, so artifacts survive a later kill.
fn flush_trace(args: &WorkerArgs) {
    if let Some(path) = &args.common.trace_chrome {
        let spans = c9_trace::drain_spans();
        if let Err(e) = c9_trace::write_chrome_trace(path, &spans, std::process::id() as u64) {
            error!("cannot write chrome trace {}: {e}", path.display());
        }
    }
    c9_trace::flush();
}

/// Runs one run the coordinator started, then flushes the trace sinks.
/// Returns whether the run took place: a spec that fails validation is
/// logged and refused, and the daemon waits for the next `Start`.
fn run_one(args: &WorkerArgs, endpoint: &mut TcpWorkerEndpoint, spec: RunSpec) -> bool {
    let env = environment_for(spec.env);
    let (id, run) = (endpoint.id(), spec.run);
    info!(
        "worker {id}: starting run {run} (strategy {:?})",
        spec.strategy
    );
    if let Err(e) = c9_core::run_worker_from_spec_with(endpoint, spec, env, args.common.threads) {
        error!("worker {id}: refusing run {run}: {e}");
        return false;
    }
    info!("worker {id}: run complete");
    flush_trace(args);
    true
}

/// The elastic mode: join (and re-join) a listening coordinator.
fn run_elastic(args: &WorkerArgs, coordinator: &str) -> ! {
    let mut previous: Option<(WorkerId, u64)> = None;
    loop {
        let host = match TcpWorkerHost::bind(&args.listen) {
            Ok(host) => host,
            Err(e) => {
                error!("cannot listen on {}: {e}", args.listen);
                std::process::exit(1);
            }
        };
        info!("joining coordinator at {coordinator}");
        let mut endpoint =
            match host.join_coordinator(coordinator, previous, Duration::from_secs(30)) {
                Ok(endpoint) => endpoint,
                Err(e) => {
                    warn!("join failed: {e}; retrying");
                    std::thread::sleep(Duration::from_millis(500));
                    continue;
                }
            };
        previous = Some((endpoint.id(), endpoint.worker_epoch()));
        info!(
            "worker {}: joined (epoch {})",
            endpoint.id(),
            endpoint.worker_epoch(),
        );
        loop {
            // Wait in short slices, probing the coordinator connection in
            // between: an idle daemon must notice a dead coordinator and
            // re-join promptly, not block on a silent socket.
            let spec = loop {
                if let Some(spec) = endpoint.wait_start(Duration::from_secs(2)) {
                    break Some(spec);
                }
                if !endpoint.probe_coordinator() {
                    break None;
                }
            };
            let Some(spec) = spec else {
                warn!("connection lost while waiting for a run; re-joining");
                break;
            };
            if run_one(args, &mut endpoint, spec) && args.once {
                let _ = send_leave(&endpoint);
                std::process::exit(0);
            }
        }
        // The endpoint (and its listener) is dropped here; the next
        // iteration binds a fresh listener and re-joins as a new
        // incarnation, naming the previous one so it gets fenced off.
        std::thread::sleep(Duration::from_millis(200));
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_worker_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            if !argv.iter().any(|a| a == "--help" || a == "-h") {
                error!("{e}");
            }
            usage();
        }
    };
    if let Some(level) = args.common.log_level {
        c9_trace::set_level(level);
    }
    if let Some(path) = &args.common.trace_out {
        if let Err(e) = c9_trace::set_trace_out(path) {
            error!("cannot open {}: {e}", path.display());
            std::process::exit(1);
        }
    }
    if args.common.trace_chrome.is_some() {
        c9_trace::enable_spans(true);
    }
    if let Some(coordinator) = args.join.clone() {
        run_elastic(&args, &coordinator);
    }

    let host = match TcpWorkerHost::bind(&args.listen) {
        Ok(host) => host,
        Err(e) => {
            error!("cannot listen on {}: {e}", args.listen);
            std::process::exit(1);
        }
    };
    // Scripts (and the multi-process test) parse this line to learn the
    // bound port when `--listen` used port 0.
    println!("c9-worker listening on {}", host.local_addr());
    std::io::stdout().flush().ok();

    // A daemon waits for its coordinator, and for each run, indefinitely.
    let forever = Duration::from_secs(60 * 60 * 24 * 365);
    let Some(mut endpoint) = host.accept_coordinator(forever) else {
        error!("no coordinator connected");
        std::process::exit(1);
    };

    // One run at a time, each started by a `Start` frame. A coordinator
    // that dials in later replaces the control connection, so the daemon
    // serves it too.
    loop {
        let Some(spec) = endpoint.wait_start(forever) else {
            error!("no run started");
            std::process::exit(1);
        };
        if run_one(&args, &mut endpoint, spec) && args.once {
            return;
        }
    }
}
