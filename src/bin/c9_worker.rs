//! `c9-worker`: one Cloud9 worker daemon per OS process.
//!
//! Executes symbolic-execution runs exactly as in the paper's deployment
//! (§3.3). The daemon dials the coordinator given by `--join HOST:PORT`
//! and attaches to its cluster — before the run starts or while it runs —
//! with a `Join` handshake, which assigns the worker its identity and
//! fencing epoch. That session hosts one run: the worker explores,
//! exchanges job batches directly with its peer workers (who dial the
//! `--listen` address), and reports status (with frontier snapshots for the
//! coordinator's crash-recovery ledger) back to the coordinator, its last
//! report carrying the final results.
//!
//! When the run ends, a daemon started with `--once` sends a graceful
//! `Leave` and exits; otherwise it drops the session and joins again, so a
//! later coordinator on the same address gets it as a fresh member. If the
//! connection is lost mid-session, the daemon re-joins with its previous
//! identity so the coordinator can fence off the stale incarnation.
//!
//! ```text
//! c9-worker --join 127.0.0.1:9100 --once
//! ```

use c9_core::config::{parse_worker_args, WorkerArgs};
use c9_net::{send_leave, EnvSpec, RunSpec, TcpWorkerEndpoint, TcpWorkerHost};
use c9_posix::PosixEnvironment;
use c9_trace::{error, info, warn};
use c9_vm::{Environment, NullEnvironment};
use std::sync::Arc;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: c9-worker --join HOST:PORT [--listen HOST:PORT] [--once] [options]\n\
         \n\
         options:\n\
         \x20 --join HOST:PORT    the coordinator to join (required)\n\
         \x20 --listen HOST:PORT  address peers dial for job transfers (default 127.0.0.1:0)\n\
         \x20 --once              exit once the first run ends instead of joining again\n\
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

/// Runs the session's run, then flushes the trace sinks. Returns whether
/// the run took place: a spec that fails validation is logged and refused.
fn run_one(args: &WorkerArgs, endpoint: &mut TcpWorkerEndpoint, spec: RunSpec) -> bool {
    let env = environment_for(spec.env);
    let id = endpoint.id();
    info!("worker {id}: starting run (strategy {:?})", spec.strategy);
    // A daemon can die or leave without a last report: it always snapshots.
    let outcome =
        c9_core::run_worker_from_spec_with(endpoint, spec, env, args.common.threads, true);
    if let Err(e) = outcome {
        error!("worker {id}: refusing the run: {e}");
        return false;
    }
    info!("worker {id}: run complete");
    flush_trace(args);
    true
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

    // One session per iteration: join, wait for the run, run it.
    let mut previous = None;
    loop {
        let host = match TcpWorkerHost::bind(&args.listen) {
            Ok(host) => host,
            Err(e) => {
                error!("cannot listen on {}: {e}", args.listen);
                std::process::exit(1);
            }
        };
        info!("joining coordinator at {}", args.join);
        let joined = host
            .join(&args.join, previous, Duration::from_secs(30))
            .and_then(|mut endpoint| {
                let admitted = endpoint.admission(Duration::from_secs(30))?;
                Ok((endpoint, admitted))
            });
        let (mut endpoint, (id, epoch)) = match joined {
            Ok(joined) => joined,
            Err(e) => {
                warn!("join failed: {e}; retrying");
                std::thread::sleep(Duration::from_millis(500));
                continue;
            }
        };
        info!("worker {id}: joined (epoch {epoch})");
        previous = None;
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
            // The next incarnation names this one, so it gets fenced off.
            previous = Some((id, epoch));
            std::thread::sleep(Duration::from_millis(200));
            continue;
        };
        let ran = run_one(&args, &mut endpoint, spec);
        if args.once {
            let _ = send_leave(&endpoint);
            std::process::exit(if ran { 0 } else { 1 });
        }
        // The endpoint (and its listener) is dropped here: the session and
        // its run are over, and the next iteration joins as a new member.
    }
}
