//! `c9-coordinator`: drives a multi-process Cloud9 cluster.
//!
//! The coordinator listens on `--listen`, and every worker attaches itself
//! with a `Join` handshake — before the run starts (it waits for
//! `--min-workers` of them) or while it runs. The coordinator ships every
//! member a run spec for the selected target program, runs the load-balancing loop of §3.3
//! (queue-length classification, job transfer requests, global coverage),
//! detects dead workers by missed heartbeats and re-injects their pending
//! jobs into the survivors, periodically checkpoints the global frontier so
//! `--resume` can continue an interrupted run, and aggregates the final
//! per-worker reports into the same `ClusterRunResult` `Cluster::run`
//! produces.
//!
//! ```text
//! c9-coordinator --listen 127.0.0.1:9100 --min-workers 2 --target memcached &
//! c9-worker --join 127.0.0.1:9100 --once &
//! c9-worker --join 127.0.0.1:9100 --once &
//! ```

use c9_core::config::{parse_coordinator_args, CoordinatorArgs};
use c9_core::{
    digest_hex, write_run_report, Checkpoint, Cluster, CoordinatorRunOpts, EnvSpec, StrategyKind,
};
use c9_net::{TcpCoordinatorEndpoint, DEFAULT_QUANTUM, HEARTBEAT_INTERVAL};
use c9_posix::PosixEnvironment;
use c9_targets::{named_workload, workload_names, WorkloadEnv};
use c9_trace::{error, info};
use c9_vm::{Environment, NullEnvironment};
use std::sync::Arc;

fn usage() -> ! {
    eprintln!(
        "usage: c9-coordinator --listen HOST:PORT --target NAME [options]\n\
         \n\
         membership:\n\
         \x20 --listen HOST:PORT     accept worker joins on this address (required)\n\
         \x20 --min-workers N        wait for N members before starting (default 1)\n\
         \x20 --join-wait SECS       how long to wait for --min-workers (default 60)\n\
         \n\
         fault tolerance:\n\
         \x20 --heartbeat-timeout S  declare a worker dead after S seconds of silence\n\
         \x20                        and re-inject its jobs (default: detector off;\n\
         \x20                        workers heartbeat every {} ms)\n\
         \x20 --checkpoint FILE      write the global frontier + stats here every second\n\
         \x20 --resume FILE          continue the run recorded in FILE\n\
         \n\
         run:\n\
         \x20 --target NAME          program under test (required)\n\
         \x20 --time-limit SECS      stop after this much wall-clock time\n\
         \x20 --max-paths N          stop after N completed paths\n\
         \x20 --generate-tests       solve a concrete test case per path\n\
         \x20 --quantum N            instructions per worker quantum; workers read\n\
         \x20                        controls between quanta (default {})\n\
         \x20 --threads N            executor threads per worker (default: C9_THREADS or 1)\n\
         \x20 --status-interval-ms MS  worker status cadence (default 10); a worker that\n\
         \x20                        runs dry reports at once and is fed on the next tick\n\
         \n\
         search strategy:\n\
         \x20 --strategy NAME        run every worker with this strategy\n\
         \n\
         observability:\n\
         \x20 --log-level LEVEL      stderr log level: error|warn|info|debug|trace\n\
         \x20                        (default: C9_LOG or info)\n\
         \x20 --trace-out FILE       append structured events to FILE as JSON lines\n\
         \x20 --trace-chrome FILE    write a Chrome-trace span timeline (Perfetto-loadable)\n\
         \x20 --report-out FILE      write run_report.json (summary + interval timeline) here\n\
         \n\
         targets: {}\n\
         strategies: {}",
        HEARTBEAT_INTERVAL.as_millis(),
        DEFAULT_QUANTUM,
        workload_names().join(", "),
        StrategyKind::ALL
            .iter()
            .map(|k| k.name())
            .collect::<Vec<_>>()
            .join(", ")
    );
    std::process::exit(2);
}

fn env_for(env: WorkloadEnv) -> (EnvSpec, Arc<dyn Environment>) {
    match env {
        WorkloadEnv::Null => (EnvSpec::Null, Arc::new(NullEnvironment)),
        WorkloadEnv::Posix => (EnvSpec::Posix, Arc::new(PosixEnvironment::new())),
    }
}

fn listen(args: &CoordinatorArgs) -> TcpCoordinatorEndpoint {
    match TcpCoordinatorEndpoint::listen(&args.listen) {
        Ok(coordinator) => {
            // Scripts (and the process tests) parse this line to learn the
            // bound port when `--listen` used port 0.
            println!("c9-coordinator listening on {}", coordinator.local_addr());
            use std::io::Write;
            std::io::stdout().flush().ok();
            coordinator
        }
        Err(e) => {
            error!("cannot listen on {}: {e}", args.listen);
            std::process::exit(1);
        }
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_coordinator_args(&argv) {
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

    let Some(workload) = named_workload(&args.target) else {
        error!(
            "unknown target {:?}; known targets: {}",
            args.target,
            workload_names().join(", ")
        );
        std::process::exit(2);
    };

    let mut config = args.cluster_config();
    config.resume = args
        .resume
        .as_ref()
        .map(|path| match Checkpoint::load(path) {
            Ok(checkpoint) => {
                if checkpoint.target != args.target {
                    error!(
                        "checkpoint is for target {:?}, not {:?}",
                        checkpoint.target, args.target
                    );
                    std::process::exit(2);
                }
                checkpoint
            }
            Err(e) => {
                error!("cannot load checkpoint {}: {e}", path.display());
                std::process::exit(1);
            }
        });

    let (env_spec, env) = env_for(workload.env);
    let mut coordinator = listen(&args);

    let program = Arc::new(workload.program);
    let cluster = Cluster::new(program.clone(), env, config.clone());
    // The run report's label: the start time, in nanoseconds.
    let run = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(1)
        .max(1);
    let opts = CoordinatorRunOpts {
        env: env_spec,
        min_workers: args.min_workers.unwrap_or(1),
        join_wait: args.join_wait,
        target: args.target.clone(),
    };
    info!("run started ({})", workload.description);

    let result = cluster.run_coordinator(&mut coordinator, opts);
    let s = &result.summary;
    if let Some(path) = &args.report_out {
        if let Err(e) = write_run_report(path, run, &result) {
            error!("cannot write run report {}: {e}", path.display());
        }
    }
    if let Some(path) = &args.common.trace_chrome {
        let spans = c9_trace::drain_spans();
        if let Err(e) = c9_trace::write_chrome_trace(path, &spans, std::process::id() as u64) {
            error!("cannot write chrome trace {}: {e}", path.display());
        }
    }
    c9_trace::flush();
    println!("target:            {}", args.target);
    println!("workers:           {}", s.num_workers);
    println!("elapsed:           {:.2}s", s.elapsed.as_secs_f64());
    println!("total paths:       {}", s.paths_completed());
    println!("exhausted:         {}", s.exhausted);
    println!("goal reached:      {}", s.goal_reached);
    println!("coverage:          {:.1}%", 100.0 * s.coverage_ratio());
    println!("bugs found:        {}", s.bugs_found);
    println!("testcase digest:   {}", digest_hex(&result.test_cases));
    println!("jobs transferred:  {}", s.jobs_transferred());
    println!("workers failed:    {}", s.workers_failed);
    println!("workers joined:    {}", s.workers_joined);
    println!("jobs reclaimed:    {}", s.jobs_reclaimed);
    println!(
        "useful/replay:     {} / {}",
        s.useful_instructions(),
        s.replay_instructions()
    );
    println!(
        "replay saved:      {} instructions skipped via prefix anchors \
         ({:.1}% anchor hit-rate, {} divergences)",
        s.replay_saved_instructions(),
        100.0 * s.anchor_hit_rate(),
        s.replay_divergences(),
    );
    let solver = s.solver_stats();
    println!(
        "solver queries:    {} ({:.1}% cache hits, {} searches, {} independence slices)",
        solver.queries,
        100.0 * solver.cache_hit_rate(),
        solver.searches,
        solver.independence_slices,
    );
    for (i, w) in s.worker_stats.iter().enumerate() {
        println!(
            "  worker {i}: threads {:>2}  paths {:>6}  sent {:>5}  received {:>5}  useful {:>9}  \
             replay {:>9}  saved {:>9}  anchors {:>5.1}%  queries {:>8}  cache {:>5.1}%",
            w.threads,
            w.paths_completed,
            w.jobs_sent,
            w.jobs_received,
            w.useful_instructions,
            w.replay_instructions,
            w.replay_saved_instructions,
            100.0 * w.anchor_hit_rate(),
            w.solver.queries,
            100.0 * w.solver.cache_hit_rate(),
        );
    }
    // A run that lost workers is still successful when recovery kept the
    // exploration complete. Failure means the loop gave up early: no goal
    // reached and the time limit (if any) not responsible for the stop.
    let stopped_by_time_limit = args
        .time_limit
        .map(|limit| s.elapsed >= limit)
        .unwrap_or(false);
    if !s.goal_reached && !stopped_by_time_limit {
        error!("run ended without reaching its goal (cluster lost?)");
        c9_trace::flush();
        std::process::exit(1);
    }
}
