//! `c9-coordinator`: drives a multi-process Cloud9 cluster.
//!
//! Workers are discovered two ways, combinable in one run: a static
//! `--workers host:port,...` list the coordinator dials, and/or a `--listen`
//! socket where workers attach themselves with a `Join` handshake (elastic
//! membership). The coordinator ships every member a run spec for the
//! selected target program, runs the load-balancing loop of §3.3
//! (queue-length classification, job transfer requests, global coverage),
//! detects dead workers by missed heartbeats and re-injects their pending
//! jobs into the survivors, periodically checkpoints the global frontier so
//! `--resume` can continue an interrupted run, and aggregates the final
//! per-worker reports into the same `ClusterRunResult` an in-process run
//! produces.
//!
//! With `--serve HOST:PORT` the binary becomes a *run service* instead:
//! a registry of runs multiplexed over the same worker fleet, driven
//! through a newline-delimited JSON front door (submit/list/status/cancel/
//! preempt/resume/results/shutdown — see `c9_core::frontdoor` for the
//! protocol).
//!
//! ```text
//! # static membership, single run
//! c9-worker --listen 127.0.0.1:9101 &
//! c9-worker --listen 127.0.0.1:9102 &
//! c9-coordinator --workers 127.0.0.1:9101,127.0.0.1:9102 --target memcached
//!
//! # elastic membership
//! c9-coordinator --listen 127.0.0.1:9100 --min-workers 2 --target memcached &
//! c9-worker --join 127.0.0.1:9100 &
//! c9-worker --join 127.0.0.1:9100 &
//!
//! # run service: many targets, one fleet
//! c9-coordinator --workers 127.0.0.1:9101,127.0.0.1:9102 --serve 127.0.0.1:9000 &
//! printf '{"cmd":"submit","target":"memcached"}\n' | nc 127.0.0.1 9000
//! ```

use c9_core::config::{parse_coordinator_args, CoordinatorArgs};
use c9_core::frontdoor;
use c9_core::{
    digest_hex, write_run_report, write_timeline_csv, Checkpoint, Cluster, ClusterConfig,
    CoordinatorRunOpts, EnvSpec, FederationConfig, RunId, RunService, RunServiceConfig,
    RunSubmission, StrategyKind, SubCoordinator,
};
use c9_net::{TcpCoordinatorEndpoint, TcpWorkerHost, WorkerEndpoint, DEFAULT_QUANTUM};
use c9_posix::PosixEnvironment;
use c9_targets::{named_workload, workload_names, WorkloadEnv};
use c9_trace::json::Json;
use c9_trace::{error, info, Level};
use c9_vm::{Environment, NullEnvironment};
use std::sync::Arc;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: c9-coordinator [--workers HOST:PORT,...] [--listen HOST:PORT] --target NAME [options]\n\
         \x20      c9-coordinator [--workers ...] [--listen ...] --serve HOST:PORT [options]\n\
         \x20      c9-coordinator --sub ROOT:PORT [--workers ...] [--listen ...] [options]\n\
         \n\
         membership:\n\
         \x20 --workers LIST         comma-separated worker addresses to dial\n\
         \x20 --listen HOST:PORT     accept elastic worker joins on this address\n\
         \x20 --min-workers N        wait for N members before starting (default: dialed count, or 1)\n\
         \x20 --join-wait SECS       how long to wait for --min-workers (default 60)\n\
         \x20 --connect-timeout S    seconds to keep retrying worker dials (default 15)\n\
         \n\
         federation:\n\
         \x20 --sub ROOT:PORT        run as a federated sub-coordinator: join the root\n\
         \x20                        coordinator at ROOT:PORT as a worker and coordinate\n\
         \x20                        the local group (--workers/--listen) on its behalf;\n\
         \x20                        the root sees one worker per group\n\
         \n\
         run service:\n\
         \x20 --serve HOST:PORT      run the multi-tenant run service with its NDJSON\n\
         \x20                        front door on this address (instead of --target)\n\
         \x20 --max-runs N           concurrent run slots (default 2)\n\
         \x20 --report-dir DIR       write per-run run-<id>.json reports into DIR\n\
         \n\
         fault tolerance:\n\
         \x20 --heartbeat-timeout S  declare a worker dead after S seconds of silence\n\
         \x20                        and re-inject its jobs (default: detector off)\n\
         \x20 --heartbeat-interval-ms MS  worker liveness heartbeat cadence (default 25)\n\
         \x20 --snapshot-every K     frontier snapshot on every K-th status report (default 1)\n\
         \x20 --checkpoint FILE      write the global frontier + stats here periodically\n\
         \x20 --checkpoint-interval S  periodic checkpoint cadence (default 1)\n\
         \x20 --resume FILE          continue the run recorded in FILE\n\
         \n\
         run:\n\
         \x20 --target NAME          program under test (required without --serve)\n\
         \x20 --time-limit SECS      stop after this much wall-clock time\n\
         \x20 --max-paths N          stop after N completed paths\n\
         \x20 --generate-tests       solve a concrete test case per path\n\
         \x20 --quantum N            instructions per worker quantum; workers read\n\
         \x20                        controls between quanta (default {})\n\
         \x20 --threads N            executor threads per worker (default: C9_THREADS or 1)\n\
         \x20 --status-interval-ms MS   worker status cadence\n\
         \x20 --balance-interval-ms MS  balancing cadence\n\
         \n\
         search strategy:\n\
         \x20 --strategy NAME        run every worker with this strategy\n\
         \n\
         observability:\n\
         \x20 --log-level LEVEL      stderr log level: error|warn|info|debug|trace\n\
         \x20                        (default: C9_LOG or info)\n\
         \x20 --quiet                shorthand for --log-level error\n\
         \x20 --trace-out FILE       append structured events to FILE as JSON lines\n\
         \x20 --trace-chrome FILE    write a Chrome-trace span timeline (Perfetto-loadable)\n\
         \x20 --report-out FILE      write the machine-readable run_report.json here\n\
         \x20 --timeline-out FILE    write the per-interval timeline as CSV\n\
         \n\
         targets: {}\n\
         strategies: {}",
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

fn connect(args: &CoordinatorArgs) -> TcpCoordinatorEndpoint {
    let mut coordinator = if args.workers.is_empty() {
        TcpCoordinatorEndpoint::detached()
    } else {
        info!(
            "connecting to {} workers: {}",
            args.workers.len(),
            args.workers.join(", ")
        );
        match TcpCoordinatorEndpoint::connect(&args.workers, args.connect_timeout) {
            Ok(endpoint) => endpoint,
            Err(e) => {
                error!("{e}");
                std::process::exit(1);
            }
        }
    };
    if let Some(listen) = &args.listen {
        match coordinator.listen_on(listen) {
            Ok(addr) => {
                // Scripts (and the elastic tests) parse this line to learn
                // the bound port when `--listen` used port 0.
                println!("c9-coordinator listening on {addr}");
                use std::io::Write;
                std::io::stdout().flush().ok();
            }
            Err(e) => {
                error!("cannot listen on {listen}: {e}");
                std::process::exit(1);
            }
        }
    }
    coordinator
}

/// Whether a JSON value has the type a `submit` key takes.
type TypeCheck = fn(&Json) -> bool;

/// The keys a front-door `submit` accepts, each with what its value must
/// be and a check of that value's type.
const SUBMIT_KEYS: &[(&str, &str, TypeCheck)] = &[
    ("cmd", "a string", |v| v.as_str().is_some()),
    ("target", "a workload name", |v| v.as_str().is_some()),
    ("time_limit_secs", "a number of seconds", |v| {
        v.as_f64().is_some()
    }),
    ("max_paths", "a non-negative integer", |v| {
        v.as_u64().is_some()
    }),
    ("coverage_target", "a number", |v| v.as_f64().is_some()),
    ("generate_tests", "a boolean", |v| {
        matches!(v, Json::Bool(_))
    }),
];

/// Translates a front-door `submit` payload into a run: the named workload
/// plus optional per-run overrides on top of the daemon's flag defaults.
/// An unknown key or a value of the wrong type is an error naming the keys
/// `submit` accepts, never silently ignored.
fn submission_from_json(cmd: &Json, defaults: &ClusterConfig) -> Result<RunSubmission, String> {
    let accepted = || {
        let names: Vec<&str> = SUBMIT_KEYS.iter().map(|&(key, _, _)| key).collect();
        format!("submit accepts: {}", names.join(", "))
    };
    let Json::Obj(fields) = cmd else {
        return Err(format!("submit needs a JSON object; {}", accepted()));
    };
    for (key, value) in fields {
        match SUBMIT_KEYS.iter().find(|&&(name, _, _)| name == key) {
            None => return Err(format!("unknown key {key:?}; {}", accepted())),
            Some((_, want, check)) if !check(value) => {
                return Err(format!("{key:?} must be {want}; {}", accepted()));
            }
            Some(_) => {}
        }
    }
    let target = cmd
        .get("target")
        .and_then(Json::as_str)
        .ok_or_else(|| "submit needs a \"target\"".to_string())?;
    let workload = named_workload(target).ok_or_else(|| {
        format!(
            "unknown target {target:?}; known targets: {}",
            workload_names().join(", ")
        )
    })?;
    let mut config = defaults.clone();
    if let Some(secs) = cmd.get("time_limit_secs").and_then(Json::as_f64) {
        let limit = Duration::try_from_secs_f64(secs)
            .map_err(|_| format!("\"time_limit_secs\" {secs:?} is not a duration in seconds"))?;
        config.time_limit = Some(limit);
    }
    if let Some(max_paths) = cmd.get("max_paths").and_then(Json::as_u64) {
        config.max_total_paths = Some(max_paths);
    }
    if let Some(target_ratio) = cmd.get("coverage_target").and_then(Json::as_f64) {
        config.coverage_target = Some(target_ratio);
    }
    if cmd.get("generate_tests") == Some(&Json::Bool(true)) {
        config.worker.generate_test_cases = true;
    }
    let (env_spec, _) = env_for(workload.env);
    Ok(RunSubmission {
        name: target.to_string(),
        program: Arc::new(workload.program),
        env: env_spec,
        config,
    })
}

/// The `--serve` mode: a run registry over the connected fleet, driven by
/// the NDJSON front door until a `shutdown` command arrives.
fn run_service(args: &CoordinatorArgs, serve_addr: &str) -> ! {
    let coordinator = connect(args);
    let listener = match std::net::TcpListener::bind(serve_addr) {
        Ok(listener) => listener,
        Err(e) => {
            error!("cannot listen on {serve_addr}: {e}");
            std::process::exit(1);
        }
    };
    let bound = listener
        .local_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| serve_addr.to_string());
    // Scripts parse this line to learn the bound port when port 0 was used.
    println!("c9-coordinator serving on {bound}");
    use std::io::Write;
    std::io::stdout().flush().ok();

    if let Some(dir) = &args.report_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            error!("cannot create report dir {}: {e}", dir.display());
            std::process::exit(1);
        }
    }
    let mut service = RunService::new(
        coordinator,
        RunServiceConfig {
            max_concurrent: args.max_runs,
            report_dir: args.report_dir.clone(),
        },
    );
    for addr in &args.workers {
        service.add_worker(addr.clone());
    }
    let handle = service.handle();
    let defaults = args.cluster_config();
    let submit: frontdoor::SubmitFn = Box::new(move |cmd| submission_from_json(cmd, &defaults));
    std::thread::spawn(move || frontdoor::serve(listener, handle, submit));
    info!("run service up ({} static workers)", args.workers.len());
    let summary = service.run();
    println!("runs finished:     {}", summary.runs_finished);
    println!("service paths:     {}", summary.paths_completed);
    println!("service bugs:      {}", summary.bugs_found);
    println!(
        "service solver:    {} queries ({:.1}% cache hits, {} searches)",
        summary.solver.queries,
        100.0 * summary.solver.cache_hit_rate(),
        summary.solver.searches,
    );
    c9_trace::flush();
    // The connection thread that relayed the `shutdown` command is still
    // writing its `{"ok":true}` reply line; give it a moment before the
    // process exit tears the socket down under it.
    std::thread::sleep(Duration::from_millis(200));
    std::process::exit(0);
}

/// The `--sub ROOT:PORT` mode: a federated sub-coordinator. The group side
/// is wired exactly like a root's fleet (`--workers` dials, `--listen`
/// accepts elastic joins); the uplink side joins the root as an ordinary
/// worker over the unmodified wire protocol, so the root sees the whole
/// group as one member whose digests aggregate its members.
fn run_sub(args: &CoordinatorArgs, root_addr: &str) -> ! {
    let group = connect(args);
    info!("joining root coordinator at {root_addr}");
    let join_deadline = std::time::Instant::now() + args.connect_timeout;
    let mut uplink = loop {
        // `join_coordinator` consumes the host, so each attempt rebinds the
        // uplink socket; siblings dial the advertised address for
        // inter-group job batches.
        let host = match TcpWorkerHost::bind("127.0.0.1:0") {
            Ok(host) => host,
            Err(e) => {
                error!("cannot bind uplink socket: {e}");
                std::process::exit(1);
            }
        };
        match host.join_coordinator(root_addr, None, Duration::from_secs(30)) {
            Ok(endpoint) => break endpoint,
            Err(e) if std::time::Instant::now() < join_deadline => {
                info!("root at {root_addr} not ready ({e}); retrying");
                std::thread::sleep(Duration::from_millis(300));
            }
            Err(e) => {
                error!("cannot join root at {root_addr}: {e}");
                std::process::exit(1);
            }
        }
    };
    println!(
        "c9-coordinator sub joined {root_addr} as worker {}",
        uplink.id().index()
    );
    {
        use std::io::Write;
        std::io::stdout().flush().ok();
    }
    // Wait for the root to ship the run spec, probing its liveness the way
    // an elastic worker daemon does. Group members that join meanwhile
    // queue on the group endpoint and are admitted once the run starts.
    let spec = loop {
        if let Some(spec) = uplink.wait_start(Duration::from_secs(2)) {
            break spec;
        }
        if !uplink.probe_coordinator() {
            error!("root coordinator went away before the run started");
            std::process::exit(1);
        }
    };
    let config = args.cluster_config();
    let fed = FederationConfig {
        static_members: args.workers.clone(),
        min_members: args
            .min_workers
            .unwrap_or_else(|| args.workers.len().max(1)),
        join_wait: args.join_wait,
        failure_timeout: args.heartbeat_timeout,
        balance_interval: config.balance_interval,
        balancer: config.balancer,
        ..FederationConfig::default()
    };
    info!(
        "sub-coordinator up (run {}, {} static members, min {})",
        spec.run.0,
        args.workers.len(),
        fed.min_members
    );
    match SubCoordinator::new(uplink, group, fed).run_with_spec(spec) {
        Ok(summary) => {
            c9_trace::flush();
            println!("group workers:     {}", summary.workers);
            println!("workers failed:    {}", summary.workers_failed);
            println!("batches exported:  {}", summary.batches_exported);
            println!("batches imported:  {}", summary.batches_imported);
            println!("jobs reclaimed:    {}", summary.jobs_reclaimed);
            println!("digests sent:      {}", summary.digests_sent);
            std::process::exit(0);
        }
        Err(e) => {
            error!("sub-coordinator failed: {e}");
            c9_trace::flush();
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
    if args.common.quiet {
        c9_trace::set_level(Level::Error);
    } else if let Some(level) = args.common.log_level {
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

    if let Some(serve_addr) = args.serve.clone() {
        run_service(&args, &serve_addr);
    }
    if let Some(root_addr) = args.sub.clone() {
        run_sub(&args, &root_addr);
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
    let mut coordinator = connect(&args);

    let program = Arc::new(workload.program);
    let cluster = Cluster::new(program.clone(), env, config.clone());
    // A wall-clock run id fences this run's frames off from stale messages
    // of earlier runs the worker daemons may have served.
    let run = RunId(
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(1)
            .max(1),
    );
    let opts = CoordinatorRunOpts {
        env: env_spec,
        run,
        initial_workers: args.workers.clone(),
        min_workers: args
            .min_workers
            .unwrap_or_else(|| args.workers.len().max(1)),
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
    if let Some(path) = &args.timeline_out {
        if let Err(e) = write_timeline_csv(path, &s.timeline) {
            error!("cannot write timeline {}: {e}", path.display());
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

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<RunSubmission, String> {
        let cmd = Json::parse(line).expect("valid JSON");
        submission_from_json(&cmd, &ClusterConfig::default())
    }

    fn error_of(line: &str) -> String {
        match parse(line) {
            Ok(_) => panic!("{line} must be rejected"),
            Err(e) => e,
        }
    }

    #[test]
    fn submit_sets_every_accepted_key() {
        let submission = parse(
            r#"{"cmd":"submit","target":"memcached-3x5","time_limit_secs":2.5,"max_paths":40,
                "coverage_target":0.5,"generate_tests":true}"#,
        )
        .expect("valid submit");
        assert_eq!(submission.name, "memcached-3x5");
        let config = &submission.config;
        assert_eq!(config.time_limit, Some(Duration::from_millis(2500)));
        assert_eq!(config.max_total_paths, Some(40));
        assert_eq!(config.coverage_target, Some(0.5));
        assert!(config.worker.generate_test_cases);
    }

    #[test]
    fn out_of_range_time_limits_are_errors() {
        for secs in ["1e300", "-1"] {
            let e = error_of(&format!(
                r#"{{"cmd":"submit","target":"memcached-3x5","time_limit_secs":{secs}}}"#
            ));
            assert!(e.contains("time_limit_secs"), "{e}");
        }
    }

    #[test]
    fn unknown_keys_are_errors_that_name_the_accepted_keys() {
        // Keys older coordinators took: the solver backend (later ignored)
        // and the query-cache capacity (the cache size is fixed).
        for (key, value) in [("solver_backend", "\"race\""), ("solver_cache", "128")] {
            let e = error_of(&format!(
                r#"{{"cmd":"submit","target":"memcached-3x5","{key}":{value}}}"#
            ));
            assert!(e.contains(&format!("unknown key \"{key}\"")), "{e}");
            for accepted in SUBMIT_KEYS.iter().map(|&(key, _, _)| key) {
                assert!(e.contains(accepted), "{e} does not name {accepted}");
            }
        }
    }

    #[test]
    fn wrongly_typed_values_are_errors() {
        for (key, value) in [
            ("target", "3"),
            ("time_limit_secs", "\"soon\""),
            ("max_paths", "-4"),
            ("max_paths", "1.5"),
            ("coverage_target", "true"),
            ("generate_tests", "1"),
        ] {
            let line = if key == "target" {
                format!(r#"{{"cmd":"submit","target":{value}}}"#)
            } else {
                format!(r#"{{"cmd":"submit","target":"memcached-3x5","{key}":{value}}}"#)
            };
            let e = error_of(&line);
            assert!(e.contains(&format!("\"{key}\" must be")), "{e}");
            assert!(e.contains("submit accepts:"), "{e}");
        }
        assert!(error_of(r#"{"cmd":"submit"}"#).contains("target"));
        assert!(error_of(r#"{"cmd":"submit","target":"nope"}"#).contains("known targets"));
    }
}
