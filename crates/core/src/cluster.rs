//! The cluster harness: workers coordinated by a load balancer over TCP.
//!
//! This reproduces the deployment of §3.3 and §6 of the paper: every worker
//! is an independent symbolic execution engine with its own solver and state
//! store (shared-nothing); workers exchange jobs only as serialized path
//! encodings; the load balancer sees only queue lengths and coverage bit
//! vectors. There is one fabric, TCP, and one way into a run: a worker
//! joins the coordinator, is admitted, and is shipped its [`RunSpec`] in a
//! `Start`, whether it is a `c9-worker` daemon in another process or one of
//! the threads [`Cluster::run`] hosts on a loopback fabric — wall-clock
//! speedups come from real parallelism in both cases.
//!
//! Every coordinator decision — elastic join admission, the
//! missed-heartbeat failure detector, crash recovery by re-injecting a dead
//! worker's ledger (jobs are replayable path prefixes, §3.2), balancing,
//! checkpoints — is made by the sans-IO
//! [`CoordinatorCore`](crate::coordinator); this module holds the one
//! driver that moves frames between an endpoint and that core
//! ([`Cluster`]), plus the one worker entry point
//! ([`run_worker_from_spec_with`]).

use crate::coordinator::{Command, CoordinatorCore, Delivery, Event, Outcome, RunPlan};
use crate::membership::Checkpoint;
use crate::stats::ClusterSummary;
use crate::worker::{derive_seed, Worker, WorkerConfig};
use c9_ir::Program;
use c9_net::{
    Control, EnvSpec, JobBatch, JobTree, RunSpec, RunSpecError, StatusReport,
    TcpCoordinatorEndpoint, TcpTransport, TcpWorkerEndpoint, TransferEvent, WorkerId, COORDINATOR,
    DEFAULT_QUANTUM,
};
use c9_trace::{error, info, Span, SpanKind};
use c9_vm::{Environment, TestCase};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a coordinator round blocks for its first frame before it
/// ticks anyway.
const FRAME_WAIT: Duration = Duration::from_millis(2);

/// Configuration of a cluster run.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Number of worker nodes.
    pub num_workers: usize,
    /// Per-worker configuration.
    pub worker: WorkerConfig,
    /// Stop after this much wall-clock time (None = run to exhaustion).
    pub time_limit: Option<Duration>,
    /// Stop once global line coverage reaches this fraction.
    pub coverage_target: Option<f64>,
    /// Stop once this many paths have completed across the cluster.
    pub max_total_paths: Option<u64>,
    /// How often workers report status to the load balancer. A worker
    /// whose quantum leaves it without work also reports at once, and the
    /// balancer runs on the tick after such an idle, empty-queue report;
    /// a member it named is not fed again until it reports work or an
    /// import, or two intervals pass.
    pub status_interval: Duration,
    /// How often a timeline sample is recorded (the paper's "10-second
    /// buckets", scaled down).
    pub sample_interval: Duration,
    /// Disable load balancing after this much time (the Fig. 13 ablation).
    pub disable_lb_after: Option<Duration>,
    /// Only balance until every worker has received work once, then never
    /// again (static partitioning ablation, §2).
    pub static_partition: bool,
    /// Instructions per worker quantum between message-handling points
    /// ([`DEFAULT_QUANTUM`] unless overridden): the bound on how long a
    /// control message waits for its worker.
    pub quantum: u64,
    /// Declare a worker dead after this much silence (no status report and
    /// no heartbeat) and re-inject its pending jobs into the survivors.
    /// None disables the failure detector — the right choice for workers
    /// that cannot die independently of the coordinator, such as the
    /// threads of [`Cluster::run`].
    pub failure_timeout: Option<Duration>,
    /// Write a [`Checkpoint`] here once a second and at the end of the
    /// run.
    pub checkpoint_path: Option<PathBuf>,
    /// Continue a previous run: its frontier is injected instead of the
    /// root job, and its stats are folded into the final summary.
    pub resume: Option<Checkpoint>,
}

impl Default for ClusterConfig {
    fn default() -> ClusterConfig {
        ClusterConfig {
            num_workers: 2,
            worker: WorkerConfig::default(),
            time_limit: None,
            coverage_target: None,
            max_total_paths: None,
            status_interval: Duration::from_millis(10),
            sample_interval: Duration::from_millis(100),
            disable_lb_after: None,
            static_partition: false,
            quantum: DEFAULT_QUANTUM,
            failure_timeout: None,
            checkpoint_path: None,
            resume: None,
        }
    }
}

impl ClusterConfig {
    /// Builds the wire run spec a worker needs to participate in a run of
    /// `program` under this configuration. `worker_epoch` is the
    /// per-worker fencing epoch assigned by the coordinator's membership at
    /// join time. Every worker runs [`WorkerConfig::strategy`]; the searcher
    /// seed is derived deterministically from the base seed, the worker id,
    /// and the epoch.
    /// Specs are checked with [`RunSpec::validate`], so an invalid
    /// configuration (zero quantum, zero threads, …) is caught here rather
    /// than on the wire.
    pub fn run_spec(
        &self,
        program: &Program,
        env: EnvSpec,
        worker: WorkerId,
        worker_epoch: u64,
    ) -> RunSpec {
        let spec = RunSpec {
            program: program.clone(),
            env,
            executor: self.worker.executor,
            seed: derive_seed(self.worker.seed, worker, worker_epoch),
            strategy: self.worker.strategy,
            generate_test_cases: self.worker.generate_test_cases,
            threads: self.worker.threads,
            quantum: self.quantum,
            status_interval: self.status_interval,
            seed_root: worker.0 == 0 && self.resume.is_none(),
            worker_epoch,
        };
        spec.validate()
            .expect("cluster config produces a valid run spec");
        spec
    }

    /// Whether the workers [`Cluster::run`] hosts attach a frontier snapshot
    /// to every status report. Such a worker always sends its last report,
    /// which carries one anyway, so it snapshots before that only for a run
    /// whose coordinator needs a ledger that is current all along: a run
    /// that checkpoints, or that declares silent workers dead.
    fn local_snapshots(&self) -> bool {
        self.checkpoint_path.is_some() || self.failure_timeout.is_some()
    }
}

/// Options of a coordinator-driven run.
#[derive(Clone, Debug)]
pub struct CoordinatorRunOpts {
    /// The environment model daemons should instantiate.
    pub env: EnvSpec,
    /// Wait for at least this many joined members before starting the run.
    pub min_workers: usize,
    /// How long to wait for `min_workers` before starting anyway.
    pub join_wait: Duration,
    /// Workload name recorded in checkpoints.
    pub target: String,
}

impl Default for CoordinatorRunOpts {
    fn default() -> CoordinatorRunOpts {
        CoordinatorRunOpts {
            env: EnvSpec::Null,
            min_workers: 1,
            join_wait: Duration::from_secs(60),
            target: String::new(),
        }
    }
}

/// The outcome of a cluster run, including generated test cases.
#[derive(Clone, Debug, Default)]
pub struct ClusterRunResult {
    /// Aggregate statistics and timeline.
    pub summary: ClusterSummary,
    /// Test cases from all workers (when enabled in the worker config).
    pub test_cases: Vec<TestCase>,
    /// Bug-exposing test cases from all workers.
    pub bugs: Vec<TestCase>,
}

/// How long the coordinator waits for last reports after issuing `Stop`
/// when the workers are daemons that may have died.
const REMOTE_FINAL_TIMEOUT: Duration = Duration::from_secs(30);

/// Last-report wait for the workers [`Cluster::run`] hosts: effectively
/// unbounded, because such a worker dies only with its process and always
/// sends its last report.
const LOCAL_FINAL_TIMEOUT: Duration = Duration::from_secs(60 * 60 * 24);

/// How long a locally hosted worker waits for the admission of its join
/// and then for its run spec. The coordinator admits every local join and
/// starts the run at once, so only a transport fault can make a wait run
/// out.
const LOCAL_START_TIMEOUT: Duration = Duration::from_secs(10);

/// A [`CoordinatorCore`] bound to one endpoint: what [`Cluster::coordinate`]
/// executes the core's commands with.
struct Session {
    core: CoordinatorCore,
    /// The latest checkpoint the core wants persisted (the driver takes it).
    checkpoint: Option<Box<Checkpoint>>,
    /// Whether the core declared the last-report collection over.
    finished: bool,
}

impl Session {
    /// A session over a fresh core with no members yet.
    fn new(config: &ClusterConfig) -> Session {
        Session {
            core: CoordinatorCore::new(config),
            checkpoint: None,
            finished: false,
        }
    }

    /// Feeds one event to the core and executes the commands it answers
    /// with. Returns a tick's verdict, to be fed back as `Stop` (or not).
    fn feed(&mut self, event: Event, endpoint: &mut TcpCoordinatorEndpoint) -> Option<Outcome> {
        let mut out = Vec::new();
        let verdict = self.core.handle(event, Instant::now(), &mut out);
        for command in out {
            self.apply(command, endpoint);
        }
        verdict
    }

    /// Executes one command on `endpoint`, and feeds a delivery failure the
    /// core wants to hear about straight back (other controls are best
    /// effort).
    fn apply(&mut self, command: Command, endpoint: &mut TcpCoordinatorEndpoint) {
        let failed = match command {
            Command::Admit {
                token,
                worker,
                epoch,
                peers,
            } => endpoint
                .admit(token, worker, epoch, peers)
                .is_err()
                .then_some((worker, Delivery::Handshake)),
            Command::Start(worker, spec) => endpoint
                .send_start(worker, *spec)
                .is_err()
                .then_some((worker, Delivery::Handshake)),
            Command::Control(worker, msg) => {
                let inject = match &msg {
                    Control::Inject { seq, .. } => Some(Delivery::Inject(*seq)),
                    _ => None,
                };
                let failed = endpoint.send_control(worker, msg).is_err();
                inject.filter(|_| failed).map(|what| (worker, what))
            }
            Command::WriteCheckpoint(checkpoint) => {
                self.checkpoint = Some(checkpoint);
                None
            }
            Command::Finished => {
                self.finished = true;
                None
            }
        };
        if let Some((worker, what)) = failed {
            let failed = Event::SendFailed { worker, what };
            self.core.handle(failed, Instant::now(), &mut Vec::new());
        }
    }
}

/// A Cloud9 cluster: one program, one environment model, N workers.
pub struct Cluster {
    program: Arc<Program>,
    env: Arc<dyn Environment>,
    config: ClusterConfig,
}

impl Cluster {
    /// Creates a cluster for `program` with the given environment model.
    pub fn new(program: Arc<Program>, env: Arc<dyn Environment>, config: ClusterConfig) -> Cluster {
        Cluster {
            program,
            env,
            config,
        }
    }

    /// Runs the cluster on a loopback TCP fabric until a stopping condition
    /// is met and returns the aggregated results.
    pub fn run(&self) -> ClusterRunResult {
        self.run_with_transport(TcpTransport::loopback())
    }

    /// Runs the cluster with its workers hosted as threads of this process
    /// on `transport`'s loopback fabric. Each thread is a daemon in all but
    /// the process: it joins, is admitted, receives its run spec in a
    /// `Start` and runs it ([`run_worker_from_spec_with`]), with this
    /// cluster's environment model and the snapshot rule of a worker that
    /// always sends its last report. The coordinator runs on the calling
    /// thread.
    pub fn run_with_transport(&self, transport: TcpTransport) -> ClusterRunResult {
        self.host_locally(transport, |_, _| {})
    }

    /// [`Cluster::run_with_transport`], showing `started` the identity and
    /// spec each worker thread was started with.
    fn host_locally(
        &self,
        transport: TcpTransport,
        started: impl Fn(WorkerId, &RunSpec) + Sync,
    ) -> ClusterRunResult {
        let n = self.config.num_workers.max(1);
        let (mut coordinator, workers) = transport.establish(n).expect("loopback fabric");
        let snapshots = self.config.local_snapshots();
        std::thread::scope(|scope| {
            let handles: Vec<_> = workers
                .into_iter()
                .map(|mut endpoint| {
                    let env = self.env.clone();
                    let started = &started;
                    scope.spawn(move || {
                        let (worker, _) = endpoint
                            .admission(LOCAL_START_TIMEOUT)
                            .expect("a local worker is admitted");
                        let spec = endpoint
                            .wait_start(LOCAL_START_TIMEOUT)
                            .expect("a local worker is started");
                        started(worker, &spec);
                        // The spec's `env` names a model for daemons; a
                        // local thread runs this cluster's own.
                        run_worker_from_spec_with(&mut endpoint, spec, env, None, snapshots)
                            .expect("the cluster config produces a valid run spec");
                    })
                })
                .collect();
            let opts = CoordinatorRunOpts {
                min_workers: n,
                join_wait: LOCAL_START_TIMEOUT,
                target: self.program.name.clone(),
                ..CoordinatorRunOpts::default()
            };
            let result = self.coordinate(&mut coordinator, opts, LOCAL_FINAL_TIMEOUT);
            // A member the failure detector declared dead got no `Stop`;
            // a local one would explore forever without it.
            for worker in 0..n {
                let _ = coordinator.send_control(WorkerId(worker as u32), Control::Stop);
            }
            for handle in handles {
                handle.join().expect("worker thread panicked");
            }
            result
        })
    }

    /// Drives a cluster whose workers are daemons: admits joiners until
    /// `opts.min_workers` are members, ships every member its run spec,
    /// runs the balancing loop of §3.3 (with failure detection, crash
    /// recovery and late joins), and aggregates the results.
    pub fn run_coordinator(
        &self,
        endpoint: &mut TcpCoordinatorEndpoint,
        opts: CoordinatorRunOpts,
    ) -> ClusterRunResult {
        self.coordinate(endpoint, opts, REMOTE_FINAL_TIMEOUT)
    }

    /// One run of the coordinator, from the first join until the last
    /// reports are in (or `final_timeout` after the stop). Each round feeds
    /// the queued frames, every member's in the order it sent them, until
    /// the queue runs empty or a status interval has passed since the last
    /// tick, so ticks keep their cadence through a backlog; starts the run
    /// once `opts.min_workers` joined or `opts.join_wait` passed; then
    /// feeds the heartbeats right before the tick, so a backlog of reports
    /// cannot hide a live member from the failure detector.
    fn coordinate(
        &self,
        endpoint: &mut TcpCoordinatorEndpoint,
        opts: CoordinatorRunOpts,
        final_timeout: Duration,
    ) -> ClusterRunResult {
        let mut session = Session::new(&self.config);
        let (program, env) = (self.program.clone(), opts.env);
        let mut plan = Some(RunPlan {
            target: opts.target,
            num_lines: self.program.loc(),
            config: self.config.clone(),
            final_timeout,
            spec_for: Box::new(move |config, worker, epoch| {
                config.run_spec(&program, env, worker, epoch)
            }),
        });
        let join_deadline = Instant::now() + opts.join_wait;
        let mut last_tick = Instant::now();
        loop {
            let mut wait = FRAME_WAIT;
            while let Some(frame) = endpoint.recv(wait) {
                session.feed(frame.into(), endpoint);
                if last_tick.elapsed() >= self.config.status_interval {
                    break;
                }
                wait = Duration::ZERO;
            }
            let quorum = session.core.membership().alive_count() >= opts.min_workers.max(1);
            if quorum || Instant::now() >= join_deadline {
                if let Some(plan) = plan.take() {
                    session.feed(Event::Start(Box::new(plan)), endpoint);
                }
            }
            for (worker, epoch) in endpoint.take_heartbeats() {
                session.feed(Event::Heartbeat { worker, epoch }, endpoint);
            }
            let verdict = session.feed(Event::Tick, endpoint);
            last_tick = Instant::now();
            if session.finished {
                break;
            }
            self.save(&mut session);
            if let Some(outcome) = verdict {
                session.feed(Event::Stop(outcome), endpoint);
            }
        }
        if let Some(checkpoint) = &session.checkpoint {
            info!(
                "final checkpoint: {} completed paths, {} pending jobs",
                checkpoint.base_paths(),
                checkpoint.jobs().len()
            );
        }
        self.save(&mut session);
        session.core.take_result()
    }

    fn save(&self, session: &mut Session) {
        if let (Some(checkpoint), Some(path)) =
            (session.checkpoint.take(), &self.config.checkpoint_path)
        {
            if let Err(e) = checkpoint.save(path) {
                error!("checkpoint write failed: {e}");
            }
        }
    }
}

/// The run a worker endpoint hosts: an independent [`Worker`] engine plus
/// the reporting state the event loop threads through it.
struct RunHost {
    worker: Worker,
    /// Instructions per quantum between message-handling points.
    quantum: u64,
    /// How often status is reported to the coordinator.
    status_interval: Duration,
    /// This worker's fencing epoch, stamped on every report and batch.
    epoch: u64,
    /// Attach a frontier snapshot (and the bugs found since the last one)
    /// to every status report, not only to the last. Snapshots are what
    /// make crash recovery and checkpoint/resume exact.
    snapshots: bool,
    events: Vec<TransferEvent>,
    export_seq: u64,
    // How many of this run's bugs the coordinator has already seen; new
    // ones ride the next snapshot-bearing report so they survive a crash
    // (the completed paths they sit on are never re-explored).
    bugs_reported: usize,
    last_status: Instant,
    /// Time the loop waited with no work since the last status report.
    idle: Duration,
}

impl RunHost {
    /// Reports status; the `last` report of the run is the final one.
    fn send_status(&mut self, endpoint: &mut TcpWorkerEndpoint, last: bool) -> Result<(), ()> {
        let (frontier, new_bugs) = if self.snapshots || last {
            let frontier = JobTree::from_jobs(&self.worker.frontier_snapshot()).encode();
            let fresh = self.worker.bugs[self.bugs_reported..].to_vec();
            self.bugs_reported = self.worker.bugs.len();
            (Some(frontier), fresh)
        } else {
            (None, Vec::new())
        };
        // The idle bucket: one sample per report, of the time spent waiting
        // since the previous one.
        let idle = std::mem::take(&mut self.idle).as_micros() as u64;
        self.worker.metrics.histogram("idle_us").record(idle);
        let report = StatusReport {
            worker: self.worker.id,
            epoch: self.epoch,
            queue_length: self.worker.queue_length(),
            coverage: self.worker.coverage_snapshot(),
            stats: self.worker.report_stats(),
            idle: !self.worker.has_work(),
            last,
            frontier,
            new_bugs,
            transfers: std::mem::take(&mut self.events),
            // Taken at the same instant as `stats` and `frontier`, so a
            // snapshot-bearing report confirms exactly its paths' cases.
            test_cases: std::mem::take(&mut self.worker.test_cases),
        };
        endpoint.send_status(report).map_err(|_| ())
    }

    /// Handles one control message other than `Stop`. `Err` means the
    /// transport is gone and the run should end.
    fn handle_control(&mut self, endpoint: &mut TcpWorkerEndpoint, msg: Control) -> Result<(), ()> {
        match msg {
            // `Stop` ends the loop before it gets here.
            Control::Stop => {}
            Control::GlobalCoverage(global) => self.worker.merge_global_coverage(&global),
            Control::Membership(peers) => endpoint.update_peers(&peers),
            Control::Inject { seq, encoded } => {
                if let Some(tree) = JobTree::decode(&encoded) {
                    self.worker.import_job_tree(&tree);
                    self.events.push(TransferEvent::Imported {
                        source: COORDINATOR,
                        seq,
                        encoded,
                    });
                }
            }
            Control::Balance { destination, count } => {
                let mut transfer = Span::enter(SpanKind::JobTransfer);
                let jobs = self.worker.export_jobs(count);
                if jobs.is_empty() {
                    return Ok(());
                }
                let encoded = JobTree::from_jobs(&jobs).encode();
                transfer.detail(encoded.len() as u64);
                self.worker.record_transfer_bytes(encoded.len() as u64);
                self.export_seq += 1;
                let seq = self.export_seq;
                // Tell the coordinator about the export *before* shipping
                // the batch: if this worker dies in between, the
                // coordinator holds the batch in its in-flight table and
                // can re-inject it — the batch can be lost on the wire,
                // but never forgotten.
                self.events.push(TransferEvent::Exported {
                    destination,
                    seq,
                    encoded: encoded.clone(),
                });
                self.send_status(endpoint, false)?;
                self.worker.stats.job_bytes_sent += encoded.len() as u64;
                let batch = JobBatch {
                    source: self.worker.id,
                    source_epoch: self.epoch,
                    seq,
                    encoded,
                };
                // ... and report the outcome immediately afterwards, so the
                // coordinator always knows whether the batch is in wire
                // custody (`Sent`) or back in this frontier (`Requeued`)
                // before it could ever reclaim it.
                if endpoint.send_jobs(destination, batch).is_ok() {
                    self.events.push(TransferEvent::Sent { destination, seq });
                } else {
                    self.events
                        .push(TransferEvent::Requeued { destination, seq });
                    self.worker.requeue_jobs(jobs);
                }
                self.send_status(endpoint, false)?;
                self.last_status = Instant::now();
            }
        }
        Ok(())
    }

    fn import_batch(&mut self, batch: JobBatch) {
        if let Some(tree) = JobTree::decode(&batch.encoded) {
            self.worker.import_job_tree(&tree);
            self.events.push(TransferEvent::Imported {
                source: batch.source,
                seq: batch.seq,
                encoded: batch.encoded,
            });
        }
    }

    /// The worker event loop: apply the session's control messages and
    /// import its job batches, explore in quanta, report status on its
    /// cadence and as soon as a quantum leaves it dry (the coordinator feeds
    /// an idle member on the tick after its report), wait for controls or
    /// batches while idle, and send the last report once the run is
    /// stopped.
    fn serve(mut self, endpoint: &mut TcpWorkerEndpoint) {
        loop {
            while let Some(msg) = endpoint.try_recv_control() {
                // A transport that died under us ends the run too, with a
                // best-effort last report: a half-open endpoint may still
                // take it.
                if matches!(msg, Control::Stop) || self.handle_control(endpoint, msg).is_err() {
                    let _ = self.send_status(endpoint, true);
                    return;
                }
            }
            while let Some(batch) = endpoint.try_recv_jobs() {
                self.import_batch(batch);
            }
            let work = self.worker.has_work();
            if work {
                self.worker.run_quantum(self.quantum);
            }
            let ran_dry = work && !self.worker.has_work();
            if ran_dry || self.last_status.elapsed() >= self.status_interval {
                if self.send_status(endpoint, false).is_err() {
                    let _ = self.send_status(endpoint, true);
                    return;
                }
                self.last_status = Instant::now();
            }
            if !work {
                let asleep = Instant::now();
                let due = self.last_status + self.status_interval;
                endpoint.wait_for_input(due.saturating_duration_since(asleep));
                self.idle += asleep.elapsed();
            }
        }
    }
}

/// The worker side of one run, and the one way to host it: runs the spec
/// the coordinator shipped in the session's `Start` on `endpoint` and
/// returns once the run stops. The caller maps [`RunSpec::env`] to a
/// concrete environment (the trait object cannot cross the wire) and
/// decides what only the host knows:
///
/// * `threads_override` replaces the spec's executor thread count (the
///   `c9-worker --threads` flag): a daemon operator knows the machine's
///   core budget better than the coordinator does;
/// * `snapshots` attaches a frontier snapshot to every status report, not
///   only to the last. A daemon can die, leave or re-join without a last
///   report, so it always snapshots; a worker hosted by [`Cluster::run`]
///   always sends its last report and snapshots before it only when the
///   run checkpoints or detects failures.
///
/// A spec that fails [`RunSpec::validate`] is refused before anything is
/// armed or seeded: no heartbeat or status report goes out for it.
pub fn run_worker_from_spec_with(
    endpoint: &mut TcpWorkerEndpoint,
    spec: RunSpec,
    env: Arc<dyn Environment>,
    threads_override: Option<usize>,
    snapshots: bool,
) -> Result<(), RunSpecError> {
    spec.validate()?;
    let config = WorkerConfig {
        executor: spec.executor,
        seed: spec.seed,
        strategy: spec.strategy,
        generate_test_cases: spec.generate_test_cases,
        threads: threads_override.unwrap_or(spec.threads).max(1),
    };
    // Heartbeats first: engine setup below can take long enough on a cold
    // start that a silent worker would look dead to the coordinator.
    endpoint.start_heartbeat();
    let mut worker = Worker::new(endpoint.id(), Arc::new(spec.program), env, config);
    if spec.seed_root {
        worker.seed_root();
    }
    let host = RunHost {
        worker,
        quantum: spec.quantum,
        status_interval: spec.status_interval,
        epoch: spec.worker_epoch,
        snapshots,
        events: Vec::new(),
        export_seq: 0,
        bugs_reported: 0,
        last_status: Instant::now() - spec.status_interval,
        idle: Duration::ZERO,
    };
    host.serve(endpoint);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::branching_program;
    use c9_net::Inbound;
    use c9_vm::NullEnvironment;
    use std::sync::Mutex;

    /// A one-worker loopback fabric whose join is admitted as worker 0.
    fn admitted_fabric() -> (TcpCoordinatorEndpoint, TcpWorkerEndpoint) {
        let (mut coordinator, mut workers) = TcpTransport::loopback()
            .establish(1)
            .expect("loopback fabric");
        let mut worker = workers.pop().expect("one worker endpoint");
        let Some(Inbound::Join(join)) = coordinator.recv(Duration::ZERO) else {
            panic!("no pending join");
        };
        coordinator
            .admit(join.token, WorkerId(0), 1, Vec::new())
            .expect("admit");
        worker.admission(Duration::from_secs(10)).expect("admitted");
        (coordinator, worker)
    }

    /// The admitted worker's next status report, waiting up to `timeout`.
    fn recv_report(
        coordinator: &mut TcpCoordinatorEndpoint,
        timeout: Duration,
    ) -> Option<StatusReport> {
        match coordinator.recv(timeout)? {
            Inbound::Status(report) => Some(report),
            other => panic!("a status report expected, got {other:?}"),
        }
    }

    /// Waits for the admitted worker's last report.
    fn await_last_report(coordinator: &mut TcpCoordinatorEndpoint) {
        let timeout = Duration::from_secs(60);
        while !recv_report(coordinator, timeout).expect("a report").last {}
    }

    /// Whether the first status report of a worker hosting a spec of
    /// `config` with `snapshots` carries a frontier snapshot.
    fn first_report_has_a_snapshot(config: &ClusterConfig, snapshots: bool) -> bool {
        let spec = config.run_spec(&branching_program(3), EnvSpec::Null, WorkerId(0), 1);
        let (mut coordinator, mut worker) = admitted_fabric();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let env = Arc::new(NullEnvironment);
                run_worker_from_spec_with(&mut worker, spec, env, None, snapshots)
                    .expect("a valid spec")
            });
            let report =
                recv_report(&mut coordinator, Duration::from_secs(60)).expect("a status report");
            coordinator
                .send_control(WorkerId(0), Control::Stop)
                .expect("stop the worker");
            await_last_report(&mut coordinator);
            report.frontier.is_some()
        })
    }

    #[test]
    fn snapshots_follow_from_how_a_worker_can_end() {
        let config = ClusterConfig::default();
        assert!(
            !first_report_has_a_snapshot(&config, config.local_snapshots()),
            "a plain local run needs no snapshots"
        );
        let checkpointing = ClusterConfig {
            checkpoint_path: Some(PathBuf::from("run.ckpt")),
            ..ClusterConfig::default()
        };
        assert!(checkpointing.local_snapshots());
        let detecting = ClusterConfig {
            failure_timeout: Some(Duration::from_secs(1)),
            ..ClusterConfig::default()
        };
        assert!(detecting.local_snapshots());

        // A daemon snapshots under any coordinator config: its first report
        // already carries a frontier.
        assert!(
            first_report_has_a_snapshot(&config, true),
            "a daemon report without a snapshot"
        );
    }

    #[test]
    fn a_worker_reports_as_soon_as_it_runs_dry() {
        // A cadence no test waits out, and quanta small enough that the
        // first report (due at once) shows the program still running.
        let config = ClusterConfig {
            status_interval: Duration::from_secs(60),
            quantum: 10,
            ..ClusterConfig::default()
        };
        let spec = config.run_spec(&branching_program(4), EnvSpec::Null, WorkerId(0), 1);
        let (mut coordinator, mut worker) = admitted_fabric();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let env = Arc::new(NullEnvironment);
                run_worker_from_spec_with(&mut worker, spec, env, None, false)
                    .expect("a valid spec")
            });
            let first =
                recv_report(&mut coordinator, Duration::from_secs(10)).expect("the first report");
            assert!(!first.idle, "the first report comes after one quantum");
            let dry = recv_report(&mut coordinator, Duration::from_secs(10));
            coordinator
                .send_control(WorkerId(0), Control::Stop)
                .expect("stop the worker");
            let dry = dry.expect("an idle report long before the 60 s cadence");
            assert!(dry.idle && dry.queue_length == 0 && !dry.last);
            assert_eq!(dry.stats.paths_completed, 16);
            await_last_report(&mut coordinator);
        })
    }

    #[test]
    fn a_local_run_starts_every_worker_with_its_own_spec() {
        let config = ClusterConfig {
            num_workers: 2,
            ..ClusterConfig::default()
        };
        let base = config.worker.seed;
        let program = Arc::new(branching_program(4));
        let cluster = Cluster::new(program, Arc::new(NullEnvironment), config);
        let starts = Mutex::new(Vec::new());
        let result = cluster.host_locally(TcpTransport::loopback(), |worker, spec| {
            let start = (worker, spec.worker_epoch, spec.seed, spec.seed_root);
            starts.lock().expect("starts").push(start);
        });
        assert!(result.summary.exhausted);
        assert_eq!(result.summary.paths_completed(), 16);

        let mut starts = starts.into_inner().expect("starts");
        starts.sort();
        assert_eq!(starts.len(), 2, "one start per worker: {starts:?}");
        for (index, &(worker, epoch, seed, seed_root)) in starts.iter().enumerate() {
            assert_eq!(worker, WorkerId(index as u32));
            assert_eq!(seed, derive_seed(base, worker, epoch), "{worker}");
            assert_eq!(seed_root, index == 0, "{worker} seeds the root");
        }
    }

    #[test]
    fn a_zero_quantum_spec_is_refused_before_the_worker_reports() {
        let spec = RunSpec {
            quantum: 0,
            ..ClusterConfig::default().run_spec(
                &branching_program(3),
                EnvSpec::Null,
                WorkerId(0),
                1,
            )
        };
        let (mut coordinator, mut worker) = admitted_fabric();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let env = Arc::new(NullEnvironment);
                let outcome = run_worker_from_spec_with(&mut worker, spec, env, None, true);
                let _ = done_tx.send(outcome);
            });
            // A worker that took the spec would spin on zero-instruction
            // quanta until stopped: bound the wait, then stop it either way.
            let outcome = done_rx.recv_timeout(Duration::from_secs(10));
            coordinator
                .send_control(WorkerId(0), Control::Stop)
                .expect("stop the worker");
            assert_eq!(
                outcome.expect("the worker returns instead of spinning"),
                Err(RunSpecError::ZeroQuantum)
            );
            assert!(
                coordinator.recv(Duration::from_millis(50)).is_none(),
                "a refused spec sent a status report"
            );
        });
    }
}
