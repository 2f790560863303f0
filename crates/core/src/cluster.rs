//! The cluster harness: workers coordinated by a load balancer over a
//! pluggable transport.
//!
//! This reproduces the deployment of §3.3 and §6 of the paper: every worker
//! is an independent symbolic execution engine with its own solver and state
//! store (shared-nothing); workers exchange jobs only as serialized path
//! encodings; the load balancer sees only queue lengths and coverage bit
//! vectors. The worker loop and the coordinator driver are written against
//! the [`WorkerEndpoint`] / [`CoordinatorEndpoint`] traits of `c9-net`, so
//! the same code runs over in-process channels ([`InProcTransport`], the
//! default for [`Cluster::run`]) or TCP sockets spanning OS processes
//! (`TcpTransport` with the `c9-worker` / `c9-coordinator` binaries) —
//! wall-clock speedups come from real parallelism in both cases.
//!
//! Every coordinator decision — elastic join admission, the
//! missed-heartbeat failure detector, crash recovery by re-injecting a dead
//! worker's ledger (jobs are replayable path prefixes, §3.2), balancing,
//! checkpoints — is made by the sans-IO
//! [`CoordinatorCore`](crate::coordinator); this module holds the driver
//! that moves frames between an endpoint and that core ([`Session`], shared
//! with the run service and the sub-coordinator), plus the worker side.

use crate::balancer::BalancerConfig;
use crate::coordinator::{Command, CoordinatorCore, Delivery, Event, Outcome, RunPlan};
use crate::membership::Checkpoint;
use crate::portfolio::{derive_seed, PortfolioConfig};
use crate::stats::ClusterSummary;
use crate::worker::{Worker, WorkerConfig};
use c9_ir::Program;
use c9_net::{
    Control, CoordinatorEndpoint, EnvSpec, FinalReport, InProcTransport, JobBatch, JobTree, RunId,
    RunSpec, RunSpecBuilder, StatusReport, TransferEvent, Transport, WorkerEndpoint, WorkerId,
    COORDINATOR,
};
use c9_trace::{error, info, Span, SpanKind};
use c9_vm::{Environment, StrategyKind, TestCase};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Entry bound of the constraint-cache slices workers piggyback on job
/// batches and status-report gossip: enough to cover a transferred
/// frontier region's hot queries, small enough to stay a fraction of the
/// job payload itself.
pub(crate) const GOSSIP_SLICE_MAX: usize = 256;

/// Gossip rides every k-th status report, bounding background traffic on
/// the report cadence (job-batch piggybacks are unaffected — they ship
/// with every transfer).
const GOSSIP_STATUS_EVERY: u32 = 4;

/// Status reports processed per coordinator round at most. Reports can
/// arrive faster than the drain processes them (tight status intervals,
/// many workers, recovery re-injection); without a bound the drain never
/// falls through to stopping conditions, gossip folds, or balancing, and
/// parked gossip slices pile up without limit.
const MAX_STATUS_DRAIN: usize = 256;

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
    /// How often workers report status to the load balancer.
    pub status_interval: Duration,
    /// How often the load balancer runs the balancing algorithm.
    pub balance_interval: Duration,
    /// How often a timeline sample is recorded (the paper's "10-second
    /// buckets", scaled down).
    pub sample_interval: Duration,
    /// Balancing algorithm parameters.
    pub balancer: BalancerConfig,
    /// Disable load balancing after this much time (the Fig. 13 ablation).
    pub disable_lb_after: Option<Duration>,
    /// Only balance until every worker has received work once, then never
    /// again (static partitioning ablation, §2).
    pub static_partition: bool,
    /// Instructions per worker quantum between message-handling points.
    pub quantum: u64,
    /// Declare a worker dead after this much silence (no status report and
    /// no heartbeat) and re-inject its pending jobs into the survivors.
    /// None disables the failure detector — the right choice for
    /// transports whose workers cannot die independently.
    pub failure_timeout: Option<Duration>,
    /// How often worker transports send liveness heartbeats, independently
    /// of the worker loop (zero disables them).
    pub heartbeat_interval: Duration,
    /// Workers attach a frontier snapshot to every `snapshot_every`-th
    /// status report (zero = never). Snapshots are what make crash
    /// recovery and checkpoint/resume exact; 1 keeps the coordinator's
    /// ledger current to the latest report.
    pub snapshot_every: u32,
    /// Write a [`Checkpoint`] here periodically and at the end of the run.
    pub checkpoint_path: Option<PathBuf>,
    /// How often the periodic checkpoint is written.
    pub checkpoint_interval: Duration,
    /// Continue a previous run: its frontier is injected instead of the
    /// root job, and its stats are folded into the final summary.
    pub resume: Option<Checkpoint>,
    /// The strategy portfolio: when set, each worker is assigned a strategy
    /// from the mix (spread evenly, re-spread on churn) instead of everyone
    /// running [`WorkerConfig::strategy`]; with `adapt` on, per-strategy
    /// coverage yield rebalances the assignment every balancing round.
    pub portfolio: Option<PortfolioConfig>,
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
            balance_interval: Duration::from_millis(20),
            sample_interval: Duration::from_millis(100),
            balancer: BalancerConfig::default(),
            disable_lb_after: None,
            static_partition: false,
            quantum: 20_000,
            failure_timeout: None,
            heartbeat_interval: Duration::from_millis(25),
            snapshot_every: 0,
            checkpoint_path: None,
            checkpoint_interval: Duration::from_secs(1),
            resume: None,
            portfolio: None,
        }
    }
}

impl ClusterConfig {
    /// Builds the wire run spec a remote worker needs to participate in a
    /// run of `program` under this configuration. `run` identifies the run
    /// among all runs the target worker daemons serve (never
    /// [`RunId::SERVICE`]); `worker_epoch` is the per-worker fencing epoch
    /// assigned by the coordinator's membership at join time; `strategy` is
    /// the portfolio's assignment for this worker. The searcher seed is
    /// derived deterministically from the base seed, the worker id, and the
    /// epoch. Specs are assembled through [`RunSpecBuilder`], so an invalid
    /// configuration (zero quantum, reserved run id, …) is caught here
    /// rather than on the wire.
    pub fn run_spec(
        &self,
        program: &Program,
        env: EnvSpec,
        worker: WorkerId,
        run: RunId,
        worker_epoch: u64,
        strategy: StrategyKind,
    ) -> RunSpec {
        RunSpecBuilder::new()
            .program(program.clone())
            .env(env)
            .executor(self.worker.executor)
            .seed(derive_seed(self.worker.seed, worker, worker_epoch))
            .strategy(strategy)
            .generate_test_cases(self.worker.generate_test_cases)
            .export_order(self.worker.export_order)
            .replay_cache(self.worker.replay_cache)
            .threads(self.worker.threads)
            .quantum(self.quantum)
            .status_interval(self.status_interval)
            .seed_root(worker.0 == 0 && self.resume.is_none())
            .run(run)
            .worker_epoch(worker_epoch)
            .heartbeat_interval(self.heartbeat_interval)
            .snapshot_every(self.snapshot_every)
            .solver_cache(self.worker.solver_cache)
            .solver_backend(self.worker.solver_backend)
            .cache_gossip(self.worker.cache_gossip)
            .build()
            .expect("cluster config produces a valid run spec")
    }

    /// This run's strategy portfolio: the configured mix, or the uniform
    /// single-strategy portfolio when none was configured.
    pub(crate) fn portfolio_config(&self) -> PortfolioConfig {
        self.portfolio
            .clone()
            .unwrap_or_else(|| PortfolioConfig::uniform(self.worker.strategy))
    }

    fn loop_opts(&self, run: RunId, seed_root: bool, worker_epoch: u64) -> WorkerLoopOpts {
        WorkerLoopOpts {
            run,
            quantum: self.quantum,
            status_interval: self.status_interval,
            seed_root,
            worker_epoch,
            snapshot_every: self.snapshot_every,
            heartbeat_interval: self.heartbeat_interval,
        }
    }
}

/// Options of a coordinator-driven run over a remote transport.
#[derive(Clone, Debug)]
pub struct CoordinatorRunOpts {
    /// The environment model remote workers should instantiate.
    pub env: EnvSpec,
    /// The run identity stamped on every frame of this run. Must be unique
    /// among the runs the target worker daemons serve and never
    /// [`RunId::SERVICE`].
    pub run: RunId,
    /// Listen addresses of statically dialed workers, by worker id. The
    /// endpoint must already be connected to exactly these.
    pub initial_workers: Vec<String>,
    /// Wait for at least this many live members before starting the run
    /// (elastic deployments; statically dialed workers already count).
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
            run: RunId(1),
            initial_workers: Vec::new(),
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

/// How long the coordinator waits for final reports after issuing `Stop`
/// when the workers are remote processes that may have died.
const REMOTE_FINAL_TIMEOUT: Duration = Duration::from_secs(30);

/// Final-report wait for locally hosted workers: effectively unbounded,
/// because a local worker always either sends its final report or drops its
/// endpoint (ending the wait via disconnect) — reports are never lost.
const LOCAL_FINAL_TIMEOUT: Duration = Duration::from_secs(60 * 60 * 24);

/// A [`CoordinatorCore`] bound to the addressing of one endpoint: the
/// shared half of every coordinator driver.
pub(crate) struct Session {
    pub core: CoordinatorCore,
    /// The core's per-run worker ids → the endpoint's (empty = identical).
    dest: Vec<WorkerId>,
    /// The latest checkpoint the core wants persisted (the driver takes it).
    pub checkpoint: Option<Box<Checkpoint>>,
    /// Whether the core declared the final-report collection over.
    pub finished: bool,
}

impl Session {
    /// A session over a fresh core with `members` already connected.
    pub fn new(
        config: &ClusterConfig,
        members: impl IntoIterator<Item = String>,
        dest: Vec<WorkerId>,
    ) -> Session {
        let mut core = CoordinatorCore::new(config);
        let now = Instant::now();
        for addr in members {
            core.add_static(addr, now);
        }
        Session {
            core,
            dest,
            checkpoint: None,
            finished: false,
        }
    }

    /// Feeds one event to the core and executes the commands it answers
    /// with. Returns a tick's verdict, to be fed back as `Stop` (or not).
    pub fn feed<C: CoordinatorEndpoint>(
        &mut self,
        event: Event,
        endpoint: &mut C,
    ) -> Option<Outcome> {
        let mut out = Vec::new();
        let verdict = self.core.handle(event, Instant::now(), &mut out);
        self.execute(out, endpoint);
        verdict
    }

    /// Executes commands (also those the federation uplink obtains from
    /// the core's hooks, outside [`Session::feed`]).
    pub fn execute<C: CoordinatorEndpoint>(&mut self, out: Vec<Command>, endpoint: &mut C) {
        for command in out {
            self.apply(command, endpoint);
        }
    }

    /// Executes one command on `endpoint`, translating the core's worker
    /// ids through `dest`, and feeds a delivery failure the core wants to
    /// hear about straight back (other controls are best effort).
    fn apply<C: CoordinatorEndpoint>(&mut self, command: Command, endpoint: &mut C) {
        let dest = &self.dest;
        let to = |worker: WorkerId| dest.get(worker.index()).copied().unwrap_or(worker);
        let failed = match command {
            Command::Admit {
                token,
                worker,
                epoch,
                peers,
                strategy,
            } => endpoint
                .admit(token, worker, epoch, peers, strategy)
                .is_err()
                .then_some((worker, Delivery::Handshake)),
            Command::Start(worker, spec) => endpoint
                .send_start(to(worker), *spec)
                .is_err()
                .then_some((worker, Delivery::Handshake)),
            Command::Control(worker, msg) => {
                let inject = match &msg {
                    Control::Inject { seq, .. } => Some(Delivery::Inject(*seq)),
                    _ => None,
                };
                let run = self.core.run_id();
                let failed = endpoint.send_control(to(worker), run, msg).is_err();
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

    /// Feeds every pending join request and liveness event; returns how
    /// many joins there were.
    pub fn pump_membership<C: CoordinatorEndpoint>(&mut self, endpoint: &mut C) -> usize {
        let mut joins = 0;
        while let Some(request) = endpoint.try_recv_join() {
            self.feed(Event::Join(request), endpoint);
            joins += 1;
        }
        while let Some(event) = endpoint.try_recv_event() {
            self.feed(Event::Member(event), endpoint);
        }
        joins
    }

    /// Admits joiners until `quorum` members are alive (static members
    /// already count) or `wait` has passed.
    pub fn await_quorum<C: CoordinatorEndpoint>(
        &mut self,
        endpoint: &mut C,
        quorum: usize,
        wait: Duration,
    ) {
        let deadline = Instant::now() + wait;
        while self.core.membership().alive_count() < quorum.max(1) {
            if self.pump_membership(endpoint) == 0 {
                if Instant::now() >= deadline {
                    break;
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }

    /// After `Stop`: feeds liveness events, the status reports still queued
    /// behind the `Stop` (and, on the last round, behind the last final —
    /// their transfer notices would otherwise be lost, and with them the
    /// jobs of any batch still on the wire at shutdown), and final reports,
    /// until the core is finished.
    pub fn collect_finals<C: CoordinatorEndpoint>(&mut self, endpoint: &mut C) {
        loop {
            while let Some(event) = endpoint.try_recv_event() {
                self.feed(Event::Member(event), endpoint);
            }
            while let Some(report) = endpoint.recv_status(Duration::ZERO) {
                self.feed(Event::Status(report), endpoint);
            }
            self.feed(Event::Tick, endpoint);
            if self.finished {
                return;
            }
            if let Some(report) = endpoint.recv_final(Duration::from_millis(50)) {
                self.feed(Event::Final(report), endpoint);
            }
        }
    }
}

/// Feeds up to [`MAX_STATUS_DRAIN`] pending status reports to `each`,
/// blocking briefly for the first one. Returns whether any arrived.
pub(crate) fn drain_statuses<C: CoordinatorEndpoint>(
    endpoint: &mut C,
    mut each: impl FnMut(&mut C, StatusReport),
) -> bool {
    for drained in 0..MAX_STATUS_DRAIN {
        let wait = Duration::from_millis(if drained == 0 { 2 } else { 0 });
        let Some(report) = endpoint.recv_status(wait) else {
            return drained > 0;
        };
        each(endpoint, report);
    }
    true
}

/// The plan of a run of `program` whose members are remote: each is shipped
/// the spec [`ClusterConfig::run_spec`] builds for it.
pub(crate) fn remote_plan(
    config: ClusterConfig,
    program: Arc<Program>,
    env: EnvSpec,
    run: RunId,
    target: String,
) -> Box<RunPlan> {
    Box::new(RunPlan {
        run,
        target,
        num_lines: program.loc(),
        config,
        final_timeout: REMOTE_FINAL_TIMEOUT,
        spec_for: Some(Box::new(move |config, worker, epoch, strategy| {
            config.run_spec(&program, env, worker, run, epoch, strategy)
        })),
    })
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

    /// Runs the cluster on in-process channels until a stopping condition is
    /// met and returns the aggregated results.
    pub fn run(&self) -> ClusterRunResult {
        self.run_with_transport(InProcTransport)
    }

    fn plan(&self, opts: &CoordinatorRunOpts) -> Box<RunPlan> {
        let (config, program) = (self.config.clone(), self.program.clone());
        remote_plan(config, program, opts.env, opts.run, opts.target.clone())
    }

    /// Runs the cluster over any transport that hosts the worker endpoints
    /// locally (in-process channels, or loopback TCP where every byte
    /// crosses the kernel's network stack). One thread is spawned per
    /// worker; the coordinator runs on the calling thread.
    pub fn run_with_transport<T: Transport>(&self, transport: T) -> ClusterRunResult
    where
        T::WorkerEnd: Send,
    {
        let n = self.config.num_workers.max(1);
        let endpoints = transport.establish(n).expect("transport establish failed");
        let mut coordinator = endpoints.coordinator;
        let workers = endpoints.workers;
        assert_eq!(
            workers.len(),
            n,
            "run_with_transport needs a transport with locally hosted workers; \
             use run_coordinator for remote daemons"
        );

        let members = std::iter::repeat_n(String::new(), n);
        let mut session = Session::new(&self.config, members, Vec::new());
        let opts = CoordinatorRunOpts {
            target: self.program.name.clone(),
            ..CoordinatorRunOpts::default()
        };
        // The workers are started below, out of band: starting the run
        // only spreads the portfolio over them.
        let mut plan = self.plan(&opts);
        plan.final_timeout = LOCAL_FINAL_TIMEOUT;
        plan.spec_for = None;
        session.feed(Event::Start(plan), &mut coordinator);
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(n);
            for (member, mut endpoint) in session.core.membership().members().iter().zip(workers) {
                let program = self.program.clone();
                let env = self.env.clone();
                let config = &self.config;
                let seed_root = member.worker.0 == 0 && config.resume.is_none();
                let loop_opts = config.loop_opts(opts.run, seed_root, member.epoch);
                // Locally hosted workers get their portfolio assignment and
                // derived seed through their config (remote daemons get the
                // same through the run spec).
                let mut worker_config = config.worker;
                worker_config.strategy = member.strategy.unwrap_or(config.worker.strategy);
                worker_config.seed = derive_seed(config.worker.seed, member.worker, member.epoch);
                handles.push(scope.spawn(move || {
                    run_worker_loop(&mut endpoint, program, env, worker_config, loop_opts);
                }));
            }
            let result = self.drive(&mut coordinator, session);
            for handle in handles {
                handle.join().expect("worker thread panicked");
            }
            result
        })
    }

    /// Drives a cluster whose workers live in other processes: registers
    /// the statically dialed workers, waits for elastic joins up to
    /// `opts.min_workers`, ships every member its run spec, runs the
    /// balancing loop of §3.3 (with failure detection and crash recovery),
    /// and aggregates the results.
    pub fn run_coordinator<C: CoordinatorEndpoint>(
        &self,
        endpoint: &mut C,
        opts: CoordinatorRunOpts,
    ) -> ClusterRunResult {
        let members = opts.initial_workers.iter().cloned();
        let mut session = Session::new(&self.config, members, Vec::new());
        session.await_quorum(endpoint, opts.min_workers, opts.join_wait);
        session.feed(Event::Start(self.plan(&opts)), endpoint);
        self.drive(endpoint, session)
    }

    /// The coordinator loop: turns what arrives on `endpoint` into events
    /// until a tick's verdict stops the run, then collects the finals.
    fn drive<C: CoordinatorEndpoint>(
        &self,
        endpoint: &mut C,
        mut session: Session,
    ) -> ClusterRunResult {
        loop {
            session.pump_membership(endpoint);
            drain_statuses(endpoint, |endpoint, report| {
                session.feed(Event::Status(report), endpoint);
            });
            let verdict = session.feed(Event::Tick, endpoint);
            self.save(&mut session);
            if let Some(outcome) = verdict {
                session.feed(Event::Stop(outcome), endpoint);
                break;
            }
        }
        session.collect_finals(endpoint);
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

/// Per-run options of the worker event loop.
#[derive(Clone, Copy, Debug)]
pub struct WorkerLoopOpts {
    /// The run this worker instance executes, stamped on every report and
    /// batch.
    pub run: RunId,
    /// Instructions per quantum between message-handling points.
    pub quantum: u64,
    /// How often status is reported to the coordinator.
    pub status_interval: Duration,
    /// Whether this worker seeds the root job (exactly one worker of a
    /// fresh — non-resumed — run).
    pub seed_root: bool,
    /// This worker's fencing epoch, stamped on every report and batch.
    pub worker_epoch: u64,
    /// Attach a frontier snapshot to every k-th status report (0 = never).
    pub snapshot_every: u32,
    /// Transport heartbeat cadence (zero disables).
    pub heartbeat_interval: Duration,
}

/// One run hosted by a [`WorkerService`]: an independent [`Worker`] engine
/// plus the per-run reporting state the event loop threads through it.
struct RunHost {
    opts: WorkerLoopOpts,
    worker: Worker,
    events: Vec<TransferEvent>,
    export_seq: u64,
    reports_sent: u32,
    // How many of this run's bugs the coordinator has already seen; new
    // ones ride the next snapshot-bearing report so they survive a crash
    // (the completed paths they sit on are never re-explored).
    bugs_reported: usize,
    last_status: Instant,
}

impl RunHost {
    fn new(
        id: WorkerId,
        program: Arc<Program>,
        env: Arc<dyn Environment>,
        config: WorkerConfig,
        opts: WorkerLoopOpts,
    ) -> RunHost {
        let mut worker = Worker::new(id, program, env, config);
        if opts.seed_root {
            worker.seed_root();
        }
        RunHost {
            opts,
            worker,
            events: Vec::new(),
            export_seq: 0,
            reports_sent: 0,
            bugs_reported: 0,
            last_status: Instant::now() - opts.status_interval,
        }
    }

    fn send_status<E: WorkerEndpoint>(&mut self, endpoint: &mut E) -> Result<(), ()> {
        let include_frontier = self.opts.snapshot_every > 0
            && self.reports_sent.is_multiple_of(self.opts.snapshot_every);
        // Gossip the hottest cache entries on a sparse report cadence; the
        // export is `None` when gossip is off for the run, the cache is
        // still cold, or nothing new was solved since the last export.
        let gossip = self
            .reports_sent
            .is_multiple_of(GOSSIP_STATUS_EVERY)
            .then(|| self.worker.export_gossip_slice(GOSSIP_SLICE_MAX))
            .flatten();
        self.reports_sent += 1;
        let frontier =
            include_frontier.then(|| JobTree::from_jobs(&self.worker.frontier_snapshot()).encode());
        let new_bugs = if include_frontier {
            let fresh = self.worker.bugs[self.bugs_reported..].to_vec();
            self.bugs_reported = self.worker.bugs.len();
            fresh
        } else {
            Vec::new()
        };
        let report = StatusReport {
            run: self.opts.run,
            worker: self.worker.id,
            epoch: self.opts.worker_epoch,
            queue_length: self.worker.queue_length(),
            coverage: self.worker.coverage_snapshot(),
            stats: self.worker.report_stats(),
            idle: !self.worker.has_work(),
            strategy: self.worker.strategy(),
            frontier,
            new_bugs,
            transfers: std::mem::take(&mut self.events),
            gossip,
        };
        endpoint.send_status(report).map_err(|_| ())
    }

    /// Handles one run-scoped control message. `Err` means the transport is
    /// gone and the service should shut down.
    fn handle_control<E: WorkerEndpoint>(
        &mut self,
        endpoint: &mut E,
        msg: Control,
    ) -> Result<(), ()> {
        match msg {
            // `Stop` is routed by the service before it gets here.
            Control::Stop => {}
            Control::GlobalCoverage(global) => self.worker.merge_global_coverage(&global),
            Control::Membership(peers) => endpoint.update_peers(&peers),
            Control::SetStrategy { strategy, seed } => self.worker.set_strategy(strategy, seed),
            // The coordinator's merged cluster hot set: warm the solver
            // cache with what the rest of the fleet already solved.
            Control::HotSet(slice) => self.worker.import_cache_slice(&slice),
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
                // A harvest: the coordinator asked for the jobs *itself*
                // (federation pulls group work up through the sub-coordinator
                // this way). There is no socket to ship them over — the
                // Exported/Sent pair alone moves them: Exported parks the
                // payload in the coordinator's in-flight table, and Sent
                // towards the (never-alive) COORDINATOR id resolves the entry
                // straight into the reclaim pool.
                if destination == COORDINATOR {
                    let encoded = JobTree::from_jobs(&jobs).encode();
                    transfer.detail(encoded.len() as u64);
                    self.worker.record_transfer_bytes(encoded.len() as u64);
                    self.export_seq += 1;
                    let seq = self.export_seq;
                    self.events.push(TransferEvent::Exported {
                        destination,
                        seq,
                        encoded,
                    });
                    self.events.push(TransferEvent::Sent { destination, seq });
                    self.send_status(endpoint)?;
                    self.last_status = Instant::now();
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
                self.send_status(endpoint)?;
                self.worker.stats.job_bytes_sent += encoded.len() as u64;
                // Piggyback the exporter's hottest cache entries: the
                // receiver replays these jobs through the very constraints
                // this worker just solved, so the slice is what spares its
                // first quantum the cold-cache re-solving of §6.
                let slice = self.worker.export_cache_slice(GOSSIP_SLICE_MAX);
                let batch = JobBatch {
                    source: self.worker.id,
                    run: self.opts.run,
                    source_epoch: self.opts.worker_epoch,
                    seq,
                    encoded,
                    slice,
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
                self.send_status(endpoint)?;
                self.last_status = Instant::now();
            }
        }
        Ok(())
    }

    fn import_batch(&mut self, batch: JobBatch) {
        if let Some(slice) = &batch.slice {
            self.worker.import_cache_slice(slice);
        }
        if let Some(tree) = JobTree::decode(&batch.encoded) {
            self.worker.import_job_tree(&tree);
            self.events.push(TransferEvent::Imported {
                source: batch.source,
                seq: batch.seq,
                encoded: batch.encoded,
            });
        }
    }

    fn send_final<E: WorkerEndpoint>(&mut self, endpoint: &mut E) {
        let _ = endpoint.send_final(FinalReport {
            run: self.opts.run,
            worker: self.worker.id,
            epoch: self.opts.worker_epoch,
            stats: self.worker.report_stats(),
            coverage: self.worker.coverage_snapshot(),
            test_cases: std::mem::take(&mut self.worker.test_cases),
            bugs: std::mem::take(&mut self.worker.bugs),
            frontier: JobTree::from_jobs(&self.worker.frontier_snapshot()).encode(),
            transfers: std::mem::take(&mut self.events),
        });
    }
}

/// The worker-side run service: hosts any number of concurrent runs on one
/// endpoint, time-slicing execution quanta across them.
///
/// Every frame is scoped to a run: control messages and job batches are
/// routed to the hosted run they name (frames of unknown — finished or
/// never-admitted — runs are dropped), status and final reports carry the
/// run id back. New runs are admitted from `Start` frames
/// ([`WorkerEndpoint::try_recv_start`]); a `Stop` scoped to
/// [`RunId::SERVICE`] shuts the whole service down, finalizing every hosted
/// run.
///
/// The single-run entry points ([`run_worker_loop`],
/// [`run_worker_from_spec`]) are thin wrappers that host exactly one run
/// and exit when it completes, so every deployment — the in-process
/// harness included — exercises the same service loop.
pub struct WorkerService<'e, E: WorkerEndpoint> {
    endpoint: &'e mut E,
    env_factory: Box<dyn Fn(EnvSpec) -> Arc<dyn Environment> + 'e>,
    threads_override: Option<usize>,
    replay_cache_override: Option<c9_vm::ReplayCacheConfig>,
    solver_cache_override: Option<usize>,
    admit_starts: bool,
    exit_when_drained: bool,
    hosted: u64,
    runs: BTreeMap<u64, RunHost>,
}

impl<'e, E: WorkerEndpoint> WorkerService<'e, E> {
    /// Creates a service on `endpoint`. `env_factory` maps the environment
    /// spec of an admitted run to a concrete environment model (the trait
    /// object cannot cross the wire).
    pub fn new(
        endpoint: &'e mut E,
        env_factory: impl Fn(EnvSpec) -> Arc<dyn Environment> + 'e,
    ) -> WorkerService<'e, E> {
        WorkerService {
            endpoint,
            env_factory: Box::new(env_factory),
            threads_override: None,
            replay_cache_override: None,
            solver_cache_override: None,
            admit_starts: true,
            exit_when_drained: false,
            hosted: 0,
            runs: BTreeMap::new(),
        }
    }

    /// Local overrides of the executor thread count (the `c9-worker
    /// --threads` flag), the replay-cache budget (`--replay-cache`), and
    /// the solver query-cache capacity (`--solver-cache`): a daemon
    /// operator knows the machine's core and memory budget better than the
    /// coordinator does.
    pub fn with_overrides(
        mut self,
        threads: Option<usize>,
        replay_cache: Option<c9_vm::ReplayCacheConfig>,
        solver_cache: Option<usize>,
    ) -> Self {
        self.threads_override = threads;
        self.replay_cache_override = replay_cache;
        self.solver_cache_override = solver_cache;
        self
    }

    /// Makes [`WorkerService::serve`] return once at least one run was
    /// hosted and the last one finished (the `c9-worker --once` contract),
    /// instead of serving until a service-level `Stop` or disconnect.
    pub fn exit_when_drained(mut self, on: bool) -> Self {
        self.exit_when_drained = on;
        self
    }

    /// Hosts a run from its already-resolved parts (the in-process path,
    /// where program and environment never cross a wire).
    pub fn host(
        &mut self,
        program: Arc<Program>,
        env: Arc<dyn Environment>,
        config: WorkerConfig,
        opts: WorkerLoopOpts,
    ) {
        // Heartbeats first: engine setup below can take long enough on a
        // cold start that a silent worker would look dead to the
        // coordinator.
        self.endpoint.start_heartbeat(opts.heartbeat_interval);
        let host = RunHost::new(self.endpoint.id(), program, env, config, opts);
        self.runs.insert(opts.run.0, host);
        self.hosted += 1;
    }

    /// Admits a run from its wire spec, applying the service's local
    /// overrides.
    pub fn admit_spec(&mut self, spec: RunSpec) {
        let config = WorkerConfig {
            executor: spec.executor,
            seed: spec.seed,
            strategy: spec.strategy,
            generate_test_cases: spec.generate_test_cases,
            export_order: spec.export_order,
            replay_cache: self.replay_cache_override.unwrap_or(spec.replay_cache),
            threads: self.threads_override.unwrap_or(spec.threads).max(1),
            solver_cache: self.solver_cache_override.or(spec.solver_cache),
            solver_backend: spec.solver_backend,
            cache_gossip: spec.cache_gossip,
        };
        let opts = WorkerLoopOpts {
            run: spec.run,
            quantum: spec.quantum,
            status_interval: spec.status_interval,
            seed_root: spec.seed_root,
            worker_epoch: spec.worker_epoch,
            snapshot_every: spec.snapshot_every,
            heartbeat_interval: spec.heartbeat_interval,
        };
        let env = (self.env_factory)(spec.env);
        self.host(Arc::new(spec.program), env, config, opts);
    }

    /// The service event loop, shared by every transport: admit new runs,
    /// route control messages and job batches to the run they address,
    /// explore each run in quanta (round-robin across runs), report per-run
    /// status, and ship a final report for every run that stops.
    pub fn serve(mut self) {
        loop {
            if self.admit_starts {
                while let Some(spec) = self.endpoint.try_recv_start() {
                    self.admit_spec(*spec);
                }
            }

            // Control frames, routed by run id.
            let mut disconnected = false;
            while let Some((run, msg)) = self.endpoint.try_recv_control() {
                if run == RunId::SERVICE {
                    if matches!(msg, Control::Stop) {
                        // Daemon-level shutdown: finalize every hosted run.
                        self.finalize_all();
                        return;
                    }
                    continue;
                }
                if matches!(msg, Control::Stop) {
                    if let Some(mut host) = self.runs.remove(&run.0) {
                        host.send_final(self.endpoint);
                    }
                    continue;
                }
                let Some(host) = self.runs.get_mut(&run.0) else {
                    continue; // a frame of a finished (or never-admitted) run
                };
                if host.handle_control(self.endpoint, msg).is_err() {
                    disconnected = true;
                    break;
                }
            }
            if disconnected {
                break;
            }

            // Job batches, routed by run id.
            while let Some(batch) = self.endpoint.try_recv_jobs() {
                if let Some(host) = self.runs.get_mut(&batch.run.0) {
                    host.import_batch(batch);
                }
            }

            // Explore: one quantum per run with pending work, so concurrent
            // runs share this worker fairly.
            let mut any_work = false;
            for host in self.runs.values_mut() {
                if host.worker.has_work() {
                    any_work = true;
                    host.worker.run_quantum(host.opts.quantum);
                }
            }

            // Per-run status cadence.
            for host in self.runs.values_mut() {
                if host.last_status.elapsed() >= host.opts.status_interval {
                    if host.send_status(self.endpoint).is_err() {
                        disconnected = true;
                        break;
                    }
                    host.last_status = Instant::now();
                }
            }
            if disconnected {
                break;
            }

            if self.exit_when_drained && self.hosted > 0 && self.runs.is_empty() {
                return;
            }
            if !any_work {
                std::thread::sleep(Duration::from_micros(500));
            }
        }
        // The transport died under us: make a best-effort attempt to flush
        // final reports (it usually fails too, but a half-open endpoint may
        // still accept them).
        self.finalize_all();
    }

    fn finalize_all(&mut self) {
        while let Some((_, mut host)) = self.runs.pop_first() {
            host.send_final(self.endpoint);
        }
    }
}

/// The single-run worker event loop: hosts exactly one run on a
/// [`WorkerService`] and returns when it stops. This is the entry point of
/// the in-process harness, where the coordinator hands every worker its
/// resolved program and environment directly.
pub fn run_worker_loop<E: WorkerEndpoint>(
    endpoint: &mut E,
    program: Arc<Program>,
    env: Arc<dyn Environment>,
    config: WorkerConfig,
    opts: WorkerLoopOpts,
) {
    let factory_env = env.clone();
    let mut service =
        WorkerService::new(endpoint, move |_| factory_env.clone()).exit_when_drained(true);
    service.admit_starts = false;
    service.host(program, env, config, opts);
    service.serve();
}

/// Runs the worker side of a run spec received over the wire. The caller
/// maps [`RunSpec::env`] to a concrete environment (the trait object cannot
/// cross the wire) and supplies the endpoint.
pub fn run_worker_from_spec<E: WorkerEndpoint>(
    endpoint: &mut E,
    spec: RunSpec,
    env: Arc<dyn Environment>,
) {
    run_worker_from_spec_with(endpoint, spec, env, None, None, None)
}

/// Like [`run_worker_from_spec`], with local overrides of the executor
/// thread count (the `c9-worker --threads` flag), the replay-cache budget
/// (`c9-worker --replay-cache`), and the solver query-cache capacity
/// (`c9-worker --solver-cache`): a daemon operator knows the machine's
/// core and memory budget better than the coordinator does.
pub fn run_worker_from_spec_with<E: WorkerEndpoint>(
    endpoint: &mut E,
    spec: RunSpec,
    env: Arc<dyn Environment>,
    threads_override: Option<usize>,
    replay_cache_override: Option<c9_vm::ReplayCacheConfig>,
    solver_cache_override: Option<usize>,
) {
    let mut service = WorkerService::new(endpoint, move |_| env.clone())
        .with_overrides(
            threads_override,
            replay_cache_override,
            solver_cache_override,
        )
        .exit_when_drained(true);
    service.admit_starts = false;
    service.admit_spec(spec);
    service.serve();
}
