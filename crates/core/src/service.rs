//! The coordinator-side run service: a registry of runs multiplexed over
//! one worker roster.
//!
//! Where [`Cluster::run_coordinator`](crate::Cluster) drives exactly one
//! run to completion, the [`RunService`] owns a *registry* of runs
//! (`Queued → Running → Draining → Done/Failed`, with `Preempted` as the
//! frozen side state) and drives up to a configured number of them
//! concurrently over the same workers. Every run gets its own
//! [`CoordinatorCore`] — membership ledger, load balancer, strategy
//! portfolio, all keyed per `(worker, run)` — and this module only routes
//! the run-scoped frames the transport multiplexes over one socket (or
//! channel) per worker to the core they are stamped for.
//!
//! Preemption reuses the checkpoint machinery: preempting a run stops it
//! like any other stop, takes the core's [`Checkpoint`] once the final
//! reports are in, and parks it in memory; reactivation re-admits the run
//! under a fresh wire id with the checkpoint as its resume state, exactly
//! like `--resume` continues an interrupted run from disk.
//!
//! Clients talk to a running service through a cloneable [`ServiceHandle`]
//! (submit, list, status, cancel, preempt, resume, results, shutdown); the
//! newline-delimited JSON front door in [`frontdoor`](crate::frontdoor)
//! exposes the same operations over TCP.

use crate::cluster::{drain_statuses, remote_plan, ClusterConfig, ClusterRunResult, Session};
use crate::coordinator::{Event, Outcome};
use crate::membership::{Checkpoint, Membership};
use c9_ir::Program;
use c9_net::{Control, CoordinatorEndpoint, EnvSpec, RunId, WorkerId};
use c9_trace::{info, warn};
use c9_vm::TestCase;
use crossbeam::channel::{unbounded, Receiver, Sender};
use std::collections::{BTreeMap, VecDeque};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Where a run is in its life cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunState {
    /// Submitted, waiting for a concurrency slot.
    Queued,
    /// Admitted: its specs are on the workers and it is executing.
    Running,
    /// Stopping: `Stop` frames are out, final reports are being collected.
    Draining,
    /// Frozen: its frontier lives in an in-memory checkpoint; `resume`
    /// re-queues it.
    Preempted,
    /// Finished (to exhaustion, a goal, a limit, or by `cancel`).
    Done,
    /// Could not run (a worker rejected its spec, or the service shut down
    /// underneath it).
    Failed,
}

impl std::fmt::Display for RunState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            RunState::Queued => "queued",
            RunState::Running => "running",
            RunState::Draining => "draining",
            RunState::Preempted => "preempted",
            RunState::Done => "done",
            RunState::Failed => "failed",
        };
        write!(f, "{s}")
    }
}

/// A run handed to [`ServiceHandle::submit`].
pub struct RunSubmission {
    /// Human-readable workload name (recorded in reports and checkpoints).
    pub name: String,
    /// The program under test.
    pub program: Arc<Program>,
    /// The environment model workers should instantiate.
    pub env: EnvSpec,
    /// The per-run cluster configuration (limits, quantum, balancing
    /// cadence, portfolio, worker config). `resume` may carry a checkpoint
    /// to continue from; `num_workers`, `failure_timeout`, and
    /// `checkpoint_path` are ignored — the service owns the roster and
    /// keeps preemption checkpoints in memory.
    pub config: ClusterConfig,
}

/// A registry snapshot of one run, as returned by list/status.
#[derive(Clone, Debug)]
pub struct RunInfo {
    /// The run's public id (stable across preemption and reactivation).
    pub id: RunId,
    /// The submitted workload name.
    pub name: String,
    /// Life-cycle state.
    pub state: RunState,
    /// Whether the run was ended by `cancel`.
    pub cancelled: bool,
    /// Paths completed so far (live estimate while running).
    pub paths_completed: u64,
    /// Global line-coverage ratio reached so far.
    pub coverage: f64,
    /// Bugs found so far.
    pub bugs_found: u64,
    /// Wall-clock time spent executing (across activations).
    pub elapsed: Duration,
    /// Jobs frozen in the run's checkpoint, waiting for its next
    /// activation (zero unless preempted or submitted with a resume).
    pub pending_jobs: u64,
}

/// Tuning of the [`RunService`].
#[derive(Clone, Debug)]
pub struct RunServiceConfig {
    /// How many runs may execute concurrently; further submissions queue.
    pub max_concurrent: usize,
    /// Write a per-run `run-<id>.json` report into this directory when a
    /// run finishes.
    pub report_dir: Option<PathBuf>,
}

impl Default for RunServiceConfig {
    fn default() -> RunServiceConfig {
        RunServiceConfig {
            max_concurrent: 2,
            report_dir: None,
        }
    }
}

/// Aggregate totals across every run a service drove to `Done`, returned
/// by [`RunService::run`] at shutdown. Per-run numbers stay in each run's
/// `run-<id>.json` report; this is the roll-up a `--serve` operator reads
/// at the end of the day.
#[derive(Clone, Debug, Default)]
pub struct ServiceSummary {
    /// Runs that reached `Done` (including cancelled ones).
    pub runs_finished: u64,
    /// Paths completed across those runs.
    pub paths_completed: u64,
    /// Bugs found across those runs.
    pub bugs_found: u64,
    /// Solver counters merged across every worker of every finished run
    /// (queries, cache hits, warm hits from imported entries).
    pub solver: c9_solver::SolverStats,
}

enum ServiceRequest {
    Submit(Box<RunSubmission>, Sender<RunId>),
    List(Sender<Vec<RunInfo>>),
    Status(RunId, Sender<Option<RunInfo>>),
    Cancel(RunId, Sender<bool>),
    Preempt(RunId, Sender<bool>),
    Resume(RunId, Sender<bool>),
    Results(RunId, Sender<Option<ClusterRunResult>>),
    Shutdown(Sender<()>),
}

/// A cloneable client of a running [`RunService`]. All calls block until
/// the service's event loop picks the request up (microseconds — the loop
/// never blocks on run execution).
#[derive(Clone)]
pub struct ServiceHandle {
    tx: Sender<ServiceRequest>,
}

impl ServiceHandle {
    /// Submits a run; returns its public id, or `None` if the service is
    /// gone.
    pub fn submit(&self, submission: RunSubmission) -> Option<RunId> {
        let (tx, rx) = unbounded();
        self.tx
            .send(ServiceRequest::Submit(Box::new(submission), tx))
            .ok()?;
        rx.recv().ok()
    }

    /// Lists every run the registry knows, in submission order.
    pub fn list(&self) -> Vec<RunInfo> {
        let (tx, rx) = unbounded();
        if self.tx.send(ServiceRequest::List(tx)).is_err() {
            return Vec::new();
        }
        rx.recv().unwrap_or_default()
    }

    /// Fetches one run's registry snapshot.
    pub fn status(&self, run: RunId) -> Option<RunInfo> {
        let (tx, rx) = unbounded();
        self.tx.send(ServiceRequest::Status(run, tx)).ok()?;
        rx.recv().ok().flatten()
    }

    /// Cancels a queued or running run. Returns whether the run existed in
    /// a cancellable state; a running run transitions through `Draining`
    /// and lands in `Done` with whatever it had explored.
    pub fn cancel(&self, run: RunId) -> bool {
        let (tx, rx) = unbounded();
        self.tx.send(ServiceRequest::Cancel(run, tx)).is_ok() && rx.recv().unwrap_or(false)
    }

    /// Preempts a running run: checkpoints its frontier and frees its
    /// concurrency slot. Returns whether the run was running.
    pub fn preempt(&self, run: RunId) -> bool {
        let (tx, rx) = unbounded();
        self.tx.send(ServiceRequest::Preempt(run, tx)).is_ok() && rx.recv().unwrap_or(false)
    }

    /// Re-queues a preempted run; it reactivates from its checkpoint when a
    /// slot frees up.
    pub fn resume(&self, run: RunId) -> bool {
        let (tx, rx) = unbounded();
        self.tx.send(ServiceRequest::Resume(run, tx)).is_ok() && rx.recv().unwrap_or(false)
    }

    /// Fetches the results of a finished run (`Done`), including its test
    /// cases and bugs.
    pub fn results(&self, run: RunId) -> Option<ClusterRunResult> {
        let (tx, rx) = unbounded();
        self.tx.send(ServiceRequest::Results(run, tx)).ok()?;
        rx.recv().ok().flatten()
    }

    /// Stops the service: every worker gets a service-level `Stop`, active
    /// runs are abandoned, and the event loop returns. Blocks until the
    /// service acknowledged (or is already gone).
    pub fn shutdown(&self) {
        let (tx, rx) = unbounded();
        if self.tx.send(ServiceRequest::Shutdown(tx)).is_ok() {
            let _ = rx.recv();
        }
    }
}

/// One registry entry, owning everything needed to (re)activate the run.
struct RunEntry {
    id: RunId,
    name: String,
    program: Arc<Program>,
    env: EnvSpec,
    config: ClusterConfig,
    state: RunState,
    cancelled: bool,
    /// The frozen state of a preempted run (also carries accumulated
    /// stats/coverage/elapsed across activations, like any resume).
    checkpoint: Option<Checkpoint>,
    /// Test cases and bugs accumulated by finished activations (a
    /// checkpoint carries stats, not artifacts).
    test_cases: Vec<TestCase>,
    bugs: Vec<TestCase>,
    /// Time spent executing in finished activations.
    elapsed: Duration,
    result: Option<ClusterRunResult>,
}

/// One activation of a run: its own coordinator core, addressed through
/// the per-run worker index → service-roster worker id map (identical when
/// the roster is dense, but kept explicit so runs admitted after joins
/// still address the right daemons).
struct ActiveRun {
    public: RunId,
    session: Session,
}

/// Feeds a run-stamped frame to the activation it belongs to; a frame of
/// a finished run, late on the wire, is dropped.
fn route<C: CoordinatorEndpoint>(
    active: &mut [ActiveRun],
    wire: RunId,
    event: Event,
    endpoint: &mut C,
) {
    if let Some(run) = active
        .iter_mut()
        .find(|run| run.session.core.run_id() == wire)
    {
        run.session.feed(event, endpoint);
    }
}

/// The multi-tenant run service. Generic over the transport like the
/// single-run coordinator: the same loop drives in-process channels (tests)
/// and TCP daemons (the `c9-coordinator --serve` front door).
pub struct RunService<C: CoordinatorEndpoint> {
    endpoint: C,
    config: RunServiceConfig,
    /// Service-level membership: the roster of worker daemons. Used only
    /// for identities, addresses, and join admission — per-run fencing and
    /// ledgers live in each run's own membership.
    roster: Membership,
    registry: BTreeMap<u64, RunEntry>,
    queue: VecDeque<RunId>,
    active: Vec<ActiveRun>,
    next_id: u64,
    summary: ServiceSummary,
    rx: Receiver<ServiceRequest>,
    tx: Sender<ServiceRequest>,
}

impl<C: CoordinatorEndpoint> RunService<C> {
    /// Creates a service over `endpoint` with an empty roster; workers
    /// appear via static registration ([`RunService::add_worker`]) or
    /// elastic joins.
    pub fn new(endpoint: C, config: RunServiceConfig) -> RunService<C> {
        let (tx, rx) = unbounded();
        RunService {
            endpoint,
            config,
            roster: Membership::new(None),
            registry: BTreeMap::new(),
            queue: VecDeque::new(),
            active: Vec::new(),
            next_id: 1,
            summary: ServiceSummary::default(),
            rx,
            tx,
        }
    }

    /// Registers a statically connected worker (one the endpoint already
    /// reaches — a dialed daemon, or an in-process worker thread).
    pub fn add_worker(&mut self, addr: String) -> WorkerId {
        let (worker, _) = self.roster.add_static(addr, Instant::now());
        worker
    }

    /// A client handle to this service, cloneable across threads.
    pub fn handle(&self) -> ServiceHandle {
        ServiceHandle {
            tx: self.tx.clone(),
        }
    }

    /// Runs the service event loop until a shutdown request arrives, then
    /// returns the totals aggregated across every finished run.
    pub fn run(mut self) -> ServiceSummary {
        loop {
            // Client requests first: submissions and control operations.
            let mut shutdown: Option<Sender<()>> = None;
            while let Ok(request) = self.rx.try_recv() {
                if let ServiceRequest::Shutdown(ack) = request {
                    shutdown = Some(ack);
                    break;
                }
                self.handle_request(request);
            }
            if let Some(ack) = shutdown {
                for worker in self.roster.alive() {
                    let _ = self
                        .endpoint
                        .send_control(worker, RunId::SERVICE, Control::Stop);
                }
                for run in &mut self.active {
                    warn!("run {} abandoned by service shutdown", run.public);
                }
                for entry in self.registry.values_mut() {
                    if matches!(
                        entry.state,
                        RunState::Queued | RunState::Running | RunState::Draining
                    ) {
                        entry.state = RunState::Failed;
                    }
                }
                let _ = ack.send(());
                return self.summary;
            }

            // Elastic joins extend the roster; runs started afterwards
            // include the newcomers. (Runs in flight keep their roster.)
            // Daemon liveness is not tracked per run — a lost daemon's
            // final report is simply waited for until the drain deadline —
            // so heartbeats and leaves are drained to keep them from
            // piling up.
            self.poll_joins();
            while self.endpoint.try_recv_event().is_some() {}

            // Admission: fill free slots from the queue, in order, once
            // there is a worker to run on.
            while self.active.len() < self.config.max_concurrent.max(1)
                && self.roster.alive_count() > 0
            {
                let Some(id) = self.queue.pop_front() else {
                    break;
                };
                self.activate(id);
            }

            // Status and final frames, routed to the run they are stamped
            // with; a round that saw finals sweeps up the status reports
            // queued behind them before any run can finish.
            let (active, endpoint) = (&mut self.active, &mut self.endpoint);
            drain_statuses(endpoint, |endpoint, report| {
                route(active, report.run, Event::Status(report), endpoint);
            });
            let mut got_final = false;
            while let Some(report) = endpoint.recv_final(Duration::ZERO) {
                route(active, report.run, Event::Final(report), endpoint);
                got_final = true;
            }
            if got_final {
                while let Some(report) = endpoint.recv_status(Duration::ZERO) {
                    route(active, report.run, Event::Status(report), endpoint);
                }
            }

            // Per-run driving: a tick's verdict stops the run, a finished
            // final-report collection folds it back into the registry.
            let mut finished: Vec<usize> = Vec::new();
            for i in 0..self.active.len() {
                let verdict = self.active[i].session.feed(Event::Tick, &mut self.endpoint);
                if let Some(outcome) = verdict {
                    self.stop_active(self.active[i].public, outcome);
                }
                if self.active[i].session.finished {
                    finished.push(i);
                }
            }
            for i in finished.into_iter().rev() {
                let run = self.active.swap_remove(i);
                self.finalize(run);
            }
        }
    }

    fn handle_request(&mut self, request: ServiceRequest) {
        match request {
            ServiceRequest::Submit(submission, reply) => {
                let id = RunId(self.next_id);
                self.next_id += 1;
                let RunSubmission {
                    name,
                    program,
                    env,
                    mut config,
                } = *submission;
                // The service owns the roster and keeps checkpoints in
                // memory; per-run failure detection and disk checkpoints
                // are single-run features.
                config.failure_timeout = None;
                config.checkpoint_path = None;
                let checkpoint = config.resume.take();
                let elapsed = checkpoint.as_ref().map(|c| c.elapsed).unwrap_or_default();
                info!("run {id} submitted: {name}");
                self.registry.insert(
                    id.0,
                    RunEntry {
                        id,
                        name,
                        program,
                        env,
                        config,
                        state: RunState::Queued,
                        cancelled: false,
                        checkpoint,
                        test_cases: Vec::new(),
                        bugs: Vec::new(),
                        elapsed,
                        result: None,
                    },
                );
                self.queue.push_back(id);
                let _ = reply.send(id);
            }
            ServiceRequest::List(reply) => {
                let infos = self
                    .registry
                    .keys()
                    .copied()
                    .collect::<Vec<_>>()
                    .into_iter()
                    .filter_map(|id| self.info(RunId(id)))
                    .collect();
                let _ = reply.send(infos);
            }
            ServiceRequest::Status(id, reply) => {
                let _ = reply.send(self.info(id));
            }
            ServiceRequest::Cancel(id, reply) => {
                let _ = reply.send(self.cancel(id));
            }
            ServiceRequest::Preempt(id, reply) => {
                let _ = reply.send(self.stop_active(id, Outcome::Preempted));
            }
            ServiceRequest::Resume(id, reply) => {
                let ok = match self.registry.get_mut(&id.0) {
                    Some(entry) if entry.state == RunState::Preempted => {
                        entry.state = RunState::Queued;
                        self.queue.push_back(id);
                        info!("run {id} re-queued from its checkpoint");
                        true
                    }
                    _ => false,
                };
                let _ = reply.send(ok);
            }
            ServiceRequest::Results(id, reply) => {
                let _ = reply.send(
                    self.registry
                        .get(&id.0)
                        .and_then(|entry| entry.result.clone()),
                );
            }
            ServiceRequest::Shutdown(_) => unreachable!("handled by the event loop"),
        }
    }

    fn info(&self, id: RunId) -> Option<RunInfo> {
        let entry = self.registry.get(&id.0)?;
        let mut info = RunInfo {
            id,
            name: entry.name.clone(),
            state: entry.state,
            cancelled: entry.cancelled,
            paths_completed: 0,
            coverage: 0.0,
            bugs_found: 0,
            elapsed: entry.elapsed,
            pending_jobs: 0,
        };
        if let Some(result) = &entry.result {
            info.paths_completed = result.summary.paths_completed();
            info.coverage = result.summary.coverage_ratio();
            info.bugs_found = result.summary.bugs_found;
        } else if let Some(checkpoint) = &entry.checkpoint {
            info.paths_completed = checkpoint.base_paths();
            info.coverage = checkpoint.coverage.ratio();
            info.pending_jobs = checkpoint.jobs().len() as u64;
        }
        if let Some(run) = self.active.iter().find(|r| r.public == id) {
            let core = &run.session.core;
            info.paths_completed = core.total_paths();
            info.coverage = core.global_coverage().ratio();
            info.elapsed += core.elapsed(Instant::now());
        }
        Some(info)
    }

    fn cancel(&mut self, id: RunId) -> bool {
        match self.registry.get_mut(&id.0) {
            Some(entry) if entry.state == RunState::Queued => {
                entry.state = RunState::Done;
                entry.cancelled = true;
                entry.result = Some(ClusterRunResult::default());
                self.queue.retain(|queued| *queued != id);
                info!("run {id} cancelled while queued");
                true
            }
            Some(entry) if entry.state == RunState::Preempted => {
                entry.state = RunState::Done;
                entry.cancelled = true;
                // Whatever the preempted activations had explored is the
                // result.
                let mut result = ClusterRunResult {
                    test_cases: std::mem::take(&mut entry.test_cases),
                    bugs: std::mem::take(&mut entry.bugs),
                    ..ClusterRunResult::default()
                };
                if let Some(checkpoint) = entry.checkpoint.take() {
                    result.summary.worker_stats = checkpoint.base_stats;
                    result.summary.coverage = checkpoint.coverage;
                    result.summary.elapsed = entry.elapsed;
                }
                entry.result = Some(result);
                info!("run {id} cancelled while preempted");
                true
            }
            Some(entry) if entry.state == RunState::Running => {
                let _ = entry;
                self.stop_active(id, Outcome::Cancelled)
            }
            _ => false,
        }
    }

    /// Admits elastic joiners into the service roster. A joiner is admitted
    /// at the service level only — runs already in flight keep the roster
    /// they started with; the newcomer participates in runs activated from
    /// now on.
    fn poll_joins(&mut self) {
        while let Some(request) = self.endpoint.try_recv_join() {
            let now = Instant::now();
            let (worker, epoch) =
                self.roster
                    .join(request.listen_addr.clone(), request.previous, now);
            let strategy = c9_vm::StrategyKind::default();
            self.roster.set_strategy(worker, strategy);
            if self
                .endpoint
                .admit(
                    request.token,
                    worker,
                    epoch,
                    self.roster.peer_infos(),
                    strategy,
                )
                .is_err()
            {
                self.roster.mark_dead(worker, now);
                continue;
            }
            info!(
                "worker {worker} joined the service roster ({})",
                request.listen_addr
            );
        }
    }

    /// Stops an active run on every one of its workers and marks it
    /// draining with the given outcome.
    fn stop_active(&mut self, id: RunId, outcome: Outcome) -> bool {
        let Some(run) = self.active.iter_mut().find(|r| r.public == id) else {
            return false;
        };
        if run.session.core.outcome().is_some() {
            return false;
        }
        run.session.feed(Event::Stop(outcome), &mut self.endpoint);
        if let Some(entry) = self.registry.get_mut(&id.0) {
            entry.state = RunState::Draining;
            if outcome == Outcome::Cancelled {
                entry.cancelled = true;
            }
        }
        info!("run {id} draining ({outcome:?})");
        true
    }

    /// Admits a queued run: a fresh coordinator core over the current
    /// roster, started under a fresh wire id.
    fn activate(&mut self, id: RunId) {
        let Some(entry) = self.registry.get_mut(&id.0) else {
            return;
        };
        if entry.state != RunState::Queued {
            return;
        }
        let wire = RunId(self.next_id);
        self.next_id += 1;

        let mut config = entry.config.clone();
        config.resume = entry.checkpoint.take();
        config.num_workers = self.roster.alive_count();

        // Per-run worker ids are dense 0..n in roster order (so every run
        // derives the same per-worker epochs and seeds a solo run of the
        // same configuration would); the roster id at the same position is
        // the transport destination.
        let roster = self.roster.members().iter().filter(|m| m.is_alive());
        let dest = roster.clone().map(|m| m.worker).collect();
        let mut session = Session::new(&config, roster.map(|m| m.addr.clone()), dest);
        let (program, target) = (entry.program.clone(), entry.name.clone());
        let plan = remote_plan(config, program, entry.env, wire, target);
        session.feed(Event::Start(plan), &mut self.endpoint);
        entry.state = RunState::Running;
        info!(
            "run {id} activated as wire run {wire} on {} workers",
            session.core.membership().len()
        );
        self.active.push(ActiveRun {
            public: id,
            session,
        });
    }

    /// Folds a finished activation back into its registry entry: `Done`
    /// with results, `Preempted` with a checkpoint, or `Failed` when every
    /// worker was lost underneath it.
    fn finalize(&mut self, mut run: ActiveRun) {
        let Some(entry) = self.registry.get_mut(&run.public.0) else {
            return;
        };
        let core = &mut run.session.core;
        let outcome = core.outcome();
        let preempted = outcome == Some(Outcome::Preempted);
        let checkpoint = preempted.then(|| core.checkpoint(Instant::now()));
        let ClusterRunResult {
            mut summary,
            test_cases,
            bugs,
        } = core.take_result();
        entry.elapsed += summary.elapsed;
        entry.test_cases.extend(test_cases);
        entry.bugs.extend(bugs);

        if preempted {
            entry.checkpoint = checkpoint.map(|mut checkpoint| {
                checkpoint.run = entry.id;
                checkpoint
            });
            entry.state = RunState::Preempted;
            info!(
                "run {} preempted ({} pending jobs frozen)",
                entry.id,
                entry.checkpoint.as_ref().map_or(0, |c| c.jobs().len())
            );
            return;
        }
        if outcome == Some(Outcome::Lost) {
            entry.state = RunState::Failed;
            warn!("run {} failed: every worker was lost", entry.id);
            return;
        }

        summary.bugs_found = entry.bugs.len() as u64;
        let result = ClusterRunResult {
            summary,
            test_cases: std::mem::take(&mut entry.test_cases),
            bugs: std::mem::take(&mut entry.bugs),
        };
        entry.state = RunState::Done;
        self.summary.runs_finished += 1;
        self.summary.paths_completed += result.summary.paths_completed();
        self.summary.bugs_found += result.summary.bugs_found;
        self.summary.solver.merge(&result.summary.solver_stats());
        info!(
            "run {} done: {} paths, {} bugs{}",
            entry.id,
            result.summary.paths_completed(),
            result.summary.bugs_found,
            if entry.cancelled { " (cancelled)" } else { "" }
        );
        if let Some(dir) = &self.config.report_dir {
            let path = dir.join(format!("run-{}.json", entry.id.0));
            if let Err(e) = crate::report::write_run_report(&path, entry.id, &result.summary) {
                warn!("cannot write per-run report {}: {e}", path.display());
            }
        }
        entry.result = Some(result);
    }
}

/// Runs a [`RunService`] over an in-process cluster of `num_workers`
/// multi-run worker loops ([`WorkerService`](crate::WorkerService)), hands
/// a [`ServiceHandle`] to `f`, and tears the whole thing down when `f`
/// returns. The in-process analogue of `c9-coordinator --serve` plus a
/// fleet of `c9-worker` daemons — tests drive multi-tenant scenarios
/// through it without sockets.
pub fn serve_inproc<F, G, R>(
    num_workers: usize,
    config: RunServiceConfig,
    env_factory: F,
    f: G,
) -> R
where
    F: Fn(EnvSpec) -> Arc<dyn c9_vm::Environment> + Send + Sync + Clone,
    G: FnOnce(ServiceHandle) -> R,
{
    use c9_net::{InProcTransport, Transport};
    let endpoints = InProcTransport
        .establish(num_workers.max(1))
        .expect("in-process transport establish failed");
    let mut service = RunService::new(endpoints.coordinator, config);
    for _ in 0..num_workers.max(1) {
        service.add_worker(String::new());
    }
    let handle = service.handle();
    std::thread::scope(|scope| {
        let mut joins = Vec::new();
        for mut endpoint in endpoints.workers {
            let factory = env_factory.clone();
            joins.push(scope.spawn(move || {
                crate::WorkerService::new(&mut endpoint, move |spec| factory(spec)).serve();
            }));
        }
        let driver = scope.spawn(move || service.run());
        let result = f(handle.clone());
        // Idempotent: `f` may have shut the service down already.
        handle.shutdown();
        driver.join().expect("service thread panicked");
        for join in joins {
            join.join().expect("worker thread panicked");
        }
        result
    })
}
