//! The coordinator protocol of §3.3 as one sans-IO state machine.
//!
//! A [`CoordinatorCore`] owns everything a coordinator keeps per run — the
//! membership ledger, the load balancer, the strategy portfolio, the
//! cluster hot set, the cadence stamps, and the run summary under
//! construction — and is driven only through [`CoordinatorCore::handle`]:
//! an [`Event`] and the caller's clock reading go in, [`Command`]s come
//! out. It never reads a clock, sleeps, spawns, or touches a transport, so
//! every protocol decision (join admission, the status drain body, crash
//! recovery, the balance + portfolio round, the gossip fold, the stopping
//! predicates, final-report collection, checkpoint construction) exists
//! exactly once and can be stepped by hand in a unit test.
//!
//! Three drivers feed it: [`Cluster`](crate::Cluster) (one run over local
//! threads or remote daemons), [`RunService`](crate::RunService) (one core
//! per active run, multiplexed over a shared roster), and
//! [`SubCoordinator`](crate::SubCoordinator) (a group whose upward half
//! lives in the federation module). They differ in *which events they
//! feed*, never in a mode flag here: a sub-coordinator simply never turns
//! the verdict of a [`Event::Tick`] into an [`Event::Stop`].

use crate::balancer::{LoadBalancer, TransferRequest};
use crate::cluster::{ClusterConfig, ClusterRunResult, GOSSIP_SLICE_MAX};
use crate::membership::{Checkpoint, Membership};
use crate::portfolio::{derive_seed, Portfolio};
use crate::stats::{ClusterSummary, IntervalSample};
use c9_net::{
    Control, FinalReport, JobTree, JoinRequest, MemberEvent, PeerInfo, RunId, RunSpec,
    StatusReport, WorkerId, WorkerStats,
};
use c9_solver::CacheSlice;
use c9_trace::{debug, info, warn, Span, SpanKind};
use c9_vm::{CoverageSet, StrategyKind, TestCase};
use std::collections::{BTreeSet, VecDeque};
use std::time::{Duration, Instant};

/// Entry bound of the merged "cluster hot set"; its hottest
/// [`GOSSIP_SLICE_MAX`] entries are rebroadcast to every worker.
const HOT_SET_MAX: usize = 1024;

/// The gossip fold-and-rebroadcast runs every this-many balance
/// intervals. Folding is cheap but rebroadcasting serializes the hot-set
/// excerpt once per worker; at aggressive balance cadences (single-digit
/// milliseconds) doing that every interval costs more than the warmth it
/// spreads.
const GOSSIP_FOLD_EVERY: u32 = 8;

/// Bound on parked, not-yet-folded gossip slices; beyond it the oldest
/// slice is dropped. Gossip is opportunistic warmth — losing a stale
/// slice under pressure is always safe.
const PENDING_GOSSIP_MAX: usize = 128;

/// Builds the run spec of one member from its identity, fencing epoch and
/// portfolio strategy. The driver supplies it, so the core never learns
/// what a program or an environment model is.
pub(crate) type SpecFn = Box<dyn Fn(&ClusterConfig, WorkerId, u64, StrategyKind) -> RunSpec + Send>;

/// Everything that defines one run, handed over with [`Event::Start`].
pub(crate) struct RunPlan {
    /// The identity stamped on every frame of the run.
    pub run: RunId,
    /// Workload name recorded in checkpoints.
    pub target: String,
    /// Coverage lines of the program under test.
    pub num_lines: usize,
    /// Limits, cadences, balancer and portfolio parameters, resume state.
    /// Checkpoints are constructed iff `checkpoint_path` is set (writing
    /// them is the driver's job).
    pub config: ClusterConfig,
    /// How long final reports are awaited after [`Event::Stop`].
    pub final_timeout: Duration,
    /// `None` when the members are started out of band (locally hosted
    /// worker threads): no `Start` or peer-table frames are emitted then.
    pub spec_for: Option<SpecFn>,
}

/// Why a run stops: the verdict of a tick, or an outside decision.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Outcome {
    /// Every path was explored.
    Exhausted,
    /// The coverage target or the path limit was reached.
    Goal,
    /// The time limit expired.
    TimeLimit,
    /// Every member died; nobody is left to take the reclaimed jobs.
    Lost,
    /// Stopped from outside for good (a service cancel, the root's `Stop`).
    Cancelled,
    /// Stopped from outside to be resumed from its checkpoint.
    Preempted,
}

/// Which delivery failed, for [`Event::SendFailed`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Delivery {
    /// An `Admit` or `Start`: the member never became part of the run.
    Handshake,
    /// The `Inject` with this sequence number.
    Inject(u64),
}

/// What a driver observed.
pub(crate) enum Event {
    /// A worker asks to join (before or during the run).
    Join(JoinRequest),
    /// A heartbeat or a graceful leave.
    Member(MemberEvent),
    /// The run begins: every live member gets its strategy and spec.
    Start(Box<RunPlan>),
    /// A status report.
    Status(StatusReport),
    /// A final report.
    Final(FinalReport),
    /// Time passed: cadences, failure detector, stopping predicates.
    Tick,
    /// Stop the run and collect the final reports.
    Stop(Outcome),
    /// A command addressed to `worker` could not be delivered.
    SendFailed { worker: WorkerId, what: Delivery },
}

/// What a driver must do. Worker ids are the run's own; a driver whose
/// transport addresses differ maps them when it executes the command.
pub(crate) enum Command {
    /// Acknowledge a join.
    Admit {
        token: u64,
        worker: WorkerId,
        epoch: u64,
        peers: Vec<PeerInfo>,
        strategy: StrategyKind,
    },
    /// Ship a member its run spec.
    Start(WorkerId, Box<RunSpec>),
    /// Send a run-scoped control message.
    Control(WorkerId, Control),
    /// Persist this checkpoint.
    WriteCheckpoint(Box<Checkpoint>),
    /// Final-report collection is over; the result can be taken.
    Finished,
}

/// The coordinator state machine; see the module docs.
pub(crate) struct CoordinatorCore {
    membership: Membership,
    portfolio: Portfolio,
    /// A placeholder until `Start` delivers the real one.
    plan: RunPlan,
    lb: LoadBalancer,
    /// When the run started (`None` before `Start`). The cadence stamps
    /// below are offsets from it.
    started: Option<Instant>,
    last_balance: Duration,
    last_sample: Duration,
    last_gossip: Duration,
    last_checkpoint: Duration,
    transferred_at_last_sample: u64,
    /// Members that ever reported a non-empty queue.
    had_work: BTreeSet<WorkerId>,
    /// The union of every member's gossiped cache slices, hotness-ranked
    /// and bounded. Received slices are parked in `pending_gossip` and
    /// folded in on the balance cadence — merging per report would starve
    /// the status drain at tight report intervals.
    hot_set: CacheSlice,
    pending_gossip: VecDeque<CacheSlice>,
    hot_set_learned: u64,
    summary: ClusterSummary,
    test_cases: Vec<TestCase>,
    bugs: Vec<TestCase>,
    /// Set by `Stop`: the outcome and the deadline for final reports.
    stop: Option<(Outcome, Instant)>,
    finished: bool,
}

impl CoordinatorCore {
    /// A core with no members and no run; `config` supplies the failure
    /// timeout and the portfolio for members admitted before `Start`.
    pub fn new(config: &ClusterConfig) -> CoordinatorCore {
        CoordinatorCore {
            membership: Membership::new(config.failure_timeout),
            portfolio: Portfolio::new(config.portfolio_config()),
            lb: LoadBalancer::new(0, 0, config.balancer),
            plan: RunPlan {
                run: RunId::SERVICE,
                target: String::new(),
                num_lines: 0,
                config: config.clone(),
                final_timeout: Duration::ZERO,
                spec_for: None,
            },
            started: None,
            last_balance: Duration::ZERO,
            last_sample: Duration::ZERO,
            last_gossip: Duration::ZERO,
            last_checkpoint: Duration::ZERO,
            transferred_at_last_sample: 0,
            had_work: BTreeSet::new(),
            hot_set: CacheSlice::default(),
            pending_gossip: VecDeque::new(),
            hot_set_learned: 0,
            summary: ClusterSummary::default(),
            test_cases: Vec::new(),
            bugs: Vec::new(),
            stop: None,
            finished: false,
        }
    }

    /// Registers a member the driver is already connected to.
    pub fn add_static(&mut self, addr: String, now: Instant) -> WorkerId {
        let (worker, _) = self.membership.add_static(addr, now);
        self.draw_strategy(worker);
        worker
    }

    fn draw_strategy(&mut self, worker: WorkerId) -> StrategyKind {
        let strategy = self.portfolio.assign(worker);
        self.membership.set_strategy(worker, strategy);
        strategy
    }

    /// Advances the state machine by one event observed at `now`, pushing
    /// the resulting commands onto `out`. Only [`Event::Tick`] returns
    /// something: its verdict, when a stopping predicate holds. The driver
    /// decides whether to feed it back as [`Event::Stop`].
    pub fn handle(
        &mut self,
        event: Event,
        now: Instant,
        out: &mut Vec<Command>,
    ) -> Option<Outcome> {
        match event {
            Event::Join(request) => self.on_join(request, now, out),
            Event::Member(MemberEvent::Heartbeat { worker, epoch }) => {
                self.membership.record_heartbeat(worker, epoch, now);
            }
            Event::Member(MemberEvent::Leave { worker, epoch }) => {
                // Once the run is stopping a leave says nothing the member's
                // final report does not (a daemon leaves right after sending
                // it), and applied first it would fence that report off.
                if self.stop.is_none() && self.membership.leave(worker, epoch, now) {
                    info!("worker {worker} left gracefully");
                }
            }
            Event::Start(plan) => self.on_start(*plan, now, out),
            Event::Status(report) => self.on_status(report, now, out),
            Event::Final(report) => self.on_final(report, now),
            Event::Tick => return self.on_tick(now, out),
            Event::Stop(outcome) => self.on_stop(outcome, now, out),
            // The balancer and the portfolio learn of a death on the next
            // tick's liveness sync.
            Event::SendFailed { worker, what } => match what {
                Delivery::Handshake => self.membership.mark_dead(worker, now),
                Delivery::Inject(seq) => self.membership.cancel_inject(worker, seq),
            },
        }
        None
    }

    /// Admits a joiner: identity, epoch and portfolio strategy, the
    /// acknowledgement, and — once the run is underway — its run spec and
    /// the new peer table for everyone else, so it is folded into the next
    /// balancing round. Drivers stop feeding joins once they fed `Stop`.
    fn on_join(&mut self, request: JoinRequest, now: Instant, out: &mut Vec<Command>) {
        if self.stop.is_some() {
            return;
        }
        let (worker, epoch) =
            self.membership
                .join(request.listen_addr.clone(), request.previous, now);
        // A fenced previous incarnation gives its strategy slot back
        // before the new incarnation draws one, so a crash-rejoin cycle
        // keeps the portfolio spread stable. (A `previous` naming a
        // still-live member was not fenced and keeps its slot.)
        if let Some((old, _)) = request.previous {
            if self.membership.member(old).is_some_and(|m| !m.is_alive()) {
                self.portfolio.remove(old);
            }
        }
        let strategy = self.draw_strategy(worker);
        let peers = self.membership.peer_infos();
        out.push(Command::Admit {
            token: request.token,
            worker,
            epoch,
            peers: peers.clone(),
            strategy,
        });
        info!(
            "worker {worker} joined (epoch {epoch}, {}, strategy {strategy})",
            request.listen_addr
        );
        if self.started.is_none() {
            return;
        }
        self.summary.workers_joined += 1;
        self.ship_spec((worker, epoch), strategy, out);
        // Everyone learns the new peer table (and the fenced epochs of
        // any previous incarnation).
        for peer in self.membership.alive() {
            if peer != worker {
                out.push(Command::Control(peer, Control::Membership(peers.clone())));
            }
        }
    }

    fn ship_spec(&self, id: (WorkerId, u64), strategy: StrategyKind, out: &mut Vec<Command>) {
        if let Some(spec_for) = &self.plan.spec_for {
            let spec = spec_for(&self.plan.config, id.0, id.1, strategy);
            out.push(Command::Start(id.0, Box::new(spec)));
        }
    }

    /// Starts the run over the members admitted so far: the portfolio is
    /// rebuilt from the plan (restoring a resumed run's yield history) and
    /// spread over the live members in id order, every member is shipped
    /// its spec, then the peer table as of this moment, and a resumed
    /// frontier is pooled for re-injection.
    fn on_start(&mut self, plan: RunPlan, now: Instant, out: &mut Vec<Command>) {
        self.plan = plan;
        let config = &self.plan.config;
        self.portfolio = Portfolio::new(config.portfolio_config());
        self.lb = LoadBalancer::new(self.membership.len(), self.plan.num_lines, config.balancer);
        if let Some(resume) = &config.resume {
            self.portfolio.restore(&resume.portfolio);
            self.lb.merge_coverage(&resume.coverage);
            self.membership.seed_pool(resume.jobs());
        }
        self.summary.num_workers = self.membership.len();
        self.summary.coverage = CoverageSet::new(self.plan.num_lines);
        self.started = Some(now);
        for member in self.membership.members().to_vec() {
            if member.is_alive() {
                let strategy = self.draw_strategy(member.worker);
                self.ship_spec((member.worker, member.epoch), strategy, out);
            }
        }
        if self.plan.spec_for.is_some() {
            self.broadcast(Control::Membership(self.membership.peer_infos()), out);
        }
    }

    /// The status drain body. Frames of another run, a fenced epoch or a
    /// dead member change nothing; while final reports are being collected
    /// a report contributes only its transfer notices (without them a
    /// batch exported right before the shutdown would be missing from the
    /// in-flight table — and from the final checkpoint).
    fn on_status(&mut self, report: StatusReport, now: Instant, out: &mut Vec<Command>) {
        if report.run != self.plan.run || !self.membership.record_status(&report, now) {
            return;
        }
        if self.stop.is_some() {
            return;
        }
        let w = report.worker;
        if report.queue_length > 0 {
            self.had_work.insert(w);
        }
        let (global, newly_covered) = self.lb.report(w, report.queue_length, &report.coverage);
        // Per-strategy yield: the lines this report added to the global
        // vector are credited to the strategy the worker stamped on it.
        self.portfolio.record_yield(report.strategy, newly_covered);
        out.push(Command::Control(w, Control::GlobalCoverage(global)));
        if let Some(gossip) = report.gossip {
            if self.pending_gossip.len() >= PENDING_GOSSIP_MAX {
                self.pending_gossip.pop_front();
            }
            self.pending_gossip.push_back(gossip);
        }
    }

    fn on_final(&mut self, report: FinalReport, now: Instant) {
        if report.run == self.plan.run && self.membership.record_final(&report, now) {
            self.summary.coverage.merge(&report.coverage);
            self.summary.bugs_found += report.bugs.len() as u64;
            self.test_cases.extend(report.test_cases);
            self.bugs.extend(report.bugs);
        }
    }

    fn on_stop(&mut self, outcome: Outcome, now: Instant, out: &mut Vec<Command>) {
        if self.started.is_none() || self.stop.is_some() {
            return;
        }
        self.summary.goal_reached = matches!(outcome, Outcome::Exhausted | Outcome::Goal);
        self.summary.exhausted = outcome == Outcome::Exhausted;
        self.sample(self.elapsed(now));
        self.stop = Some((outcome, now + self.plan.final_timeout));
        self.broadcast(Control::Stop, out);
    }

    fn on_tick(&mut self, now: Instant, out: &mut Vec<Command>) -> Option<Outcome> {
        if self.started.is_none() || self.finished {
            return None;
        }
        // Collecting final reports: the failure detector keeps running so
        // a member that dies during shutdown cannot stall the collection
        // for the full timeout.
        if let Some((_, deadline)) = self.stop {
            for worker in self.membership.detect_failures(now) {
                self.summary.workers_failed += 1;
                warn!("worker {worker} died during shutdown");
            }
            let members = self.membership.members();
            let outstanding = members.iter().any(|m| m.is_alive() && !m.got_final);
            if !outstanding || now >= deadline {
                self.finish(now, out);
            }
            return None;
        }

        // The pool is re-injected *before* the failure detector runs, so
        // jobs reclaimed on one tick are handed out on the next: every
        // acknowledgement or transfer outcome already queued gets one full
        // status drain to resolve its in-flight entry first — re-injecting
        // a batch some survivor just confirmed would double-count its
        // paths.
        self.reinject(now, out);
        for worker in self.membership.detect_failures(now) {
            self.summary.workers_failed += 1;
            warn!("worker {worker} declared dead (missed heartbeats); reclaiming its pending jobs");
        }
        // Membership is the source of truth for liveness — members also
        // die outside the detector (re-join fencing, failed handshakes,
        // leaves) — so sync the balancer and the portfolio every tick.
        for member in self.membership.members() {
            if member.is_alive() {
                self.lb.ensure_worker(member.worker);
            } else {
                self.lb.set_alive(member.worker, false);
                self.portfolio.remove(member.worker);
            }
        }

        let elapsed = self.elapsed(now);
        let config = &self.plan.config;
        let goal = config
            .coverage_target
            .is_some_and(|target| self.lb.global_coverage().ratio() >= target)
            || config
                .max_total_paths
                .is_some_and(|max| self.total_paths() >= max);
        let verdict = if self.quiescent() {
            Some(Outcome::Exhausted)
        } else if goal {
            Some(Outcome::Goal)
        } else if self.membership.alive_count() == 0 && !self.membership.is_empty() {
            Some(Outcome::Lost)
        } else if config.time_limit.is_some_and(|limit| elapsed >= limit) {
            Some(Outcome::TimeLimit)
        } else {
            None
        };

        if elapsed.saturating_sub(self.last_sample) >= config.sample_interval {
            self.sample(elapsed);
        }
        // Periodic checkpoint: the ledger union is the global frontier.
        let config = &self.plan.config;
        if config.checkpoint_path.is_some()
            && elapsed.saturating_sub(self.last_checkpoint) >= config.checkpoint_interval
        {
            out.push(Command::WriteCheckpoint(Box::new(self.checkpoint(now))));
            self.last_checkpoint = elapsed;
        }
        if verdict.is_some() {
            return verdict;
        }

        // Cache gossip: fold the slices received since the last fold into
        // the hot set in one batch, and rebroadcast only when the fold
        // actually learned new entries — hot-bit churn alone is not worth
        // a cluster-wide broadcast. The broadcast ships only the hottest
        // excerpt. This runs even when load balancing is disabled (static
        // partitions still profit from shared cache warmth).
        if elapsed.saturating_sub(self.last_gossip) >= config.balance_interval * GOSSIP_FOLD_EVERY
            && !self.pending_gossip.is_empty()
        {
            let mut added = 0;
            for slice in self.pending_gossip.drain(..) {
                added += self.hot_set.merge(&slice);
            }
            self.hot_set.truncate_ranked(HOT_SET_MAX);
            if let Some(excerpt) = (added > 0).then(|| self.hot_excerpt()).flatten() {
                self.hot_set_learned += added;
                self.broadcast(Control::HotSet(excerpt), out);
            }
            self.last_gossip = elapsed;
        }

        // Load balancing, unless an ablation switched it off.
        let mut alive = self.membership.members().iter().filter(|m| m.is_alive());
        let lb_disabled_by_time = config.disable_lb_after.is_some_and(|d| elapsed >= d);
        let lb_disabled_static =
            config.static_partition && alive.all(|m| self.had_work.contains(&m.worker));
        if !lb_disabled_by_time
            && !lb_disabled_static
            && elapsed.saturating_sub(self.last_balance) >= config.balance_interval
        {
            let mut round = Span::enter(SpanKind::BalanceRound);
            let requests = self.lb.balance();
            round.detail(requests.len() as u64);
            for TransferRequest {
                source,
                destination,
                count,
            } in requests
            {
                let msg = Control::Balance { destination, count };
                out.push(Command::Control(source, msg));
            }
            drop(round);
            // Portfolio adaptation rides the same cadence: strategies that
            // stopped yielding new coverage lose a worker to the one
            // currently yielding the most.
            for (worker, strategy) in self.portfolio.rebalance() {
                let Some(member) = self.membership.member(worker) else {
                    continue;
                };
                let seed = derive_seed(config.worker.seed, worker, member.epoch)
                    ^ self.portfolio.rebalances();
                self.membership.set_strategy(worker, strategy);
                self.summary.strategy_rebalances += 1;
                info!("portfolio rebalance: worker {worker} reassigned to strategy {strategy}");
                let msg = Control::SetStrategy { strategy, seed };
                out.push(Command::Control(worker, msg));
            }
            self.last_balance = elapsed;
        }
        None
    }

    /// Distributes the re-injection pool (reclaimed, resumed or uplink
    /// jobs) across the live members, least-loaded first.
    fn reinject(&mut self, now: Instant, out: &mut Vec<Command>) {
        let jobs = self.membership.take_pool();
        if jobs.is_empty() {
            return;
        }
        let members = self.membership.members().iter();
        let mut targets: Vec<(u64, WorkerId)> = members
            .filter(|m| m.is_alive())
            .map(|m| (m.queue_length, m.worker))
            .collect();
        if targets.is_empty() {
            // No survivors to hand the work to; keep it pooled (a joiner
            // may still arrive).
            self.membership.seed_pool(jobs);
            return;
        }
        targets.sort();
        self.summary.jobs_reclaimed += jobs.len() as u64;
        let chunk_size = jobs.len().div_ceil(targets.len());
        let chunks = jobs.len().div_ceil(chunk_size);
        let mut jobs = jobs.into_iter();
        for (_, destination) in targets.into_iter().take(chunks) {
            let chunk: Vec<_> = jobs.by_ref().take(chunk_size).collect();
            let encoded = JobTree::from_jobs(&chunk).encode();
            let seq = self.membership.record_inject(destination, chunk, now);
            let msg = Control::Inject { seq, encoded };
            out.push(Command::Control(destination, msg));
        }
    }

    fn sample(&mut self, elapsed: Duration) {
        let transferred_now = self.lb.total_transferred();
        let members = self.membership.members().iter();
        let sample = IntervalSample {
            elapsed,
            states_transferred: transferred_now - self.transferred_at_last_sample,
            total_states: self.lb.queue_lengths().iter().sum(),
            useful_instructions: members.map(|m| m.latest_stats.useful_instructions).sum(),
            coverage: self.lb.global_coverage().ratio(),
        };
        // The run's heartbeat for an operator watching stderr — and the
        // progress signal the fault-injection tests fire on.
        debug!(
            "progress: {} paths, {} states queued, {} workers alive",
            self.total_paths(),
            sample.total_states,
            self.membership.alive_count()
        );
        self.summary.timeline.push(sample);
        self.transferred_at_last_sample = transferred_now;
        self.last_sample = elapsed;
    }

    /// Every member's exact share of the work, after a resumed run's prior
    /// stats: final stats when the report arrived, the last
    /// snapshot-consistent stats otherwise (a dead member's post-snapshot
    /// work was re-executed elsewhere).
    fn worker_stats(&self) -> Vec<WorkerStats> {
        let resume = self.plan.config.resume.as_ref();
        let mut stats = resume.map(|c| c.base_stats.clone()).unwrap_or_default();
        let members = self.membership.members().iter();
        stats.extend(members.map(|m| m.summary_stats().clone()));
        stats
    }

    /// The frozen state of the run as of `now`: completed work, pending
    /// frontier, coverage, portfolio history.
    pub fn checkpoint(&self, now: Instant) -> Checkpoint {
        let mut span = Span::enter(SpanKind::Checkpoint);
        let resume = self.plan.config.resume.as_ref();
        let mut coverage = self.lb.global_coverage().clone();
        coverage.merge(&self.summary.coverage);
        let frontier = self.membership.frontier_jobs();
        span.detail(frontier.len() as u64);
        Checkpoint {
            run: self.plan.run,
            target: self.plan.target.clone(),
            base_stats: self.worker_stats(),
            frontier: JobTree::from_jobs(&frontier).encode(),
            coverage,
            elapsed: resume.map(|c| c.elapsed).unwrap_or_default() + self.elapsed(now),
            portfolio: self.portfolio.checkpoint(),
        }
    }

    /// Closes the run. A member without a final contributes, besides its
    /// snapshot stats, the bugs it shipped eagerly with its snapshots —
    /// the completed paths they sit on are never re-explored, so this is
    /// the only surviving record.
    fn finish(&mut self, now: Instant, out: &mut Vec<Command>) {
        self.summary.coverage.merge(self.lb.global_coverage());
        self.summary.worker_stats = self.worker_stats();
        for member in self.membership.members().iter().filter(|m| !m.got_final) {
            self.summary.bugs_found += member.status_bugs.len() as u64;
            self.bugs.extend(member.status_bugs.iter().cloned());
        }
        self.summary.num_workers = self.membership.len().max(1);
        self.summary.elapsed = self.elapsed(now);
        // The final checkpoint reflects the finals' frontiers, so a run
        // stopped by a time or path limit resumes exactly where it left
        // off.
        if self.plan.config.checkpoint_path.is_some() {
            out.push(Command::WriteCheckpoint(Box::new(self.checkpoint(now))));
        }
        self.finished = true;
        out.push(Command::Finished);
    }

    /// Sends `msg` to every live member.
    pub fn broadcast(&self, msg: Control, out: &mut Vec<Command>) {
        for worker in self.membership.alive() {
            out.push(Command::Control(worker, msg.clone()));
        }
    }

    /// The membership ledger.
    pub fn membership(&self) -> &Membership {
        &self.membership
    }

    /// The run's wire id ([`RunId::SERVICE`] before the run started).
    pub fn run_id(&self) -> RunId {
        self.plan.run
    }

    /// The outcome `Stop` was fed with, while finals are collected and
    /// afterwards.
    pub fn outcome(&self) -> Option<Outcome> {
        self.stop.map(|(outcome, _)| outcome)
    }

    /// The run summary under construction.
    pub fn summary(&self) -> &ClusterSummary {
        &self.summary
    }

    /// The global coverage vector.
    pub fn global_coverage(&self) -> &CoverageSet {
        self.lb.global_coverage()
    }

    /// Paths completed so far, including a resumed run's prior ones (a
    /// live estimate that may run ahead of the recovery-exact count).
    pub fn total_paths(&self) -> u64 {
        let resume = self.plan.config.resume.as_ref();
        let live = self.membership.members().iter().map(|m| {
            let latest = if m.is_alive() {
                m.latest_stats.paths_completed
            } else {
                0
            };
            m.summary_stats().paths_completed.max(latest)
        });
        resume.map_or(0, Checkpoint::base_paths) + live.sum::<u64>()
    }

    /// Time since the run started (zero before).
    pub fn elapsed(&self, now: Instant) -> Duration {
        self.started
            .map_or(Duration::ZERO, |started| now.duration_since(started))
    }

    /// Whether the run is exhausted as far as this coordinator can see:
    /// every live member idle with an empty queue, nothing in flight and
    /// nothing awaiting re-injection.
    pub fn quiescent(&self) -> bool {
        let mut alive = self.membership.members().iter().filter(|m| m.is_alive());
        let all_idle =
            alive.clone().next().is_some() && alive.all(|m| m.idle && m.queue_length == 0);
        all_idle && self.lb.all_idle() && self.membership.settled()
    }

    /// The run's results; meaningful once [`Command::Finished`] was issued.
    pub fn take_result(&mut self) -> ClusterRunResult {
        ClusterRunResult {
            summary: std::mem::take(&mut self.summary),
            test_cases: std::mem::take(&mut self.test_cases),
            bugs: std::mem::take(&mut self.bugs),
        }
    }

    /// The hottest excerpt of the hot set (`None` while it is empty).
    pub fn hot_excerpt(&self) -> Option<CacheSlice> {
        let mut excerpt = self.hot_set.clone();
        excerpt.truncate_ranked(GOSSIP_SLICE_MAX);
        (!excerpt.is_empty()).then_some(excerpt)
    }

    /// How many entries the gossip folds have learned in total — a cheap
    /// version stamp for "did the hot set grow since I last looked".
    pub fn hot_set_learned(&self) -> u64 {
        self.hot_set_learned
    }

    /// The ledger, for pooling jobs that arrived from above (a root
    /// `Inject`, a sibling's batch, an unwanted harvest — the next tick
    /// hands them to members) and taking the members' harvest exports.
    pub fn membership_mut(&mut self) -> &mut Membership {
        &mut self.membership
    }

    /// Merges coverage learned above this coordinator.
    pub fn merge_coverage(&mut self, coverage: &CoverageSet) {
        self.lb.merge_coverage(coverage);
    }

    /// Puts every live member on `strategy`, each reseeded from `seed`.
    pub fn override_strategy(&mut self, strategy: StrategyKind, seed: u64, out: &mut Vec<Command>) {
        for member in self.membership.members().to_vec() {
            if member.is_alive() {
                self.membership.set_strategy(member.worker, strategy);
                let seed = derive_seed(seed, member.worker, member.epoch);
                let msg = Control::SetStrategy { strategy, seed };
                out.push(Command::Control(member.worker, msg));
            }
        }
    }
}

#[cfg(test)]
#[path = "coordinator_tests.rs"]
mod tests;
