//! The coordinator protocol of §3.3 as one sans-IO state machine.
//!
//! A [`CoordinatorCore`] owns everything a coordinator keeps per run — the
//! membership ledger, the load balancer, the sample and checkpoint
//! stamps, the members awaiting a requested batch, and the run summary
//! under construction — and is driven only through
//! [`CoordinatorCore::handle`]: an [`Event`] and the caller's clock reading
//! go in, [`Command`]s come out. It never reads a clock, sleeps, spawns, or
//! touches a transport, so every protocol decision (join admission, the
//! status report body, crash recovery, the balance round, the stopping
//! predicates, last-report collection, checkpoint construction) exists
//! exactly once and can be stepped by hand in a unit test.
//!
//! Each member's joins, reports and leaves arrive in the order it sent
//! them (the frames of different members interleave arbitrarily), and its
//! last report closes its stream: nothing that incarnation sends later
//! changes the run.
//!
//! One driver feeds it: [`Cluster`](crate::Cluster), for one run over local
//! threads or remote daemons. Both deployments admit every member through
//! [`Event::Join`] and start it with the run spec the plan builds for it;
//! nothing here knows which one it drives.

use crate::balancer::{LoadBalancer, TransferRequest};
use crate::cluster::{ClusterConfig, ClusterRunResult};
use crate::membership::{Checkpoint, Membership};
use crate::stats::{ClusterSummary, IntervalSample};
use c9_net::{
    Control, Inbound, JobTree, JoinRequest, PeerInfo, RunSpec, StatusReport, TransferEvent,
    WorkerId, WorkerStats,
};
use c9_trace::{debug, info, warn, Span, SpanKind};
use c9_vm::{CoverageSet, TestCase};
use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

/// How often a run with a `checkpoint_path` writes its periodic checkpoint.
const CHECKPOINT_INTERVAL: Duration = Duration::from_secs(1);

/// Builds the run spec of one member from its identity and fencing epoch.
/// The driver supplies it, so the core never learns what a program or an
/// environment model is.
pub(crate) type SpecFn = Box<dyn Fn(&ClusterConfig, WorkerId, u64) -> RunSpec + Send>;

/// Everything that defines one run, handed over with [`Event::Start`].
pub(crate) struct RunPlan {
    /// Workload name recorded in checkpoints.
    pub target: String,
    /// Coverage lines of the program under test.
    pub num_lines: usize,
    /// Limits, cadences, resume state.
    /// Checkpoints are constructed iff `checkpoint_path` is set (writing
    /// them is the driver's job).
    pub config: ClusterConfig,
    /// How long last reports are awaited after [`Event::Stop`].
    pub final_timeout: Duration,
    /// The spec every member is started with.
    pub spec_for: SpecFn,
}

/// Why a run stops: the verdict of a tick.
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
// Reports are nearly every event; boxing them would allocate per report.
#[allow(clippy::large_enum_variant)]
pub(crate) enum Event {
    /// A worker asks to join (before or during the run).
    Join(JoinRequest),
    /// A liveness heartbeat.
    Heartbeat { worker: WorkerId, epoch: u64 },
    /// A graceful leave.
    Leave { worker: WorkerId, epoch: u64 },
    /// The run begins: every live member gets its spec.
    Start(Box<RunPlan>),
    /// A status report; a member's last one is its final report.
    Status(StatusReport),
    /// Time passed: cadences, failure detector, stopping predicates.
    Tick,
    /// Stop the run and collect the last reports.
    Stop(Outcome),
    /// A command addressed to `worker` could not be delivered.
    SendFailed { worker: WorkerId, what: Delivery },
}

impl From<Inbound> for Event {
    fn from(frame: Inbound) -> Event {
        match frame {
            Inbound::Join(request) => Event::Join(request),
            Inbound::Status(report) => Event::Status(report),
            Inbound::Leave { worker, epoch } => Event::Leave { worker, epoch },
        }
    }
}

/// What a driver must do, addressed by the run's own worker ids.
pub(crate) enum Command {
    /// Acknowledge a join.
    Admit {
        token: u64,
        worker: WorkerId,
        epoch: u64,
        peers: Vec<PeerInfo>,
    },
    /// Ship a member its run spec.
    Start(WorkerId, Box<RunSpec>),
    /// Send a run-scoped control message.
    Control(WorkerId, Control),
    /// Persist this checkpoint.
    WriteCheckpoint(Box<Checkpoint>),
    /// Last-report collection is over; the result can be taken.
    Finished,
}

/// The coordinator state machine; see the module docs.
pub(crate) struct CoordinatorCore {
    membership: Membership,
    /// A placeholder until `Start` delivers the real one.
    plan: RunPlan,
    lb: LoadBalancer,
    /// When the run started (`None` before `Start`). The stamps below are
    /// offsets from it.
    started: Option<Instant>,
    /// The destinations of balance rounds that have not received work yet,
    /// each with when its mark expires: while marked, a member's empty
    /// queue triggers no round.
    awaiting: BTreeMap<WorkerId, Duration>,
    last_sample: Duration,
    last_checkpoint: Duration,
    transferred_at_last_sample: u64,
    /// Members that ever reported a non-empty queue.
    had_work: BTreeSet<WorkerId>,
    summary: ClusterSummary,
    test_cases: Vec<TestCase>,
    bugs: Vec<TestCase>,
    /// Set by `Stop`: the outcome and the deadline for last reports.
    stop: Option<(Outcome, Instant)>,
    finished: bool,
}

impl CoordinatorCore {
    /// A core with no members and no run; `config` supplies the failure
    /// timeout.
    pub fn new(config: &ClusterConfig) -> CoordinatorCore {
        CoordinatorCore {
            membership: Membership::new(config.failure_timeout),
            lb: LoadBalancer::new(0, 0),
            plan: RunPlan {
                target: String::new(),
                num_lines: 0,
                config: config.clone(),
                final_timeout: Duration::ZERO,
                spec_for: Box::new(|_, _, _| unreachable!("no member starts before the run")),
            },
            started: None,
            awaiting: BTreeMap::new(),
            last_sample: Duration::ZERO,
            last_checkpoint: Duration::ZERO,
            transferred_at_last_sample: 0,
            had_work: BTreeSet::new(),
            summary: ClusterSummary::default(),
            test_cases: Vec::new(),
            bugs: Vec::new(),
            stop: None,
            finished: false,
        }
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
            Event::Heartbeat { worker, epoch } => {
                self.membership.record_heartbeat(worker, epoch, now);
            }
            Event::Leave { worker, epoch } => {
                if self.membership.leave(worker, epoch, now) {
                    info!("worker {worker} left gracefully");
                }
            }
            Event::Start(plan) => self.on_start(*plan, now, out),
            Event::Status(report) => self.on_status(report, now, out),
            Event::Tick => return self.on_tick(now, out),
            Event::Stop(outcome) => self.on_stop(outcome, now, out),
            Event::SendFailed { worker, what } => match what {
                Delivery::Handshake => self.membership.mark_dead(worker, now),
                Delivery::Inject(seq) => self.membership.cancel_inject(worker, seq),
            },
        }
        None
    }

    /// Admits a joiner: identity, epoch, the acknowledgement, and — once the
    /// run is underway — its run spec and the new peer table for everyone
    /// else, so it is folded into the next balancing round. A join that
    /// arrives once the run is stopping is not admitted.
    fn on_join(&mut self, request: JoinRequest, now: Instant, out: &mut Vec<Command>) {
        if self.stop.is_some() {
            return;
        }
        let (worker, epoch) =
            self.membership
                .join(request.listen_addr.clone(), request.previous, now);
        let peers = self.membership.peer_infos();
        out.push(Command::Admit {
            token: request.token,
            worker,
            epoch,
            peers: peers.clone(),
        });
        info!(
            "worker {worker} joined (epoch {epoch}, {})",
            request.listen_addr
        );
        if self.started.is_none() {
            return;
        }
        self.summary.workers_joined += 1;
        self.ship_spec((worker, epoch), out);
        // Everyone learns the new peer table (and the fenced epochs of
        // any previous incarnation).
        for peer in self.membership.alive() {
            if peer != worker {
                out.push(Command::Control(peer, Control::Membership(peers.clone())));
            }
        }
    }

    fn ship_spec(&self, id: (WorkerId, u64), out: &mut Vec<Command>) {
        let spec = (self.plan.spec_for)(&self.plan.config, id.0, id.1);
        out.push(Command::Start(id.0, Box::new(spec)));
    }

    /// Starts the run over the members admitted so far: every live member
    /// is shipped its spec, in id order, then the peer table as of this
    /// moment, and a resumed frontier is pooled for re-injection.
    fn on_start(&mut self, plan: RunPlan, now: Instant, out: &mut Vec<Command>) {
        self.plan = plan;
        let config = &self.plan.config;
        self.lb = LoadBalancer::new(self.membership.len(), self.plan.num_lines);
        if let Some(resume) = &config.resume {
            self.lb.merge_coverage(&resume.coverage);
            self.membership.seed_pool(resume.jobs());
        }
        self.summary.num_workers = self.membership.len();
        self.summary.coverage = CoverageSet::new(self.plan.num_lines);
        self.started = Some(now);
        for id in self.live_ids() {
            self.ship_spec(id, out);
        }
        self.broadcast(Control::Membership(self.membership.peer_infos()), out);
    }

    /// The status report body. Frames of a fenced epoch, a dead member or
    /// a closed stream change nothing. A last report adds its coverage to
    /// the summary; while last reports are being collected, every report
    /// goes to the ledger and nowhere else (its transfer notices keep a
    /// batch exported right before the shutdown in the in-flight table —
    /// and in the final checkpoint).
    fn on_status(&mut self, mut report: StatusReport, now: Instant, out: &mut Vec<Command>) {
        if !self.membership.record_status(&mut report, now) {
            return;
        }
        if report.last {
            self.summary.coverage.merge(&report.coverage);
        }
        if report.last || self.stop.is_some() {
            return;
        }
        let w = report.worker;
        if report.queue_length > 0 {
            self.had_work.insert(w);
        }
        // A report that shows work, or acknowledges a batch the member
        // took in (and may already have finished), ends its wait.
        let imported = report
            .transfers
            .iter()
            .any(|t| matches!(t, TransferEvent::Imported { .. }));
        if !report.idle || report.queue_length > 0 || imported {
            self.awaiting.remove(&w);
        }
        let global = self.lb.report(w, report.queue_length, &report.coverage);
        out.push(Command::Control(w, Control::GlobalCoverage(global)));
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
        // Collecting last reports: the failure detector keeps running so a
        // member that dies during shutdown cannot stall the collection for
        // the full timeout.
        if let Some((_, deadline)) = self.stop {
            for worker in self.membership.detect_failures(now) {
                self.summary.workers_failed += 1;
                warn!("worker {worker} died during shutdown");
            }
            let members = self.membership.members();
            let outstanding = members.iter().any(|m| m.is_alive() && !m.closed);
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
            && elapsed.saturating_sub(self.last_checkpoint) >= CHECKPOINT_INTERVAL
        {
            out.push(Command::WriteCheckpoint(Box::new(self.checkpoint(now))));
            self.last_checkpoint = elapsed;
        }
        if verdict.is_some() {
            return verdict;
        }

        // Balancing on demand (§3.3): a round runs on the tick after a live
        // member reported itself idle with an empty queue, unless that
        // member is still awaiting a batch an earlier round requested for
        // it, or an ablation switched balancing off. A mark ends with the
        // member's next report that shows work or acknowledges an import,
        // or after two status intervals (the source may have had nothing
        // left to export).
        self.awaiting.retain(|_, until| elapsed < *until);
        let members = self.membership.members();
        let mut alive = members.iter().filter(|m| m.is_alive());
        let dry = alive
            .clone()
            .any(|m| m.idle && m.queue_length == 0 && !self.awaiting.contains_key(&m.worker));
        let lb_disabled_by_time = config.disable_lb_after.is_some_and(|d| elapsed >= d);
        let lb_disabled_static =
            config.static_partition && alive.all(|m| self.had_work.contains(&m.worker));
        if dry && !lb_disabled_by_time && !lb_disabled_static {
            let mut round = Span::enter(SpanKind::BalanceRound);
            let requests = self.lb.balance(&self.membership.alive());
            round.detail(requests.len() as u64);
            let until = elapsed + 2 * config.status_interval;
            for TransferRequest {
                source,
                destination,
                count,
            } in requests
            {
                self.awaiting.insert(destination, until);
                let msg = Control::Balance { destination, count };
                out.push(Command::Control(source, msg));
            }
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
            total_states: self.lb.queued(&self.membership.alive()),
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
    /// stats: its last snapshot-consistent stats — the last report's, once
    /// it arrived (a dead member's post-snapshot work was re-executed
    /// elsewhere).
    fn worker_stats(&self) -> Vec<WorkerStats> {
        let resume = self.plan.config.resume.as_ref();
        let mut stats = resume.map(|c| c.base_stats.clone()).unwrap_or_default();
        let members = self.membership.members().iter();
        stats.extend(members.map(|m| m.snapshot_stats.clone()));
        stats
    }

    /// The frozen state of the run as of `now`: completed work, pending
    /// frontier, coverage.
    pub fn checkpoint(&self, now: Instant) -> Checkpoint {
        let mut span = Span::enter(SpanKind::Checkpoint);
        let resume = self.plan.config.resume.as_ref();
        let mut coverage = self.lb.global_coverage().clone();
        coverage.merge(&self.summary.coverage);
        let frontier = self.membership.frontier_jobs();
        span.detail(frontier.len() as u64);
        Checkpoint {
            target: self.plan.target.clone(),
            base_stats: self.worker_stats(),
            frontier: JobTree::from_jobs(&frontier).encode(),
            coverage,
            elapsed: resume.map(|c| c.elapsed).unwrap_or_default() + self.elapsed(now),
        }
    }

    /// Closes the run. Every member contributes its snapshot stats and
    /// the test cases and bugs its snapshot-bearing reports confirmed: all
    /// of them once its last report arrived, and for a member that died
    /// the record up to its last snapshot — the completed paths those
    /// cases sit on are never re-explored, so this is the only surviving
    /// record.
    fn finish(&mut self, now: Instant, out: &mut Vec<Command>) {
        self.summary.coverage.merge(self.lb.global_coverage());
        self.summary.worker_stats = self.worker_stats();
        self.test_cases
            .extend(self.membership.take_confirmed_test_cases());
        for member in self.membership.members() {
            self.bugs.extend(member.bugs.iter().cloned());
        }
        self.summary.bugs_found = self.bugs.len() as u64;
        self.summary.num_workers = self.membership.len().max(1);
        self.summary.elapsed = self.elapsed(now);
        // The final checkpoint reflects the last reports' frontiers, so a
        // run stopped by a time or path limit resumes exactly where it left
        // off.
        if self.plan.config.checkpoint_path.is_some() {
            out.push(Command::WriteCheckpoint(Box::new(self.checkpoint(now))));
        }
        self.finished = true;
        out.push(Command::Finished);
    }

    /// Sends `msg` to every live member.
    fn broadcast(&self, msg: Control, out: &mut Vec<Command>) {
        for worker in self.membership.alive() {
            out.push(Command::Control(worker, msg.clone()));
        }
    }

    /// The membership ledger.
    pub fn membership(&self) -> &Membership {
        &self.membership
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
            m.snapshot_stats.paths_completed.max(latest)
        });
        resume.map_or(0, Checkpoint::base_paths) + live.sum::<u64>()
    }

    /// Time since the run started (zero before).
    pub fn elapsed(&self, now: Instant) -> Duration {
        self.started
            .map_or(Duration::ZERO, |started| now.duration_since(started))
    }

    /// Whether the run is exhausted as far as this coordinator can see:
    /// every live member's latest report is idle with an empty queue, and
    /// the ledger has nothing in flight and nothing awaiting re-injection.
    ///
    /// Reports alone decide; the balancer's queue lengths, which it credits
    /// optimistically when it plans a transfer, are a planning heuristic
    /// and play no part. This is sound because work only ever moves
    /// through the ledger: an export is announced (`Exported`) in the same
    /// report that shows its source's shrunken queue and stays in flight
    /// until the receiver's `Imported` acknowledgement, and an `Inject` is
    /// in flight from the moment it is issued. So however the reports of
    /// different members interleave, the check cannot hold while a job
    /// exists.
    fn quiescent(&self) -> bool {
        let mut alive = self.membership.members().iter().filter(|m| m.is_alive());
        let all_idle =
            alive.clone().next().is_some() && alive.all(|m| m.idle && m.queue_length == 0);
        all_idle && self.membership.settled()
    }

    /// Identity and epoch of every live member.
    fn live_ids(&self) -> Vec<(WorkerId, u64)> {
        let members = self.membership.members().iter();
        members
            .filter(|m| m.is_alive())
            .map(|m| (m.worker, m.epoch))
            .collect()
    }

    /// The run's results; meaningful once [`Command::Finished`] was issued.
    pub fn take_result(&mut self) -> ClusterRunResult {
        ClusterRunResult {
            summary: std::mem::take(&mut self.summary),
            test_cases: std::mem::take(&mut self.test_cases),
            bugs: std::mem::take(&mut self.bugs),
        }
    }
}

#[cfg(test)]
#[path = "coordinator_tests.rs"]
mod tests;
