//! Federated coordination: sub-coordinators between the root and workers.
//!
//! A flat coordinator scales to a few dozen workers before its single
//! status-drain loop becomes the bottleneck (§6 of the paper evaluates up
//! to 48 nodes; the balancer handles every worker's report itself). The
//! federation layer removes that ceiling by *recursion over the existing
//! wire protocol*: the cluster is split into groups, each group is run by a
//! [`SubCoordinator`] that hosts the full membership / ledger / balancer /
//! portfolio machinery locally, and every sub-coordinator joins the root
//! coordinator **as a worker**. The root runs the unmodified
//! [`Cluster::run_coordinator`] loop over G sub-"workers"; no new frame
//! types exist and the wire version is unchanged.
//!
//! The mapping of worker-protocol concepts onto groups:
//!
//! * **Status reports** become *digests*: queue length is the sum over the
//!   group, coverage is the group's merged bit vector, stats are the
//!   snapshot-consistent sum over members, and the frontier snapshot — the
//!   union of the member ledgers, in-flight batches, and the reclaim pool —
//!   rides on *every* digest, so the root's ledger for the group is always
//!   a consistent cut of the group's pending work.
//! * **`Balance` towards the group** becomes an inter-group transfer: the
//!   sub-coordinator *harvests* jobs from a member (a `Balance` whose
//!   destination is [`COORDINATOR`] — the member's `Exported`/`Sent` pair
//!   resolves straight into the sub's reclaim pool), then ships them to the
//!   sibling group with the same announce-before-wire discipline a worker
//!   uses, so the root holds custody of the batch at every instant.
//! * **Failure of a sub-coordinator** is handled by the root exactly like a
//!   worker crash (PR 2's recovery lifted to groups): the dead group
//!   contributes its last snapshot-consistent digest stats, and the root
//!   re-injects the digest's frontier into the surviving groups. Work the
//!   group completed after its last digest is re-executed — path accounting
//!   stays exact through the loss of a whole group.
//!
//! Inter-group balancing is *depth-partitioned* by default (test-depth
//! partitioning): the donor member is the one holding the shallowest ledger
//! job — the root of the largest unexplored subtree — and the shallowest
//! harvested jobs are shipped first, so transfers move maximal exploration
//! potential per byte and sibling groups end up owning disjoint depth bands.
//!
//! [`FederatedCluster`] wires the whole tree up in-process (root, G
//! sub-coordinators, G×S workers on scoped threads) for tests and
//! single-machine runs; the `c9-coordinator --sub` binary mode does the
//! same over TCP.

use crate::balancer::BalancerConfig;
use crate::cluster::{
    drain_statuses, Cluster, ClusterConfig, ClusterRunResult, CoordinatorRunOpts, Session,
    WorkerService,
};
use crate::coordinator::{CoordinatorCore, Event, Outcome, RunPlan};
use crate::membership::Membership;
use crate::portfolio::{derive_seed, PortfolioConfig};
use crate::worker::WorkerConfig;
use c9_ir::Program;
use c9_net::{
    Control, CoordinatorEndpoint, EnvSpec, FinalReport, InProcTransport, Job, JobBatch, JobTree,
    RunId, RunSpec, StatusReport, TransferEvent, Transport, TransportError, WorkerEndpoint,
    WorkerId, WorkerStats, COORDINATOR,
};
use c9_vm::{Environment, StrategyKind, TestCase};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Digests carry a gossip excerpt upward on every k-th report, mirroring
/// the worker-side cadence (`GOSSIP_STATUS_EVERY` in the cluster module).
const DIGEST_GOSSIP_EVERY: u64 = 4;

/// Configuration of one sub-coordinator.
#[derive(Clone, Debug)]
pub struct FederationConfig {
    /// Listen addresses of statically connected group members, by worker
    /// id (empty strings for transports without peer addressing, e.g. the
    /// in-process harness).
    pub static_members: Vec<String>,
    /// Wait for at least this many live group members before starting
    /// (static members already count).
    pub min_members: usize,
    /// How long to wait for `min_members` before starting anyway.
    pub join_wait: Duration,
    /// Declare a group member dead after this much silence and reclaim its
    /// ledger. `None` disables the group-level failure detector (the right
    /// choice when members are scoped threads that cannot die alone).
    pub failure_timeout: Option<Duration>,
    /// Cadence of the intra-group balancing rounds.
    pub balance_interval: Duration,
    /// Depth-partitioned inter-group balancing: harvest from the member
    /// holding the shallowest pending job and ship the shallowest harvest
    /// first. Off, the donor is simply the longest queue.
    pub depth_partition: bool,
    /// How long a root `Balance` request may wait for harvested jobs before
    /// whatever was gathered is shipped (or the request is dropped empty).
    pub export_timeout: Duration,
    /// How long to wait for member final reports after `Stop`.
    pub final_timeout: Duration,
    /// Intra-group balancing parameters.
    pub balancer: BalancerConfig,
    /// Group-local strategy portfolio; `None` runs every member on the
    /// strategy the root assigned to the group.
    pub portfolio: Option<PortfolioConfig>,
}

impl Default for FederationConfig {
    fn default() -> FederationConfig {
        FederationConfig {
            static_members: Vec::new(),
            min_members: 1,
            join_wait: Duration::from_secs(60),
            failure_timeout: None,
            balance_interval: Duration::from_millis(20),
            depth_partition: true,
            export_timeout: Duration::from_millis(500),
            final_timeout: Duration::from_secs(30),
            balancer: BalancerConfig::default(),
            portfolio: None,
        }
    }
}

/// Counters a sub-coordinator accumulates about its own group.
#[derive(Clone, Debug, Default)]
pub struct SubSummary {
    /// Group members ever seen.
    pub workers: usize,
    /// Members declared dead by the group failure detector.
    pub workers_failed: u64,
    /// Inter-group batches shipped to siblings.
    pub batches_exported: u64,
    /// Inter-group batches received from siblings.
    pub batches_imported: u64,
    /// Jobs re-injected into the group (reclaimed, injected by the root,
    /// or imported from siblings).
    pub jobs_reclaimed: u64,
    /// Digests sent to the root.
    pub digests_sent: u64,
}

/// An inter-group transfer the root requested, awaiting harvested jobs.
struct PendingExport {
    destination: WorkerId,
    count: u64,
    deadline: Instant,
    asked: bool,
}

/// The upward (root-facing) half of a sub-coordinator: everything that
/// presents the group to the root as one worker. The downward half is a
/// [`CoordinatorCore`] like any other coordinator's.
struct Uplink {
    run: RunId,
    /// This sub-coordinator's identity and fencing epoch at the root.
    id: WorkerId,
    epoch: u64,
    status_interval: Duration,
    /// The strategy the root assigned to this group (stamped on digests).
    strategy: StrategyKind,
    /// Transfer events to ride the next digest.
    events: Vec<TransferEvent>,
    /// Sequence of inter-group exports (per sub, monotonically increasing).
    export_seq: u64,
    last_digest: Instant,
    /// Jobs harvested from members, staged for an inter-group export.
    harvest: Vec<Job>,
    /// Since when the staged harvest has had no export to go to.
    harvest_idle_since: Option<Instant>,
    /// Inter-group transfers the root requested, one entry per sibling
    /// destination (a repeated request refreshes its entry), served in
    /// arrival order from the shared harvest pool.
    pending_exports: VecDeque<PendingExport>,
    /// The core's hot-set stamp as of the last upward gossip export.
    gossip_exported: u64,
    /// Per-member count of status bugs already forwarded upward.
    bugs_forwarded: Vec<usize>,
    /// The upward counters; the group's own are filled in from the core.
    counters: SubSummary,
}

impl Uplink {
    fn summary(&self, core: &CoordinatorCore) -> SubSummary {
        let group = core.summary();
        SubSummary {
            workers: core.membership().len(),
            workers_failed: group.workers_failed,
            jobs_reclaimed: group.jobs_reclaimed,
            ..self.counters.clone()
        }
    }
}

/// A coordinator for one worker group inside a federated cluster.
///
/// Downward (`C`) it *is* a coordinator: it admits group members, runs
/// membership with ledgers and failure detection, intra-group load
/// balancing, and a strategy portfolio. Upward (`U`) it *is* a worker: it
/// joins the root, receives the run spec, reports aggregated digests, and
/// honours `Balance` requests by harvesting jobs from its members.
pub struct SubCoordinator<U: WorkerEndpoint, C: CoordinatorEndpoint> {
    uplink: U,
    group: C,
    fed: FederationConfig,
    crash_after_paths: Option<u64>,
}

impl<U: WorkerEndpoint, C: CoordinatorEndpoint> SubCoordinator<U, C> {
    /// Creates a sub-coordinator over an established uplink (worker-side
    /// endpoint towards the root) and group endpoint (coordinator-side
    /// endpoint towards the members).
    pub fn new(uplink: U, group: C, fed: FederationConfig) -> SubCoordinator<U, C> {
        SubCoordinator {
            uplink,
            group,
            fed,
            crash_after_paths: None,
        }
    }

    /// Simulates a crash of a *running* sub-coordinator: once its group has
    /// completed `paths` paths, the main loop returns at its next iteration
    /// without a word to anyone — endpoints drop, heartbeats stop, and both
    /// the root and the group members observe the silence exactly as they
    /// would a SIGKILL. Keyed on progress rather than time so the crash
    /// lands mid-run however fast the machine is; a group that never gets
    /// that far never crashes.
    pub fn crash_after_paths(mut self, paths: u64) -> Self {
        self.crash_after_paths = Some(paths);
        self
    }

    /// The group's session with the static members registered. Until the
    /// root's spec names the group's strategy, members are admitted on the
    /// default one.
    fn session(&self) -> Session {
        let config = group_config(&self.fed, 0, StrategyKind::default());
        let members = self.fed.static_members.iter().cloned();
        Session::new(&config, members, Vec::new())
    }

    /// Waits for the root to ship the run spec, then runs the group.
    /// Group members that join while the spec is still pending are admitted
    /// immediately (their spec follows once the run starts).
    pub fn run(mut self) -> Result<SubSummary, TransportError> {
        let mut session = self.session();
        let spec = loop {
            if let Some(spec) = self.uplink.try_recv_start() {
                break *spec;
            }
            session.pump_membership(&mut self.group);
            std::thread::sleep(Duration::from_millis(2));
        };
        self.drive_group(spec, session)
    }

    /// Runs the group for a spec already in hand (the TCP binary receives
    /// it through its own `wait_start` handshake before constructing the
    /// sub-coordinator).
    pub fn run_with_spec(self, spec: RunSpec) -> Result<SubSummary, TransportError> {
        let session = self.session();
        self.drive_group(spec, session)
    }

    fn drive_group(
        mut self,
        spec: RunSpec,
        mut session: Session,
    ) -> Result<SubSummary, TransportError> {
        self.uplink.start_heartbeat(spec.heartbeat_interval);
        session.await_quorum(&mut self.group, self.fed.min_members, self.fed.join_wait);
        let mut up = Uplink {
            run: spec.run,
            id: self.uplink.id(),
            epoch: spec.worker_epoch,
            status_interval: spec.status_interval,
            strategy: spec.strategy,
            events: Vec::new(),
            export_seq: 0,
            last_digest: Instant::now() - spec.status_interval,
            harvest: Vec::new(),
            harvest_idle_since: None,
            pending_exports: VecDeque::new(),
            gossip_exported: 0,
            bugs_forwarded: Vec::new(),
            counters: SubSummary::default(),
        };
        let plan = group_plan(&self.fed, spec);
        session.feed(Event::Start(Box::new(plan)), &mut self.group);

        loop {
            // The simulated SIGKILL: vanish mid-loop. Heartbeats stop and
            // the endpoints drop with `self`; the root detects the silence
            // and reclaims this group's last digest frontier, members
            // detect the dead group endpoint and exit.
            if self
                .crash_after_paths
                .is_some_and(|paths| session.core.total_paths() >= paths)
            {
                return Ok(up.summary(&session.core));
            }
            session.pump_membership(&mut self.group);
            let got_any = drain_statuses(&mut self.group, |group, report| {
                session.feed(Event::Status(report), group);
            });
            let stopping = self.serve_root(&mut session, &mut up);
            self.progress_exports(&mut session, &mut up)?;
            // Pooled jobs (reclaimed, root-injected, imported from
            // siblings) go back to the members; failure detection, the
            // gossip fold and the balancing round run. A group never
            // decides termination itself, so the tick's verdict is
            // dropped: quiescence is reported as `idle` on the digest.
            session.feed(Event::Tick, &mut self.group);

            // The upward digest. An unreachable root ends the run: stop the
            // group (best effort) and report the transport failure.
            if up.last_digest.elapsed() >= up.status_interval {
                if let Err(e) = self.send_digest(&mut session.core, &mut up) {
                    session.feed(Event::Stop(Outcome::Cancelled), &mut self.group);
                    return Err(e);
                }
            }
            if stopping {
                break;
            }
            if !got_any {
                std::thread::sleep(Duration::from_micros(500));
            }
        }

        // Stop the group, collect the member finals, and send the
        // aggregated final report upward.
        session.feed(Event::Stop(Outcome::Cancelled), &mut self.group);
        session.collect_finals(&mut self.group);
        let summary = up.summary(&session.core);
        let result = session.core.take_result();
        let mut stats = WorkerStats::default();
        for member in &result.summary.worker_stats {
            stats.merge(member);
        }
        let mut frontier_jobs = session.core.membership().frontier_jobs();
        frontier_jobs.append(&mut up.harvest);
        self.uplink.send_final(FinalReport {
            run: up.run,
            worker: up.id,
            epoch: up.epoch,
            stats,
            coverage: result.summary.coverage,
            test_cases: result.test_cases,
            bugs: result.bugs,
            frontier: JobTree::from_jobs(&frontier_jobs).encode(),
            transfers: std::mem::take(&mut up.events),
        })?;
        Ok(summary)
    }

    /// The root-facing inbox: the run-scoped controls a worker receives,
    /// interpreted at group scope, and the batches of sibling groups.
    /// Returns whether the root said `Stop`.
    fn serve_root(&mut self, session: &mut Session, up: &mut Uplink) -> bool {
        let mut stopping = false;
        let mut out = Vec::new();
        while let Some((run, msg)) = self.uplink.try_recv_control() {
            if run != up.run && run != RunId::SERVICE {
                continue;
            }
            match msg {
                Control::Stop => stopping = true,
                Control::GlobalCoverage(global) => session.core.merge_coverage(&global),
                Control::HotSet(slice) => session.core.broadcast(Control::HotSet(slice), &mut out),
                Control::SetStrategy { strategy, seed } => {
                    up.strategy = strategy;
                    session.core.override_strategy(strategy, seed, &mut out);
                }
                Control::Inject { seq, encoded } => {
                    if let Some(tree) = JobTree::decode(&encoded) {
                        up.events.push(TransferEvent::Imported {
                            source: COORDINATOR,
                            seq,
                            encoded,
                        });
                        session.core.membership_mut().seed_pool(tree.to_jobs());
                    }
                }
                Control::Balance { destination, count } => {
                    // The root asks for several destinations per
                    // balancing round; keep one entry per sibling so
                    // every destination is eventually served.
                    if let Some(pending) = up
                        .pending_exports
                        .iter_mut()
                        .find(|p| p.destination == destination)
                    {
                        pending.count = pending.count.max(count);
                    } else {
                        up.pending_exports.push_back(PendingExport {
                            destination,
                            count,
                            deadline: Instant::now() + self.fed.export_timeout,
                            asked: false,
                        });
                    }
                }
                // The root's peer table names the sibling groups;
                // inter-group batches dial those addresses.
                Control::Membership(peers) => self.uplink.update_peers(&peers),
            }
        }
        while let Some(batch) = self.uplink.try_recv_jobs() {
            if batch.run != up.run {
                continue;
            }
            let Some(tree) = JobTree::decode(&batch.encoded) else {
                continue;
            };
            if let Some(slice) = batch.slice {
                // The sibling's piggybacked cache warmth benefits every
                // member about to replay these jobs.
                session.core.broadcast(Control::HotSet(slice), &mut out);
            }
            up.events.push(TransferEvent::Imported {
                source: batch.source,
                seq: batch.seq,
                encoded: batch.encoded,
            });
            up.counters.batches_imported += 1;
            session.core.membership_mut().seed_pool(tree.to_jobs());
        }
        session.execute(out, &mut self.group);
        stopping
    }

    /// Stages member exports addressed to this coordinator (the harvest
    /// answers, however late they arrive) and progresses the front pending
    /// inter-group export: ask a donor once, ship when enough jobs are
    /// staged or the deadline passes. One export flushes per loop turn; the
    /// rest of the queue keeps its arrival order.
    fn progress_exports(
        &mut self,
        session: &mut Session,
        up: &mut Uplink,
    ) -> Result<(), TransportError> {
        up.harvest
            .extend(session.core.membership_mut().take_harvest());
        // A harvest no export wants (the root stopped asking — the
        // cluster balanced itself out underneath the request) returns
        // to the members rather than sitting in limbo.
        if up.pending_exports.is_empty() && !up.harvest.is_empty() {
            let idle_since = *up.harvest_idle_since.get_or_insert_with(Instant::now);
            if idle_since.elapsed() > self.fed.export_timeout {
                session
                    .core
                    .membership_mut()
                    .seed_pool(std::mem::take(&mut up.harvest));
                up.harvest_idle_since = None;
            }
        } else {
            up.harvest_idle_since = None;
        }

        let Some(pending) = up.pending_exports.front_mut() else {
            return Ok(());
        };
        let now = Instant::now();
        let want = pending.count as usize;
        if up.harvest.len() < want && now < pending.deadline && !pending.asked {
            let membership = session.core.membership();
            if let Some(victim) = pick_harvest_victim(membership, self.fed.depth_partition) {
                let harvest = Control::Balance {
                    destination: COORDINATOR,
                    count: (want - up.harvest.len()) as u64,
                };
                let _ = self.group.send_control(victim, up.run, harvest);
                pending.asked = true;
            } else {
                // Nobody has work to give; resolve the request now.
                pending.deadline = now;
            }
        }
        if up.harvest.len() < want && now < pending.deadline {
            return Ok(());
        }
        let destination = pending.destination;
        up.pending_exports.pop_front();
        // Leftover harvest stays staged for the next queued (or soon
        // re-issued) export; the idle sweep above returns it to the
        // members if no request follows.
        let selected = select_export(&mut up.harvest, want, self.fed.depth_partition);
        if selected.is_empty() {
            return Ok(());
        }
        up.export_seq += 1;
        let seq = up.export_seq;
        let encoded = JobTree::from_jobs(&selected).encode();
        // Announce the export on a digest *before* the wire send: if this
        // sub dies in between, the root holds the batch in its in-flight
        // table and can re-inject it.
        up.events.push(TransferEvent::Exported {
            destination,
            seq,
            encoded: encoded.clone(),
        });
        self.send_digest(&mut session.core, up)?;
        let batch = JobBatch {
            source: up.id,
            run: up.run,
            source_epoch: up.epoch,
            seq,
            encoded,
            slice: session.core.hot_excerpt(),
        };
        if self.uplink.send_jobs(destination, batch).is_ok() {
            up.events.push(TransferEvent::Sent { destination, seq });
            up.counters.batches_exported += 1;
        } else {
            up.events.push(TransferEvent::Requeued { destination, seq });
            session.core.membership_mut().seed_pool(selected);
        }
        self.send_digest(&mut session.core, up)
    }

    /// One aggregated status report towards the root: the whole group
    /// presented as a single worker. The frontier snapshot — member
    /// ledgers, in-flight batches, the reclaim pool, and the harvest
    /// staging buffer — rides on every digest, paired with the
    /// snapshot-consistent stats sum, so the root always holds a cut it
    /// can recover the group from; so do the members' test cases that sum
    /// confirms, moved up with it.
    fn send_digest(
        &mut self,
        core: &mut CoordinatorCore,
        up: &mut Uplink,
    ) -> Result<(), TransportError> {
        let test_cases = core.membership_mut().take_confirmed_test_cases();
        let membership = core.membership();
        let mut stats = WorkerStats::default();
        let mut queue = up.harvest.len() as u64;
        let mut new_bugs: Vec<TestCase> = Vec::new();
        up.bugs_forwarded.resize(membership.len(), 0);
        for (member, seen) in membership.members().iter().zip(&mut up.bugs_forwarded) {
            stats.merge(member.summary_stats());
            if member.is_alive() {
                queue += member.queue_length;
            }
            new_bugs.extend(member.status_bugs[*seen..].iter().cloned());
            *seen = member.status_bugs.len();
        }
        let mut frontier_jobs = membership.frontier_jobs();
        frontier_jobs.extend(up.harvest.iter().cloned());
        // Gossip rides every k-th digest, when the group hot set grew.
        let learned = core.hot_set_learned();
        let gossip = (up.counters.digests_sent.is_multiple_of(DIGEST_GOSSIP_EVERY)
            && learned > up.gossip_exported)
            .then(|| core.hot_excerpt())
            .flatten();
        if gossip.is_some() {
            up.gossip_exported = learned;
        }
        let report = StatusReport {
            run: up.run,
            worker: up.id,
            epoch: up.epoch,
            queue_length: queue,
            coverage: core.global_coverage().clone(),
            stats,
            idle: core.quiescent() && up.harvest.is_empty() && up.pending_exports.is_empty(),
            strategy: up.strategy,
            frontier: Some(JobTree::from_jobs(&frontier_jobs).encode()),
            new_bugs,
            transfers: std::mem::take(&mut up.events),
            test_cases,
            gossip,
        };
        up.counters.digests_sent += 1;
        up.last_digest = Instant::now();
        self.uplink.send_status(report)
    }
}

/// The group's run, as the core sees it: the root's spec supplies the
/// seed and (absent a group portfolio) the strategy; no limit is set,
/// because a group stops only when the root says so.
fn group_config(fed: &FederationConfig, seed: u64, strategy: StrategyKind) -> ClusterConfig {
    ClusterConfig {
        worker: WorkerConfig {
            seed,
            strategy,
            ..WorkerConfig::default()
        },
        failure_timeout: fed.failure_timeout,
        balance_interval: fed.balance_interval,
        balancer: fed.balancer,
        portfolio: fed.portfolio.clone(),
        // Nobody reads a group's timeline.
        sample_interval: Duration::MAX,
        ..ClusterConfig::default()
    }
}

fn group_plan(fed: &FederationConfig, spec: RunSpec) -> RunPlan {
    RunPlan {
        run: spec.run,
        target: String::new(),
        num_lines: spec.program.loc(),
        config: group_config(fed, spec.seed, spec.strategy),
        final_timeout: fed.final_timeout,
        spec_for: Some(Box::new(move |_, worker, epoch, strategy| {
            member_spec(&spec, worker, epoch, strategy)
        })),
    }
}

/// Patches the group's run spec for one member: its own derived seed,
/// fencing epoch, and portfolio strategy. Snapshots are forced on (at
/// least every report) — the whole federation recovery story rests on the
/// sub-coordinator's ledgers being current.
fn member_spec(spec: &RunSpec, worker: WorkerId, epoch: u64, strategy: StrategyKind) -> RunSpec {
    let mut member = spec.clone();
    member.seed = derive_seed(spec.seed, worker, epoch);
    member.strategy = strategy;
    member.seed_root = spec.seed_root && worker == WorkerId(0);
    member.worker_epoch = epoch;
    member.snapshot_every = spec.snapshot_every.max(1);
    member
}

/// Picks the member to harvest an inter-group export from. Depth
/// partitioning selects the member whose ledger holds the shallowest
/// pending job — the root of the largest unexplored subtree, the most
/// exploration potential per transferred byte — with the longer queue as
/// the tie-breaker. Without it, the longest queue donates.
fn pick_harvest_victim(membership: &Membership, depth_partition: bool) -> Option<WorkerId> {
    let candidates = membership
        .members()
        .iter()
        .filter(|m| m.is_alive() && (m.queue_length > 0 || m.ledger_len() > 0));
    if depth_partition {
        candidates
            .min_by_key(|m| {
                (
                    m.ledger_min_depth().unwrap_or(usize::MAX),
                    std::cmp::Reverse(m.queue_length),
                )
            })
            .map(|m| m.worker)
    } else {
        candidates.max_by_key(|m| m.queue_length).map(|m| m.worker)
    }
}

/// Takes up to `count` jobs out of the harvest buffer for an inter-group
/// export. Depth partitioning ships the shallowest jobs first, so sibling
/// groups receive subtree roots and the donor keeps its deep, nearly
/// finished work.
fn select_export(harvest: &mut Vec<Job>, count: usize, depth_partition: bool) -> Vec<Job> {
    if depth_partition {
        harvest.sort_by_key(Job::depth);
    }
    let take = count.min(harvest.len());
    harvest.drain(..take).collect()
}

/// An in-process federated cluster: one root coordinator, `groups`
/// sub-coordinators, and `groups × group_size` workers, all on scoped
/// threads connected by channels. The root runs the unmodified
/// [`Cluster::run_coordinator`] loop and sees exactly `groups` "workers".
pub struct FederatedCluster {
    program: Arc<Program>,
    env: Arc<dyn Environment>,
    config: ClusterConfig,
    groups: usize,
    group_size: usize,
    fed: FederationConfig,
}

impl FederatedCluster {
    /// Creates a federated cluster of `groups × group_size` workers.
    /// `config` parameterizes the root coordinator (its `num_workers` is
    /// ignored; set `failure_timeout` to exercise sub-coordinator failure)
    /// and is the template for the run specs the groups receive.
    pub fn new(
        program: Arc<Program>,
        env: Arc<dyn Environment>,
        config: ClusterConfig,
        groups: usize,
        group_size: usize,
    ) -> FederatedCluster {
        FederatedCluster {
            program,
            env,
            config,
            groups: groups.max(1),
            group_size: group_size.max(1),
            fed: FederationConfig::default(),
        }
    }

    /// Overrides the per-group federation parameters (`static_members` and
    /// `min_members` are still forced to the group size).
    pub fn with_federation(mut self, fed: FederationConfig) -> FederatedCluster {
        self.fed = fed;
        self
    }

    /// Runs the federated cluster to completion.
    pub fn run(&self) -> ClusterRunResult {
        self.run_with_kill(None)
    }

    /// Runs the federated cluster, optionally killing sub-coordinator
    /// `kill.0` (SIGKILL simulation, see
    /// [`SubCoordinator::crash_after_paths`]) once its group has completed
    /// `kill.1` paths. The root's failure detector
    /// (`config.failure_timeout`) must be enabled for the cluster to
    /// recover from the kill.
    pub fn run_with_kill(&self, kill: Option<(usize, u64)>) -> ClusterRunResult {
        let mut root_config = self.config.clone();
        root_config.num_workers = self.groups;
        // The recovery story needs the root's ledger current: digests carry
        // a frontier every time.
        root_config.snapshot_every = root_config.snapshot_every.max(1);
        let mut fed = self.fed.clone();
        fed.static_members = vec![String::new(); self.group_size];
        fed.min_members = self.group_size;
        fed.balance_interval = root_config.balance_interval;

        let root_fabric = InProcTransport
            .establish(self.groups)
            .expect("in-process transport cannot fail");
        let mut root_ep = root_fabric.coordinator;
        let sub_uplinks = root_fabric.workers;
        let opts = CoordinatorRunOpts {
            env: EnvSpec::Null,
            run: RunId(1),
            initial_workers: (0..self.groups).map(|g| format!("group-{g}")).collect(),
            min_workers: self.groups,
            join_wait: Duration::from_secs(5),
            target: self.program.name.clone(),
        };
        let root = Cluster::new(self.program.clone(), self.env.clone(), root_config);

        std::thread::scope(|scope| {
            for (group, uplink) in sub_uplinks.into_iter().enumerate() {
                let fabric = InProcTransport
                    .establish(self.group_size)
                    .expect("in-process transport cannot fail");
                for mut endpoint in fabric.workers {
                    let env = self.env.clone();
                    scope.spawn(move || {
                        WorkerService::new(&mut endpoint, move |_| env.clone())
                            .exit_when_drained(true)
                            .serve();
                    });
                }
                let mut sub = SubCoordinator::new(uplink, fabric.coordinator, fed.clone());
                if let Some((_, paths)) = kill.filter(|(victim, _)| *victim == group) {
                    sub = sub.crash_after_paths(paths);
                }
                scope.spawn(move || {
                    let _ = sub.run();
                });
            }
            root.run_coordinator(&mut root_ep, opts)
        })
    }
}

#[cfg(test)]
mod federation_tests {
    use super::*;
    use crate::tests::branching_program;
    use c9_vm::{NullEnvironment, PathChoice};

    fn job(depth: usize) -> Job {
        Job::new(vec![PathChoice::Branch(true); depth])
    }

    #[test]
    fn select_export_ships_shallowest_first() {
        let mut harvest = vec![job(5), job(1), job(3), job(2)];
        let selected = select_export(&mut harvest, 2, true);
        assert_eq!(
            selected.iter().map(Job::depth).collect::<Vec<_>>(),
            vec![1, 2]
        );
        assert_eq!(
            harvest.iter().map(Job::depth).collect::<Vec<_>>(),
            vec![3, 5]
        );
    }

    #[test]
    fn select_export_without_partitioning_keeps_order() {
        let mut harvest = vec![job(5), job(1), job(3)];
        let selected = select_export(&mut harvest, 2, false);
        assert_eq!(
            selected.iter().map(Job::depth).collect::<Vec<_>>(),
            vec![5, 1]
        );
        assert_eq!(harvest.len(), 1);
    }

    #[test]
    fn federated_run_matches_flat_path_count() {
        let program = Arc::new(branching_program(6));
        let config = ClusterConfig {
            num_workers: 4,
            status_interval: Duration::from_millis(5),
            balance_interval: Duration::from_millis(10),
            snapshot_every: 1,
            ..ClusterConfig::default()
        };
        let flat = Cluster::new(program.clone(), Arc::new(NullEnvironment), config.clone()).run();
        let federated =
            FederatedCluster::new(program, Arc::new(NullEnvironment), config, 2, 2).run();
        assert!(flat.summary.goal_reached);
        assert!(federated.summary.goal_reached);
        assert_eq!(
            federated.summary.paths_completed(),
            flat.summary.paths_completed(),
            "federated cluster must explore exactly the flat cluster's paths"
        );
    }
}
