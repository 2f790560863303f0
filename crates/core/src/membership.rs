//! Elastic cluster membership, failure detection, and exact crash recovery.
//!
//! The paper encodes jobs as replayable path prefixes precisely so that
//! workers can come and go without losing work (§3.2). This module is the
//! coordinator-side realization of that property: a per-worker *job ledger*
//! that tracks, for every member, the frontier it owns — reconstructed from
//! the periodic frontier snapshots piggybacked on status reports, adjusted
//! by the export/import events of every job transfer. The ledger gives two
//! things:
//!
//! * **Crash recovery.** When the failure detector declares a worker dead
//!   (missed heartbeats), the worker's ledger plus any batches still in
//!   flight to or from it are reclaimed into a re-injection pool and handed
//!   to the survivors — exactly once, and consistent with the stats of the
//!   same snapshot, so the final path count matches an uninterrupted run.
//! * **Checkpointing.** The union of all ledgers (plus the in-flight table)
//!   *is* the global frontier, so a periodic serialized [`Checkpoint`]
//!   lets a restarted coordinator resume the run where it left off.
//!
//! Every member carries a fencing *epoch* assigned at join time; status
//! reports, heartbeats, and job batches stamped with a stale epoch come
//! from a fenced-off previous incarnation and are rejected. A member's
//! reports arrive in the order it sent them, and its last one closes its
//! stream: later reports and leaves of the same incarnation are rejected
//! the same way.

use c9_net::{
    Job, JobTree, PeerInfo, StatusReport, TransferEvent, WorkerId, WorkerStats, COORDINATOR,
};
use c9_vm::{CoverageSet, TestCase};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::time::{Duration, Instant};

/// Liveness state of one cluster member.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemberHealth {
    /// Heartbeating (or never subject to failure detection).
    Alive,
    /// Declared dead by the failure detector or fenced off by a re-join.
    Dead,
    /// Departed gracefully with a `Leave` message.
    Left,
}

/// The coordinator's view of one worker.
#[derive(Clone, Debug)]
pub struct MemberState {
    /// The member's identity.
    pub worker: WorkerId,
    /// The member's fencing epoch.
    pub epoch: u64,
    /// The member's listen address for peer job transfers.
    pub addr: String,
    /// Liveness, as decided by the failure detector.
    pub health: MemberHealth,
    /// When the member last produced any message.
    pub last_contact: Instant,
    /// The newest statistics reported (used for progress displays and path
    /// limits; may run ahead of the recovery-consistent snapshot).
    pub latest_stats: WorkerStats,
    /// Statistics as of the last frontier snapshot, which the member
    /// contributes to the run summary. They are consistent with the ledger,
    /// so a dead member contributes exactly the paths its reclaimed
    /// frontier does not re-execute; the last report always carries a
    /// snapshot, so once it arrived these are the member's final stats.
    pub snapshot_stats: WorkerStats,
    /// Whether the member's last report arrived: its stream is closed, and
    /// it counts as idle with an empty queue.
    pub closed: bool,
    /// Whether the member has ever produced a message. Until first contact
    /// the failure detector applies the startup grace instead of the
    /// heartbeat timeout: process spawn, program delivery, and engine
    /// setup legitimately take longer than a heartbeat interval.
    pub contacted: bool,
    /// Whether the member last reported an empty queue.
    pub idle: bool,
    /// The member's last reported queue length.
    pub queue_length: u64,
    /// Bug-exposing test cases shipped on snapshot-bearing status reports,
    /// the last one included: all of a closed member's bugs, and the record
    /// of a crashed member's.
    pub bugs: Vec<TestCase>,
    /// Test cases streamed on status reports that the run result has not
    /// taken yet, oldest first.
    test_cases: Vec<TestCase>,
    /// The watermark: how many of `test_cases` (a prefix) the member's last
    /// snapshot-bearing report confirmed — the cases of exactly the paths
    /// `snapshot_stats` counts. After the last report, every case is
    /// confirmed.
    confirmed: usize,
    /// The jobs this member owns, per the coordinator's ledger.
    ledger: BTreeSet<Job>,
}

impl MemberState {
    fn new(worker: WorkerId, epoch: u64, addr: String, now: Instant) -> MemberState {
        MemberState {
            worker,
            epoch,
            addr,
            health: MemberHealth::Alive,
            last_contact: now,
            latest_stats: WorkerStats::default(),
            snapshot_stats: WorkerStats::default(),
            closed: false,
            contacted: false,
            idle: false,
            queue_length: 0,
            bugs: Vec::new(),
            test_cases: Vec::new(),
            confirmed: 0,
            ledger: BTreeSet::new(),
        }
    }

    /// Whether the member is alive.
    pub fn is_alive(&self) -> bool {
        self.health == MemberHealth::Alive
    }

    /// Number of ledger jobs currently attributed to this member.
    pub fn ledger_len(&self) -> usize {
        self.ledger.len()
    }
}

/// Delivery progress of one in-flight batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum InFlightState {
    /// The export was announced but the sender has not yet reported the
    /// socket-write outcome: the jobs may still be (or return to) the
    /// sender's frontier.
    Announced,
    /// The sender confirmed wire custody: the jobs are with the
    /// destination or lost on the wire, never with the sender.
    Sent,
}

/// One batch between announcement and import acknowledgement.
#[derive(Clone, Debug)]
struct InFlight {
    jobs: Vec<Job>,
    state: InFlightState,
    since: Instant,
    /// Set when an endpoint of the transfer died: the entry is reclaimed
    /// once the grace period (one more round of status draining) passes
    /// without a resolving event.
    doomed_since: Option<Instant>,
}

/// Membership, failure detection, and the per-worker job ledger.
#[derive(Debug)]
pub struct Membership {
    members: Vec<MemberState>,
    /// Batches exported but not yet acknowledged by their destination,
    /// keyed by (source, destination, sequence).
    in_flight: BTreeMap<(WorkerId, WorkerId, u64), InFlight>,
    /// Import acknowledgements that arrived before the matching export
    /// notice (status streams of different workers are not ordered
    /// relative to each other).
    pre_acked: BTreeSet<(WorkerId, WorkerId, u64)>,
    /// Jobs awaiting re-injection into live workers (reclaimed from the
    /// dead, swept from stale in-flight entries, or seeded by a resume).
    pool: Vec<Job>,
    /// Sequence counter for coordinator-injected batches.
    inject_seq: u64,
    /// Epoch for the next (re-)join.
    next_epoch: u64,
    /// Missed-heartbeat timeout (None disables the failure detector).
    timeout: Option<Duration>,
}

/// How long a doomed in-flight entry waits for a resolving event (the
/// sender's `Sent`/`Requeued` outcome or the destination's import
/// acknowledgement, both generated within milliseconds) before its jobs are
/// reclaimed. Far above event latency, far below the failure timeout.
const DOOM_GRACE: Duration = Duration::from_millis(100);

/// Minimum silence before a member that has *never* made contact is
/// declared dead: spawning the process, shipping the run spec, and engine
/// setup can far exceed the steady-state heartbeat timeout.
const STARTUP_GRACE: Duration = Duration::from_secs(10);

impl Membership {
    /// Creates an empty membership with the given failure-detection timeout.
    pub fn new(timeout: Option<Duration>) -> Membership {
        Membership {
            members: Vec::new(),
            in_flight: BTreeMap::new(),
            pre_acked: BTreeSet::new(),
            pool: Vec::new(),
            inject_seq: 0,
            next_epoch: 1,
            timeout,
        }
    }

    /// Admits a joining worker — the only way a member enters — assigning
    /// a fresh identity and epoch. When `previous` names a live previous
    /// incarnation of the same daemon, that incarnation is fenced off
    /// first: marked dead, its jobs reclaimed, its stale frames rejected
    /// from now on.
    pub fn join(
        &mut self,
        addr: String,
        previous: Option<(WorkerId, u64)>,
        now: Instant,
    ) -> (WorkerId, u64) {
        if let Some((old, old_epoch)) = previous {
            if let Some(member) = self.members.get(old.index()) {
                if member.epoch == old_epoch && member.is_alive() {
                    self.mark_dead(old, now);
                }
            }
        }
        let worker = WorkerId(self.members.len() as u32);
        let epoch = self.next_epoch;
        self.next_epoch += 1;
        self.members
            .push(MemberState::new(worker, epoch, addr, now));
        (worker, epoch)
    }

    /// Handles a graceful departure. Returns true when the member was alive
    /// with a current epoch and an open stream (a daemon leaves after its
    /// last report, whose frontier the final checkpoint needs).
    pub fn leave(&mut self, worker: WorkerId, epoch: u64, now: Instant) -> bool {
        let Some(member) = self.members.get_mut(worker.index()) else {
            return false;
        };
        if member.epoch != epoch || !member.is_alive() || member.closed {
            return false;
        }
        member.health = MemberHealth::Left;
        self.reclaim(worker, now);
        true
    }

    /// Records a transport heartbeat. Returns true when accepted: like
    /// every frame, a heartbeat must carry the member's current epoch (a
    /// worker stamps the one its admission assigned).
    pub fn record_heartbeat(&mut self, worker: WorkerId, epoch: u64, now: Instant) -> bool {
        let Some(member) = self.members.get_mut(worker.index()) else {
            return false;
        };
        if member.epoch != epoch || !member.is_alive() {
            return false;
        }
        member.last_contact = now;
        member.contacted = true;
        true
    }

    /// Records a status report: liveness, queue, stats, the frontier
    /// snapshot (replacing the ledger) with the bugs it ships, all
    /// piggybacked transfer events, and the streamed test cases (moved out
    /// of the report; a snapshot-bearing report confirms every case up to
    /// and including its own). A last report closes the member's stream.
    /// Returns false — and changes nothing — for reports from fenced-off
    /// epochs, dead members or closed streams.
    pub fn record_status(&mut self, report: &mut StatusReport, now: Instant) -> bool {
        let w = report.worker;
        let Some(member) = self.members.get_mut(w.index()) else {
            return false;
        };
        if member.epoch != report.epoch || !member.is_alive() || member.closed {
            return false;
        }
        member.last_contact = now;
        member.contacted = true;
        member.latest_stats = report.stats.clone();
        member.closed = report.last;
        member.idle = report.idle || report.last;
        member.queue_length = if report.last { 0 } else { report.queue_length };
        member.test_cases.append(&mut report.test_cases);
        if report.frontier.is_some() {
            member.confirmed = member.test_cases.len();
        }
        // Transfer events happened before the snapshot in the same report
        // (the worker loop is single-threaded), so apply them first and let
        // the snapshot replace the result wholesale.
        self.apply_transfers(w, &report.transfers, now);
        if let Some(encoded) = &report.frontier {
            let jobs = JobTree::decode(encoded)
                .map(|t| t.to_jobs())
                .unwrap_or_default();
            let member = &mut self.members[w.index()];
            member.ledger = jobs.into_iter().collect();
            member.snapshot_stats = report.stats.clone();
            member.bugs.append(&mut report.new_bugs);
        }
        true
    }

    /// Moves every member's confirmed test cases out (a member's
    /// unconfirmed tail stays until a snapshot confirms it).
    /// What a member never confirms — the cases of paths past its last
    /// snapshot when it dies — is never taken: those paths are re-explored
    /// from its reclaimed frontier.
    pub fn take_confirmed_test_cases(&mut self) -> Vec<TestCase> {
        let mut taken = Vec::new();
        for member in &mut self.members {
            taken.extend(member.test_cases.drain(..member.confirmed));
            member.confirmed = 0;
        }
        taken
    }

    fn apply_transfers(&mut self, w: WorkerId, transfers: &[TransferEvent], now: Instant) {
        for event in transfers {
            match event {
                TransferEvent::Exported {
                    destination,
                    seq,
                    encoded,
                } => {
                    let jobs = JobTree::decode(encoded)
                        .map(|t| t.to_jobs())
                        .unwrap_or_default();
                    for job in &jobs {
                        self.members[w.index()].ledger.remove(job);
                    }
                    let key = (w, *destination, *seq);
                    if self.pre_acked.remove(&key) {
                        // The destination already confirmed (and its
                        // payload-carrying acknowledgement already routed
                        // the jobs); nothing left to track.
                        continue;
                    }
                    let dest_alive = self
                        .members
                        .get(destination.index())
                        .map(MemberState::is_alive)
                        .unwrap_or(false);
                    self.in_flight.insert(
                        key,
                        InFlight {
                            jobs,
                            state: InFlightState::Announced,
                            since: now,
                            // Towards a corpse the batch cannot be
                            // acknowledged; wait only for the sender's
                            // Sent/Requeued outcome.
                            doomed_since: (!dest_alive).then_some(now),
                        },
                    );
                }
                TransferEvent::Sent { destination, seq } => {
                    let key = (w, *destination, *seq);
                    let dest_alive = self
                        .members
                        .get(destination.index())
                        .map(MemberState::is_alive)
                        .unwrap_or(false);
                    if dest_alive {
                        if let Some(entry) = self.in_flight.get_mut(&key) {
                            entry.state = InFlightState::Sent;
                        }
                    } else if let Some(entry) = self.in_flight.remove(&key) {
                        // Written into a dead worker's socket: the sender
                        // gave the jobs up and nobody will acknowledge
                        // them.
                        self.pool.extend(entry.jobs);
                    }
                }
                TransferEvent::Requeued { destination, seq } => {
                    // The export failed and the source took the jobs back.
                    if let Some(entry) = self.in_flight.remove(&(w, *destination, *seq)) {
                        self.members[w.index()].ledger.extend(entry.jobs);
                    }
                }
                TransferEvent::Imported {
                    source,
                    seq,
                    encoded,
                } => {
                    let key = (*source, w, *seq);
                    if let Some(entry) = self.in_flight.remove(&key) {
                        self.members[w.index()].ledger.extend(entry.jobs);
                    } else if *source != COORDINATOR {
                        // Acknowledgement without a matching export notice:
                        // either the ack raced ahead of the notice, or the
                        // sender died before flushing it. The echoed
                        // payload keeps the ledger exact either way — the
                        // jobs leave the sender's ledger (or the reclaim
                        // pool, if the sender was already reclaimed) and
                        // enter this worker's.
                        let jobs = JobTree::decode(encoded)
                            .map(|t| t.to_jobs())
                            .unwrap_or_default();
                        if let Some(sender) = self.members.get_mut(source.index()) {
                            for job in &jobs {
                                sender.ledger.remove(job);
                            }
                        }
                        for job in &jobs {
                            if let Some(pos) = self.pool.iter().position(|p| p == job) {
                                self.pool.swap_remove(pos);
                            }
                        }
                        self.members[w.index()].ledger.extend(jobs);
                        self.pre_acked.insert(key);
                    }
                }
            }
        }
    }

    /// Runs the failure detector: members silent for longer than the
    /// timeout are declared dead and their jobs reclaimed. Doomed in-flight
    /// entries (an endpoint died) whose grace period passed without a
    /// resolving event are swept into the pool, as are peer batches that
    /// provably died on the wire (older than the timeout with an idle,
    /// live destination — a live receiver drains its socket every quantum,
    /// so an unacknowledged old batch is lost). Returns the newly dead
    /// members.
    pub fn detect_failures(&mut self, now: Instant) -> Vec<WorkerId> {
        let mut dead = Vec::new();
        if let Some(timeout) = self.timeout {
            for i in 0..self.members.len() {
                let member = &self.members[i];
                let effective = if member.contacted {
                    timeout
                } else {
                    timeout.max(STARTUP_GRACE)
                };
                if member.is_alive()
                    && !member.closed
                    && now.duration_since(member.last_contact) > effective
                {
                    let w = member.worker;
                    self.mark_dead(w, now);
                    dead.push(w);
                }
            }
        }
        // The doomed sweep runs even with the heartbeat detector off:
        // members also die through re-join fencing and graceful leaves,
        // and their doomed in-flight entries must still resolve or the
        // run never settles.
        let expired: Vec<(WorkerId, WorkerId, u64)> = self
            .in_flight
            .iter()
            .filter(|((src, dst, _), entry)| {
                let doom_expired = entry
                    .doomed_since
                    .map(|since| now.duration_since(since) > DOOM_GRACE)
                    .unwrap_or(false);
                // An `Inject` rides the destination's own control
                // connection, which loses frames only by dying with the
                // member; and its acknowledgement can lag far past the
                // timeout on a starved machine, so sweeping it would hand
                // the same jobs out twice.
                let lost_on_wire = *src != COORDINATOR
                    && self.timeout.is_some_and(|timeout| {
                        now.duration_since(entry.since) > timeout
                            && self
                                .members
                                .get(dst.index())
                                .map(|m| m.is_alive() && m.idle)
                                .unwrap_or(false)
                    });
                doom_expired || lost_on_wire
            })
            .map(|(key, _)| *key)
            .collect();
        for key in expired {
            if let Some(entry) = self.in_flight.remove(&key) {
                self.pool.extend(entry.jobs);
            }
        }
        dead
    }

    /// Declares a member dead and reclaims everything it owned.
    pub fn mark_dead(&mut self, worker: WorkerId, now: Instant) {
        let Some(member) = self.members.get_mut(worker.index()) else {
            return;
        };
        if !member.is_alive() {
            return;
        }
        member.health = MemberHealth::Dead;
        self.reclaim(worker, now);
    }

    /// Reclaims a dead member's jobs. The ledger is drained into the pool
    /// immediately; in-flight batches touching the corpse are *doomed*
    /// rather than taken at once, because a resolving event may already be
    /// in the coordinator's receive queue (the destination's import
    /// acknowledgement for a batch the corpse sent, or the live sender's
    /// `Sent`/`Requeued` outcome for a batch towards the corpse). Entries
    /// in `Sent` state towards the corpse can only ever be acknowledged by
    /// the corpse itself, whose frames are now rejected — those are pooled
    /// immediately. Idempotent: the ledger is drained and the member no
    /// longer accepts status reports, so jobs are reclaimed exactly once.
    fn reclaim(&mut self, worker: WorkerId, now: Instant) {
        let member = &mut self.members[worker.index()];
        self.pool.extend(std::mem::take(&mut member.ledger));
        // The unconfirmed tail belongs to paths the pool re-explores.
        member.test_cases.truncate(member.confirmed);
        let touching: Vec<(WorkerId, WorkerId, u64)> = self
            .in_flight
            .keys()
            .filter(|(src, dst, _)| *src == worker || *dst == worker)
            .copied()
            .collect();
        for key in touching {
            let (_, dst, _) = key;
            let take_now = dst == worker
                && self
                    .in_flight
                    .get(&key)
                    .map(|e| e.state == InFlightState::Sent)
                    .unwrap_or(false);
            if take_now {
                if let Some(entry) = self.in_flight.remove(&key) {
                    self.pool.extend(entry.jobs);
                }
            } else if let Some(entry) = self.in_flight.get_mut(&key) {
                entry.doomed_since.get_or_insert(now);
            }
        }
    }

    /// Seeds the re-injection pool (resumed checkpoint frontier).
    pub fn seed_pool(&mut self, jobs: Vec<Job>) {
        self.pool.extend(jobs);
    }

    /// Takes the jobs currently awaiting re-injection.
    pub fn take_pool(&mut self) -> Vec<Job> {
        std::mem::take(&mut self.pool)
    }

    /// Registers a coordinator-injected batch so it is tracked like any
    /// other in-flight transfer until the destination acknowledges it.
    /// Returns the sequence number to put into the `Inject` control.
    pub fn record_inject(&mut self, destination: WorkerId, jobs: Vec<Job>, now: Instant) -> u64 {
        self.inject_seq += 1;
        self.in_flight.insert(
            (COORDINATOR, destination, self.inject_seq),
            InFlight {
                jobs,
                state: InFlightState::Sent,
                since: now,
                doomed_since: None,
            },
        );
        self.inject_seq
    }

    /// Rolls back a failed inject: the jobs return to the pool.
    pub fn cancel_inject(&mut self, destination: WorkerId, seq: u64) {
        if let Some(entry) = self.in_flight.remove(&(COORDINATOR, destination, seq)) {
            self.pool.extend(entry.jobs);
        }
    }

    /// Whether no job is in flight or awaiting re-injection — together with
    /// every live worker reporting an empty queue, this is the cluster-wide
    /// exhaustion condition.
    pub fn settled(&self) -> bool {
        self.in_flight.is_empty() && self.pool.is_empty()
    }

    /// All members (indexed by worker id).
    pub fn members(&self) -> &[MemberState] {
        &self.members
    }

    /// One member, when it exists.
    pub fn member(&self, worker: WorkerId) -> Option<&MemberState> {
        self.members.get(worker.index())
    }

    /// Identities of all live members.
    pub fn alive(&self) -> Vec<WorkerId> {
        self.members
            .iter()
            .filter(|m| m.is_alive())
            .map(|m| m.worker)
            .collect()
    }

    /// Number of live members.
    pub fn alive_count(&self) -> usize {
        self.members.iter().filter(|m| m.is_alive()).count()
    }

    /// Total members ever admitted.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether no member was ever admitted.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The wire-format peer table announced to workers.
    pub fn peer_infos(&self) -> Vec<PeerInfo> {
        self.members
            .iter()
            .map(|m| PeerInfo {
                worker: m.worker,
                addr: m.addr.clone(),
                epoch: m.epoch,
                alive: m.is_alive(),
            })
            .collect()
    }

    /// The global frontier: every ledger, every in-flight batch, and the
    /// pool. This is what a checkpoint must persist for a resumed run to
    /// re-execute exactly the pending work.
    pub fn frontier_jobs(&self) -> Vec<Job> {
        let mut jobs: BTreeSet<Job> = BTreeSet::new();
        for member in &self.members {
            jobs.extend(member.ledger.iter().cloned());
        }
        for entry in self.in_flight.values() {
            jobs.extend(entry.jobs.iter().cloned());
        }
        jobs.extend(self.pool.iter().cloned());
        jobs.into_iter().collect()
    }
}

/// A serialized snapshot of a run: what each worker had completed (stats)
/// and what remained pending (the global frontier), plus accumulated
/// coverage. Written periodically by the coordinator and at the end of a
/// limited run; `--resume` continues from it.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Checkpoint {
    /// The workload name, to catch resuming against the wrong target.
    pub target: String,
    /// Per-worker statistics of prior (checkpointed) work, flattened
    /// across chained resumes.
    pub base_stats: Vec<WorkerStats>,
    /// The encoded global frontier ([`JobTree::encode`]).
    pub frontier: Vec<u8>,
    /// Accumulated global coverage.
    pub coverage: CoverageSet,
    /// Wall-clock time already spent across prior runs.
    pub elapsed: Duration,
}

/// The first bytes of every checkpoint file.
pub const CHECKPOINT_MAGIC: &[u8; 8] = b"C9CKPT\0\0";

/// Version of the checkpoint payload layout, written after
/// [`CHECKPOINT_MAGIC`] as a little-endian `u32`. Bump it whenever the
/// bincode layout of [`Checkpoint`] (including the [`WorkerStats`] inside
/// `base_stats`) changes: bincode carries no field names, so an old file
/// can decode into garbage instead of failing.
///
/// - v1: the first versioned layout (checkpoints written before it carry
///   no header at all).
/// - v2: `SolverStats` counts `search_nodes`.
/// - v3: the run id is gone.
pub const CHECKPOINT_VERSION: u32 = 3;

impl Checkpoint {
    /// The pending jobs this checkpoint carries.
    pub fn jobs(&self) -> Vec<Job> {
        JobTree::decode(&self.frontier)
            .map(|t| t.to_jobs())
            .unwrap_or_default()
    }

    /// Total paths completed by the checkpointed prior runs.
    pub fn base_paths(&self) -> u64 {
        self.base_stats.iter().map(|s| s.paths_completed).sum()
    }

    /// Serializes and writes the checkpoint atomically (temp file +
    /// rename), so a crash mid-write never corrupts the previous one. The
    /// payload is preceded by [`CHECKPOINT_MAGIC`] and
    /// [`CHECKPOINT_VERSION`].
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        let payload = bincode::serialize(self).map_err(invalid_data)?;
        let mut bytes = Vec::with_capacity(CHECKPOINT_MAGIC.len() + 4 + payload.len());
        bytes.extend_from_slice(CHECKPOINT_MAGIC);
        bytes.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
        bytes.extend_from_slice(&payload);
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, &bytes)?;
        std::fs::rename(&tmp, path)
    }

    /// Loads a checkpoint written by [`Checkpoint::save`]. A file without
    /// the header, with another layout version, or with a truncated or
    /// malformed payload is refused with [`std::io::ErrorKind::InvalidData`].
    pub fn load(path: &Path) -> std::io::Result<Checkpoint> {
        let bytes = std::fs::read(path)?;
        let header = bytes
            .strip_prefix(CHECKPOINT_MAGIC.as_slice())
            .and_then(|rest| rest.split_first_chunk::<4>());
        let Some((version, payload)) = header else {
            return Err(invalid_data(format!(
                "not a checkpoint of a known layout: missing or truncated header \
                 (this build reads version {CHECKPOINT_VERSION})"
            )));
        };
        let version = u32::from_le_bytes(*version);
        if version != CHECKPOINT_VERSION {
            return Err(invalid_data(format!(
                "checkpoint layout version {version} is not supported (this build reads \
                 version {CHECKPOINT_VERSION})"
            )));
        }
        bincode::deserialize(payload).map_err(invalid_data)
    }
}

fn invalid_data(e: impl ToString) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use c9_vm::PathChoice;

    fn job(bits: &[bool]) -> Job {
        Job::new(bits.iter().map(|b| PathChoice::Branch(*b)).collect())
    }

    fn encoded(jobs: &[Job]) -> Vec<u8> {
        JobTree::from_jobs(jobs).encode()
    }

    fn status(w: WorkerId, epoch: u64, frontier: Option<&[Job]>) -> StatusReport {
        StatusReport {
            worker: w,
            epoch,
            queue_length: frontier.map(|f| f.len() as u64).unwrap_or(0),
            coverage: CoverageSet::new(8),
            stats: WorkerStats::default(),
            idle: false,
            last: false,
            frontier: frontier.map(encoded),
            new_bugs: Vec::new(),
            transfers: Vec::new(),
            test_cases: Vec::new(),
        }
    }

    fn two_member_cluster(timeout: Duration) -> (Membership, Instant) {
        let now = Instant::now();
        let mut m = Membership::new(Some(timeout));
        m.join("127.0.0.1:1".into(), None, now);
        m.join("127.0.0.1:2".into(), None, now);
        (m, now)
    }

    #[test]
    fn heartbeat_timeout_marks_dead_and_reclaims_exactly_once() {
        let (mut m, now) = two_member_cluster(Duration::from_millis(100));
        let jobs = [job(&[true]), job(&[false, true])];
        assert!(m.record_status(&mut status(WorkerId(0), 1, Some(&jobs)), now));

        // Worker 1 keeps heartbeating; worker 0 goes silent.
        let later = now + Duration::from_millis(200);
        assert!(m.record_heartbeat(WorkerId(1), 2, later));
        let dead = m.detect_failures(later);
        assert_eq!(dead, vec![WorkerId(0)]);
        assert_eq!(m.member(WorkerId(0)).unwrap().health, MemberHealth::Dead);

        // The dead worker's frontier is reclaimed, exactly once.
        let reclaimed = m.take_pool();
        assert_eq!(reclaimed.len(), 2);
        let even_later = later + Duration::from_secs(1);
        assert!(m.record_heartbeat(WorkerId(1), 2, even_later));
        assert!(m.detect_failures(even_later).is_empty());
        assert!(m.take_pool().is_empty(), "jobs must be reclaimed only once");

        // And the corpse rejects further reports.
        assert!(!m.record_status(&mut status(WorkerId(0), 1, Some(&jobs)), later));
        assert!(!m.record_heartbeat(WorkerId(0), 1, later));
    }

    #[test]
    fn heartbeats_keep_members_alive() {
        let (mut m, now) = two_member_cluster(Duration::from_millis(100));
        let mut t = now;
        for _ in 0..5 {
            t += Duration::from_millis(50);
            assert!(m.record_heartbeat(WorkerId(0), 1, t));
            assert!(m.record_heartbeat(WorkerId(1), 2, t));
            assert!(m.detect_failures(t).is_empty());
        }
    }

    #[test]
    fn a_heartbeat_of_an_older_epoch_is_refused() {
        let (mut m, now) = two_member_cluster(Duration::from_millis(100));
        assert!(m.record_heartbeat(WorkerId(0), 1, now));
        assert!(m.record_heartbeat(WorkerId(1), 2, now));
        let later = now + Duration::from_millis(80);
        assert!(m.record_heartbeat(WorkerId(0), 1, later));
        for stale in [0, 1] {
            assert!(
                !m.record_heartbeat(WorkerId(1), stale, later),
                "epoch {stale}"
            );
        }
        // A refused heartbeat is no contact: w1 falls silent and dies.
        let dead = m.detect_failures(now + Duration::from_millis(150));
        assert_eq!(dead, vec![WorkerId(1)]);
    }

    #[test]
    fn stale_epoch_reports_are_fenced_off() {
        let now = Instant::now();
        let mut m = Membership::new(None);
        let (w, epoch) = m.join("a:1".into(), None, now);
        assert!(m.record_status(&mut status(w, epoch, None), now));
        assert!(!m.record_status(&mut status(w, epoch + 1, None), now));
        assert!(!m.record_status(&mut status(w, epoch - 1, None), now));
    }

    #[test]
    fn rejoin_fences_previous_incarnation_and_reclaims_its_jobs() {
        let (mut m, now) = two_member_cluster(Duration::from_secs(10));
        let jobs = [job(&[true, true])];
        assert!(m.record_status(&mut status(WorkerId(0), 1, Some(&jobs)), now));

        let (new_id, new_epoch) = m.join("127.0.0.1:9".into(), Some((WorkerId(0), 1)), now);
        assert_eq!(new_id, WorkerId(2));
        assert!(new_epoch > 1);
        assert_eq!(m.member(WorkerId(0)).unwrap().health, MemberHealth::Dead);
        assert_eq!(m.take_pool().len(), 1);
        // Old-incarnation frames are rejected from now on.
        assert!(!m.record_status(&mut status(WorkerId(0), 1, Some(&jobs)), now));
    }

    #[test]
    fn graceful_leave_reclaims_immediately() {
        let (mut m, now) = two_member_cluster(Duration::from_secs(10));
        let jobs = [job(&[false]), job(&[true])];
        assert!(m.record_status(&mut status(WorkerId(1), 2, Some(&jobs)), now));
        assert!(m.leave(WorkerId(1), 2, now));
        assert_eq!(m.member(WorkerId(1)).unwrap().health, MemberHealth::Left);
        assert_eq!(m.take_pool().len(), 2);
        assert!(!m.leave(WorkerId(1), 2, now), "second leave is a no-op");
    }

    #[test]
    fn export_then_import_moves_jobs_between_ledgers() {
        let (mut m, now) = two_member_cluster(Duration::from_secs(10));
        let all = [job(&[true]), job(&[false])];
        assert!(m.record_status(&mut status(WorkerId(0), 1, Some(&all)), now));

        // Worker 0 exports one job to worker 1.
        let moved = [job(&[false])];
        let mut report = status(WorkerId(0), 1, None);
        report.transfers = vec![TransferEvent::Exported {
            destination: WorkerId(1),
            seq: 1,
            encoded: encoded(&moved),
        }];
        assert!(m.record_status(&mut report, now));
        assert_eq!(m.member(WorkerId(0)).unwrap().ledger_len(), 1);
        assert!(!m.settled(), "batch is in flight");

        // Worker 1 acknowledges the import.
        let mut ack = status(WorkerId(1), 2, None);
        ack.transfers = vec![TransferEvent::Imported {
            source: WorkerId(0),
            seq: 1,
            encoded: encoded(&moved),
        }];
        assert!(m.record_status(&mut ack, now));
        assert!(m.settled());
        assert_eq!(m.member(WorkerId(1)).unwrap().ledger_len(), 1);
    }

    #[test]
    fn import_ack_arriving_before_export_notice_still_routes_jobs() {
        let (mut m, now) = two_member_cluster(Duration::from_secs(10));
        let all = [job(&[true]), job(&[false])];
        assert!(m.record_status(&mut status(WorkerId(0), 1, Some(&all)), now));

        // The receiver's payload-carrying ack races ahead of the sender's
        // notice; the payload alone must move the jobs between ledgers.
        let moved = [job(&[true])];
        let mut ack = status(WorkerId(1), 2, None);
        ack.transfers = vec![TransferEvent::Imported {
            source: WorkerId(0),
            seq: 1,
            encoded: encoded(&moved),
        }];
        assert!(m.record_status(&mut ack, now));
        assert_eq!(m.member(WorkerId(0)).unwrap().ledger_len(), 1);
        assert_eq!(m.member(WorkerId(1)).unwrap().ledger_len(), 1);

        let mut notice = status(WorkerId(0), 1, None);
        notice.transfers = vec![TransferEvent::Exported {
            destination: WorkerId(1),
            seq: 1,
            encoded: encoded(&moved),
        }];
        assert!(m.record_status(&mut notice, now));
        assert!(m.settled());
        assert_eq!(m.member(WorkerId(0)).unwrap().ledger_len(), 1);
        assert_eq!(m.member(WorkerId(1)).unwrap().ledger_len(), 1);
    }

    #[test]
    fn ack_after_sender_death_moves_jobs_out_of_the_reclaimed_set() {
        // Worker 0 ships a batch and dies before flushing the export
        // notice. Its ledger still carries the jobs; the receiver's
        // payload ack must pull them out so they are not re-injected.
        let (mut m, now) = two_member_cluster(Duration::from_secs(10));
        let all = [job(&[true]), job(&[false])];
        assert!(m.record_status(&mut status(WorkerId(0), 1, Some(&all)), now));

        let moved = [job(&[false])];
        let mut ack = status(WorkerId(1), 2, None);
        ack.transfers = vec![TransferEvent::Imported {
            source: WorkerId(0),
            seq: 3,
            encoded: encoded(&moved),
        }];
        assert!(m.record_status(&mut ack, now));

        m.mark_dead(WorkerId(0), now);
        let reclaimed = m.take_pool();
        assert_eq!(reclaimed, vec![job(&[true])], "only the unshipped job");
        assert_eq!(m.member(WorkerId(1)).unwrap().ledger_len(), 1);
    }

    #[test]
    fn requeued_export_returns_jobs_to_the_source_ledger() {
        let (mut m, now) = two_member_cluster(Duration::from_secs(10));
        let all = [job(&[true])];
        assert!(m.record_status(&mut status(WorkerId(0), 1, Some(&all)), now));
        let mut notice = status(WorkerId(0), 1, None);
        notice.transfers = vec![TransferEvent::Exported {
            destination: WorkerId(1),
            seq: 1,
            encoded: encoded(&all),
        }];
        assert!(m.record_status(&mut notice, now));
        assert_eq!(m.member(WorkerId(0)).unwrap().ledger_len(), 0);

        let mut requeue = status(WorkerId(0), 1, None);
        requeue.transfers = vec![TransferEvent::Requeued {
            destination: WorkerId(1),
            seq: 1,
        }];
        assert!(m.record_status(&mut requeue, now));
        assert!(m.settled());
        assert_eq!(m.member(WorkerId(0)).unwrap().ledger_len(), 1);
    }

    #[test]
    fn death_reclaims_batches_in_flight_to_and_from_the_corpse() {
        let now = Instant::now();
        let timeout = Duration::from_millis(300);
        let mut m = Membership::new(Some(timeout));
        for i in 0..3 {
            m.join(format!("a:{i}"), None, now);
        }
        // 0 → 1 (sent) and 1 → 2 (sent), neither acknowledged; then worker
        // 1 dies.
        let mut n0 = status(WorkerId(0), 1, None);
        n0.transfers = vec![
            TransferEvent::Exported {
                destination: WorkerId(1),
                seq: 1,
                encoded: encoded(&[job(&[true])]),
            },
            TransferEvent::Sent {
                destination: WorkerId(1),
                seq: 1,
            },
        ];
        assert!(m.record_status(&mut n0, now));
        let mut n1 = status(WorkerId(1), 2, None);
        n1.transfers = vec![
            TransferEvent::Exported {
                destination: WorkerId(2),
                seq: 1,
                encoded: encoded(&[job(&[false])]),
            },
            TransferEvent::Sent {
                destination: WorkerId(2),
                seq: 1,
            },
        ];
        assert!(m.record_status(&mut n1, now));

        m.mark_dead(WorkerId(1), now);
        // The batch *towards* the corpse was in wire custody: nobody can
        // acknowledge it, so it is reclaimed at once. The batch *from* the
        // corpse might still be acknowledged by its live receiver — it
        // waits out the grace period first.
        assert_eq!(m.take_pool(), vec![job(&[true])]);
        assert!(!m.settled());
        let later = now + DOOM_GRACE + Duration::from_millis(50);
        assert!(m.record_heartbeat(WorkerId(0), 1, later));
        assert!(m.record_heartbeat(WorkerId(2), 3, later));
        assert!(m.detect_failures(later).is_empty());
        assert_eq!(m.take_pool(), vec![job(&[false])]);
        assert!(m.settled());
    }

    #[test]
    fn doomed_batch_from_corpse_resolved_by_late_ack_is_not_reclaimed() {
        let now = Instant::now();
        let timeout = Duration::from_millis(300);
        let mut m = Membership::new(Some(timeout));
        m.join("a:0".into(), None, now);
        m.join("a:1".into(), None, now);
        let mut notice = status(WorkerId(0), 1, None);
        notice.transfers = vec![
            TransferEvent::Exported {
                destination: WorkerId(1),
                seq: 1,
                encoded: encoded(&[job(&[true])]),
            },
            TransferEvent::Sent {
                destination: WorkerId(1),
                seq: 1,
            },
        ];
        assert!(m.record_status(&mut notice, now));
        m.mark_dead(WorkerId(0), now);
        assert!(m.take_pool().is_empty(), "entry only doomed, not taken");

        // The receiver's ack was already queued when the sender died: it
        // resolves the doomed entry within the grace period.
        let mut ack = status(WorkerId(1), 2, None);
        ack.transfers = vec![TransferEvent::Imported {
            source: WorkerId(0),
            seq: 1,
            encoded: encoded(&[job(&[true])]),
        }];
        assert!(m.record_status(&mut ack, now + Duration::from_millis(10)));
        assert_eq!(m.member(WorkerId(1)).unwrap().ledger_len(), 1);
        let later = now + DOOM_GRACE + Duration::from_millis(50);
        assert!(m.record_heartbeat(WorkerId(1), 2, later));
        assert!(m.detect_failures(later).is_empty());
        assert!(
            m.take_pool().is_empty(),
            "resolved entry must not be reclaimed"
        );
        assert!(m.settled());
    }

    #[test]
    fn requeued_after_destination_death_returns_jobs_without_duplication() {
        // The balancer asked 0 to ship to 1 just as 1 died: 0's write
        // fails and it requeues. The announced entry is doomed at 1's
        // death but 0's Requeued outcome must win over the grace sweep.
        let (mut m, now) = two_member_cluster(Duration::from_millis(300));
        let all = [job(&[true])];
        assert!(m.record_status(&mut status(WorkerId(0), 1, Some(&all)), now));
        let mut notice = status(WorkerId(0), 1, None);
        notice.transfers = vec![TransferEvent::Exported {
            destination: WorkerId(1),
            seq: 1,
            encoded: encoded(&all),
        }];
        assert!(m.record_status(&mut notice, now));
        m.mark_dead(WorkerId(1), now);
        assert!(m.take_pool().is_empty());

        let mut requeue = status(WorkerId(0), 1, None);
        requeue.transfers = vec![TransferEvent::Requeued {
            destination: WorkerId(1),
            seq: 1,
        }];
        assert!(m.record_status(&mut requeue, now + Duration::from_millis(5)));
        assert_eq!(m.member(WorkerId(0)).unwrap().ledger_len(), 1);
        let later = now + DOOM_GRACE + Duration::from_millis(50);
        assert!(m.record_heartbeat(WorkerId(0), 1, later));
        assert!(m.detect_failures(later).is_empty());
        assert!(
            m.take_pool().is_empty(),
            "requeued jobs stay with the sender"
        );
        assert!(m.settled());
    }

    #[test]
    fn sent_into_an_already_dead_destination_is_reclaimed_on_the_outcome() {
        let (mut m, now) = two_member_cluster(Duration::from_secs(10));
        m.mark_dead(WorkerId(1), now);
        let _ = m.take_pool();
        let mut notice = status(WorkerId(0), 1, None);
        notice.transfers = vec![
            TransferEvent::Exported {
                destination: WorkerId(1),
                seq: 7,
                encoded: encoded(&[job(&[true, false])]),
            },
            TransferEvent::Sent {
                destination: WorkerId(1),
                seq: 7,
            },
        ];
        assert!(m.record_status(&mut notice, now));
        assert_eq!(m.take_pool().len(), 1);
        assert!(m.settled());
    }

    #[test]
    fn coordinator_inject_is_tracked_until_acknowledged() {
        let (mut m, now) = two_member_cluster(Duration::from_secs(10));
        let seq = m.record_inject(WorkerId(1), vec![job(&[true])], now);
        assert!(!m.settled());
        let mut ack = status(WorkerId(1), 2, None);
        ack.transfers = vec![TransferEvent::Imported {
            source: COORDINATOR,
            seq,
            encoded: encoded(&[job(&[true])]),
        }];
        assert!(m.record_status(&mut ack, now));
        assert!(m.settled());
        assert_eq!(m.member(WorkerId(1)).unwrap().ledger_len(), 1);
    }

    #[test]
    fn cancelled_inject_returns_jobs_to_the_pool() {
        let (mut m, now) = two_member_cluster(Duration::from_secs(10));
        let seq = m.record_inject(WorkerId(1), vec![job(&[true])], now);
        m.cancel_inject(WorkerId(1), seq);
        assert_eq!(m.take_pool().len(), 1);
    }

    #[test]
    fn stale_in_flight_batch_to_an_idle_destination_is_swept() {
        let (mut m, now) = two_member_cluster(Duration::from_millis(100));
        let mut notice = status(WorkerId(0), 1, None);
        notice.transfers = vec![TransferEvent::Exported {
            destination: WorkerId(1),
            seq: 1,
            encoded: encoded(&[job(&[true])]),
        }];
        assert!(m.record_status(&mut notice, now));

        // The destination reports idle long past the timeout without ever
        // acknowledging: the batch died on the wire.
        let later = now + Duration::from_millis(500);
        let mut idle = status(WorkerId(1), 2, None);
        idle.idle = true;
        assert!(m.record_status(&mut idle, later));
        assert!(m.record_heartbeat(WorkerId(0), 1, later));
        assert!(m.detect_failures(later).is_empty());
        assert_eq!(m.take_pool().len(), 1);
        assert!(m.settled());
    }

    #[test]
    fn a_slow_inject_acknowledgement_is_waited_for_not_swept() {
        let (mut m, now) = two_member_cluster(Duration::from_millis(100));
        let seq = m.record_inject(WorkerId(1), vec![job(&[true])], now);
        // The destination looks idle long past the timeout: it has not got
        // round to the inject yet (a starved process), or its
        // acknowledgement waits in the coordinator's queue.
        let later = now + Duration::from_millis(500);
        let mut idle = status(WorkerId(1), 2, None);
        idle.idle = true;
        assert!(m.record_status(&mut idle, later));
        assert!(m.record_heartbeat(WorkerId(0), 1, later));
        assert!(m.detect_failures(later).is_empty());
        assert!(
            m.take_pool().is_empty(),
            "the jobs must not be handed out twice"
        );
        let mut ack = status(WorkerId(1), 2, None);
        ack.transfers = vec![TransferEvent::Imported {
            source: COORDINATOR,
            seq,
            encoded: encoded(&[job(&[true])]),
        }];
        assert!(m.record_status(&mut ack, later));
        assert!(m.settled());
    }

    #[test]
    fn frontier_union_covers_ledgers_in_flight_and_pool() {
        let (mut m, now) = two_member_cluster(Duration::from_secs(10));
        assert!(m.record_status(&mut status(WorkerId(0), 1, Some(&[job(&[true])])), now));
        let mut notice = status(WorkerId(1), 2, Some(&[job(&[false])]));
        notice.transfers = vec![TransferEvent::Exported {
            destination: WorkerId(0),
            seq: 1,
            encoded: encoded(&[job(&[false, false])]),
        }];
        assert!(m.record_status(&mut notice, now));
        m.seed_pool(vec![job(&[true, true])]);
        let frontier = m.frontier_jobs();
        assert_eq!(frontier.len(), 4);
    }

    #[test]
    fn eagerly_shipped_bugs_survive_on_the_member_record() {
        let (mut m, now) = two_member_cluster(Duration::from_millis(100));
        let mut report = status(WorkerId(0), 1, Some(&[job(&[true])]));
        report.new_bugs = vec![TestCase::new(
            Vec::new(),
            vec![PathChoice::Branch(true)],
            c9_vm::TerminationReason::Exit(1),
            3,
        )];
        assert!(m.record_status(&mut report, now));
        assert_eq!(m.member(WorkerId(0)).unwrap().bugs.len(), 1);
        // The record outlives the member's death — that is its purpose.
        m.mark_dead(WorkerId(0), now);
        assert_eq!(m.member(WorkerId(0)).unwrap().bugs.len(), 1);
    }

    /// A test case on the path `[b0, b1, ...]` of `i`'s low bits.
    fn case(i: u8) -> TestCase {
        TestCase::new(
            Vec::new(),
            (0..8)
                .map(|b| PathChoice::Branch((i >> b) & 1 == 1))
                .collect(),
            c9_vm::TerminationReason::Exit(0),
            u64::from(i),
        )
    }

    fn streaming(w: WorkerId, epoch: u64, snapshot: bool, cases: &[u8]) -> StatusReport {
        let mut report = status(w, epoch, snapshot.then_some(&[][..]));
        report.test_cases = cases.iter().copied().map(case).collect();
        report
    }

    fn paths(cases: &[TestCase]) -> Vec<u64> {
        cases.iter().map(|c| c.instructions).collect()
    }

    #[test]
    fn a_snapshot_confirms_the_cases_streamed_up_to_it() {
        let (mut m, now) = two_member_cluster(Duration::from_secs(10));
        assert!(m.record_status(&mut streaming(WorkerId(0), 1, false, &[1, 2]), now));
        assert!(
            m.take_confirmed_test_cases().is_empty(),
            "nothing confirmed yet"
        );
        assert!(m.record_status(&mut streaming(WorkerId(0), 1, true, &[3]), now));
        assert!(m.record_status(&mut streaming(WorkerId(0), 1, false, &[4]), now));
        assert_eq!(paths(&m.take_confirmed_test_cases()), vec![1, 2, 3]);
        assert!(m.take_confirmed_test_cases().is_empty(), "taken only once");
        // The next snapshot confirms the tail, even with no cases of its own.
        assert!(m.record_status(&mut streaming(WorkerId(0), 1, true, &[]), now));
        assert_eq!(paths(&m.take_confirmed_test_cases()), vec![4]);
    }

    #[test]
    fn a_dead_member_keeps_only_its_confirmed_cases() {
        let (mut m, now) = two_member_cluster(Duration::from_secs(10));
        assert!(m.record_status(&mut streaming(WorkerId(1), 2, true, &[1, 2]), now));
        assert!(m.record_status(&mut streaming(WorkerId(1), 2, false, &[3, 4]), now));
        m.mark_dead(WorkerId(1), now);
        // Reports of the corpse change nothing, snapshot or not.
        assert!(!m.record_status(&mut streaming(WorkerId(1), 2, true, &[5]), now));
        assert_eq!(paths(&m.take_confirmed_test_cases()), vec![1, 2]);
        assert!(m.take_confirmed_test_cases().is_empty());
    }

    /// The last report closes the stream: a report or a leave of the same
    /// incarnation that comes after it is refused like a fenced frame, and
    /// changes neither the ledger, the in-flight table, the stats, the
    /// bugs nor the confirmed test cases.
    #[test]
    fn a_report_or_leave_after_the_last_report_is_refused() {
        let (mut m, now) = two_member_cluster(Duration::from_secs(10));
        let pending = [job(&[true])];
        let mut last = streaming(WorkerId(0), 1, true, &[1, 2]);
        last.last = true;
        last.queue_length = 1;
        last.frontier = Some(encoded(&pending));
        last.stats.paths_completed = 2;
        assert!(m.record_status(&mut last, now));
        let closed = m.member(WorkerId(0)).unwrap();
        assert!(closed.closed && closed.is_alive());
        assert_eq!((closed.idle, closed.queue_length), (true, 0));

        let mut later = streaming(WorkerId(0), 1, true, &[3]);
        later.frontier = Some(encoded(&[job(&[false]), job(&[true, true])]));
        later.stats.paths_completed = 9;
        later.new_bugs = vec![case(4)];
        later.transfers = vec![TransferEvent::Imported {
            source: WorkerId(1),
            seq: 1,
            encoded: encoded(&[job(&[false, false])]),
        }];
        assert!(!m.record_status(&mut later, now));
        assert!(!m.leave(WorkerId(0), 1, now));

        let member = m.member(WorkerId(0)).unwrap();
        assert_eq!(member.health, MemberHealth::Alive);
        assert_eq!(member.snapshot_stats.paths_completed, 2);
        assert_eq!(member.latest_stats.paths_completed, 2);
        assert!(member.bugs.is_empty());
        assert_eq!(m.frontier_jobs(), pending.to_vec());
        assert!(m.settled(), "the refused acknowledgement tracked nothing");
        assert!(
            m.take_pool().is_empty(),
            "the refused leave reclaimed nothing"
        );
        assert_eq!(paths(&m.take_confirmed_test_cases()), vec![1, 2]);
    }

    #[test]
    fn checkpoint_roundtrips_through_disk() {
        let jobs = vec![job(&[true]), job(&[false, true])];
        let checkpoint = Checkpoint {
            target: "memcached".into(),
            base_stats: vec![WorkerStats {
                paths_completed: 7,
                ..WorkerStats::default()
            }],
            frontier: encoded(&jobs),
            coverage: CoverageSet::new(32),
            elapsed: Duration::from_secs(3),
        };
        let dir = std::env::temp_dir().join(format!("c9-ckpt-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.ckpt");
        checkpoint.save(&path).unwrap();
        let loaded = Checkpoint::load(&path).unwrap();
        assert_eq!(loaded.target, "memcached");
        assert_eq!(loaded.base_paths(), 7);
        assert_eq!(loaded.jobs(), checkpoint.jobs());
        assert_eq!(loaded.elapsed, Duration::from_secs(3));
        std::fs::remove_dir_all(&dir).ok();
    }

    fn sample_checkpoint() -> Checkpoint {
        Checkpoint {
            target: "memcached".into(),
            base_stats: vec![WorkerStats::default()],
            frontier: encoded(&[job(&[true])]),
            coverage: CoverageSet::new(32),
            elapsed: Duration::from_secs(1),
        }
    }

    /// Writes `mutate(saved bytes)` to a fresh file and loads it back.
    fn load_mutated(name: &str, mutate: impl FnOnce(&mut Vec<u8>)) -> std::io::Error {
        let dir = std::env::temp_dir().join(format!("c9-ckpt-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.ckpt");
        sample_checkpoint().save(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        mutate(&mut bytes);
        std::fs::write(&path, &bytes).unwrap();
        let err = Checkpoint::load(&path).unwrap_err();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
        err
    }

    #[test]
    fn checkpoint_of_another_layout_version_is_refused() {
        let other = CHECKPOINT_VERSION + 1;
        let err = load_mutated("version", |bytes| {
            bytes[CHECKPOINT_MAGIC.len()..][..4].copy_from_slice(&other.to_le_bytes());
        });
        let msg = err.to_string();
        assert!(msg.contains(&format!("version {other}")), "{msg}");
        assert!(
            msg.contains(&format!("version {CHECKPOINT_VERSION}")),
            "{msg}"
        );
    }

    #[test]
    fn checkpoint_without_a_header_is_refused() {
        // The layout written before checkpoints carried a header.
        let err = load_mutated("headerless", |bytes| {
            bytes.drain(..CHECKPOINT_MAGIC.len() + 4);
        });
        assert!(err.to_string().contains("header"), "{err}");
    }

    #[test]
    fn truncated_checkpoint_is_refused() {
        let header = CHECKPOINT_MAGIC.len() + 4;
        // Inside the magic, inside the version, inside the payload.
        for cut in [5, header - 2, header + 10] {
            load_mutated("truncated", |bytes| bytes.truncate(cut));
        }
        load_mutated("truncated", |bytes| {
            bytes.pop();
        });
    }
}
