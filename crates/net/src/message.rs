//! The cluster wire protocol.
//!
//! These are the messages the paper's deployment exchanges over the network
//! (§3.2–§3.3): control commands and the global coverage vector flowing from
//! the load balancer to workers, queue-length/coverage status reports
//! flowing back, encoded job batches travelling between workers, and the
//! final per-worker reports aggregated into the run result. They were
//! originally private enums inside the in-process cluster harness; promoting
//! them to public serde-serializable types is what lets the same worker and
//! balancer loops run over any [`Transport`](crate::Transport).

use crate::id::{RunId, WorkerId};
use crate::stats::WorkerStats;
use c9_ir::Program;
use c9_vm::{CoverageSet, ExecutorConfig, StrategyKind, TestCase};
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Version of the wire protocol, exchanged in the session-opening frames
/// ([`WireMessage::CoordinatorHello`] and [`WireMessage::Join`]); both ends
/// drop connections whose peer speaks a different version instead of
/// mis-decoding frames.
///
/// History:
/// * **1** — the implicit pre-versioning protocol (run identity was a bare
///   `epoch: u64` stamped only on `RunSpec` and `JobBatch`, and job exports
///   were ordered by an `export_deepest: bool`).
/// * **2** — multi-tenant run protocol: every run-scoped frame carries a
///   [`RunId`] (`RunSpec`, `JobBatch`, `StatusReport`, `FinalReport`, and
///   the `Control` envelope), the hello/join preamble carries this version
///   number, and `RunSpec` carries an export-order enum instead of the
///   bool.
/// * **3** — constraint-cache sharing: `JobBatch` carries an optional
///   cache slice of the solved queries relevant to the exported jobs,
///   `StatusReport` carries each worker's hottest entries, a new `Control`
///   variant rebroadcasts the coordinator's merged cluster-wide hot entries
///   (appended after `Stop`, so the `Control` variant tags of v2 are
///   unchanged), and `RunSpec` carries the query-cache capacity override,
///   a solver-backend choice, and the cache-sharing switch.
/// * **4** — streamed test cases: `StatusReport` carries the test cases
///   completed since the previous report, and `FinalReport::test_cases`
///   only what no status report shipped.
/// * **5** — one export order and one solver: `RunSpec` drops its
///   export-order and solver-backend fields. Workers always shed their
///   shallowest candidates first and always run the canonical search.
/// * **6** — share-nothing workers: v3's cache sharing is gone. `JobBatch`
///   and `StatusReport` drop their cache slices, `RunSpec` its sharing
///   switch, and `Control` its hot-entry variant; workers exchange only
///   jobs, and each solver learns only from its own queries.
/// * **7** — one strategy per run: `Control` drops its strategy-reassignment
///   variant, and `StatusReport` and `JoinAck` their `strategy` fields.
///   Every worker of a run explores with [`RunSpec::strategy`].
/// * **8** — fixed worker caches: `RunSpec` drops its anchor-cache budget
///   and its query-cache capacity override. Every worker runs the
///   prefix-anchor cache and the query cache at their built-in sizes.
/// * **9** — a test case is its values: every [`TestCase`] (in
///   `StatusReport::new_bugs` / `test_cases` and `FinalReport::test_cases` /
///   `bugs`) carries its symbol chain as a batch table — base name, width,
///   indexed, count per batch, oldest first — and one value per symbol,
///   instead of a name, value and width per input.
pub const WIRE_VERSION: u32 = 9;

/// Identity, address, and fencing epoch of one cluster member, as announced
/// by the coordinator (in a [`WireMessage::JoinAck`] and in
/// [`Control::Membership`] updates).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PeerInfo {
    /// The member's identity.
    pub worker: WorkerId,
    /// The member's listen address for peer-to-peer job transfers.
    pub addr: String,
    /// The member's current epoch; job batches stamped with an older epoch
    /// come from a fenced-off previous incarnation and must be dropped.
    pub epoch: u64,
    /// Whether the coordinator currently believes the member is alive.
    pub alive: bool,
}

/// Control messages from the load balancer to a worker.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Control {
    /// Transfer `count` jobs to worker `destination`.
    Balance {
        /// The worker that should receive the jobs.
        destination: WorkerId,
        /// Number of jobs to move.
        count: u64,
    },
    /// The updated global coverage bit vector (§3.3).
    GlobalCoverage(CoverageSet),
    /// Jobs injected directly by the coordinator: work reclaimed from a dead
    /// worker, or a resumed checkpoint frontier. The receiver imports the
    /// encoded job tree and acknowledges with a
    /// [`TransferEvent::Imported`] whose source is
    /// [`COORDINATOR`](crate::COORDINATOR).
    Inject {
        /// Coordinator-chosen sequence number for the acknowledgement.
        seq: u64,
        /// The encoded job tree ([`JobTree::encode`](crate::JobTree::encode)).
        encoded: Vec<u8>,
    },
    /// Updated cluster membership: the full peer table. Workers refresh
    /// their peer addresses, drop connections to peers whose address or
    /// epoch changed, and reject job batches from fenced epochs.
    Membership(Vec<PeerInfo>),
    /// Stop and report final results. Addressed to one run; when stamped
    /// with [`RunId::SERVICE`] it instead shuts down the worker's whole
    /// run-service loop after finalizing every admitted run.
    Stop,
}

/// A job-transfer bookkeeping event, reported to the coordinator piggybacked
/// on the next status (or final) report. The coordinator uses these to keep
/// its per-worker frontier ledger exact across worker crashes: an export
/// moves jobs into the in-flight table, the destination's import
/// acknowledgement moves them into the destination's ledger, and jobs whose
/// owner dies in between are re-injected from the table.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum TransferEvent {
    /// The reporting worker is about to ship a job batch to a peer
    /// (announced *before* the socket write, so a crash mid-send can lose
    /// the batch on the wire but never lose the jobs).
    Exported {
        /// The receiving worker.
        destination: WorkerId,
        /// Sequence number of the batch (per source, monotonically
        /// increasing), matching [`JobBatch::seq`].
        seq: u64,
        /// A copy of the encoded job tree, so the coordinator can recover
        /// the batch if either end dies while it is in flight.
        encoded: Vec<u8>,
    },
    /// The socket write of batch `seq` to `destination` succeeded: the
    /// batch is in wire custody and only the destination (or, should the
    /// destination die, the coordinator's in-flight copy) owns the jobs.
    Sent {
        /// The worker the batch was shipped to.
        destination: WorkerId,
        /// Sequence number of the batch.
        seq: u64,
    },
    /// The socket write of batch `seq` to `destination` failed and the
    /// sender took the jobs back into its own frontier.
    Requeued {
        /// The worker the batch was destined for.
        destination: WorkerId,
        /// Sequence number of the failed batch.
        seq: u64,
    },
    /// The reporting worker imported batch `seq` from `source` (either a
    /// peer's [`JobBatch`] or a coordinator [`Control::Inject`], whose
    /// source is [`COORDINATOR`](crate::COORDINATOR)).
    Imported {
        /// The worker (or coordinator) that sent the batch.
        source: WorkerId,
        /// Sequence number of the batch.
        seq: u64,
        /// The encoded jobs, echoed back so the acknowledgement stays
        /// self-describing even when the matching export notice died with
        /// the sender.
        encoded: Vec<u8>,
    },
}

/// Status report from a worker to the load balancer.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct StatusReport {
    /// The run this report describes; a daemon serving several concurrent
    /// runs interleaves reports for all of them on one connection and the
    /// coordinator routes each to that run's balancer.
    pub run: RunId,
    /// The reporting worker.
    pub worker: WorkerId,
    /// The reporting worker's epoch; reports from a fenced-off previous
    /// incarnation are rejected by the coordinator.
    pub epoch: u64,
    /// Pending exploration jobs (materialized candidates + virtual jobs).
    pub queue_length: u64,
    /// The worker's local line coverage.
    pub coverage: CoverageSet,
    /// Cumulative statistics.
    pub stats: WorkerStats,
    /// Whether the worker currently has nothing to explore.
    pub idle: bool,
    /// Encoded snapshot of the worker's pending frontier
    /// ([`JobTree::encode`](crate::JobTree::encode)), taken at the same
    /// instant as `stats` so the pair partitions the worker's subtree
    /// exactly into "completed" and "pending". Present every
    /// `snapshot_every`-th report (see [`RunSpec::snapshot_every`]).
    pub frontier: Option<Vec<u8>>,
    /// Bug-exposing test cases found since the previous frontier snapshot,
    /// shipped eagerly (only on snapshot-bearing reports, so they stay
    /// consistent with `stats`): a bug must survive its finder's crash
    /// even though the completed path it sits on is never re-explored.
    pub new_bugs: Vec<TestCase>,
    /// Job-transfer events since the previous report.
    pub transfers: Vec<TransferEvent>,
    /// Test cases completed since the previous report (when test-case
    /// generation is on), moved out of the worker so the final report does
    /// not carry the whole run's cases at shutdown. Like `new_bugs` they
    /// count for a member that dies only up to its last snapshot-bearing
    /// report: the coordinator keeps a watermark of the cases that report
    /// confirmed, consistent with its stats.
    pub test_cases: Vec<TestCase>,
}

/// Final report from a worker at shutdown.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct FinalReport {
    /// The run these final results belong to.
    pub run: RunId,
    /// The reporting worker.
    pub worker: WorkerId,
    /// The reporting worker's epoch.
    pub epoch: u64,
    /// Cumulative statistics.
    pub stats: WorkerStats,
    /// The worker's local line coverage.
    pub coverage: CoverageSet,
    /// Test cases completed since the last status report (when enabled):
    /// the remainder no [`StatusReport::test_cases`] shipped.
    pub test_cases: Vec<TestCase>,
    /// Bug-exposing test cases.
    pub bugs: Vec<TestCase>,
    /// Encoded snapshot of the jobs still pending at shutdown (non-empty
    /// when the run was stopped by a time or path limit); the coordinator
    /// folds it into the final checkpoint so a resumed run continues from
    /// exactly this frontier.
    pub frontier: Vec<u8>,
    /// Job-transfer events since the previous status report.
    pub transfers: Vec<TransferEvent>,
}

/// A batch of jobs in transit between two workers: a [`JobTree`] prefix trie
/// serialized with [`JobTree::encode`].
///
/// [`JobTree`]: crate::JobTree
/// [`JobTree::encode`]: crate::JobTree::encode
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct JobBatch {
    /// The worker that exported the jobs.
    pub source: WorkerId,
    /// The run this batch belongs to; a worker serving several runs files
    /// each batch into that run's frontier, and a batch addressed to a run
    /// the receiver does not host (stale, cancelled, or not yet admitted)
    /// is dropped rather than imported into the wrong one.
    pub run: RunId,
    /// The sending worker's per-worker epoch; receivers drop batches whose
    /// epoch is older than the sender's current epoch in their peer table
    /// (a fenced-off previous incarnation of a re-joined worker).
    pub source_epoch: u64,
    /// Sequence number (per source worker, monotonically increasing),
    /// acknowledged back to the coordinator with
    /// [`TransferEvent::Imported`].
    pub seq: u64,
    /// The encoded job tree.
    pub encoded: Vec<u8>,
}

/// The environment model a remote worker should instantiate. The worker
/// process maps this to an `Arc<dyn Environment>`; the trait object itself
/// cannot cross the wire.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum EnvSpec {
    /// `c9_vm::NullEnvironment`: syscalls beyond the engine core are stubs.
    #[default]
    Null,
    /// The symbolic POSIX model with its default configuration.
    Posix,
}

/// Everything a worker process needs to run one cluster member: shipped by
/// the coordinator as the first message of a run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RunSpec {
    /// The program under test.
    pub program: Program,
    /// Which environment model to instantiate.
    pub env: EnvSpec,
    /// Per-path executor limits.
    pub executor: ExecutorConfig,
    /// Random seed (combined with the worker id).
    pub seed: u64,
    /// Exploration strategy.
    pub strategy: StrategyKind,
    /// Whether to solve for a concrete test case for every completed path.
    pub generate_test_cases: bool,
    /// Number of executor threads stepping states concurrently inside the
    /// worker (`--threads`); 1 reproduces the classic single-threaded
    /// quantum loop exactly.
    pub threads: usize,
    /// Instructions per worker quantum between message-handling points.
    pub quantum: u64,
    /// How often the worker reports status to the load balancer.
    pub status_interval: Duration,
    /// Whether this worker seeds the root job (worker 0 of a fresh run).
    pub seed_root: bool,
    /// Identifier of this run, unique among the runs a long-lived worker
    /// daemon serves (never [`RunId::SERVICE`]); stamped on every frame the
    /// run produces so concurrent runs sharing one daemon stay disjoint.
    pub run: RunId,
    /// This worker's per-worker epoch, assigned by the coordinator at join
    /// time and stamped on every status report, heartbeat, and job batch so
    /// a fenced-off previous incarnation can be told apart.
    pub worker_epoch: u64,
    /// How often the transport sends liveness heartbeats to the
    /// coordinator, independently of the worker loop (zero = disabled).
    pub heartbeat_interval: Duration,
    /// Include a frontier snapshot in every `snapshot_every`-th status
    /// report (zero = never). Snapshots are what make crash recovery and
    /// checkpointing exact; 1 keeps the coordinator's ledger current to the
    /// latest report.
    pub snapshot_every: u32,
}

/// Connection preamble and envelope for every frame a transport carries.
#[derive(Clone, Debug, Serialize, Deserialize)]
// `Status` dominates both in frequency and size (stats + coverage); keeping
// it inline avoids a per-report allocation on the hottest frame path.
#[allow(clippy::large_enum_variant)]
pub enum WireMessage {
    /// Coordinator → worker, first frame on the control connection: the
    /// worker's identity, the cluster size, and every worker's listen
    /// address (used for peer-to-peer job transfers).
    CoordinatorHello {
        /// The coordinator's [`WIRE_VERSION`]; the worker drops the
        /// connection on a mismatch.
        version: u32,
        /// Identity assigned to the receiving worker.
        worker: WorkerId,
        /// Total number of workers in the cluster.
        num_workers: u32,
        /// Listen address of every worker, indexed by worker id.
        peers: Vec<String>,
    },
    /// Coordinator → worker: begin (or admit) a run.
    Start(Box<RunSpec>),
    /// Coordinator → worker: control for one run.
    Control {
        /// The run the control message addresses ([`RunId::SERVICE`] for
        /// daemon-level control).
        run: RunId,
        /// The control payload.
        msg: Control,
    },
    /// Worker → coordinator: periodic status.
    Status(StatusReport),
    /// Worker → coordinator: final results.
    Final(Box<FinalReport>),
    /// Worker → worker: encoded job batch.
    Jobs(JobBatch),
    /// Worker → coordinator, first frame on a worker-initiated connection:
    /// request to join the cluster (elastic membership).
    Join {
        /// The worker's [`WIRE_VERSION`]; the coordinator rejects joins
        /// from peers speaking a different version.
        version: u32,
        /// The listen address peers should dial for job transfers.
        listen_addr: String,
        /// The identity and epoch of this daemon's previous incarnation,
        /// when re-joining after a lost connection. The coordinator fences
        /// the old incarnation off (its jobs are reclaimed and its frames
        /// rejected) before admitting the new one.
        previous: Option<(WorkerId, u64)>,
    },
    /// Coordinator → worker: the join was accepted.
    JoinAck {
        /// Identity assigned to the joining worker.
        worker: WorkerId,
        /// Fencing epoch assigned to the joining worker.
        epoch: u64,
        /// The current cluster membership, including the new worker.
        peers: Vec<PeerInfo>,
    },
    /// Worker → coordinator: periodic liveness signal, sent by the
    /// transport independently of the (possibly busy) worker loop so the
    /// failure detector does not confuse a long solver call with a crash.
    Heartbeat {
        /// The reporting worker.
        worker: WorkerId,
        /// The reporting worker's epoch.
        epoch: u64,
    },
    /// Worker → coordinator: graceful departure. The coordinator reclaims
    /// the worker's pending jobs immediately instead of waiting for the
    /// failure detector.
    Leave {
        /// The departing worker.
        worker: WorkerId,
        /// The departing worker's epoch.
        epoch: u64,
    },
}
