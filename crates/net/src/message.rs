//! The cluster wire protocol.
//!
//! These are the messages the paper's deployment exchanges over the network
//! (§3.2–§3.3): control commands and the global coverage vector flowing from
//! the load balancer to workers, queue-length/coverage status reports
//! flowing back — each worker's last one is its final report, aggregated
//! into the run result — and encoded job batches travelling between
//! workers. Each travels as one bincode-encoded [`WireMessage`] frame.

use crate::id::WorkerId;
use crate::stats::WorkerStats;
use c9_ir::Program;
use c9_vm::{CoverageSet, ExecutorConfig, StrategyKind, TestCase};
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Version of the wire protocol, carried by the session-opening
/// [`WireMessage::Join`]; the coordinator drops a joiner that speaks a
/// different version instead of mis-decoding its frames.
///
/// History:
/// * **1** — the implicit pre-versioning protocol (run identity was a bare
///   `epoch: u64` stamped only on `RunSpec` and `JobBatch`, and job exports
///   were ordered by an `export_deepest: bool`).
/// * **2** — multi-tenant run protocol: every run-scoped frame carries a
///   run id (`RunSpec`, `JobBatch`, `StatusReport`, the final report, and
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
///   completed since the previous report, and the final report's test
///   cases only what no status report shipped.
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
///   `StatusReport::new_bugs` / `test_cases` and the final report's test
///   cases and bugs) carries its symbol chain as a batch table — base
///   name, width, indexed, count per batch, oldest first — and one value
///   per symbol, instead of a name, value and width per input.
/// * **10** — derived cadences: `RunSpec` drops its heartbeat interval and
///   snapshot period, and `ExecutorConfig` its call-depth limit. Workers
///   heartbeat every [`HEARTBEAT_INTERVAL`](crate::HEARTBEAT_INTERVAL), a
///   remote worker attaches a frontier snapshot to every status report,
///   and every executor kills a path at a call depth of 256.
/// * **11** — `SolverStats` (inside every [`WorkerStats`]) counts
///   `search_nodes`, the assignments its searches tried.
/// * **12** — one way into a cluster: the coordinator-dialled hello is
///   gone, so every worker session opens with [`WireMessage::Join`] and
///   hosts exactly one run. The run id leaves `RunSpec`, `JobBatch`,
///   `StatusReport`, the final report and the `Control` envelope.
/// * **13** — one ordered report stream: the final-report message is
///   gone. A worker's final report is its last [`StatusReport`], flagged
///   [`StatusReport::last`], which always carries a frontier snapshot and
///   the bugs found since the previous one.
pub const WIRE_VERSION: u32 = 13;

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
    /// Stop the run and report final results.
    Stop,
}

/// A job-transfer bookkeeping event, reported to the coordinator piggybacked
/// on the next status report. The coordinator uses these to keep
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

/// Status report from a worker to the load balancer. A worker sends them
/// in order on its one coordinator connection; the last one of its run
/// ([`last`](StatusReport::last)) is its final report.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct StatusReport {
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
    /// Whether this is the worker's last report of the run, sent once it
    /// was stopped (or its transport failed). It closes the worker's
    /// stream: the coordinator refuses any later report or leave of the
    /// same incarnation.
    pub last: bool,
    /// Encoded snapshot of the worker's pending frontier
    /// ([`JobTree::encode`](crate::JobTree::encode)), taken at the same
    /// instant as `stats` so the pair partitions the worker's subtree
    /// exactly into "completed" and "pending". Present on the last report,
    /// on every report of a remote worker, and on every report of a local
    /// one in a run that checkpoints or detects failures. On the last
    /// report it is the work still pending at shutdown (non-empty when a
    /// time or path limit stopped the run), which the coordinator folds
    /// into the final checkpoint.
    pub frontier: Option<Vec<u8>>,
    /// Bug-exposing test cases found since the previous frontier snapshot,
    /// shipped eagerly (only on snapshot-bearing reports, so they stay
    /// consistent with `stats`): a bug must survive its finder's crash
    /// even though the completed path it sits on is never re-explored. The
    /// last report carries the rest — for a worker that never snapshots
    /// before it, every bug of its run.
    pub new_bugs: Vec<TestCase>,
    /// Job-transfer events since the previous report.
    pub transfers: Vec<TransferEvent>,
    /// Test cases completed since the previous report (when test-case
    /// generation is on), moved out of the worker so the last report does
    /// not carry the whole run's cases at shutdown. Like `new_bugs` they
    /// count for a member that dies only up to its last snapshot-bearing
    /// report: the coordinator keeps a watermark of the cases that report
    /// confirmed, consistent with its stats.
    pub test_cases: Vec<TestCase>,
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
    /// This worker's per-worker epoch, assigned by the coordinator at join
    /// time and stamped on every status report, heartbeat, and job batch so
    /// a fenced-off previous incarnation can be told apart.
    pub worker_epoch: u64,
}

/// Connection preamble and envelope for every frame a transport carries.
#[derive(Clone, Debug, Serialize, Deserialize)]
// `Status` dominates both in frequency and size (stats + coverage); keeping
// it inline avoids a per-report allocation on the hottest frame path.
#[allow(clippy::large_enum_variant)]
pub enum WireMessage {
    /// Coordinator → worker: begin the session's run.
    Start(Box<RunSpec>),
    /// Coordinator → worker: control for the session's run.
    Control(Control),
    /// Worker → coordinator: periodic status, and the final results as
    /// the last report.
    Status(StatusReport),
    /// Worker → worker: encoded job batch.
    Jobs(JobBatch),
    /// Worker → coordinator, first frame of every worker session: request
    /// to join the cluster, before or during its run.
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
