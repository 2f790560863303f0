//! The transport abstraction.
//!
//! A cluster run is one coordinator (hosting the load balancer) plus N
//! workers, connected by two message flows: coordinator ⇄ worker control
//! and status, and worker → worker job batches. The [`WorkerEndpoint`] and
//! [`CoordinatorEndpoint`] traits capture exactly those flows, so the worker
//! and balancer loops in `c9-core` are written once and run unchanged over
//! in-process channels ([`InProcTransport`](crate::InProcTransport)) or TCP
//! sockets spanning OS processes ([`TcpTransport`](crate::TcpTransport)) —
//! the deployment of §3.3 of the paper.

use crate::message::{Control, FinalReport, JobBatch, PeerInfo, RunSpec, StatusReport};
use crate::{RunId, WorkerId};
use c9_vm::StrategyKind;
use std::time::Duration;

/// Why a transport operation failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TransportError {
    /// The peer is gone and will not come back (channel closed, connection
    /// refused after retries).
    Disconnected,
    /// An I/O level failure, with context.
    Io(String),
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Disconnected => write!(f, "transport disconnected"),
            TransportError::Io(msg) => write!(f, "transport i/o error: {msg}"),
        }
    }
}

impl std::error::Error for TransportError {}

impl From<std::io::Error> for TransportError {
    fn from(e: std::io::Error) -> TransportError {
        TransportError::Io(e.to_string())
    }
}

/// A membership event surfaced to the coordinator loop by the transport.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MemberEvent {
    /// A worker's transport sent a liveness heartbeat.
    Heartbeat {
        /// The reporting worker.
        worker: WorkerId,
        /// The reporting worker's epoch.
        epoch: u64,
    },
    /// A worker announced a graceful departure.
    Leave {
        /// The departing worker.
        worker: WorkerId,
        /// The departing worker's epoch.
        epoch: u64,
    },
}

/// A worker asking to join a running cluster. The transport holds the
/// half-open connection under `token` until the coordinator decides and
/// calls [`CoordinatorEndpoint::admit`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JoinRequest {
    /// Opaque handle to the pending connection, consumed by `admit`.
    pub token: u64,
    /// The listen address peers should dial for job transfers.
    pub listen_addr: String,
    /// The previous incarnation to fence off, for re-joins.
    pub previous: Option<(WorkerId, u64)>,
}

/// A worker's view of the cluster: receive control and job batches, send
/// status, final results, and job batches to peers.
pub trait WorkerEndpoint: Send {
    /// This endpoint's worker identity.
    fn id(&self) -> WorkerId;

    /// Receives one pending control message together with the run it
    /// addresses ([`RunId::SERVICE`] for daemon-level control), without
    /// blocking.
    fn try_recv_control(&mut self) -> Option<(RunId, Control)>;

    /// Receives one pending job batch, without blocking. The batch carries
    /// the run it belongs to in [`JobBatch::run`]; routing (and dropping
    /// batches for runs this worker does not host) is the caller's job.
    fn try_recv_jobs(&mut self) -> Option<JobBatch>;

    /// Receives one pending run spec (a newly admitted run), without
    /// blocking. Transports that start their workers out of band never
    /// produce any.
    fn try_recv_start(&mut self) -> Option<Box<RunSpec>> {
        None
    }

    /// Ships a job batch to a peer worker.
    fn send_jobs(&mut self, destination: WorkerId, batch: JobBatch) -> Result<(), TransportError>;

    /// Reports status to the coordinator.
    fn send_status(&mut self, report: StatusReport) -> Result<(), TransportError>;

    /// Reports final results to the coordinator at shutdown.
    fn send_final(&mut self, report: FinalReport) -> Result<(), TransportError>;

    /// Applies a membership update: refreshes peer addresses and epochs,
    /// dropping any cached connection to a peer whose address or epoch
    /// changed (its old socket is dead or belongs to a fenced incarnation).
    /// Transports whose peer set cannot change ignore this.
    fn update_peers(&mut self, peers: &[PeerInfo]) {
        let _ = peers;
    }

    /// Starts (or restarts) the transport-level heartbeat to the
    /// coordinator for the current run. A no-op on transports whose workers
    /// cannot die independently of the coordinator.
    fn start_heartbeat(&mut self, interval: Duration) {
        let _ = interval;
    }
}

/// The coordinator's view of the cluster: send control to any worker,
/// receive status and final reports, and (on elastic transports) admit
/// joining workers and observe liveness events.
pub trait CoordinatorEndpoint {
    /// Number of workers this endpoint is connected to.
    fn num_workers(&self) -> usize;

    /// Sends a control message for one run ([`RunId::SERVICE`] for
    /// daemon-level control) to one worker.
    fn send_control(
        &mut self,
        destination: WorkerId,
        run: RunId,
        msg: Control,
    ) -> Result<(), TransportError>;

    /// Receives one status report, waiting up to `timeout`. Final reports
    /// arriving early are buffered internally and never returned here.
    fn recv_status(&mut self, timeout: Duration) -> Option<StatusReport>;

    /// Receives one final report, waiting up to `timeout`.
    fn recv_final(&mut self, timeout: Duration) -> Option<FinalReport>;

    /// Receives one pending membership event (heartbeat or leave), without
    /// blocking. Transports without elastic membership never produce any.
    fn try_recv_event(&mut self) -> Option<MemberEvent> {
        None
    }

    /// Receives one pending join request, without blocking. Transports
    /// without elastic membership never produce any.
    fn try_recv_join(&mut self) -> Option<JoinRequest> {
        None
    }

    /// Completes a join: sends the acknowledgement carrying the assigned
    /// identity, epoch, peer table, and portfolio strategy, and wires the
    /// connection into the coordinator's receive path.
    fn admit(
        &mut self,
        token: u64,
        worker: WorkerId,
        epoch: u64,
        peers: Vec<PeerInfo>,
        strategy: StrategyKind,
    ) -> Result<(), TransportError> {
        let _ = (token, worker, epoch, peers, strategy);
        Err(TransportError::Io(
            "transport does not support elastic membership".into(),
        ))
    }

    /// Ships a run spec to one worker (remote transports only; transports
    /// that host their workers locally start them out of band).
    fn send_start(&mut self, destination: WorkerId, spec: RunSpec) -> Result<(), TransportError> {
        let _ = (destination, spec);
        Err(TransportError::Io(
            "transport does not support remote run start".into(),
        ))
    }
}

/// The two halves of an established cluster fabric.
///
/// `workers` holds the endpoints of the workers this process hosts. For a
/// fully local transport that is all N of them; when the workers are remote
/// daemons that own their endpoints (the multi-process TCP deployment), it
/// is empty.
pub struct Endpoints<C, W> {
    /// The coordinator endpoint.
    pub coordinator: C,
    /// Endpoints of locally hosted workers (possibly empty).
    pub workers: Vec<W>,
}

/// A way of wiring up a cluster of N workers and one coordinator.
///
/// # Examples
///
/// Establish an in-process fabric and move a status report from a worker
/// endpoint to the coordinator endpoint:
///
/// ```
/// use std::time::Duration;
/// use c9_net::{
///     CoordinatorEndpoint, InProcTransport, StatusReport, Transport, WorkerEndpoint, WorkerId,
/// };
///
/// let mut fabric = InProcTransport.establish(2).expect("in-proc fabric");
/// assert_eq!(fabric.workers.len(), 2);
///
/// let report = StatusReport {
///     run: c9_net::RunId(1),
///     worker: fabric.workers[0].id(),
///     epoch: 1,
///     queue_length: 3,
///     coverage: c9_vm::CoverageSet::new(8),
///     stats: c9_net::WorkerStats::default(),
///     idle: false,
///     strategy: c9_vm::StrategyKind::default(),
///     frontier: None,
///     new_bugs: Vec::new(),
///     transfers: Vec::new(),
///     test_cases: Vec::new(),
///     gossip: None,
/// };
/// fabric.workers[0].send_status(report).expect("send status");
/// let received = fabric
///     .coordinator
///     .recv_status(Duration::from_secs(1))
///     .expect("status arrives");
/// assert_eq!(received.worker, WorkerId(0));
/// assert_eq!(received.queue_length, 3);
/// ```
pub trait Transport {
    /// The worker-side endpoint type.
    type WorkerEnd: WorkerEndpoint + 'static;
    /// The coordinator-side endpoint type.
    type CoordinatorEnd: CoordinatorEndpoint;

    /// Establishes the fabric for `num_workers` workers.
    fn establish(
        self,
        num_workers: usize,
    ) -> Result<Endpoints<Self::CoordinatorEnd, Self::WorkerEnd>, TransportError>;
}
