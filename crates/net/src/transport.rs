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
use crate::WorkerId;
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

/// A worker asking to join a cluster, before or during its run: the only
/// way a worker enters one. The transport holds the half-open session
/// under `token` until the coordinator decides and calls
/// [`CoordinatorEndpoint::admit`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JoinRequest {
    /// Opaque handle to the pending connection, consumed by `admit`.
    pub token: u64,
    /// The listen address peers should dial for job transfers.
    pub listen_addr: String,
    /// The previous incarnation to fence off, for re-joins.
    pub previous: Option<(WorkerId, u64)>,
}

/// A worker's view of the cluster: one session, which hosts one run.
/// Wait for the admission of its join, then receive control and job
/// batches, and send status, final results, and job batches to peers.
pub trait WorkerEndpoint: Send {
    /// This endpoint's worker identity, as its admission assigned it.
    fn id(&self) -> WorkerId;

    /// Waits up to `timeout` for the coordinator to admit this endpoint's
    /// join, and returns the identity and fencing epoch the admission
    /// assigned. Returns at once when the endpoint was admitted already.
    fn admission(&mut self, timeout: Duration) -> Result<(WorkerId, u64), TransportError>;

    /// Receives one pending control message, without blocking.
    fn try_recv_control(&mut self) -> Option<Control>;

    /// Receives one pending job batch, without blocking. A transport whose
    /// peers can re-join drops batches of a fenced-off incarnation on the
    /// way.
    fn try_recv_jobs(&mut self) -> Option<JobBatch>;

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

    /// Starts the transport-level heartbeat to the coordinator, stamped
    /// with the admitted epoch, one every
    /// [`HEARTBEAT_INTERVAL`](crate::HEARTBEAT_INTERVAL). A no-op on
    /// transports whose workers cannot die independently of the
    /// coordinator.
    fn start_heartbeat(&mut self) {}
}

/// The coordinator's view of the cluster: admit joining workers, send
/// control to any of them, receive status and final reports, and observe
/// liveness events.
pub trait CoordinatorEndpoint {
    /// Sends a control message to one worker.
    fn send_control(&mut self, destination: WorkerId, msg: Control) -> Result<(), TransportError>;

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

    /// Receives one pending join request, without blocking.
    fn try_recv_join(&mut self) -> Option<JoinRequest>;

    /// Completes a join: hands the joiner the identity, epoch and peer
    /// table its admission assigned, and wires its session into the
    /// coordinator's receive path.
    fn admit(
        &mut self,
        token: u64,
        worker: WorkerId,
        epoch: u64,
        peers: Vec<PeerInfo>,
    ) -> Result<(), TransportError>;

    /// Ships a run spec to one worker (remote transports only; transports
    /// that host their workers locally start them out of band).
    fn send_start(&mut self, destination: WorkerId, spec: RunSpec) -> Result<(), TransportError> {
        let _ = (destination, spec);
        Err(TransportError::Io(
            "transport does not support remote run start".into(),
        ))
    }
}

/// The two halves of an established cluster fabric: a coordinator endpoint
/// with one join request pending for each of the worker endpoints this
/// process hosts.
pub struct Endpoints<C, W> {
    /// The coordinator endpoint.
    pub coordinator: C,
    /// Endpoints of the locally hosted workers, each waiting for the
    /// admission of its join.
    pub workers: Vec<W>,
}

/// A way of wiring up a cluster of N workers and one coordinator.
///
/// # Examples
///
/// Establish an in-process fabric, admit the first worker's join, and move
/// a status report from its endpoint to the coordinator endpoint:
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
/// let join = fabric.coordinator.try_recv_join().expect("a pending join");
/// fabric
///     .coordinator
///     .admit(join.token, WorkerId(0), 1, Vec::new())
///     .expect("admit");
/// let (worker, epoch) = fabric.workers[0]
///     .admission(Duration::from_secs(1))
///     .expect("admitted");
/// assert_eq!((worker, epoch), (WorkerId(0), 1));
///
/// let report = StatusReport {
///     worker,
///     epoch,
///     queue_length: 3,
///     coverage: c9_vm::CoverageSet::new(8),
///     stats: c9_net::WorkerStats::default(),
///     idle: false,
///     frontier: None,
///     new_bugs: Vec::new(),
///     transfers: Vec::new(),
///     test_cases: Vec::new(),
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

    /// Establishes the fabric for `num_workers` locally hosted workers,
    /// leaving one join request per worker pending at the coordinator.
    fn establish(
        self,
        num_workers: usize,
    ) -> Result<Endpoints<Self::CoordinatorEnd, Self::WorkerEnd>, TransportError>;
}
