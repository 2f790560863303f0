//! `c9-net`: the transport-agnostic distributed cluster runtime of Cloud9-RS.
//!
//! The paper's headline contribution is a *shared-nothing cluster* of
//! symbolic-execution workers that exchange only serialized job paths and
//! queue-length/coverage reports over the network (§3.2–§3.3). This crate
//! provides the pieces of that design that are independent of the engine:
//!
//! * [`Job`] / [`JobTree`] — exploration jobs encoded as root-to-node
//!   decision paths, aggregated into prefix tries; this *is* the wire
//!   format for work transfer.
//! * [`Control`], [`StatusReport`], [`FinalReport`], [`JobBatch`],
//!   [`RunSpec`] — the cluster protocol, as public serde-serializable
//!   messages.
//! * [`WorkerEndpoint`] / [`CoordinatorEndpoint`] / [`Transport`] — the
//!   endpoint abstraction the `c9-core` worker and balancer loops are
//!   written against.
//! * [`InProcTransport`] — crossbeam channels between threads of one
//!   process (the original harness wiring, zero serialization).
//! * [`TcpTransport`] — length-prefixed bincode frames over TCP, with
//!   reconnect-aware accept loops; runs a cluster as N OS processes via the
//!   `c9-worker` / `c9-coordinator` binaries, or fully in-process over
//!   localhost sockets for tests and benchmarks.

#![deny(missing_docs)]

pub mod frame;
mod id;
mod inproc;
mod job;
mod message;
pub mod reactor;
mod spec;
mod stats;
mod tcp;
mod transport;

pub use id::{RunId, WorkerId, COORDINATOR};
pub use inproc::{InProcCoordinatorEndpoint, InProcTransport, InProcWorkerEndpoint};
pub use job::{decode_jobs_flat, encode_jobs_flat, Job, JobTree, JobTreeVisitor};
pub use message::{
    Control, EnvSpec, ExportOrder, FinalReport, JobBatch, PeerInfo, RunSpec, StatusReport,
    TransferEvent, WireMessage, WIRE_VERSION,
};
pub use spec::{RunSpecBuilder, RunSpecError, DEFAULT_QUANTUM};
pub use stats::WorkerStats;
pub use tcp::{send_leave, TcpCoordinatorEndpoint, TcpTransport, TcpWorkerEndpoint, TcpWorkerHost};
pub use transport::{
    CoordinatorEndpoint, Endpoints, JoinRequest, MemberEvent, Transport, TransportError,
    WorkerEndpoint,
};
