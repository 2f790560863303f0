//! `c9-net`: the distributed cluster runtime of Cloud9-RS.
//!
//! The paper's headline contribution is a *shared-nothing cluster* of
//! symbolic-execution workers that exchange only serialized job paths and
//! queue-length/coverage reports over the network (§3.2–§3.3). This crate
//! provides the pieces of that design that are independent of the engine:
//!
//! * [`Job`] / [`JobTree`] — exploration jobs encoded as root-to-node
//!   decision paths, aggregated into prefix tries; this *is* the wire
//!   format for work transfer.
//! * [`Control`], [`StatusReport`], [`JobBatch`], [`RunSpec`] — the
//!   cluster protocol, as public serde-serializable messages.
//! * [`TcpWorkerEndpoint`] / [`TcpCoordinatorEndpoint`] — the one fabric:
//!   length-prefixed bincode frames over TCP. Every worker enters a
//!   cluster with a `Join` handshake and begins its run on a `Start`,
//!   whether it is a `c9-worker` daemon in another process or a thread of
//!   a loopback cluster ([`TcpTransport`]) in tests and benchmarks.

#![deny(missing_docs)]

pub mod frame;
mod id;
mod job;
mod message;
pub mod reactor;
mod spec;
mod stats;
mod tcp;

pub use id::{WorkerId, COORDINATOR};
pub use job::{Job, JobTree, JobTreeVisitor};
pub use message::{
    Control, EnvSpec, JobBatch, PeerInfo, RunSpec, StatusReport, TransferEvent, WireMessage,
    WIRE_VERSION,
};
pub use spec::{RunSpecError, DEFAULT_QUANTUM, HEARTBEAT_INTERVAL};
pub use stats::WorkerStats;
pub use tcp::{
    send_leave, Inbound, JoinRequest, TcpCoordinatorEndpoint, TcpTransport, TcpWorkerEndpoint,
    TcpWorkerHost, TransportError,
};
