//! The in-process transport: crossbeam channels between threads.
//!
//! This preserves the original single-process cluster wiring: one control
//! channel per worker, one job channel per worker (every peer holds a sender
//! to it), one shared status channel, and a final-report channel drained by
//! the coordinator. Messages move by ownership transfer — nothing is
//! serialized — so this transport is also the baseline in the transport
//! throughput benchmark. Workers join like remote daemons do: the fabric
//! queues one join request per worker, and an admission only hands the
//! worker its assigned identity and epoch. Workers are started out of band,
//! so there is no `Start` channel.

use crate::message::{Control, FinalReport, JobBatch, PeerInfo, StatusReport};
use crate::transport::{
    CoordinatorEndpoint, Endpoints, JoinRequest, Transport, TransportError, WorkerEndpoint,
};
use crate::WorkerId;
use crossbeam::channel::{unbounded, Receiver, Sender};
use std::collections::VecDeque;
use std::time::Duration;

/// Transport connecting coordinator and workers with in-process channels.
#[derive(Clone, Copy, Debug, Default)]
pub struct InProcTransport;

/// Worker endpoint over in-process channels.
pub struct InProcWorkerEndpoint {
    /// The identity and epoch of the admission, once it arrived.
    admitted: Option<(WorkerId, u64)>,
    admission_rx: Receiver<(WorkerId, u64)>,
    control_rx: Receiver<Control>,
    jobs_rx: Receiver<JobBatch>,
    job_txs: Vec<Sender<JobBatch>>,
    status_tx: Sender<StatusReport>,
    final_tx: Sender<FinalReport>,
}

/// Coordinator endpoint over in-process channels.
pub struct InProcCoordinatorEndpoint {
    joins: VecDeque<JoinRequest>,
    admission_txs: Vec<Sender<(WorkerId, u64)>>,
    control_txs: Vec<Sender<Control>>,
    status_rx: Receiver<StatusReport>,
    final_rx: Receiver<FinalReport>,
}

impl Transport for InProcTransport {
    type WorkerEnd = InProcWorkerEndpoint;
    type CoordinatorEnd = InProcCoordinatorEndpoint;

    fn establish(
        self,
        num_workers: usize,
    ) -> Result<Endpoints<InProcCoordinatorEndpoint, InProcWorkerEndpoint>, TransportError> {
        let n = num_workers.max(1);
        let (admission_txs, admission_rxs): (Vec<_>, Vec<_>) = (0..n).map(|_| unbounded()).unzip();
        let (control_txs, control_rxs): (Vec<_>, Vec<_>) = (0..n).map(|_| unbounded()).unzip();
        let (job_txs, job_rxs): (Vec<_>, Vec<_>) = (0..n).map(|_| unbounded()).unzip();
        let (status_tx, status_rx) = unbounded::<StatusReport>();
        let (final_tx, final_rx) = unbounded::<FinalReport>();

        let workers = admission_rxs
            .into_iter()
            .zip(control_rxs)
            .zip(job_rxs)
            .map(
                |((admission_rx, control_rx), jobs_rx)| InProcWorkerEndpoint {
                    admitted: None,
                    admission_rx,
                    control_rx,
                    jobs_rx,
                    job_txs: job_txs.clone(),
                    status_tx: status_tx.clone(),
                    final_tx: final_tx.clone(),
                },
            )
            .collect();
        let joins = (0..n as u64)
            .map(|token| JoinRequest {
                token,
                listen_addr: String::new(),
                previous: None,
            })
            .collect();

        Ok(Endpoints {
            coordinator: InProcCoordinatorEndpoint {
                joins,
                admission_txs,
                control_txs,
                status_rx,
                final_rx,
            },
            workers,
        })
    }
}

impl WorkerEndpoint for InProcWorkerEndpoint {
    fn id(&self) -> WorkerId {
        self.admitted.map_or_else(WorkerId::default, |(id, _)| id)
    }

    fn admission(&mut self, timeout: Duration) -> Result<(WorkerId, u64), TransportError> {
        if self.admitted.is_none() {
            let admitted = self
                .admission_rx
                .recv_timeout(timeout)
                .map_err(|_| TransportError::Disconnected)?;
            self.admitted = Some(admitted);
        }
        Ok(self.admitted.expect("admitted"))
    }

    fn try_recv_control(&mut self) -> Option<Control> {
        self.control_rx.try_recv().ok()
    }

    fn try_recv_jobs(&mut self) -> Option<JobBatch> {
        self.jobs_rx.try_recv().ok()
    }

    fn send_jobs(&mut self, destination: WorkerId, batch: JobBatch) -> Result<(), TransportError> {
        self.job_txs
            .get(destination.index())
            .ok_or(TransportError::Disconnected)?
            .send(batch)
            .map_err(|_| TransportError::Disconnected)
    }

    fn send_status(&mut self, report: StatusReport) -> Result<(), TransportError> {
        self.status_tx
            .send(report)
            .map_err(|_| TransportError::Disconnected)
    }

    fn send_final(&mut self, report: FinalReport) -> Result<(), TransportError> {
        self.final_tx
            .send(report)
            .map_err(|_| TransportError::Disconnected)
    }
}

impl CoordinatorEndpoint for InProcCoordinatorEndpoint {
    fn send_control(&mut self, destination: WorkerId, msg: Control) -> Result<(), TransportError> {
        self.control_txs
            .get(destination.index())
            .ok_or(TransportError::Disconnected)?
            .send(msg)
            .map_err(|_| TransportError::Disconnected)
    }

    fn recv_status(&mut self, timeout: Duration) -> Option<StatusReport> {
        if timeout.is_zero() {
            self.status_rx.try_recv().ok()
        } else {
            self.status_rx.recv_timeout(timeout).ok()
        }
    }

    fn recv_final(&mut self, timeout: Duration) -> Option<FinalReport> {
        if timeout.is_zero() {
            self.final_rx.try_recv().ok()
        } else {
            self.final_rx.recv_timeout(timeout).ok()
        }
    }

    fn try_recv_join(&mut self) -> Option<JoinRequest> {
        self.joins.pop_front()
    }

    /// Records the assigned identity for the worker whose request carried
    /// `token`. The fabric's channels are laid out by position, so the
    /// admission must assign each request the id of its position — which
    /// it does, because ids go out in admission order and the requests
    /// surface in position order.
    fn admit(
        &mut self,
        token: u64,
        worker: WorkerId,
        epoch: u64,
        _peers: Vec<PeerInfo>,
    ) -> Result<(), TransportError> {
        if worker.index() as u64 != token {
            return Err(TransportError::Io(format!(
                "in-process join {token} cannot be admitted as {worker}"
            )));
        }
        self.admission_txs
            .get(worker.index())
            .ok_or(TransportError::Disconnected)?
            .send((worker, epoch))
            .map_err(|_| TransportError::Disconnected)
    }
}
