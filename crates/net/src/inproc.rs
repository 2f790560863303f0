//! The in-process transport: crossbeam channels between threads.
//!
//! This preserves the original single-process cluster wiring: one control
//! channel per worker, one job channel per worker (every peer holds a sender
//! to it), one shared status channel, and a final-report channel drained by
//! the coordinator. Messages move by ownership transfer — nothing is
//! serialized — so this transport is also the baseline in the transport
//! throughput benchmark. Control messages carry the [`RunId`] they address.
//! Workers are started out of band, so there is no `Start` channel.

use crate::message::{Control, FinalReport, JobBatch, StatusReport};
use crate::transport::{CoordinatorEndpoint, Endpoints, Transport, TransportError, WorkerEndpoint};
use crate::{RunId, WorkerId};
use crossbeam::channel::{unbounded, Receiver, Sender};
use std::time::Duration;

/// Transport connecting coordinator and workers with in-process channels.
#[derive(Clone, Copy, Debug, Default)]
pub struct InProcTransport;

/// Worker endpoint over in-process channels.
pub struct InProcWorkerEndpoint {
    id: WorkerId,
    control_rx: Receiver<(RunId, Control)>,
    jobs_rx: Receiver<JobBatch>,
    job_txs: Vec<Sender<JobBatch>>,
    status_tx: Sender<StatusReport>,
    final_tx: Sender<FinalReport>,
}

/// Coordinator endpoint over in-process channels.
pub struct InProcCoordinatorEndpoint {
    control_txs: Vec<Sender<(RunId, Control)>>,
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
        let mut control_txs = Vec::with_capacity(n);
        let mut control_rxs = Vec::with_capacity(n);
        let mut job_txs = Vec::with_capacity(n);
        let mut job_rxs = Vec::with_capacity(n);
        for _ in 0..n {
            let (ctx, crx) = unbounded::<(RunId, Control)>();
            control_txs.push(ctx);
            control_rxs.push(crx);
            let (jtx, jrx) = unbounded::<JobBatch>();
            job_txs.push(jtx);
            job_rxs.push(jrx);
        }
        let (status_tx, status_rx) = unbounded::<StatusReport>();
        let (final_tx, final_rx) = unbounded::<FinalReport>();

        let workers = control_rxs
            .into_iter()
            .zip(job_rxs)
            .enumerate()
            .map(|(i, (control_rx, jobs_rx))| InProcWorkerEndpoint {
                id: WorkerId(i as u32),
                control_rx,
                jobs_rx,
                job_txs: job_txs.clone(),
                status_tx: status_tx.clone(),
                final_tx: final_tx.clone(),
            })
            .collect();

        Ok(Endpoints {
            coordinator: InProcCoordinatorEndpoint {
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
        self.id
    }

    fn try_recv_control(&mut self) -> Option<(RunId, Control)> {
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
    fn num_workers(&self) -> usize {
        self.control_txs.len()
    }

    fn send_control(
        &mut self,
        destination: WorkerId,
        run: RunId,
        msg: Control,
    ) -> Result<(), TransportError> {
        self.control_txs
            .get(destination.index())
            .ok_or(TransportError::Disconnected)?
            .send((run, msg))
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
}
