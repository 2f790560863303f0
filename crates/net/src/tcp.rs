//! The TCP transport: a cluster of OS processes on a network.
//!
//! This is the paper's deployment (§3.3) and the only fabric there is:
//! every worker hosts one symbolic execution engine, listening on a
//! socket, in a process of its own or as a thread of a loopback
//! [`TcpTransport`]; the coordinator runs the load balancer and drives the
//! run. Job batches travel directly between workers over lazily-dialed
//! peer connections — the coordinator only ever sees queue lengths and
//! coverage bit vectors, exactly as in the paper.
//!
//! Every endpoint is backed by one [`reactor`](crate::reactor) thread that
//! owns all of its sockets: the listener, the coordinator connection, and
//! every peer connection. Frames are parsed incrementally out of
//! per-connection read buffers, writes drain through per-connection queues
//! on writability, and heartbeats tick off the reactor's timer wheel — an
//! endpoint holds O(1) threads no matter how many peers it talks to, which
//! is what makes a 256-worker coordinator viable in one process.
//!
//! Every worker enters a cluster the same way, and its session is the run:
//!
//! * the coordinator listens ([`TcpCoordinatorEndpoint::listen`]) and every
//!   worker — a daemon in another process, or a host of a loopback
//!   [`TcpTransport`] — dials it and sends a [`WireMessage::Join`]
//!   ([`TcpWorkerHost::join`]); the [`WireMessage::JoinAck`] assigns its
//!   identity, epoch and peer table, before or during the run;
//! * one session hosts one run, which begins when the coordinator ships the
//!   worker its [`RunSpec`] in a [`WireMessage::Start`]; a daemon that
//!   wants another run drops its endpoint and joins again;
//! * each worker's transport sends [`WireMessage::Heartbeat`] frames from
//!   the reactor's timer wheel, so the coordinator's failure detector keeps
//!   working while the worker loop is deep inside a solver call;
//! * every worker carries a per-worker *epoch* assigned at join time; a
//!   re-joining worker gets a fresh epoch and peers drop both the stale
//!   cached connection and any batch stamped with an older epoch than the
//!   one its peer table announces.
//!
//! Join handshakes are bounded: a connection that never completes its
//! [`WireMessage::Join`] (dead dialer, garbage frame) is swept after
//! [`JOIN_HANDSHAKE_TIMEOUT`] and its socket released, so abandoned
//! handshakes cannot pin coordinator resources.

use crate::frame::encode_frame;
use crate::message::{
    Control, JobBatch, PeerInfo, RunSpec, StatusReport, WireMessage, WIRE_VERSION,
};
use crate::reactor::{Reactor, ReactorEvent, ReactorHandle, TimerId, Token};
use crate::{WorkerId, HEARTBEAT_INTERVAL};
use crossbeam::channel::Receiver;
use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// How long a loopback [`TcpTransport`] waits for its own workers' joins to
/// reach the coordinator endpoint.
const LOOPBACK_JOIN_TIMEOUT: Duration = Duration::from_secs(10);

/// How long a worker-initiated connection may sit between `accept` and a
/// completed [`WireMessage::Join`] handshake (or between the surfaced
/// [`JoinRequest`] and the coordinator's admission decision) before the
/// coordinator sweeps it and releases the socket.
pub const JOIN_HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(10);

/// Why a transport operation failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TransportError {
    /// The peer is gone and will not come back (connection closed, or
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

/// A frame a worker sent the coordinator, as
/// [`TcpCoordinatorEndpoint::recv`] hands them out: each member's frames in
/// the order the member sent them (the frames of different members
/// interleave arbitrarily). Heartbeats are not among them: they carry no
/// state and travel a side channel
/// ([`TcpCoordinatorEndpoint::take_heartbeats`]).
#[derive(Clone, Debug)]
// Reports are nearly every frame; boxing them would allocate per report.
#[allow(clippy::large_enum_variant)]
pub enum Inbound {
    /// A worker asks to join: the first frame of its session.
    Join(JoinRequest),
    /// A status report; a member's last one closes its stream.
    Status(StatusReport),
    /// A worker announced a graceful departure.
    Leave {
        /// The departing worker.
        worker: WorkerId,
        /// The departing worker's epoch.
        epoch: u64,
    },
}

/// A worker asking to join a cluster, before or during its run: the only
/// way a worker enters one. The endpoint holds the half-open session under
/// `token` until the coordinator decides and calls
/// [`TcpCoordinatorEndpoint::admit`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JoinRequest {
    /// Opaque handle to the pending connection, consumed by `admit`.
    pub token: u64,
    /// The listen address peers should dial for job transfers.
    pub listen_addr: String,
    /// The previous incarnation to fence off, for re-joins.
    pub previous: Option<(WorkerId, u64)>,
}

/// Shuts the reactor down when the last owner (host or endpoint) goes away.
struct ReactorGuard(ReactorHandle);

impl Drop for ReactorGuard {
    fn drop(&mut self) {
        self.0.shutdown();
    }
}

fn encode(msg: &WireMessage) -> Result<Vec<u8>, TransportError> {
    encode_frame(msg).map_err(TransportError::from)
}

/// The peer table of one worker: listen address, fencing epoch, and the
/// lazily-dialed connection of every peer, as the coordinator announced
/// them (in the join acknowledgement, then in membership updates). A
/// membership update that changes a peer's address or epoch drops the
/// cached connection — the old socket either is dead or belongs to a
/// fenced-off incarnation.
#[derive(Default)]
struct PeerTable {
    addrs: Vec<String>,
    epochs: Vec<u64>,
    conns: Vec<Option<Token>>,
}

impl PeerTable {
    /// The last announced epoch of a peer (0 for a peer not announced yet).
    fn epoch(&self, worker: WorkerId) -> u64 {
        self.epochs.get(worker.index()).copied().unwrap_or(0)
    }

    /// Applies a membership update, dropping stale connections.
    fn update(&mut self, peers: &[PeerInfo], handle: Option<&ReactorHandle>) {
        for peer in peers {
            let idx = peer.worker.index();
            if idx >= self.addrs.len() {
                self.addrs.resize(idx + 1, String::new());
                self.epochs.resize(idx + 1, 0);
                self.conns.resize_with(idx + 1, || None);
            }
            if self.addrs[idx] != peer.addr || self.epochs[idx] != peer.epoch {
                // A re-joined worker's old socket must not linger in the
                // table, or job batches would vanish into the dead
                // connection.
                if let (Some(handle), Some(token)) = (handle, self.conns[idx].take()) {
                    handle.close(token);
                }
            }
            self.addrs[idx] = peer.addr.clone();
            self.epochs[idx] = peer.epoch;
        }
    }

    /// Forgets the connection behind a token the reactor reported closed.
    fn drop_token(&mut self, token: Token) {
        for slot in &mut self.conns {
            if *slot == Some(token) {
                *slot = None;
            }
        }
    }

    /// The connection token of a peer, dialing the peer on first use.
    fn token(
        &mut self,
        destination: WorkerId,
        handle: &ReactorHandle,
    ) -> Result<Token, TransportError> {
        let idx = destination.index();
        if idx >= self.addrs.len() || self.addrs[idx].is_empty() {
            return Err(TransportError::Io(format!(
                "unknown peer {destination} (cluster has {} workers)",
                self.addrs.len()
            )));
        }
        if self.conns[idx].is_none() {
            let stream = TcpStream::connect(&self.addrs[idx])?;
            self.conns[idx] = Some(handle.add_conn(stream));
        }
        Ok(self.conns[idx].expect("peer conn present"))
    }
}

/// A worker-side listener: accepts peer connections and demultiplexes their
/// frames, and those of the coordinator session, into one reactor event
/// queue.
pub struct TcpWorkerHost {
    local_addr: SocketAddr,
    handle: ReactorHandle,
    events_rx: Receiver<ReactorEvent>,
    guard: ReactorGuard,
}

impl TcpWorkerHost {
    /// Binds the worker listener and spawns the endpoint's reactor.
    pub fn bind(addr: &str) -> io::Result<TcpWorkerHost> {
        let listener = std::net::TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let (handle, events_rx) = Reactor::spawn(&format!("worker-{local_addr}"))?;
        handle.add_listener(listener);
        Ok(TcpWorkerHost {
            local_addr,
            guard: ReactorGuard(handle.clone()),
            handle,
            events_rx,
        })
    }

    /// Dials a listening coordinator (retrying until `timeout`) and sends
    /// the [`WireMessage::Join`] handshake, returning the endpoint of the
    /// session without waiting for the answer:
    /// [`TcpWorkerEndpoint::admission`] waits for the acknowledgement that
    /// assigns this worker's identity and epoch. `previous` names the
    /// identity of this daemon's previous incarnation when re-joining after
    /// a lost connection, so the coordinator can fence it off.
    pub fn join(
        self,
        coordinator_addr: &str,
        previous: Option<(WorkerId, u64)>,
        timeout: Duration,
    ) -> Result<TcpWorkerEndpoint, TransportError> {
        let stream = dial_until(coordinator_addr, Instant::now() + timeout)?;
        let coordinator = self.handle.add_conn(stream);
        self.handle.send(
            coordinator,
            encode(&WireMessage::Join {
                version: WIRE_VERSION,
                listen_addr: self.local_addr.to_string(),
                previous,
            })?,
        );
        Ok(TcpWorkerEndpoint {
            admitted: None,
            peers: PeerTable::default(),
            coordinator,
            coordinator_down: false,
            handle: self.handle,
            events_rx: self.events_rx,
            pending_control: VecDeque::new(),
            pending_jobs: VecDeque::new(),
            pending_start: VecDeque::new(),
            heartbeat: None,
            _guard: self.guard,
        })
    }
}

/// Worker endpoint over TCP: one session with the coordinator, which
/// hosts one run.
pub struct TcpWorkerEndpoint {
    /// The identity and epoch the join acknowledgement assigned.
    admitted: Option<(WorkerId, u64)>,
    peers: PeerTable,
    /// The connection the coordinator speaks on.
    coordinator: Token,
    coordinator_down: bool,
    handle: ReactorHandle,
    events_rx: Receiver<ReactorEvent>,
    pending_control: VecDeque<Control>,
    pending_jobs: VecDeque<JobBatch>,
    pending_start: VecDeque<RunSpec>,
    /// The armed heartbeat timer, cancelled when the coordinator
    /// connection closes.
    heartbeat: Option<TimerId>,
    _guard: ReactorGuard,
}

impl TcpWorkerEndpoint {
    /// This endpoint's worker identity, as its admission assigned it.
    pub fn id(&self) -> WorkerId {
        self.admitted.map_or_else(WorkerId::default, |(id, _)| id)
    }

    /// Waits up to `timeout` for the coordinator to admit this endpoint's
    /// join, and returns the identity and fencing epoch the admission
    /// assigned. Returns at once when the endpoint was admitted already.
    pub fn admission(&mut self, timeout: Duration) -> Result<(WorkerId, u64), TransportError> {
        self.wait_for(timeout, |e| e.admitted.is_some() || e.coordinator_down);
        self.admitted.ok_or(if self.coordinator_down {
            TransportError::Disconnected
        } else {
            TransportError::Io("no join acknowledgement before the timeout".into())
        })
    }

    /// Waits for the coordinator to begin the session's run.
    pub fn wait_start(&mut self, timeout: Duration) -> Option<RunSpec> {
        self.wait_for(timeout, |e| !e.pending_start.is_empty());
        self.pending_start.pop_front()
    }

    /// Receives one pending control message, without blocking.
    pub fn try_recv_control(&mut self) -> Option<Control> {
        self.pump();
        self.pending_control.pop_front()
    }

    /// Receives one pending job batch, without blocking. Batches of a
    /// fenced-off incarnation of their source are dropped on the way.
    pub fn try_recv_jobs(&mut self) -> Option<JobBatch> {
        self.pump();
        while let Some(batch) = self.pending_jobs.pop_front() {
            // Drop batches from a fenced-off previous incarnation of a
            // re-joined peer.
            if batch.source_epoch < self.peers.epoch(batch.source) {
                continue;
            }
            return Some(batch);
        }
        None
    }

    /// Ships a job batch to a peer worker, dialing it on first use.
    pub fn send_jobs(
        &mut self,
        destination: WorkerId,
        batch: JobBatch,
    ) -> Result<(), TransportError> {
        // Drain reactor events first so a peer death the reactor already
        // saw fails the send now (and triggers a fresh dial) instead of
        // dropping the batch into a dead write queue.
        self.pump();
        let frame = encode(&WireMessage::Jobs(batch))?;
        let token = self.peers.token(destination, &self.handle)?;
        self.handle.send(token, frame);
        Ok(())
    }

    /// Reports status to the coordinator. The run's last report is flushed
    /// onto the wire before this returns.
    pub fn send_status(&mut self, report: StatusReport) -> Result<(), TransportError> {
        let last = report.last;
        self.send_to_coordinator(&WireMessage::Status(report))?;
        if !last {
            return Ok(());
        }
        // A worker often exits right after its last report; flush so the
        // report is on the wire before the process (and its reactor) dies.
        let token = self.coordinator_token()?;
        if self.handle.flush(token, Duration::from_secs(5)) {
            Ok(())
        } else {
            Err(TransportError::Disconnected)
        }
    }

    /// Applies a membership update: refreshes peer addresses and epochs,
    /// dropping any cached connection to a peer whose address or epoch
    /// changed (its old socket is dead or belongs to a fenced incarnation).
    pub fn update_peers(&mut self, peers: &[PeerInfo]) {
        self.peers.update(peers, Some(&self.handle));
    }

    /// (Re-)arms the heartbeat to the coordinator, stamped with the
    /// admitted epoch, one every [`HEARTBEAT_INTERVAL`]: it ticks off the
    /// reactor's timer wheel, so it keeps going while the worker loop is
    /// deep inside a solver call.
    pub fn start_heartbeat(&mut self) {
        if let Some(timer) = self.heartbeat.take() {
            self.handle.cancel_timer(timer);
        }
        let Ok(token) = self.coordinator_token() else {
            return;
        };
        let Ok(frame) = encode(&self.heartbeat_msg()) else {
            return;
        };
        let timer = self.handle.set_send_timer(token, HEARTBEAT_INTERVAL, frame);
        self.heartbeat = Some(timer);
    }

    /// Probes the coordinator connection by enqueueing a heartbeat frame.
    /// Returns false once the reactor has observed the connection's death
    /// (the first frame after a peer death may still land in the kernel
    /// buffer, so an idle daemon should probe periodically rather than
    /// once).
    pub fn probe_coordinator(&mut self) -> bool {
        self.send_to_coordinator(&self.heartbeat_msg()).is_ok()
    }

    /// Blocks until a control message or a job batch is pending, or
    /// `timeout` passed. An idle worker loop waits here until its next
    /// status report is due.
    pub fn wait_for_input(&mut self, timeout: Duration) {
        self.wait_for(timeout, |e| {
            !e.pending_control.is_empty() || !e.pending_jobs.is_empty()
        });
    }

    /// Waits up to `timeout` for the reactor to surface what `done` is
    /// looking for; false on a timeout.
    fn wait_for(&mut self, timeout: Duration, done: impl Fn(&Self) -> bool) -> bool {
        let deadline = Instant::now() + timeout;
        while !done(self) {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            match self.events_rx.recv_timeout(deadline - now) {
                Ok(event) => self.dispatch(event),
                Err(_) => return false,
            }
        }
        true
    }

    fn epoch(&self) -> u64 {
        self.admitted.map_or(0, |(_, epoch)| epoch)
    }

    fn dispatch(&mut self, event: ReactorEvent) {
        match event {
            ReactorEvent::Accepted { .. } => {
                // A peer connection identifies itself with its first frame,
                // a job batch.
            }
            ReactorEvent::Frame { conn, payload } => {
                let Ok(msg) = bincode::deserialize::<WireMessage>(&payload) else {
                    self.handle.close(conn);
                    return;
                };
                self.dispatch_msg(conn, msg);
            }
            ReactorEvent::Closed { conn } => {
                if self.coordinator == conn {
                    self.coordinator_down = true;
                    if let Some(timer) = self.heartbeat.take() {
                        self.handle.cancel_timer(timer);
                    }
                }
                self.peers.drop_token(conn);
            }
            ReactorEvent::Tick { .. } => {}
        }
    }

    fn dispatch_msg(&mut self, conn: Token, msg: WireMessage) {
        let from_coordinator = conn == self.coordinator;
        match msg {
            WireMessage::JoinAck {
                worker,
                epoch,
                peers,
            } if from_coordinator && self.admitted.is_none() => {
                self.admitted = Some((worker, epoch));
                self.peers.update(&peers, None);
            }
            WireMessage::Start(spec) if from_coordinator => self.pending_start.push_back(*spec),
            WireMessage::Control(msg) if from_coordinator => self.pending_control.push_back(msg),
            WireMessage::Jobs(batch) => self.pending_jobs.push_back(batch),
            // Anything else is a confused peer (coordinator-bound frames,
            // or session frames on a peer connection). Ignore.
            _ => {}
        }
    }

    fn pump(&mut self) {
        while let Ok(event) = self.events_rx.try_recv() {
            self.dispatch(event);
        }
    }

    fn coordinator_token(&self) -> Result<Token, TransportError> {
        if self.coordinator_down {
            return Err(TransportError::Disconnected);
        }
        Ok(self.coordinator)
    }

    fn send_to_coordinator(&mut self, msg: &WireMessage) -> Result<(), TransportError> {
        self.pump();
        let token = self.coordinator_token()?;
        self.handle.send(token, encode(msg)?);
        Ok(())
    }

    fn heartbeat_msg(&self) -> WireMessage {
        WireMessage::Heartbeat {
            worker: self.id(),
            epoch: self.epoch(),
        }
    }
}

/// Sends a graceful [`WireMessage::Leave`] for an endpoint, so the
/// coordinator reclaims this worker's jobs immediately instead of waiting
/// for the failure detector.
pub fn send_leave(endpoint: &TcpWorkerEndpoint) -> Result<(), TransportError> {
    let token = endpoint.coordinator_token()?;
    let frame = encode(&WireMessage::Leave {
        worker: endpoint.id(),
        epoch: endpoint.epoch(),
    })?;
    endpoint.handle.send(token, frame);
    // Leave usually precedes process exit; flush so the frame beats the
    // reactor teardown out the door.
    endpoint.handle.flush(token, Duration::from_secs(2));
    Ok(())
}

/// A worker-initiated connection whose [`WireMessage::Join`] the
/// coordinator has seen but not yet decided on: parked with a deadline so
/// an abandoned handshake releases its socket.
struct PendingJoin {
    conn: Token,
    deadline: Instant,
    /// Frames the dialer sent after the join and before admission; replayed
    /// through normal routing once the connection is promoted.
    queued: Vec<WireMessage>,
}

/// Coordinator endpoint over TCP.
pub struct TcpCoordinatorEndpoint {
    handle: ReactorHandle,
    events_rx: Receiver<ReactorEvent>,
    /// Control/start channel of each worker, by worker index.
    writers: Vec<Option<Token>>,
    /// Established worker connections, for writer cleanup on close.
    conn_workers: HashMap<Token, WorkerId>,
    /// Accepted connections that have not sent their join frame yet.
    nursery: HashMap<Token, Instant>,
    /// Join handshakes awaiting the admission decision, by join token.
    pending_joins: HashMap<u64, PendingJoin>,
    /// Joins, reports and leaves, in arrival order.
    inbound: VecDeque<Inbound>,
    /// Heartbeats, as (worker, epoch), since the driver last took them.
    heartbeats: Vec<(WorkerId, u64)>,
    listen_addr: SocketAddr,
    _guard: ReactorGuard,
}

impl TcpCoordinatorEndpoint {
    /// Creates an endpoint that accepts worker joins on `addr`.
    pub fn listen(addr: &str) -> io::Result<TcpCoordinatorEndpoint> {
        let listener = std::net::TcpListener::bind(addr)?;
        let listen_addr = listener.local_addr()?;
        let (handle, events_rx) = Reactor::spawn("coord")?;
        handle.add_listener(listener);
        Ok(TcpCoordinatorEndpoint {
            _guard: ReactorGuard(handle.clone()),
            handle,
            events_rx,
            writers: Vec::new(),
            conn_workers: HashMap::new(),
            nursery: HashMap::new(),
            pending_joins: HashMap::new(),
            inbound: VecDeque::new(),
            heartbeats: Vec::new(),
            listen_addr,
        })
    }

    /// The join listener's address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.listen_addr
    }

    /// Releases join handshakes that outlived [`JOIN_HANDSHAKE_TIMEOUT`]:
    /// connections that never sent their join frame, and surfaced joins the
    /// coordinator never decided on. Their sockets are closed so an
    /// abandoned dialer cannot pin coordinator resources.
    fn sweep_stale_joins(&mut self) {
        let now = Instant::now();
        let handle = &self.handle;
        self.nursery.retain(|&conn, &mut deadline| {
            if now >= deadline {
                handle.close(conn);
                false
            } else {
                true
            }
        });
        self.pending_joins.retain(|_, pending| {
            if now >= pending.deadline {
                handle.close(pending.conn);
                false
            } else {
                true
            }
        });
    }

    fn pump_one(&mut self, timeout: Duration) -> bool {
        self.sweep_stale_joins();
        let received = if timeout.is_zero() {
            self.events_rx.try_recv().ok()
        } else {
            self.events_rx.recv_timeout(timeout).ok()
        };
        let Some(event) = received else {
            return false;
        };
        match event {
            ReactorEvent::Accepted { conn, .. } => {
                self.nursery
                    .insert(conn, Instant::now() + JOIN_HANDSHAKE_TIMEOUT);
            }
            ReactorEvent::Frame { conn, payload } => {
                let Ok(msg) = bincode::deserialize::<WireMessage>(&payload) else {
                    self.drop_conn(conn);
                    return true;
                };
                self.route(conn, msg);
            }
            ReactorEvent::Closed { conn } => {
                self.nursery.remove(&conn);
                self.pending_joins.retain(|_, p| p.conn != conn);
                if let Some(worker) = self.conn_workers.remove(&conn) {
                    if let Some(slot) = self.writers.get_mut(worker.index()) {
                        if *slot == Some(conn) {
                            *slot = None;
                        }
                    }
                }
            }
            ReactorEvent::Tick { .. } => {}
        }
        true
    }

    fn route(&mut self, conn: Token, msg: WireMessage) {
        if self.nursery.remove(&conn).is_some() {
            // First frame of an accepted connection: it must be a join.
            let WireMessage::Join {
                version,
                listen_addr,
                previous,
            } = msg
            else {
                self.drop_conn(conn);
                return;
            };
            if version != WIRE_VERSION {
                // A worker speaking a different protocol version: drop the
                // half-open connection instead of admitting it.
                self.drop_conn(conn);
                return;
            }
            let token = conn.0;
            self.pending_joins.insert(
                token,
                PendingJoin {
                    conn,
                    deadline: Instant::now() + JOIN_HANDSHAKE_TIMEOUT,
                    queued: Vec::new(),
                },
            );
            self.inbound.push_back(Inbound::Join(JoinRequest {
                token,
                listen_addr,
                previous,
            }));
            return;
        }
        if let Some(pending) = self.pending_joins.values_mut().find(|p| p.conn == conn) {
            // The dialer is already talking before the admission decision;
            // hold its frames for replay after the promotion.
            pending.queued.push(msg);
            return;
        }
        match msg {
            WireMessage::Status(report) => self.inbound.push_back(Inbound::Status(report)),
            WireMessage::Heartbeat { worker, epoch } => self.heartbeats.push((worker, epoch)),
            WireMessage::Leave { worker, epoch } => {
                self.inbound.push_back(Inbound::Leave { worker, epoch })
            }
            // Worker-bound frames arriving at the coordinator: a confused
            // peer. Ignore.
            _ => {}
        }
    }

    fn drop_conn(&mut self, conn: Token) {
        self.handle.close(conn);
        self.nursery.remove(&conn);
        self.pending_joins.retain(|_, p| p.conn != conn);
        if let Some(worker) = self.conn_workers.remove(&conn) {
            if let Some(slot) = self.writers.get_mut(worker.index()) {
                if *slot == Some(conn) {
                    *slot = None;
                }
            }
        }
    }

    fn writer(&mut self, destination: WorkerId) -> Result<Token, TransportError> {
        // Process queued closures first, so sends to a worker whose death
        // the reactor already observed fail promptly.
        while self.pump_one(Duration::ZERO) {}
        self.writers
            .get(destination.index())
            .copied()
            .flatten()
            .ok_or(TransportError::Disconnected)
    }
}

fn dial_until(addr: &str, deadline: Instant) -> Result<TcpStream, TransportError> {
    loop {
        match TcpStream::connect(addr) {
            Ok(stream) => return Ok(stream),
            Err(e) => {
                if Instant::now() >= deadline {
                    return Err(TransportError::Io(format!("dial {addr}: {e}")));
                }
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }
}

impl TcpCoordinatorEndpoint {
    /// Sends a control message to one worker.
    pub fn send_control(
        &mut self,
        destination: WorkerId,
        msg: Control,
    ) -> Result<(), TransportError> {
        let token = self.writer(destination)?;
        let frame = encode(&WireMessage::Control(msg))?;
        self.handle.send(token, frame);
        Ok(())
    }

    /// Receives the next join, status report or leave, waiting up to
    /// `timeout` for one. They share one queue in arrival order, and every
    /// frame of a worker travels its one coordinator connection, so each
    /// member's frames come out in the order it sent them.
    pub fn recv(&mut self, timeout: Duration) -> Option<Inbound> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(frame) = self.inbound.pop_front() {
                return Some(frame);
            }
            if !self.pump_one(deadline.saturating_duration_since(Instant::now())) {
                return None;
            }
        }
    }

    /// Takes the heartbeats, as (worker, epoch), that arrived since the
    /// last call, after surfacing everything the reactor has received. A
    /// driver feeds them right before its failure detector runs, so a
    /// backlog of reports waiting in [`recv`](Self::recv)'s queue cannot
    /// hide a live member.
    pub fn take_heartbeats(&mut self) -> Vec<(WorkerId, u64)> {
        while self.pump_one(Duration::ZERO) {}
        std::mem::take(&mut self.heartbeats)
    }

    /// Completes a join: hands the joiner the identity, epoch and peer
    /// table its admission assigned, and wires its session into the
    /// coordinator's receive path.
    pub fn admit(
        &mut self,
        token: u64,
        worker: WorkerId,
        epoch: u64,
        peers: Vec<PeerInfo>,
    ) -> Result<(), TransportError> {
        let Some(pending) = self.pending_joins.remove(&token) else {
            // The handshake was swept or its connection died.
            return Err(TransportError::Disconnected);
        };
        let frame = encode(&WireMessage::JoinAck {
            worker,
            epoch,
            peers,
        })?;
        self.handle.send(pending.conn, frame);
        let idx = worker.index();
        if idx >= self.writers.len() {
            self.writers.resize_with(idx + 1, || None);
        }
        self.writers[idx] = Some(pending.conn);
        self.conn_workers.insert(pending.conn, worker);
        for msg in pending.queued {
            self.route(pending.conn, msg);
        }
        Ok(())
    }

    /// Ships a run spec to one worker: the start of its session's run.
    pub fn send_start(
        &mut self,
        destination: WorkerId,
        spec: RunSpec,
    ) -> Result<(), TransportError> {
        let token = self.writer(destination)?;
        let frame = encode(&WireMessage::Start(Box::new(spec)))?;
        self.handle.send(token, frame);
        Ok(())
    }
}

/// The loopback TCP fabric: all N worker endpoints hosted in the current
/// process, joined to a coordinator endpoint listening on localhost, so
/// every byte crosses the kernel's TCP stack. `Cluster::run` runs over it;
/// the workers join and are started exactly as `c9-worker` daemons are,
/// only the processes differ.
pub struct TcpTransport(());

impl TcpTransport {
    /// All workers hosted in this process, joined over localhost TCP.
    pub fn loopback() -> TcpTransport {
        TcpTransport(())
    }

    /// Binds a coordinator endpoint and `num_workers` worker hosts on
    /// localhost, sends every host's join, and returns once all of them
    /// are pending at the coordinator. They may arrive in any order; each
    /// worker learns its identity from its own admission.
    pub fn establish(
        self,
        num_workers: usize,
    ) -> Result<(TcpCoordinatorEndpoint, Vec<TcpWorkerEndpoint>), TransportError> {
        let n = num_workers.max(1);
        let mut coordinator = TcpCoordinatorEndpoint::listen("127.0.0.1:0")?;
        let addr = coordinator.local_addr().to_string();
        let workers = (0..n)
            .map(|_| TcpWorkerHost::bind("127.0.0.1:0")?.join(&addr, None, LOOPBACK_JOIN_TIMEOUT))
            .collect::<Result<Vec<_>, _>>()?;
        let deadline = Instant::now() + LOOPBACK_JOIN_TIMEOUT;
        // Nobody is admitted yet, and a connection's frames after its join
        // wait for the admission: the queue holds only joins.
        while coordinator.inbound.len() < n {
            let now = Instant::now();
            if now >= deadline {
                return Err(TransportError::Io("loopback joins did not arrive".into()));
            }
            coordinator.pump_one(deadline - now);
        }
        Ok((coordinator, workers))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::write_frame;

    const WAIT: Duration = Duration::from_secs(10);

    /// Polls `f` until it yields something or [`WAIT`] runs out.
    fn poll<T>(mut f: impl FnMut() -> Option<T>) -> T {
        let deadline = Instant::now() + WAIT;
        loop {
            if let Some(value) = f() {
                return value;
            }
            assert!(Instant::now() < deadline, "timed out");
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// The fence is armed from the admission on: the join acknowledgement
    /// announces a peer's epoch, and a batch from an older incarnation of
    /// that peer is dropped while a current one is delivered.
    #[test]
    fn an_admitted_worker_drops_batches_of_a_fenced_peer_epoch() {
        let mut coordinator = TcpCoordinatorEndpoint::listen("127.0.0.1:0").expect("listen");
        let host = TcpWorkerHost::bind("127.0.0.1:0").expect("bind");
        let coordinator_addr = coordinator.local_addr().to_string();
        let mut worker = host.join(&coordinator_addr, None, WAIT).expect("join");
        let Some(Inbound::Join(request)) = coordinator.recv(WAIT) else {
            panic!("no join request");
        };
        let peers = vec![
            PeerInfo {
                worker: WorkerId(0),
                addr: request.listen_addr.clone(),
                epoch: 4,
                alive: true,
            },
            PeerInfo {
                worker: WorkerId(1),
                addr: "127.0.0.1:1".into(),
                epoch: 5,
                alive: true,
            },
        ];
        coordinator
            .admit(request.token, WorkerId(0), 4, peers)
            .expect("admit");
        assert_eq!(worker.admission(WAIT), Ok((WorkerId(0), 4)));

        // Worker 1 dials in with a batch of its fenced incarnation (epoch
        // 4), then one of its current one; frames of one connection arrive
        // in order.
        let mut peer = TcpStream::connect(&request.listen_addr).expect("dial the worker");
        for source_epoch in [4, 5] {
            let batch = JobBatch {
                source: WorkerId(1),
                source_epoch,
                seq: source_epoch,
                encoded: Vec::new(),
            };
            write_frame(&mut peer, &WireMessage::Jobs(batch)).expect("send batch");
        }
        let delivered = poll(|| worker.try_recv_jobs());
        assert_eq!(delivered.source_epoch, 5, "the fenced batch came through");
        assert!(worker.try_recv_jobs().is_none());
    }
}
