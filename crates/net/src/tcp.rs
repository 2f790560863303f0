//! The TCP transport: a cluster of OS processes on a network.
//!
//! This is the paper's deployment (§3.3): every worker is a process hosting
//! one symbolic execution engine, listening on a socket; the coordinator
//! process runs the load balancer and drives the run. Job batches travel
//! directly between workers over lazily-dialed peer connections — the
//! coordinator only ever sees queue lengths and coverage bit vectors,
//! exactly as in the paper.
//!
//! Every endpoint is backed by one [`reactor`](crate::reactor) thread that
//! owns all of its sockets: the listener, the coordinator connection, and
//! every peer connection. Frames are parsed incrementally out of
//! per-connection read buffers, writes drain through per-connection queues
//! on writability, and heartbeats tick off the reactor's timer wheel — an
//! endpoint holds O(1) threads no matter how many peers it talks to, which
//! is what makes a 256-worker (or federated) coordinator viable in one
//! process.
//!
//! Membership is elastic in both directions:
//!
//! * the coordinator can dial a fixed worker list
//!   ([`TcpCoordinatorEndpoint::connect`], the static deployment), and/or
//!   listen for workers that attach to a running cluster with a
//!   [`WireMessage::Join`] handshake ([`TcpCoordinatorEndpoint::listen`]);
//! * each worker's transport sends [`WireMessage::Heartbeat`] frames from
//!   the reactor's timer wheel, so the coordinator's failure detector keeps
//!   working while the worker loop is deep inside a solver call;
//! * every worker carries a per-worker *epoch* assigned at join time; a
//!   re-joining worker gets a fresh epoch and peers drop both the stale
//!   cached connection and any frames stamped with the old epoch.
//!
//! Join handshakes are bounded: a connection that never completes its
//! [`WireMessage::Join`] (dead dialer, garbage frame) is swept after
//! [`JOIN_HANDSHAKE_TIMEOUT`] and its socket released, so abandoned
//! handshakes cannot pin coordinator resources.

use crate::frame::encode_frame;
use crate::message::{
    Control, FinalReport, JobBatch, PeerInfo, RunSpec, StatusReport, WireMessage, WIRE_VERSION,
};
use crate::reactor::{Reactor, ReactorEvent, ReactorHandle, TimerId, Token};
use crate::transport::{
    CoordinatorEndpoint, Endpoints, JoinRequest, MemberEvent, Transport, TransportError,
    WorkerEndpoint,
};
use crate::{RunId, WorkerId};
use c9_vm::StrategyKind;
use crossbeam::channel::Receiver;
use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// How long a worker-initiated connection may sit between `accept` and a
/// completed [`WireMessage::Join`] handshake (or between the surfaced
/// [`JoinRequest`] and the coordinator's admission decision) before the
/// coordinator sweeps it and releases the socket.
pub const JOIN_HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(10);

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
/// lazily-dialed connection of every peer. A membership update that changes
/// a peer's address or epoch drops the cached connection — the old socket
/// either is dead or belongs to a fenced-off incarnation.
struct PeerTable {
    addrs: Vec<String>,
    epochs: Vec<u64>,
    conns: Vec<Option<Token>>,
}

impl PeerTable {
    /// Builds a table from a bare address list (static deployments, where
    /// epochs are unknown and every batch is accepted).
    fn from_addrs(addrs: Vec<String>) -> PeerTable {
        let n = addrs.len();
        PeerTable {
            addrs,
            epochs: vec![0; n],
            conns: (0..n).map(|_| None).collect(),
        }
    }

    /// Builds a table from a full membership announcement.
    fn from_infos(peers: &[PeerInfo]) -> PeerTable {
        let mut table = PeerTable::from_addrs(Vec::new());
        table.update(peers, None);
        table
    }

    fn len(&self) -> usize {
        self.addrs.len()
    }

    /// The last announced epoch of a peer (0 = unknown, accept anything).
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

/// A worker-side listener: accepts coordinator and peer connections and
/// demultiplexes their frames into one reactor event queue.
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

    /// The address the listener is bound to (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    fn into_endpoint(self) -> TcpWorkerEndpoint {
        TcpWorkerEndpoint {
            id: WorkerId(0),
            num_workers: 0,
            peers: PeerTable::from_addrs(Vec::new()),
            coordinator: None,
            coordinator_down: false,
            handle: self.handle,
            events_rx: self.events_rx,
            pending_control: VecDeque::new(),
            pending_jobs: VecDeque::new(),
            pending_start: VecDeque::new(),
            worker_epoch: 0,
            assigned_strategy: StrategyKind::default(),
            heartbeat: None,
            _guard: self.guard,
        }
    }

    /// Waits for a coordinator to connect and introduce itself, returning
    /// the worker endpoint for the session. Control or job frames that race
    /// ahead of the hello are preserved for the endpoint.
    pub fn accept_coordinator(self, timeout: Duration) -> Option<TcpWorkerEndpoint> {
        let mut endpoint = self.into_endpoint();
        let deadline = Instant::now() + timeout;
        while endpoint.coordinator.is_none() {
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            match endpoint.events_rx.recv_timeout(deadline - now) {
                Ok(event) => endpoint.dispatch(event),
                Err(_) => return None,
            }
        }
        Some(endpoint)
    }

    /// Dials a listening coordinator and joins its cluster (elastic
    /// membership): sends the [`WireMessage::Join`] handshake, waits for the
    /// acknowledgement that assigns this worker's identity and epoch, and
    /// returns the endpoint for the session. `previous` names the identity
    /// of this daemon's previous incarnation when re-joining after a lost
    /// connection, so the coordinator can fence it off.
    pub fn join_coordinator(
        self,
        coordinator_addr: &str,
        previous: Option<(WorkerId, u64)>,
        timeout: Duration,
    ) -> Result<TcpWorkerEndpoint, TransportError> {
        let deadline = Instant::now() + timeout;
        // The handshake happens in blocking mode on the caller's thread;
        // only the established session is handed to the reactor. A frame
        // read reads exactly its own bytes, so anything the coordinator
        // sends after the ack is still in the socket for the reactor.
        let mut stream = dial_until(coordinator_addr, deadline)?;
        stream.set_nodelay(true).ok();
        crate::frame::write_frame(
            &mut stream,
            &WireMessage::Join {
                version: WIRE_VERSION,
                listen_addr: self.local_addr.to_string(),
                previous,
            },
        )
        .map_err(TransportError::from)?;
        stream
            .set_read_timeout(Some(timeout.max(Duration::from_millis(1))))
            .ok();
        let ack: WireMessage =
            crate::frame::read_frame(&mut stream).map_err(TransportError::from)?;
        stream.set_read_timeout(None).ok();
        let WireMessage::JoinAck {
            worker,
            epoch,
            peers,
            strategy,
        } = ack
        else {
            return Err(TransportError::Io(
                "coordinator answered the join with an unexpected frame".into(),
            ));
        };
        let mut endpoint = self.into_endpoint();
        endpoint.id = worker;
        endpoint.num_workers = peers.len();
        endpoint.peers = PeerTable::from_infos(&peers);
        endpoint.coordinator = Some(endpoint.handle.add_conn(stream));
        endpoint.worker_epoch = epoch;
        endpoint.assigned_strategy = strategy;
        Ok(endpoint)
    }
}

/// Worker endpoint over TCP.
pub struct TcpWorkerEndpoint {
    id: WorkerId,
    num_workers: usize,
    peers: PeerTable,
    /// The connection the coordinator speaks on (`None` until the first
    /// hello in the accept path).
    coordinator: Option<Token>,
    coordinator_down: bool,
    handle: ReactorHandle,
    events_rx: Receiver<ReactorEvent>,
    pending_control: VecDeque<(RunId, Control)>,
    pending_jobs: VecDeque<JobBatch>,
    pending_start: VecDeque<RunSpec>,
    worker_epoch: u64,
    assigned_strategy: StrategyKind,
    /// The armed heartbeat timer and its period, re-armed onto the new
    /// connection when a reconnecting coordinator replaces the old one.
    heartbeat: Option<(TimerId, Duration)>,
    _guard: ReactorGuard,
}

impl TcpWorkerEndpoint {
    /// Number of workers in the cluster, as announced by the coordinator.
    pub fn num_workers(&self) -> usize {
        self.num_workers
    }

    /// This worker's fencing epoch (assigned at join, or by the run spec).
    pub fn worker_epoch(&self) -> u64 {
        self.worker_epoch
    }

    /// The exploration strategy the coordinator's portfolio assigned at
    /// join time (informational until the run spec confirms it).
    pub fn assigned_strategy(&self) -> StrategyKind {
        self.assigned_strategy
    }

    /// Waits for the coordinator to begin a run.
    pub fn wait_start(&mut self, timeout: Duration) -> Option<RunSpec> {
        if let Some(spec) = self.pending_start.pop_front() {
            return Some(self.begin_run(spec));
        }
        let deadline = Instant::now() + timeout;
        loop {
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            match self.events_rx.recv_timeout(deadline - now) {
                Ok(event) => {
                    self.dispatch(event);
                    if let Some(spec) = self.pending_start.pop_front() {
                        return Some(self.begin_run(spec));
                    }
                }
                Err(_) => return None,
            }
        }
    }

    /// Adopts a run spec's worker-epoch assignment. Fencing between runs
    /// is no longer the endpoint's job: every control frame and job batch
    /// carries its [`RunId`], and the worker's run service drops frames
    /// addressed to runs it does not host.
    fn begin_run(&mut self, spec: RunSpec) -> RunSpec {
        self.worker_epoch = spec.worker_epoch;
        spec
    }

    fn dispatch(&mut self, event: ReactorEvent) {
        match event {
            ReactorEvent::Accepted { .. } => {
                // The connection identifies itself with its first frame
                // (hello from a coordinator, a job batch from a peer).
            }
            ReactorEvent::Frame { conn, payload } => {
                let Ok(msg) = bincode::deserialize::<WireMessage>(&payload) else {
                    self.handle.close(conn);
                    return;
                };
                self.dispatch_msg(conn, msg);
            }
            ReactorEvent::Closed { conn } => {
                if self.coordinator == Some(conn) {
                    self.coordinator_down = true;
                    if let Some((timer, _)) = self.heartbeat.take() {
                        self.handle.cancel_timer(timer);
                    }
                }
                self.peers.drop_token(conn);
            }
            ReactorEvent::Tick { .. } => {}
        }
    }

    fn dispatch_msg(&mut self, conn: Token, msg: WireMessage) {
        match msg {
            WireMessage::CoordinatorHello {
                version,
                worker,
                num_workers,
                peers,
            } => {
                if version != WIRE_VERSION {
                    // A coordinator speaking a different protocol version:
                    // drop the connection rather than mis-decode its frames.
                    self.handle.close(conn);
                    return;
                }
                // A reconnecting coordinator replaces the control channel.
                if let Some(old) = self.coordinator {
                    if old != conn {
                        self.handle.close(old);
                    }
                }
                self.id = worker;
                self.num_workers = num_workers as usize;
                self.peers = PeerTable::from_addrs(peers);
                self.coordinator = Some(conn);
                self.coordinator_down = false;
                if let Some((timer, period)) = self.heartbeat.take() {
                    self.handle.cancel_timer(timer);
                    self.arm_heartbeat(period);
                }
            }
            WireMessage::Start(spec) => self.pending_start.push_back(*spec),
            WireMessage::Control { run, msg } => self.pending_control.push_back((run, msg)),
            WireMessage::Jobs(batch) => self.pending_jobs.push_back(batch),
            // Everything else is coordinator-bound; a worker receiving one
            // indicates a confused peer. Ignore.
            WireMessage::Status(_)
            | WireMessage::Final(_)
            | WireMessage::Join { .. }
            | WireMessage::JoinAck { .. }
            | WireMessage::Heartbeat { .. }
            | WireMessage::Leave { .. } => {}
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
        self.coordinator.ok_or(TransportError::Disconnected)
    }

    fn send_to_coordinator(&mut self, msg: &WireMessage) -> Result<(), TransportError> {
        self.pump();
        let token = self.coordinator_token()?;
        self.handle.send(token, encode(msg)?);
        Ok(())
    }

    fn heartbeat_msg(&self) -> WireMessage {
        WireMessage::Heartbeat {
            worker: self.id,
            epoch: self.worker_epoch,
        }
    }

    fn arm_heartbeat(&mut self, interval: Duration) {
        let Ok(token) = self.coordinator_token() else {
            return;
        };
        let Ok(frame) = encode(&self.heartbeat_msg()) else {
            return;
        };
        let timer = self.handle.set_send_timer(token, interval, frame);
        self.heartbeat = Some((timer, interval));
    }

    /// Probes the coordinator connection by enqueueing a heartbeat frame.
    /// Returns false once the reactor has observed the connection's death
    /// (the first frame after a peer death may still land in the kernel
    /// buffer, so an idle daemon should probe periodically rather than
    /// once).
    pub fn probe_coordinator(&mut self) -> bool {
        self.send_to_coordinator(&self.heartbeat_msg()).is_ok()
    }
}

impl WorkerEndpoint for TcpWorkerEndpoint {
    fn id(&self) -> WorkerId {
        self.id
    }

    fn try_recv_control(&mut self) -> Option<(RunId, Control)> {
        self.pump();
        self.pending_control.pop_front()
    }

    fn try_recv_jobs(&mut self) -> Option<JobBatch> {
        self.pump();
        while let Some(batch) = self.pending_jobs.pop_front() {
            // Drop batches from a fenced-off previous incarnation of a
            // re-joined peer. Batches for runs this worker does not host
            // (stale, cancelled, not yet admitted) are the run service's
            // job to drop — the endpoint does not know the hosted run set.
            if batch.source_epoch < self.peers.epoch(batch.source) {
                continue;
            }
            return Some(batch);
        }
        None
    }

    fn try_recv_start(&mut self) -> Option<Box<RunSpec>> {
        self.pump();
        let spec = self.pending_start.pop_front()?;
        Some(Box::new(self.begin_run(spec)))
    }

    fn send_jobs(&mut self, destination: WorkerId, batch: JobBatch) -> Result<(), TransportError> {
        // Drain reactor events first so a peer death the reactor already
        // saw fails the send now (and triggers a fresh dial) instead of
        // dropping the batch into a dead write queue.
        self.pump();
        let frame = encode(&WireMessage::Jobs(batch))?;
        let token = self.peers.token(destination, &self.handle)?;
        self.handle.send(token, frame);
        Ok(())
    }

    fn send_status(&mut self, report: StatusReport) -> Result<(), TransportError> {
        self.send_to_coordinator(&WireMessage::Status(report))
    }

    fn send_final(&mut self, report: FinalReport) -> Result<(), TransportError> {
        self.send_to_coordinator(&WireMessage::Final(Box::new(report)))?;
        // A worker often exits right after its final report; flush so the
        // report is on the wire before the process (and its reactor) dies.
        let token = self.coordinator_token()?;
        if self.handle.flush(token, Duration::from_secs(5)) {
            Ok(())
        } else {
            Err(TransportError::Disconnected)
        }
    }

    fn update_peers(&mut self, peers: &[PeerInfo]) {
        self.peers.update(peers, Some(&self.handle));
        self.num_workers = self.num_workers.max(self.peers.len());
    }

    fn start_heartbeat(&mut self, interval: Duration) {
        if let Some((timer, _)) = self.heartbeat.take() {
            self.handle.cancel_timer(timer);
        }
        if interval.is_zero() {
            return;
        }
        self.arm_heartbeat(interval);
    }
}

/// Sends a graceful [`WireMessage::Leave`] for an endpoint, so the
/// coordinator reclaims this worker's jobs immediately instead of waiting
/// for the failure detector.
pub fn send_leave(endpoint: &TcpWorkerEndpoint) -> Result<(), TransportError> {
    let token = endpoint.coordinator_token()?;
    let frame = encode(&WireMessage::Leave {
        worker: endpoint.id,
        epoch: endpoint.worker_epoch,
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
    pending_status: VecDeque<StatusReport>,
    pending_finals: VecDeque<FinalReport>,
    pending_events: VecDeque<MemberEvent>,
    pending_requests: VecDeque<JoinRequest>,
    listen_addr: Option<SocketAddr>,
    _guard: ReactorGuard,
}

impl TcpCoordinatorEndpoint {
    /// An endpoint with no connections yet: combine with
    /// [`TcpCoordinatorEndpoint::listen_on`] for a purely elastic cluster.
    pub fn detached() -> TcpCoordinatorEndpoint {
        let (handle, events_rx) = Reactor::spawn("coord").expect("coordinator reactor spawn");
        guard_fields(handle, events_rx)
    }

    /// Dials every worker in `addrs` (retrying each until `timeout`), sends
    /// the hello that assigns identities and the peer list, and registers
    /// the sessions with the reactor.
    pub fn connect(
        addrs: &[String],
        timeout: Duration,
    ) -> Result<TcpCoordinatorEndpoint, TransportError> {
        let deadline = Instant::now() + timeout;
        let mut endpoint = TcpCoordinatorEndpoint::detached();
        for (i, addr) in addrs.iter().enumerate() {
            let stream = dial_until(addr, deadline)?;
            let worker = WorkerId(i as u32);
            let token = endpoint.handle.add_conn(stream);
            endpoint.handle.send(
                token,
                encode(&WireMessage::CoordinatorHello {
                    version: WIRE_VERSION,
                    worker,
                    num_workers: addrs.len() as u32,
                    peers: addrs.to_vec(),
                })?,
            );
            endpoint.conn_workers.insert(token, worker);
            endpoint.writers.push(Some(token));
        }
        Ok(endpoint)
    }

    /// Creates an endpoint with no initial workers that accepts elastic
    /// joins on `addr`.
    pub fn listen(addr: &str) -> io::Result<TcpCoordinatorEndpoint> {
        let mut endpoint = TcpCoordinatorEndpoint::detached();
        endpoint.listen_on(addr)?;
        Ok(endpoint)
    }

    /// Starts accepting elastic joins on `addr` (usable together with a
    /// dialed static worker set). Returns the bound address.
    pub fn listen_on(&mut self, addr: &str) -> io::Result<SocketAddr> {
        let listener = std::net::TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        self.handle.add_listener(listener);
        self.listen_addr = Some(local_addr);
        Ok(local_addr)
    }

    /// The join listener's address, when listening (useful with port 0).
    pub fn local_addr(&self) -> Option<SocketAddr> {
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
            self.pending_requests.push_back(JoinRequest {
                token,
                listen_addr,
                previous,
            });
            return;
        }
        if let Some(pending) = self.pending_joins.values_mut().find(|p| p.conn == conn) {
            // The dialer is already talking before the admission decision;
            // hold its frames for replay after the promotion.
            pending.queued.push(msg);
            return;
        }
        match msg {
            WireMessage::Status(report) => self.pending_status.push_back(report),
            WireMessage::Final(report) => self.pending_finals.push_back(*report),
            WireMessage::Heartbeat { worker, epoch } => self
                .pending_events
                .push_back(MemberEvent::Heartbeat { worker, epoch }),
            WireMessage::Leave { worker, epoch } => self
                .pending_events
                .push_back(MemberEvent::Leave { worker, epoch }),
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

/// Builds the empty endpoint state around a freshly spawned reactor.
fn guard_fields(
    handle: ReactorHandle,
    events_rx: Receiver<ReactorEvent>,
) -> TcpCoordinatorEndpoint {
    TcpCoordinatorEndpoint {
        _guard: ReactorGuard(handle.clone()),
        handle,
        events_rx,
        writers: Vec::new(),
        conn_workers: HashMap::new(),
        nursery: HashMap::new(),
        pending_joins: HashMap::new(),
        pending_status: VecDeque::new(),
        pending_finals: VecDeque::new(),
        pending_events: VecDeque::new(),
        pending_requests: VecDeque::new(),
        listen_addr: None,
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

impl CoordinatorEndpoint for TcpCoordinatorEndpoint {
    fn num_workers(&self) -> usize {
        self.writers.len()
    }

    fn send_control(
        &mut self,
        destination: WorkerId,
        run: RunId,
        msg: Control,
    ) -> Result<(), TransportError> {
        let token = self.writer(destination)?;
        let frame = encode(&WireMessage::Control { run, msg })?;
        self.handle.send(token, frame);
        Ok(())
    }

    fn recv_status(&mut self, timeout: Duration) -> Option<StatusReport> {
        if let Some(report) = self.pending_status.pop_front() {
            return Some(report);
        }
        let deadline = Instant::now() + timeout;
        loop {
            let now = Instant::now();
            let step = if now >= deadline {
                Duration::ZERO
            } else {
                deadline - now
            };
            if !self.pump_one(step) {
                return None;
            }
            if let Some(report) = self.pending_status.pop_front() {
                return Some(report);
            }
            if step.is_zero() {
                return None;
            }
        }
    }

    fn recv_final(&mut self, timeout: Duration) -> Option<FinalReport> {
        if let Some(report) = self.pending_finals.pop_front() {
            return Some(report);
        }
        let deadline = Instant::now() + timeout;
        loop {
            let now = Instant::now();
            let step = if now >= deadline {
                Duration::ZERO
            } else {
                deadline - now
            };
            if !self.pump_one(step) {
                return None;
            }
            if let Some(report) = self.pending_finals.pop_front() {
                return Some(report);
            }
            if step.is_zero() {
                return None;
            }
        }
    }

    fn try_recv_event(&mut self) -> Option<MemberEvent> {
        loop {
            if let Some(event) = self.pending_events.pop_front() {
                return Some(event);
            }
            if !self.pump_one(Duration::ZERO) {
                return None;
            }
        }
    }

    fn try_recv_join(&mut self) -> Option<JoinRequest> {
        loop {
            if let Some(request) = self.pending_requests.pop_front() {
                return Some(request);
            }
            if !self.pump_one(Duration::ZERO) {
                return None;
            }
        }
    }

    fn admit(
        &mut self,
        token: u64,
        worker: WorkerId,
        epoch: u64,
        peers: Vec<PeerInfo>,
        strategy: StrategyKind,
    ) -> Result<(), TransportError> {
        let Some(pending) = self.pending_joins.remove(&token) else {
            // The handshake was swept or its connection died.
            return Err(TransportError::Disconnected);
        };
        let frame = encode(&WireMessage::JoinAck {
            worker,
            epoch,
            peers,
            strategy,
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

    fn send_start(&mut self, destination: WorkerId, spec: RunSpec) -> Result<(), TransportError> {
        let token = self.writer(destination)?;
        let frame = encode(&WireMessage::Start(Box::new(spec)))?;
        self.handle.send(token, frame);
        Ok(())
    }
}

/// The TCP transport.
///
/// Two modes:
///
/// * [`TcpTransport::loopback`] hosts all N worker endpoints in the current
///   process, connected to the coordinator over real localhost sockets —
///   every byte crosses the kernel's TCP stack. Used by tests and the
///   transport benchmark, and by `Cluster::run_with_transport`.
/// * [`TcpTransport::connect`] dials already-running `c9-worker` daemons;
///   the returned endpoint set has no local workers.
pub struct TcpTransport {
    mode: TcpMode,
}

enum TcpMode {
    Loopback,
    Connect {
        addrs: Vec<String>,
        timeout: Duration,
    },
}

impl TcpTransport {
    /// All workers hosted in-process, joined over localhost TCP.
    pub fn loopback() -> TcpTransport {
        TcpTransport {
            mode: TcpMode::Loopback,
        }
    }

    /// Connect to remote worker daemons at `addrs`.
    pub fn connect(addrs: Vec<String>, timeout: Duration) -> TcpTransport {
        TcpTransport {
            mode: TcpMode::Connect { addrs, timeout },
        }
    }
}

impl Transport for TcpTransport {
    type WorkerEnd = TcpWorkerEndpoint;
    type CoordinatorEnd = TcpCoordinatorEndpoint;

    fn establish(
        self,
        num_workers: usize,
    ) -> Result<Endpoints<TcpCoordinatorEndpoint, TcpWorkerEndpoint>, TransportError> {
        match self.mode {
            TcpMode::Loopback => {
                let n = num_workers.max(1);
                let mut hosts = Vec::with_capacity(n);
                let mut addrs = Vec::with_capacity(n);
                for _ in 0..n {
                    let host = TcpWorkerHost::bind("127.0.0.1:0").map_err(TransportError::from)?;
                    addrs.push(host.local_addr().to_string());
                    hosts.push(host);
                }
                let coordinator = TcpCoordinatorEndpoint::connect(&addrs, Duration::from_secs(10))?;
                let mut workers = Vec::with_capacity(n);
                for host in hosts {
                    let endpoint = host
                        .accept_coordinator(Duration::from_secs(10))
                        .ok_or(TransportError::Disconnected)?;
                    workers.push(endpoint);
                }
                Ok(Endpoints {
                    coordinator,
                    workers,
                })
            }
            TcpMode::Connect { addrs, timeout } => {
                if addrs.len() != num_workers {
                    return Err(TransportError::Io(format!(
                        "worker list has {} entries but the cluster needs {num_workers}",
                        addrs.len()
                    )));
                }
                let coordinator = TcpCoordinatorEndpoint::connect(&addrs, timeout)?;
                Ok(Endpoints {
                    coordinator,
                    workers: Vec::new(),
                })
            }
        }
    }
}
