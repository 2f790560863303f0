//! The readiness-driven socket reactor behind the TCP transport.
//!
//! One thread owns every socket of an endpoint: listeners, the connection
//! to the coordinator, and every peer connection. Sockets are nonblocking;
//! the loop waits in `poll(2)` (via the offline [`poll`] shim — no `libc`
//! crate), accepts on readable listeners, parses length-prefixed frames
//! incrementally out of per-connection read buffers, drains per-connection
//! write queues when the kernel reports writability, and fires timers
//! (heartbeats, sweeps) off a single timer wheel. Everything the endpoint
//! layer sees is a stream of [`ReactorEvent`]s; everything it does is a
//! command sent through a [`ReactorHandle`].
//!
//! This replaces the thread-per-connection design the transport launched
//! with (a reader thread per accepted socket, a heartbeat thread per peer,
//! a join-handshake thread per dialer): a coordinator now holds O(1)
//! threads regardless of cluster size, which is what lets the same process
//! drive hundreds of workers.
//!
//! The reactor is payload-agnostic: it moves raw frame payloads (the bytes
//! after the 4-byte length prefix) and never deserializes a message. Frame
//! length validation against [`crate::frame::MAX_FRAME_LEN`]
//! still happens here, before any allocation, so a corrupt peer cannot
//! balloon a read buffer.

use crate::frame::MAX_FRAME_LEN;
use crossbeam::channel::{unbounded, Receiver, Sender};
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, UdpSocket};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Identity of one socket (listener or connection) registered with a
/// reactor. Tokens are allocated by the handle, never reused, and remain
/// valid as names in events even after the underlying socket is gone.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Token(pub u64);

/// Identity of one timer on the reactor's timer wheel.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TimerId(pub u64);

/// The longest the poll loop sleeps when nothing is due: an upper bound on
/// how stale a newly armed timer or a shutdown request can go unnoticed
/// even if the waker datagram is lost under memory pressure.
const MAX_POLL_WAIT: Duration = Duration::from_millis(50);

/// Size of the stack scratch buffer reads go through before landing in a
/// connection's frame buffer.
const READ_CHUNK: usize = 64 * 1024;

/// What the reactor tells the endpoint layer.
#[derive(Debug)]
pub enum ReactorEvent {
    /// A listener accepted a new connection, now registered as `conn`.
    Accepted {
        /// The listener the connection arrived on.
        listener: Token,
        /// The token the new connection was registered under.
        conn: Token,
        /// The dialer's remote address.
        peer: SocketAddr,
    },
    /// One complete frame arrived on `conn`; `payload` is the frame body
    /// (the length prefix already stripped and validated).
    Frame {
        /// The connection the frame arrived on.
        conn: Token,
        /// The frame payload, ready for `bincode` decoding.
        payload: Vec<u8>,
    },
    /// The connection closed: clean EOF, I/O error, or a protocol
    /// violation (oversized frame). The socket is already dropped; the
    /// token will never appear in another event.
    Closed {
        /// The connection that went away.
        conn: Token,
    },
    /// A [tick timer](ReactorHandle::set_tick) came due.
    Tick {
        /// The timer that fired.
        timer: TimerId,
    },
}

enum TimerKind {
    /// Emit [`ReactorEvent::Tick`] every period.
    Tick,
    /// Enqueue a pre-encoded frame on a connection every period (the
    /// heartbeat path). The timer dies silently with its connection.
    SendFrame { conn: Token, frame: Vec<u8> },
}

enum Command {
    AddListener(Token, TcpListener),
    AddConn(Token, TcpStream),
    Send(Token, Vec<u8>),
    /// Acknowledge (by dropping the sender) once the connection's write
    /// queue is empty — or the connection is gone.
    Flush(Token, Sender<()>),
    Close(Token),
    SetTimer(TimerId, Duration, TimerKind),
    CancelTimer(TimerId),
    Shutdown,
}

/// The endpoint layer's grip on a running reactor. Cloneable; the reactor
/// thread exits when every handle is dropped or [`shutdown`] is called.
///
/// [`shutdown`]: ReactorHandle::shutdown
#[derive(Clone)]
pub struct ReactorHandle {
    tx: Sender<Command>,
    waker: Arc<UdpSocket>,
    next_id: Arc<AtomicU64>,
}

impl ReactorHandle {
    fn next(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    fn command(&self, cmd: Command) {
        // A dead reactor makes every command a no-op; the endpoint layer
        // learns about it from the closed event channel.
        let _ = self.tx.send(cmd);
        self.wake();
    }

    fn wake(&self) {
        // One byte into the waker socket; a full buffer means a wakeup is
        // already pending, so failures are ignorable by design.
        let _ = self.waker.send(&[1]);
    }

    /// Registers a listening socket; accepted connections surface as
    /// [`ReactorEvent::Accepted`].
    pub fn add_listener(&self, listener: TcpListener) -> Token {
        let token = Token(self.next());
        self.command(Command::AddListener(token, listener));
        token
    }

    /// Registers an established connection. The stream is switched to
    /// nonblocking mode with `TCP_NODELAY` by the reactor; incoming frames
    /// surface as [`ReactorEvent::Frame`].
    pub fn add_conn(&self, conn: TcpStream) -> Token {
        let token = Token(self.next());
        self.command(Command::AddConn(token, conn));
        token
    }

    /// Enqueues one already-encoded frame (length prefix included) for
    /// write on `conn`. Frames enqueue in order and drain as the socket
    /// accepts them; a frame queued on a connection that is gone (or dies
    /// before the drain) is dropped, which the endpoint layer observes as
    /// [`ReactorEvent::Closed`].
    pub fn send(&self, conn: Token, frame: Vec<u8>) {
        self.command(Command::Send(conn, frame));
    }

    /// Blocks until every frame queued on `conn` so far has reached the
    /// socket (or the connection died, or `timeout` passed). Returns true
    /// on a completed flush. The barrier callers that are about to exit the
    /// process need: an enqueued frame survives only if the reactor gets to
    /// write it first.
    pub fn flush(&self, conn: Token, timeout: Duration) -> bool {
        let (tx, rx) = crossbeam::channel::unbounded::<()>();
        self.command(Command::Flush(conn, tx));
        // The reactor drops the sender once the queue is empty; a timeout
        // means the frames may not have made it out.
        matches!(
            rx.recv_timeout(timeout),
            Err(crossbeam::channel::RecvTimeoutError::Disconnected)
        )
    }

    /// Drops a connection (best effort: pending writes are flushed once,
    /// nonblocking). No [`ReactorEvent::Closed`] is emitted for a
    /// caller-initiated close.
    pub fn close(&self, conn: Token) {
        self.command(Command::Close(conn));
    }

    /// Arms a periodic timer emitting [`ReactorEvent::Tick`].
    pub fn set_tick(&self, period: Duration) -> TimerId {
        let id = TimerId(self.next());
        self.command(Command::SetTimer(id, period, TimerKind::Tick));
        id
    }

    /// Arms a periodic timer that enqueues `frame` on `conn` every
    /// `period` — the heartbeat primitive, replacing one dedicated thread
    /// per peer with one wheel entry. The timer is dropped silently when
    /// its connection goes away.
    pub fn set_send_timer(&self, conn: Token, period: Duration, frame: Vec<u8>) -> TimerId {
        let id = TimerId(self.next());
        self.command(Command::SetTimer(
            id,
            period,
            TimerKind::SendFrame { conn, frame },
        ));
        id
    }

    /// Disarms a timer.
    pub fn cancel_timer(&self, id: TimerId) {
        self.command(Command::CancelTimer(id));
    }

    /// Stops the reactor thread, dropping every socket it owns.
    pub fn shutdown(&self) {
        self.command(Command::Shutdown);
    }
}

struct Conn {
    stream: TcpStream,
    read_buf: Vec<u8>,
    write_queue: VecDeque<Vec<u8>>,
    /// How much of the front write-queue entry is already written.
    write_off: usize,
}

struct Timer {
    period: Duration,
    due: Instant,
    kind: TimerKind,
}

/// The reactor: spawn it, keep the handle, drain the events.
pub struct Reactor;

impl Reactor {
    /// Spawns the poll-loop thread. Returns the command handle and the
    /// event stream; the thread exits when every handle is gone or on
    /// [`ReactorHandle::shutdown`].
    pub fn spawn(name: &str) -> io::Result<(ReactorHandle, Receiver<ReactorEvent>)> {
        let (cmd_tx, cmd_rx) = unbounded::<Command>();
        let (event_tx, event_rx) = unbounded::<ReactorEvent>();

        // The waker: a connected localhost UDP pair. Handles write one
        // byte to interrupt `poll`; the loop drains it on wakeup. This is
        // the only self-pipe std can build without extra syscall bindings.
        let loop_side = UdpSocket::bind("127.0.0.1:0")?;
        let handle_side = UdpSocket::bind("127.0.0.1:0")?;
        loop_side.connect(handle_side.local_addr()?)?;
        handle_side.connect(loop_side.local_addr()?)?;
        loop_side.set_nonblocking(true)?;
        handle_side.set_nonblocking(true)?;

        let handle = ReactorHandle {
            tx: cmd_tx,
            waker: Arc::new(handle_side),
            next_id: Arc::new(AtomicU64::new(1)),
        };
        let next_id = handle.next_id.clone();
        std::thread::Builder::new()
            .name(format!("c9-reactor-{name}"))
            .spawn(move || {
                ReactorLoop {
                    cmd_rx,
                    event_tx,
                    waker: loop_side,
                    next_id,
                    listeners: HashMap::new(),
                    conns: HashMap::new(),
                    timers: HashMap::new(),
                    flushes: Vec::new(),
                }
                .run();
            })?;
        Ok((handle, event_rx))
    }
}

struct ReactorLoop {
    cmd_rx: Receiver<Command>,
    event_tx: Sender<ReactorEvent>,
    waker: UdpSocket,
    next_id: Arc<AtomicU64>,
    listeners: HashMap<Token, TcpListener>,
    conns: HashMap<Token, Conn>,
    timers: HashMap<TimerId, Timer>,
    /// Pending flush barriers: acknowledged (by drop) once the named
    /// connection's write queue is empty or the connection is gone.
    flushes: Vec<(Token, Sender<()>)>,
}

impl ReactorLoop {
    fn run(mut self) {
        loop {
            // Commands first: registrations and sends issued just before a
            // poll cycle take effect in this cycle, not the next.
            loop {
                match self.cmd_rx.try_recv() {
                    Ok(Command::Shutdown) => return,
                    Ok(cmd) => self.apply(cmd),
                    Err(crossbeam::channel::TryRecvError::Empty) => break,
                    Err(crossbeam::channel::TryRecvError::Disconnected) => return,
                }
            }

            let timeout = self.next_timeout();
            let mut fds = Vec::with_capacity(2 + self.listeners.len() + self.conns.len());
            // Index maps from pollfd position back to the socket it watches.
            let mut fd_tokens: Vec<FdSlot> = Vec::with_capacity(fds.capacity());
            {
                use std::os::unix::io::AsRawFd;
                fds.push(poll::PollFd::new(self.waker.as_raw_fd(), poll::POLLIN));
                fd_tokens.push(FdSlot::Waker);
                for (&token, listener) in &self.listeners {
                    fds.push(poll::PollFd::new(listener.as_raw_fd(), poll::POLLIN));
                    fd_tokens.push(FdSlot::Listener(token));
                }
                for (&token, conn) in &self.conns {
                    let mut interest = poll::POLLIN;
                    if !conn.write_queue.is_empty() {
                        interest |= poll::POLLOUT;
                    }
                    fds.push(poll::PollFd::new(conn.stream.as_raw_fd(), interest));
                    fd_tokens.push(FdSlot::Conn(token));
                }
            }

            let timeout_ms = timeout.as_millis().min(i32::MAX as u128) as i32;
            if poll::poll_fds(&mut fds, Some(timeout_ms)).is_err() {
                // EINTR is retried inside the shim; any other failure here
                // (EBADF from a racing close) resolves itself next cycle
                // when the dead socket is no longer in the set.
                continue;
            }

            for (fd, slot) in fds.iter().zip(&fd_tokens) {
                if fd.revents == 0 {
                    continue;
                }
                match *slot {
                    FdSlot::Waker => {
                        let mut buf = [0u8; 64];
                        while self.waker.recv(&mut buf).is_ok() {}
                    }
                    FdSlot::Listener(token) => self.accept_ready(token),
                    FdSlot::Conn(token) => {
                        if fd.has(poll::POLLOUT) {
                            self.flush_ready(token);
                        }
                        if fd.has(poll::POLLIN | poll::POLLHUP | poll::POLLERR | poll::POLLNVAL) {
                            self.read_ready(token);
                        }
                    }
                }
            }

            self.fire_timers();

            if !self.flushes.is_empty() {
                let conns = &self.conns;
                self.flushes.retain(|(token, _)| match conns.get(token) {
                    Some(conn) => !conn.write_queue.is_empty(),
                    // Dropping the sender acknowledges the barrier.
                    None => false,
                });
            }
        }
    }

    fn apply(&mut self, cmd: Command) {
        match cmd {
            Command::AddListener(token, listener) => {
                if listener.set_nonblocking(true).is_ok() {
                    self.listeners.insert(token, listener);
                }
            }
            Command::AddConn(token, stream) => {
                // Every connection carries small latency-bound frames
                // (status reports, controls, acks): without `TCP_NODELAY`
                // Nagle's algorithm holds each one until the previous is
                // acknowledged. Set here, it covers accepted sockets as
                // well as dialed ones.
                stream.set_nodelay(true).ok();
                if stream.set_nonblocking(true).is_ok() {
                    self.conns.insert(
                        token,
                        Conn {
                            stream,
                            read_buf: Vec::new(),
                            write_queue: VecDeque::new(),
                            write_off: 0,
                        },
                    );
                } else {
                    let _ = self.event_tx.send(ReactorEvent::Closed { conn: token });
                }
            }
            Command::Send(token, frame) => {
                if let Some(conn) = self.conns.get_mut(&token) {
                    conn.write_queue.push_back(frame);
                    // Try draining immediately: most frames fit the socket
                    // buffer and never wait for a POLLOUT cycle.
                    self.flush_ready(token);
                }
            }
            Command::Flush(token, tx) => {
                // Try draining right away: if the queue is already empty the
                // barrier completes without waiting for a poll cycle.
                self.flush_ready(token);
                self.flushes.push((token, tx));
            }
            Command::Close(token) => {
                self.listeners.remove(&token);
                if let Some(token_conn) = self.conns.remove(&token) {
                    let mut conn = token_conn;
                    let _ = Self::drain_writes(&mut conn);
                }
            }
            Command::SetTimer(id, period, kind) => {
                self.timers.insert(
                    id,
                    Timer {
                        period,
                        due: Instant::now() + period,
                        kind,
                    },
                );
            }
            Command::CancelTimer(id) => {
                self.timers.remove(&id);
            }
            Command::Shutdown => unreachable!("handled by the caller"),
        }
    }

    fn next_timeout(&self) -> Duration {
        let now = Instant::now();
        self.timers
            .values()
            .map(|t| t.due.saturating_duration_since(now))
            .min()
            .unwrap_or(MAX_POLL_WAIT)
            .min(MAX_POLL_WAIT)
    }

    fn fire_timers(&mut self) {
        let now = Instant::now();
        let due: Vec<TimerId> = self
            .timers
            .iter()
            .filter(|(_, t)| t.due <= now)
            .map(|(&id, _)| id)
            .collect();
        for id in due {
            let Some(timer) = self.timers.get_mut(&id) else {
                continue;
            };
            timer.due = now + timer.period;
            match &timer.kind {
                TimerKind::Tick => {
                    let _ = self.event_tx.send(ReactorEvent::Tick { timer: id });
                }
                TimerKind::SendFrame { conn, frame } => {
                    let conn = *conn;
                    let frame = frame.clone();
                    if self.conns.contains_key(&conn) {
                        self.apply(Command::Send(conn, frame));
                    } else {
                        self.timers.remove(&id);
                    }
                }
            }
        }
    }

    fn accept_ready(&mut self, listener_token: Token) {
        loop {
            let Some(listener) = self.listeners.get(&listener_token) else {
                return;
            };
            match listener.accept() {
                Ok((stream, peer)) => {
                    let token = Token(self.next_id.fetch_add(1, Ordering::Relaxed));
                    self.apply(Command::AddConn(token, stream));
                    let _ = self.event_tx.send(ReactorEvent::Accepted {
                        listener: listener_token,
                        conn: token,
                        peer,
                    });
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // Transient per-connection accept failures (ECONNABORTED);
                // the listener itself stays.
                Err(_) => return,
            }
        }
    }

    /// Writes as much of `conn`'s queue as the socket accepts right now.
    fn drain_writes(conn: &mut Conn) -> io::Result<()> {
        while let Some(front) = conn.write_queue.front() {
            match conn.stream.write(&front[conn.write_off..]) {
                Ok(n) => {
                    conn.write_off += n;
                    if conn.write_off >= front.len() {
                        conn.write_queue.pop_front();
                        conn.write_off = 0;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        conn.stream.flush()
    }

    fn flush_ready(&mut self, token: Token) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if Self::drain_writes(conn).is_err() {
            self.drop_conn(token);
        }
    }

    /// Reads everything available on `conn` and emits the complete frames.
    fn read_ready(&mut self, token: Token) {
        let mut scratch = [0u8; READ_CHUNK];
        let mut closed = false;
        {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            loop {
                match conn.stream.read(&mut scratch) {
                    Ok(0) => {
                        closed = true;
                        break;
                    }
                    Ok(n) => conn.read_buf.extend_from_slice(&scratch[..n]),
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        closed = true;
                        break;
                    }
                }
            }
        }
        if !self.extract_frames(token) {
            return; // protocol violation: the connection is already gone
        }
        if closed {
            self.drop_conn(token);
        }
    }

    /// Cuts complete frames out of the connection's read buffer and emits
    /// them. Returns `false` if the connection was dropped for a protocol
    /// violation (frame length above the bound).
    fn extract_frames(&mut self, token: Token) -> bool {
        let Some(conn) = self.conns.get_mut(&token) else {
            return false;
        };
        let mut offset = 0usize;
        let mut violated = false;
        let mut frames = Vec::new();
        loop {
            let buf = &conn.read_buf[offset..];
            if buf.len() < 4 {
                break;
            }
            let len = u32::from_le_bytes(buf[..4].try_into().expect("4-byte slice")) as usize;
            if len > MAX_FRAME_LEN {
                violated = true;
                break;
            }
            if buf.len() < 4 + len {
                break;
            }
            frames.push(buf[4..4 + len].to_vec());
            offset += 4 + len;
        }
        if offset > 0 {
            conn.read_buf.drain(..offset);
        }
        for payload in frames {
            let _ = self.event_tx.send(ReactorEvent::Frame {
                conn: token,
                payload,
            });
        }
        if violated {
            self.drop_conn(token);
            return false;
        }
        true
    }

    fn drop_conn(&mut self, token: Token) {
        if self.conns.remove(&token).is_some() {
            let _ = self.event_tx.send(ReactorEvent::Closed { conn: token });
        }
    }
}

enum FdSlot {
    Waker,
    Listener(Token),
    Conn(Token),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::encode_frame;
    use std::net::TcpListener;

    fn recv_event(rx: &Receiver<ReactorEvent>, what: &str) -> ReactorEvent {
        rx.recv_timeout(Duration::from_secs(5))
            .unwrap_or_else(|_| panic!("timed out waiting for {what}"))
    }

    #[test]
    fn frames_round_trip_through_listener() {
        let (handle, events) = Reactor::spawn("test-rt").expect("spawn");
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        handle.add_listener(listener);

        let client = TcpStream::connect(addr).expect("connect");
        let client_token = handle.add_conn(client);

        let accepted = recv_event(&events, "accept");
        let ReactorEvent::Accepted {
            conn: server_token, ..
        } = accepted
        else {
            panic!("expected Accepted, got {accepted:?}");
        };

        // Client -> server.
        let frame = encode_frame(&String::from("ping")).expect("encode");
        handle.send(client_token, frame);
        let event = recv_event(&events, "frame");
        let ReactorEvent::Frame { conn, payload } = event else {
            panic!("expected Frame, got {event:?}");
        };
        assert_eq!(conn, server_token);
        let msg: String = bincode::deserialize(&payload).expect("decode");
        assert_eq!(msg, "ping");

        // Server -> client.
        let frame = encode_frame(&String::from("pong")).expect("encode");
        handle.send(server_token, frame);
        let event = recv_event(&events, "reply frame");
        let ReactorEvent::Frame { conn, payload } = event else {
            panic!("expected Frame, got {event:?}");
        };
        assert_eq!(conn, client_token);
        let msg: String = bincode::deserialize(&payload).expect("decode");
        assert_eq!(msg, "pong");
        handle.shutdown();
    }

    #[test]
    fn partial_frames_assemble_incrementally() {
        let (handle, events) = Reactor::spawn("test-partial").expect("spawn");
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        handle.add_listener(listener);

        let mut client = TcpStream::connect(addr).expect("connect");
        let ReactorEvent::Accepted {
            conn: server_token, ..
        } = recv_event(&events, "accept")
        else {
            panic!("expected Accepted");
        };

        // Dribble a frame across three writes with pauses, so the reactor
        // sees it in pieces.
        let frame = encode_frame(&vec![9u32; 1000]).expect("encode");
        for chunk in frame.chunks(frame.len() / 3 + 1) {
            client.write_all(chunk).expect("write");
            client.flush().expect("flush");
            std::thread::sleep(Duration::from_millis(20));
        }
        let ReactorEvent::Frame { conn, payload } = recv_event(&events, "frame") else {
            panic!("expected Frame");
        };
        assert_eq!(conn, server_token);
        let msg: Vec<u32> = bincode::deserialize(&payload).expect("decode");
        assert_eq!(msg.len(), 1000);
        handle.shutdown();
    }

    /// A reactor loop driven by hand on the test thread, so the sockets it
    /// owns can be inspected.
    fn inline_loop() -> ReactorLoop {
        let waker = UdpSocket::bind("127.0.0.1:0").expect("waker");
        ReactorLoop {
            cmd_rx: unbounded().1,
            event_tx: unbounded().0,
            waker,
            next_id: Arc::new(AtomicU64::new(1)),
            listeners: HashMap::new(),
            conns: HashMap::new(),
            timers: HashMap::new(),
            flushes: Vec::new(),
        }
    }

    #[test]
    fn both_ends_of_an_accepted_pair_get_nodelay() {
        let mut reactor = inline_loop();
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        reactor.apply(Command::AddListener(Token(1), listener));
        let client = TcpStream::connect(addr).expect("connect");
        assert!(
            !client.nodelay().expect("nodelay"),
            "a fresh socket has Nagle on"
        );
        reactor.apply(Command::AddConn(Token(2), client));
        let deadline = Instant::now() + Duration::from_secs(5);
        while reactor.conns.len() < 2 && Instant::now() < deadline {
            reactor.accept_ready(Token(1));
        }
        assert_eq!(reactor.conns.len(), 2, "the dial was never accepted");
        for conn in reactor.conns.values() {
            assert!(conn.stream.nodelay().expect("nodelay"));
        }
    }

    #[test]
    fn peer_close_emits_closed() {
        let (handle, events) = Reactor::spawn("test-close").expect("spawn");
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        handle.add_listener(listener);
        let client = TcpStream::connect(addr).expect("connect");
        let ReactorEvent::Accepted {
            conn: server_token, ..
        } = recv_event(&events, "accept")
        else {
            panic!("expected Accepted");
        };
        drop(client);
        let ReactorEvent::Closed { conn } = recv_event(&events, "closed") else {
            panic!("expected Closed");
        };
        assert_eq!(conn, server_token);
        handle.shutdown();
    }

    #[test]
    fn oversized_frame_drops_the_connection() {
        let (handle, events) = Reactor::spawn("test-oversize").expect("spawn");
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        handle.add_listener(listener);
        let mut client = TcpStream::connect(addr).expect("connect");
        let ReactorEvent::Accepted {
            conn: server_token, ..
        } = recv_event(&events, "accept")
        else {
            panic!("expected Accepted");
        };
        client
            .write_all(&(u32::MAX).to_le_bytes())
            .expect("write bogus header");
        let ReactorEvent::Closed { conn } = recv_event(&events, "closed") else {
            panic!("expected Closed");
        };
        assert_eq!(conn, server_token);
        handle.shutdown();
    }

    #[test]
    fn send_timer_delivers_periodic_frames() {
        let (handle, events) = Reactor::spawn("test-timer").expect("spawn");
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        handle.add_listener(listener);
        let client = TcpStream::connect(addr).expect("connect");
        let client_token = handle.add_conn(client);
        let ReactorEvent::Accepted { .. } = recv_event(&events, "accept") else {
            panic!("expected Accepted");
        };
        let beat = encode_frame(&String::from("hb")).expect("encode");
        handle.set_send_timer(client_token, Duration::from_millis(10), beat);
        let mut beats = 0;
        let deadline = Instant::now() + Duration::from_secs(5);
        while beats < 3 && Instant::now() < deadline {
            if let Ok(ReactorEvent::Frame { payload, .. }) =
                events.recv_timeout(Duration::from_millis(200))
            {
                let msg: String = bincode::deserialize(&payload).expect("decode");
                assert_eq!(msg, "hb");
                beats += 1;
            }
        }
        assert_eq!(beats, 3, "expected three heartbeats");
        handle.shutdown();
    }

    #[test]
    fn tick_timer_fires_and_cancels() {
        let (handle, events) = Reactor::spawn("test-tick").expect("spawn");
        let id = handle.set_tick(Duration::from_millis(5));
        let ReactorEvent::Tick { timer } = recv_event(&events, "tick") else {
            panic!("expected Tick");
        };
        assert_eq!(timer, id);
        handle.cancel_timer(id);
        // Drain anything already queued, then expect silence.
        while events.try_recv().is_ok() {}
        std::thread::sleep(Duration::from_millis(30));
        assert!(events.try_recv().is_err(), "cancelled timer kept firing");
        handle.shutdown();
    }
}
