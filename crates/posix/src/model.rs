//! The POSIX environment model: per-state data and the syscall dispatcher.
//!
//! The model keeps all of its data (file descriptor tables, stream buffers,
//! sockets, the modelled file system, fault-injection switches) inside the
//! execution state, so forking a state forks the whole modelled environment
//! with it — exactly the property that makes modelled calls safe where
//! external concrete calls are not (§4.1 of the paper).
//!
//! ## Modelling notes
//!
//! * Blocking calls (`read` on an empty pipe, `accept` with no pending
//!   connection, `select` with nothing ready) put the calling thread to sleep
//!   with *restart* semantics: the syscall re-executes after the thread is
//!   woken, re-checking its condition — the host-side equivalent of the
//!   `while (...) cloud9_thread_sleep(...)` loops the paper's guest-side
//!   model uses.
//! * Fault injection wraps an operation's successful completion and an error
//!   return into a two-way fork. The successful side effects (consumed bytes,
//!   advanced offsets) are visible on the error path as well; this models a
//!   call that made partial progress before failing and keeps the fork
//!   mechanics simple.
//! * Symbolic descriptors (`SIO_SYMBOLIC`) produce fresh symbolic bytes on
//!   every read, bounded by a per-descriptor budget; with `SIO_PKT_FRAGMENT`
//!   each read additionally forks over how many bytes it returns, which is
//!   how the lighttpd fragmentation experiment (§7.3.4) is expressed.

use crate::buffers::StreamBuffer;
use crate::faults::FaultState;
use crate::nr;
use crate::objects::{
    Datagram, FdEntry, FdObject, FdTable, FileSystem, Network, ObjectTables, OpenFile, Socket,
    SocketIdx, SocketKind, SocketState, StreamIdx,
};
use c9_expr::Width;
use c9_solver::Solver;
use c9_vm::{
    ByteValue, EnvState, Environment, ExecutionState, SyscallAlternative, SyscallContext,
    SyscallEffect, TerminationReason, Value, WaitListId,
};
use std::any::Any;
use std::collections::BTreeMap;

/// Tunables of the POSIX model.
#[derive(Clone, Copy, Debug)]
pub struct PosixConfig {
    /// Maximum number of symbolic bytes produced by a single read from a
    /// symbolic descriptor.
    pub max_symbolic_chunk: u64,
    /// Maximum number of fragmentation alternatives per read (bounds the
    /// fan-out of `SIO_PKT_FRAGMENT`).
    pub max_fragment_alternatives: usize,
    /// Default cap on faults injected along one path (0 = unlimited).
    pub max_faults_per_path: u64,
}

impl Default for PosixConfig {
    fn default() -> PosixConfig {
        PosixConfig {
            max_symbolic_chunk: 16,
            max_fragment_alternatives: 8,
            max_faults_per_path: 2,
        }
    }
}

/// The per-state data of the POSIX model.
#[derive(Clone, Debug, Default)]
pub struct PosixState {
    /// File descriptor tables, keyed by pid.
    pub fd_tables: BTreeMap<u32, FdTable>,
    /// Kernel object tables (streams, sockets, open files).
    pub objects: ObjectTables,
    /// The modelled file system.
    pub fs: FileSystem,
    /// The modelled single-IP network.
    pub network: Network,
    /// Fault-injection switches and accounting.
    pub faults: FaultState,
    /// Monotonic time counter returned by `gettime`.
    pub time: u64,
    /// Wait list used by `select` when nothing is ready.
    pub select_wlist: Option<WaitListId>,
    /// Counter used to name symbolic input sources.
    pub sym_counter: u32,
}

impl EnvState for PosixState {
    fn clone_box(&self) -> Box<dyn EnvState> {
        Box::new(self.clone())
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// The POSIX environment model.
///
/// Register one instance with an [`c9_vm::Executor`] (or [`c9_vm::Engine`]);
/// its configuration and initial file system are shared by every state.
#[derive(Clone, Debug, Default)]
pub struct PosixEnvironment {
    /// Model tunables.
    pub config: PosixConfig,
    initial_fs: FileSystem,
}

impl PosixEnvironment {
    /// Creates a model with the default configuration and an empty file
    /// system.
    pub fn new() -> PosixEnvironment {
        PosixEnvironment::default()
    }

    /// Creates a model with an explicit configuration.
    pub fn with_config(config: PosixConfig) -> PosixEnvironment {
        PosixEnvironment {
            config,
            ..PosixEnvironment::default()
        }
    }

    /// Adds a concrete file visible to every initial state (e.g. a
    /// configuration file the target reads at startup).
    pub fn add_file(&mut self, path: &str, contents: &[u8]) -> &mut Self {
        self.initial_fs.add_file(path, contents);
        self
    }
}

impl Environment for PosixEnvironment {
    fn create_state(&self) -> Box<dyn EnvState> {
        let mut state = PosixState {
            fs: self.initial_fs.clone(),
            ..PosixState::default()
        };
        state.faults.max_faults_per_path = self.config.max_faults_per_path;
        Box::new(state)
    }

    fn syscall(
        &self,
        ctx: &mut SyscallContext<'_>,
        nr: u32,
        args: &[Value],
    ) -> Result<SyscallEffect, TerminationReason> {
        let state = &mut *ctx.state;
        let posix = ctx
            .env
            .as_any_mut()
            .downcast_mut::<PosixState>()
            .expect("PosixEnvironment used with a non-POSIX environment state");
        let mut call = Call {
            state,
            posix,
            solver: ctx.solver,
            config: &self.config,
        };
        call.dispatch(nr, args)
    }

    fn name(&self) -> &str {
        "posix"
    }
}

/// One in-flight syscall: split borrows of the execution state and the model
/// data, plus the solver for concretization.
struct Call<'a> {
    state: &'a mut ExecutionState,
    posix: &'a mut PosixState,
    solver: &'a Solver,
    config: &'a PosixConfig,
}

fn ret(v: u64) -> Result<SyscallEffect, TerminationReason> {
    Ok(SyscallEffect::Return(Value::concrete(v, Width::W64)))
}

fn err() -> Result<SyscallEffect, TerminationReason> {
    ret(nr::ERR)
}

impl<'a> Call<'a> {
    // -- plumbing -------------------------------------------------------------

    fn arg(&mut self, args: &[Value], i: usize) -> u64 {
        let v = args
            .get(i)
            .cloned()
            .unwrap_or(Value::concrete(0, Width::W64));
        match v.as_u64() {
            Some(c) => c,
            None => {
                let expr = v.to_expr();
                let c = self
                    .solver
                    .get_value(&self.state.constraints, &expr)
                    .unwrap_or(0);
                self.state
                    .add_constraint(c9_expr::Expr::eq(expr, c9_expr::Expr::const_(c, v.width())));
                c
            }
        }
    }

    fn pid(&self) -> u32 {
        self.state.thread().pid.0
    }

    /// The fd table of the calling process, created on first use by cloning
    /// the parent's table (fd inheritance across fork) or the stdio defaults.
    fn fd_table(&mut self) -> &mut FdTable {
        let pid = self.pid();
        if !self.posix.fd_tables.contains_key(&pid) {
            let inherited = self.state.processes[pid as usize]
                .parent
                .and_then(|pp| self.posix.fd_tables.get(&pp.0).cloned())
                .unwrap_or_else(FdTable::with_stdio);
            self.posix.fd_tables.insert(pid, inherited);
        }
        self.posix.fd_tables.get_mut(&pid).expect("just inserted")
    }

    fn entry(&mut self, fd: u64) -> Option<FdEntry> {
        self.fd_table().get(fd).cloned()
    }

    fn write_guest(&mut self, addr: u64, data: &[ByteValue]) -> bool {
        let space = self.state.current_space();
        self.state.memory.write_bytes(space, addr, data).is_ok()
    }

    fn read_guest(&mut self, addr: u64, len: usize) -> Option<Vec<ByteValue>> {
        let space = self.state.current_space();
        self.state.memory.read_bytes(space, addr, len).ok()
    }

    /// Wakes every thread sleeping on `wlist`.
    fn wake_all(&mut self, wlist: Option<WaitListId>) {
        let Some(wlist) = wlist else { return };
        let woken = self.state.wait_lists.dequeue(wlist, true);
        for tid in woken {
            self.state.threads[tid.0 as usize].status = c9_vm::ThreadStatus::Runnable;
        }
    }

    /// Wakes select() waiters (any readiness change may satisfy a select).
    fn wake_select(&mut self) {
        let wlist = self.posix.select_wlist;
        self.wake_all(wlist);
    }

    fn sleep_on(
        &mut self,
        wlist_slot: impl FnOnce(&mut PosixState, WaitListId) -> WaitListId,
    ) -> Result<SyscallEffect, TerminationReason> {
        let fresh = self.state.wait_lists.create();
        let wlist = wlist_slot(self.posix, fresh);
        Ok(SyscallEffect::Sleep {
            wlist,
            restart: true,
            retval: Value::concrete(0, Width::W64),
        })
    }

    /// Wraps a plain return value into a success/fault fork when fault
    /// injection applies to this descriptor.
    fn maybe_inject_fault(
        &mut self,
        fd_flag: bool,
        effect: Result<SyscallEffect, TerminationReason>,
    ) -> Result<SyscallEffect, TerminationReason> {
        if !self.posix.faults.should_consider(fd_flag) {
            return effect;
        }
        match effect {
            Ok(SyscallEffect::Return(v)) => {
                let success = SyscallAlternative::new("ok", v);
                let fault = SyscallAlternative::new("fault", Value::concrete(nr::ERR, Width::W64))
                    .with_update(|env| {
                        env.downcast_mut::<PosixState>().faults.record_injection();
                    });
                Ok(SyscallEffect::Fork(vec![success, fault]))
            }
            other => other,
        }
    }

    // -- dispatcher -----------------------------------------------------------

    fn dispatch(&mut self, nr_: u32, args: &[Value]) -> Result<SyscallEffect, TerminationReason> {
        match nr_ {
            nr::OPEN => self.sys_open(args),
            nr::CLOSE => self.sys_close(args),
            nr::READ => self.sys_read(args),
            nr::WRITE => self.sys_write(args),
            nr::LSEEK => self.sys_lseek(args),
            nr::FSTAT_SIZE => self.sys_fstat_size(args),
            nr::DUP => self.sys_dup(args),
            nr::UNLINK => self.sys_unlink(args),
            nr::SOCKET => self.sys_socket(args),
            nr::BIND => self.sys_bind(args),
            nr::LISTEN => self.sys_listen(args),
            nr::ACCEPT => self.sys_accept(args),
            nr::CONNECT => self.sys_connect(args),
            nr::SEND => self.sys_write(args),
            nr::RECV => self.sys_read(args),
            nr::SHUTDOWN => self.sys_shutdown(args),
            nr::RECVFROM => self.sys_recvfrom(args),
            nr::SENDTO => self.sys_sendto(args),
            nr::PIPE => self.sys_pipe(args),
            nr::SELECT => self.sys_select(args),
            nr::IOCTL => self.sys_ioctl(args),
            nr::FI_ENABLE => {
                self.posix.faults.global_enabled = true;
                ret(0)
            }
            nr::FI_DISABLE => {
                self.posix.faults.global_enabled = false;
                ret(0)
            }
            nr::GETTIME => {
                self.posix.time += 1;
                ret(self.posix.time)
            }
            nr::MMAP_ANON => self.sys_mmap_anon(args),
            nr::GETPID => ret(u64::from(self.pid())),
            other => Err(TerminationReason::Bug(c9_vm::BugKind::UnknownSyscall(
                other,
            ))),
        }
    }

    // -- files ----------------------------------------------------------------

    fn sys_open(&mut self, args: &[Value]) -> Result<SyscallEffect, TerminationReason> {
        let path_ptr = self.arg(args, 0);
        let flags = self.arg(args, 1);
        let space = self.state.current_space();
        let Ok(path_bytes) = self.state.memory.read_cstring(space, path_ptr, 4096) else {
            return err();
        };
        let path = String::from_utf8_lossy(&path_bytes).to_string();
        if !self.posix.fs.exists(&path) {
            if flags & nr::O_CREAT != 0 {
                self.posix.fs.create(&path);
            } else {
                return err();
            }
        }
        let file_idx = self
            .posix
            .objects
            .add_open_file(OpenFile { path, offset: 0 });
        let fd = self
            .fd_table()
            .install(FdEntry::new(FdObject::File(file_idx)));
        let effect = ret(fd);
        self.maybe_inject_fault(false, effect)
    }

    fn sys_close(&mut self, args: &[Value]) -> Result<SyscallEffect, TerminationReason> {
        let fd = self.arg(args, 0);
        let Some(entry) = self.fd_table().remove(fd) else {
            return err();
        };
        match entry.object {
            FdObject::Socket(idx) => self.close_socket(idx),
            FdObject::PipeRead(s) => {
                self.posix.objects.streams[s].reader_closed = true;
                let w = self.posix.objects.streams[s].write_waiters;
                self.wake_all(w);
            }
            FdObject::PipeWrite(s) => {
                self.posix.objects.streams[s].writer_closed = true;
                let r = self.posix.objects.streams[s].read_waiters;
                self.wake_all(r);
                self.wake_select();
            }
            _ => {}
        }
        ret(0)
    }

    fn close_socket(&mut self, idx: SocketIdx) {
        let sock_state = std::mem::replace(
            &mut self.posix.objects.sockets[idx].state,
            SocketState::Closed,
        );
        if let SocketState::Connected { tx, rx } = sock_state {
            self.posix.objects.streams[tx].writer_closed = true;
            self.posix.objects.streams[rx].reader_closed = true;
            let read_w = self.posix.objects.streams[tx].read_waiters;
            let write_w = self.posix.objects.streams[rx].write_waiters;
            self.wake_all(read_w);
            self.wake_all(write_w);
            self.wake_select();
        }
    }

    fn sys_read(&mut self, args: &[Value]) -> Result<SyscallEffect, TerminationReason> {
        let fd = self.arg(args, 0);
        let buf = self.arg(args, 1);
        let len = self.arg(args, 2) as usize;
        let Some(entry) = self.entry(fd) else {
            return err();
        };
        let fault_flag = entry.flags.fault_inject;

        // Symbolic descriptors produce fresh symbolic input regardless of the
        // underlying object.
        if entry.flags.symbolic_budget.is_some() {
            let effect = self.symbolic_read(fd, buf, len, &entry);
            return self.maybe_inject_fault(fault_flag, effect);
        }

        let effect = match entry.object {
            FdObject::File(file_idx) => self.file_read(file_idx, buf, len),
            FdObject::PipeRead(s) => self.stream_read(s, buf, len, entry.flags.fragment),
            FdObject::Socket(sock) => match self.posix.objects.sockets[sock].state.clone() {
                SocketState::Connected { rx, .. } => {
                    self.stream_read(rx, buf, len, entry.flags.fragment)
                }
                _ => err(),
            },
            FdObject::Stdin => ret(0),
            FdObject::Stdout | FdObject::Stderr | FdObject::PipeWrite(_) => err(),
        };
        self.maybe_inject_fault(fault_flag, effect)
    }

    fn file_read(
        &mut self,
        file_idx: usize,
        buf: u64,
        len: usize,
    ) -> Result<SyscallEffect, TerminationReason> {
        let (path, offset) = {
            let of = &self.posix.objects.open_files[file_idx];
            (of.path.clone(), of.offset)
        };
        let Some(file) = self.posix.fs.file(&path) else {
            return err();
        };
        let data = file.read(offset, len);
        if !data.is_empty() && !self.write_guest(buf, &data) {
            return err();
        }
        self.posix.objects.open_files[file_idx].offset += data.len();
        ret(data.len() as u64)
    }

    fn stream_read(
        &mut self,
        s: StreamIdx,
        buf: u64,
        len: usize,
        fragment: bool,
    ) -> Result<SyscallEffect, TerminationReason> {
        if len == 0 {
            return ret(0);
        }
        let (is_empty, writer_closed, stream_len) = {
            let stream = &self.posix.objects.streams[s];
            (stream.is_empty(), stream.writer_closed, stream.len())
        };
        if is_empty {
            if writer_closed {
                return ret(0);
            }
            return self.sleep_on(|posix, fresh| {
                *posix.objects.streams[s].read_waiters.get_or_insert(fresh)
            });
        }
        let avail = stream_len.min(len);
        if fragment && avail > 1 {
            // Fork over how many bytes this read returns; each alternative
            // consumes exactly that many bytes from the stream.
            let max_alts = self.config.max_fragment_alternatives.max(1);
            let choices: Vec<usize> = fragment_choices(avail, max_alts);
            let stream = &self.posix.objects.streams[s];
            let alts = choices
                .into_iter()
                .map(|k| {
                    SyscallAlternative::new(
                        &format!("read{k}"),
                        Value::concrete(k as u64, Width::W64),
                    )
                    .with_update(move |env| {
                        env.downcast_mut::<PosixState>().objects.streams[s].pop(k);
                    })
                    .with_output(buf, stream.peek(k))
                })
                .collect();
            return Ok(SyscallEffect::Fork(alts));
        }
        let data = self.posix.objects.streams[s].pop(avail);
        if !self.write_guest(buf, &data) {
            return err();
        }
        let w = self.posix.objects.streams[s].write_waiters;
        self.wake_all(w);
        ret(data.len() as u64)
    }

    fn symbolic_read(
        &mut self,
        fd: u64,
        buf: u64,
        len: usize,
        entry: &FdEntry,
    ) -> Result<SyscallEffect, TerminationReason> {
        let budget = entry.flags.symbolic_budget.unwrap_or(0);
        let n_max = (len as u64).min(budget).min(self.config.max_symbolic_chunk) as usize;
        if n_max == 0 {
            return ret(0);
        }
        let name = format!("fd{fd}_in{}", self.posix.sym_counter);
        self.posix.sym_counter += 1;
        let bytes: Vec<ByteValue> = self
            .state
            .fresh_symbolic_bytes(&name, n_max)
            .into_iter()
            .map(ByteValue::from_expr)
            .collect();
        if !self.write_guest(buf, &bytes) {
            return err();
        }
        let pid = self.pid();
        if entry.flags.fragment && n_max > 1 {
            let choices: Vec<usize> =
                fragment_choices(n_max, self.config.max_fragment_alternatives);
            let alts = choices
                .into_iter()
                .map(|k| {
                    SyscallAlternative::new(
                        &format!("frag{k}"),
                        Value::concrete(k as u64, Width::W64),
                    )
                    .with_update(move |env| {
                        let posix = env.downcast_mut::<PosixState>();
                        if let Some(e) = posix.fd_tables.get_mut(&pid).and_then(|t| t.get_mut(fd)) {
                            if let Some(b) = &mut e.flags.symbolic_budget {
                                *b = b.saturating_sub(k as u64);
                            }
                        }
                    })
                })
                .collect();
            return Ok(SyscallEffect::Fork(alts));
        }
        if let Some(e) = self.fd_table().get_mut(fd) {
            if let Some(b) = &mut e.flags.symbolic_budget {
                *b = b.saturating_sub(n_max as u64);
            }
        }
        ret(n_max as u64)
    }

    fn sys_write(&mut self, args: &[Value]) -> Result<SyscallEffect, TerminationReason> {
        let fd = self.arg(args, 0);
        let buf = self.arg(args, 1);
        let len = self.arg(args, 2) as usize;
        let Some(entry) = self.entry(fd) else {
            return err();
        };
        let fault_flag = entry.flags.fault_inject;
        let Some(data) = self.read_guest(buf, len) else {
            return err();
        };
        let effect = match entry.object {
            FdObject::Stdout | FdObject::Stderr => ret(len as u64),
            FdObject::File(file_idx) => {
                let (path, offset) = {
                    let of = &self.posix.objects.open_files[file_idx];
                    (of.path.clone(), of.offset)
                };
                match self.posix.fs.file_mut(&path) {
                    Some(file) => {
                        file.write(offset, &data);
                        self.posix.objects.open_files[file_idx].offset += data.len();
                        ret(data.len() as u64)
                    }
                    None => err(),
                }
            }
            FdObject::PipeWrite(s) => self.stream_write(s, &data),
            FdObject::Socket(sock) => match self.posix.objects.sockets[sock].state.clone() {
                SocketState::Connected { tx, .. } => self.stream_write(tx, &data),
                _ => {
                    // Writes to an unconnected but symbolic-input socket are
                    // simply discarded (the test harness plays the peer).
                    if entry.flags.symbolic_budget.is_some() {
                        ret(len as u64)
                    } else {
                        err()
                    }
                }
            },
            FdObject::Stdin | FdObject::PipeRead(_) => err(),
        };
        self.maybe_inject_fault(fault_flag, effect)
    }

    fn stream_write(
        &mut self,
        s: StreamIdx,
        data: &[ByteValue],
    ) -> Result<SyscallEffect, TerminationReason> {
        if self.posix.objects.streams[s].reader_closed {
            return err();
        }
        if self.posix.objects.streams[s].free_space() == 0 {
            return self.sleep_on(|posix, fresh| {
                *posix.objects.streams[s].write_waiters.get_or_insert(fresh)
            });
        }
        let pushed = self.posix.objects.streams[s].push(data);
        let r = self.posix.objects.streams[s].read_waiters;
        self.wake_all(r);
        self.wake_select();
        ret(pushed as u64)
    }

    fn sys_lseek(&mut self, args: &[Value]) -> Result<SyscallEffect, TerminationReason> {
        let fd = self.arg(args, 0);
        let offset = self.arg(args, 1) as i64;
        let whence = self.arg(args, 2);
        let Some(entry) = self.entry(fd) else {
            return err();
        };
        let FdObject::File(file_idx) = entry.object else {
            return err();
        };
        let path = self.posix.objects.open_files[file_idx].path.clone();
        let size = self.posix.fs.file(&path).map(|f| f.len()).unwrap_or(0) as i64;
        let current = self.posix.objects.open_files[file_idx].offset as i64;
        let new = match whence {
            nr::SEEK_SET => offset,
            nr::SEEK_CUR => current + offset,
            nr::SEEK_END => size + offset,
            _ => return err(),
        };
        if new < 0 {
            return err();
        }
        self.posix.objects.open_files[file_idx].offset = new as usize;
        ret(new as u64)
    }

    fn sys_fstat_size(&mut self, args: &[Value]) -> Result<SyscallEffect, TerminationReason> {
        let fd = self.arg(args, 0);
        let Some(entry) = self.entry(fd) else {
            return err();
        };
        let FdObject::File(file_idx) = entry.object else {
            return err();
        };
        let path = self.posix.objects.open_files[file_idx].path.clone();
        match self.posix.fs.file(&path) {
            Some(f) => ret(f.len() as u64),
            None => err(),
        }
    }

    fn sys_dup(&mut self, args: &[Value]) -> Result<SyscallEffect, TerminationReason> {
        let fd = self.arg(args, 0);
        let Some(entry) = self.entry(fd) else {
            return err();
        };
        let new_fd = self.fd_table().install(entry);
        ret(new_fd)
    }

    fn sys_unlink(&mut self, args: &[Value]) -> Result<SyscallEffect, TerminationReason> {
        let path_ptr = self.arg(args, 0);
        let space = self.state.current_space();
        let Ok(path_bytes) = self.state.memory.read_cstring(space, path_ptr, 4096) else {
            return err();
        };
        let path = String::from_utf8_lossy(&path_bytes).to_string();
        if self.posix.fs.unlink(&path) {
            ret(0)
        } else {
            err()
        }
    }

    fn sys_mmap_anon(&mut self, args: &[Value]) -> Result<SyscallEffect, TerminationReason> {
        let len = self.arg(args, 0) as usize;
        let space = self.state.current_space();
        let base = self.state.memory.alloc(space, len);
        ret(base)
    }

    // -- sockets ----------------------------------------------------------------

    fn sys_socket(&mut self, args: &[Value]) -> Result<SyscallEffect, TerminationReason> {
        let kind = if self.arg(args, 0) == nr::SOCK_DGRAM {
            SocketKind::Datagram
        } else {
            SocketKind::Stream
        };
        let idx = self.posix.objects.add_socket(Socket::new(kind));
        if kind == SocketKind::Datagram {
            self.posix.objects.sockets[idx].state = SocketState::Udp {
                port: None,
                rx_packets: Default::default(),
                recv_waiters: None,
            };
        }
        let fd = self.fd_table().install(FdEntry::new(FdObject::Socket(idx)));
        ret(fd)
    }

    fn socket_of(&mut self, fd: u64) -> Option<SocketIdx> {
        match self.entry(fd)?.object {
            FdObject::Socket(idx) => Some(idx),
            _ => None,
        }
    }

    fn sys_bind(&mut self, args: &[Value]) -> Result<SyscallEffect, TerminationReason> {
        let fd = self.arg(args, 0);
        let port = self.arg(args, 1) as u16;
        let Some(idx) = self.socket_of(fd) else {
            return err();
        };
        match self.posix.objects.sockets[idx].kind {
            SocketKind::Stream => {
                // Remember the port by pre-registering a (not yet listening)
                // listener slot; listen() finalizes it.
                self.posix.network.tcp_listeners.insert(port, idx);
                ret(0)
            }
            SocketKind::Datagram => {
                if let SocketState::Udp { port: p, .. } = &mut self.posix.objects.sockets[idx].state
                {
                    *p = Some(port);
                }
                self.posix.network.udp_bound.insert(port, idx);
                ret(0)
            }
        }
    }

    fn sys_listen(&mut self, args: &[Value]) -> Result<SyscallEffect, TerminationReason> {
        let fd = self.arg(args, 0);
        let Some(idx) = self.socket_of(fd) else {
            return err();
        };
        let port = self
            .posix
            .network
            .tcp_listeners
            .iter()
            .find(|(_, i)| **i == idx)
            .map(|(p, _)| *p)
            .unwrap_or(0);
        self.posix.objects.sockets[idx].state = SocketState::Listening {
            port,
            pending: Default::default(),
            accept_waiters: None,
        };
        ret(0)
    }

    fn sys_accept(&mut self, args: &[Value]) -> Result<SyscallEffect, TerminationReason> {
        let fd = self.arg(args, 0);
        let Some(idx) = self.socket_of(fd) else {
            return err();
        };
        let pending_conn = match &mut self.posix.objects.sockets[idx].state {
            SocketState::Listening { pending, .. } => pending.pop_front(),
            _ => return err(),
        };
        match pending_conn {
            Some(conn_idx) => {
                let new_fd = self
                    .fd_table()
                    .install(FdEntry::new(FdObject::Socket(conn_idx)));
                ret(new_fd)
            }
            None => {
                self.sleep_on(
                    move |posix, fresh| match &mut posix.objects.sockets[idx].state {
                        SocketState::Listening { accept_waiters, .. } => {
                            *accept_waiters.get_or_insert(fresh)
                        }
                        _ => fresh,
                    },
                )
            }
        }
    }

    fn sys_connect(&mut self, args: &[Value]) -> Result<SyscallEffect, TerminationReason> {
        let fd = self.arg(args, 0);
        let port = self.arg(args, 1) as u16;
        let Some(client_idx) = self.socket_of(fd) else {
            return err();
        };
        let Some(&listener_idx) = self.posix.network.tcp_listeners.get(&port) else {
            return err();
        };
        // Build the two half-duplex streams of Fig. 6.
        let c2s = self.posix.objects.add_stream(StreamBuffer::new());
        let s2c = self.posix.objects.add_stream(StreamBuffer::new());
        self.posix.objects.sockets[client_idx].state = SocketState::Connected { tx: c2s, rx: s2c };
        let server_conn = self.posix.objects.add_socket(Socket {
            kind: SocketKind::Stream,
            state: SocketState::Connected { tx: s2c, rx: c2s },
        });
        let waiters = match &mut self.posix.objects.sockets[listener_idx].state {
            SocketState::Listening {
                pending,
                accept_waiters,
                ..
            } => {
                pending.push_back(server_conn);
                *accept_waiters
            }
            _ => return err(),
        };
        self.wake_all(waiters);
        self.wake_select();
        ret(0)
    }

    fn sys_shutdown(&mut self, args: &[Value]) -> Result<SyscallEffect, TerminationReason> {
        let fd = self.arg(args, 0);
        let Some(idx) = self.socket_of(fd) else {
            return err();
        };
        if let SocketState::Connected { tx, .. } = self.posix.objects.sockets[idx].state {
            self.posix.objects.streams[tx].writer_closed = true;
            let r = self.posix.objects.streams[tx].read_waiters;
            self.wake_all(r);
            self.wake_select();
        }
        ret(0)
    }

    fn sys_recvfrom(&mut self, args: &[Value]) -> Result<SyscallEffect, TerminationReason> {
        let fd = self.arg(args, 0);
        let buf = self.arg(args, 1);
        let len = self.arg(args, 2) as usize;
        let Some(entry) = self.entry(fd) else {
            return err();
        };
        let Some(idx) = self.socket_of(fd) else {
            return err();
        };
        // Symbolic UDP source: each datagram is fresh symbolic bytes; with
        // fragmentation enabled the datagram size is also symbolic.
        if entry.flags.symbolic_budget.is_some() {
            return self.symbolic_read(fd, buf, len, &entry);
        }
        let packet = match &mut self.posix.objects.sockets[idx].state {
            SocketState::Udp { rx_packets, .. } => rx_packets.pop_front(),
            _ => return err(),
        };
        match packet {
            Some(dgram) => {
                let n = dgram.data.len().min(len);
                if !self.write_guest(buf, &dgram.data[..n]) {
                    return err();
                }
                ret(n as u64)
            }
            None => {
                self.sleep_on(
                    move |posix, fresh| match &mut posix.objects.sockets[idx].state {
                        SocketState::Udp { recv_waiters, .. } => *recv_waiters.get_or_insert(fresh),
                        _ => fresh,
                    },
                )
            }
        }
    }

    fn sys_sendto(&mut self, args: &[Value]) -> Result<SyscallEffect, TerminationReason> {
        let fd = self.arg(args, 0);
        let buf = self.arg(args, 1);
        let len = self.arg(args, 2) as usize;
        let port = self.arg(args, 3) as u16;
        if self.socket_of(fd).is_none() {
            return err();
        }
        let Some(data) = self.read_guest(buf, len) else {
            return err();
        };
        let Some(&dest_idx) = self.posix.network.udp_bound.get(&port) else {
            // Datagrams to unbound ports vanish silently, like UDP.
            return ret(len as u64);
        };
        let waiters = match &mut self.posix.objects.sockets[dest_idx].state {
            SocketState::Udp {
                rx_packets,
                recv_waiters,
                ..
            } => {
                rx_packets.push_back(Datagram { data, from_port: 0 });
                *recv_waiters
            }
            _ => return err(),
        };
        self.wake_all(waiters);
        self.wake_select();
        ret(len as u64)
    }

    // -- pipes and polling --------------------------------------------------------

    fn sys_pipe(&mut self, args: &[Value]) -> Result<SyscallEffect, TerminationReason> {
        let fds_ptr = self.arg(args, 0);
        let s = self.posix.objects.add_stream(StreamBuffer::new());
        let read_fd = self.fd_table().install(FdEntry::new(FdObject::PipeRead(s)));
        let write_fd = self
            .fd_table()
            .install(FdEntry::new(FdObject::PipeWrite(s)));
        let mut out = Vec::new();
        for fd in [read_fd, write_fd] {
            out.extend((fd as u32).to_le_bytes().map(ByteValue::Concrete));
        }
        if !self.write_guest(fds_ptr, &out) {
            return err();
        }
        ret(0)
    }

    /// Whether a descriptor is ready for reading.
    fn fd_readable(&mut self, fd: u64) -> bool {
        let Some(entry) = self.entry(fd) else {
            return false;
        };
        if let Some(budget) = entry.flags.symbolic_budget {
            return budget > 0;
        }
        match entry.object {
            FdObject::File(_) | FdObject::Stdin => true,
            FdObject::PipeRead(s) => self.posix.objects.streams[s].readable(),
            FdObject::Socket(idx) => match &self.posix.objects.sockets[idx].state {
                SocketState::Connected { rx, .. } => self.posix.objects.streams[*rx].readable(),
                SocketState::Listening { pending, .. } => !pending.is_empty(),
                SocketState::Udp { rx_packets, .. } => !rx_packets.is_empty(),
                _ => false,
            },
            _ => false,
        }
    }

    /// Whether a descriptor is ready for writing.
    fn fd_writable(&mut self, fd: u64) -> bool {
        let Some(entry) = self.entry(fd) else {
            return false;
        };
        match entry.object {
            FdObject::File(_) | FdObject::Stdout | FdObject::Stderr => true,
            FdObject::PipeWrite(s) => self.posix.objects.streams[s].writable(),
            FdObject::Socket(idx) => match &self.posix.objects.sockets[idx].state {
                SocketState::Connected { tx, .. } => self.posix.objects.streams[*tx].writable(),
                SocketState::Udp { .. } => true,
                _ => entry.flags.symbolic_budget.is_some(),
            },
            _ => false,
        }
    }

    fn sys_select(&mut self, args: &[Value]) -> Result<SyscallEffect, TerminationReason> {
        let nfds = self.arg(args, 0).min(64);
        let readfds_ptr = self.arg(args, 1);
        let writefds_ptr = self.arg(args, 2);
        let space = self.state.current_space();
        let read_mask = if readfds_ptr != 0 {
            self.state
                .memory
                .read(space, readfds_ptr, Width::W64)
                .ok()
                .and_then(|v| v.as_u64())
                .unwrap_or(0)
        } else {
            0
        };
        let write_mask = if writefds_ptr != 0 {
            self.state
                .memory
                .read(space, writefds_ptr, Width::W64)
                .ok()
                .and_then(|v| v.as_u64())
                .unwrap_or(0)
        } else {
            0
        };

        let mut ready_read: u64 = 0;
        let mut ready_write: u64 = 0;
        let mut count = 0u64;
        for fd in 0..nfds {
            if read_mask & (1 << fd) != 0 && self.fd_readable(fd) {
                ready_read |= 1 << fd;
                count += 1;
            }
            if write_mask & (1 << fd) != 0 && self.fd_writable(fd) {
                ready_write |= 1 << fd;
                count += 1;
            }
        }
        if count == 0 && (read_mask | write_mask) != 0 {
            return self.sleep_on(|posix, fresh| *posix.select_wlist.get_or_insert(fresh));
        }
        if readfds_ptr != 0 {
            let v = Value::concrete(ready_read, Width::W64);
            let _ = self.state.memory.write(space, readfds_ptr, &v, Width::W64);
        }
        if writefds_ptr != 0 {
            let v = Value::concrete(ready_write, Width::W64);
            let _ = self.state.memory.write(space, writefds_ptr, &v, Width::W64);
        }
        ret(count)
    }

    // -- ioctl / testing API -------------------------------------------------------

    fn sys_ioctl(&mut self, args: &[Value]) -> Result<SyscallEffect, TerminationReason> {
        let fd = self.arg(args, 0);
        let code = self.arg(args, 1);
        let arg = self.arg(args, 2);
        let Some(entry) = self.fd_table().get_mut(fd) else {
            return err();
        };
        match code {
            nr::SIO_SYMBOLIC => {
                entry.flags.symbolic_budget = Some(if arg == 0 { 64 } else { arg });
                ret(0)
            }
            nr::SIO_PKT_FRAGMENT => {
                entry.flags.fragment = true;
                ret(0)
            }
            nr::SIO_FAULT_INJ => {
                entry.flags.fault_inject = true;
                ret(0)
            }
            _ => err(),
        }
    }
}

/// The set of return-length alternatives for a fragmented read of `avail`
/// bytes, capped at `max_alts` alternatives. The full length and length 1 are
/// always included; intermediate lengths are sampled evenly.
fn fragment_choices(avail: usize, max_alts: usize) -> Vec<usize> {
    let max_alts = max_alts.max(2);
    if avail <= max_alts {
        return (1..=avail).collect();
    }
    let mut choices = vec![1];
    let steps = max_alts - 2;
    for i in 1..=steps {
        let v = 1 + i * (avail - 1) / (steps + 1);
        if !choices.contains(&v) {
            choices.push(v);
        }
    }
    if !choices.contains(&avail) {
        choices.push(avail);
    }
    choices
}

#[cfg(test)]
mod model_tests {
    use super::*;

    #[test]
    fn fragment_choices_cover_extremes() {
        assert_eq!(fragment_choices(3, 8), vec![1, 2, 3]);
        let c = fragment_choices(100, 5);
        assert!(c.contains(&1));
        assert!(c.contains(&100));
        assert!(c.len() <= 5);
        let c1 = fragment_choices(2, 2);
        assert_eq!(c1, vec![1, 2]);
    }
}
