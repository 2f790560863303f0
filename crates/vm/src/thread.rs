//! Threads, processes, call frames, and wait lists.

use crate::memory::AddressSpaceId;
use crate::value::Value;
use c9_ir::{BlockId, FuncId, RegId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Identifier of a thread within a state.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ThreadId(pub u32);

/// Identifier of a process within a state.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ProcessId(pub u32);

/// Identifier of a wait list (sleep queue), as returned by the `get_wlist`
/// engine primitive.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct WaitListId(pub u32);

/// One activation record on a thread's call stack.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Frame {
    /// The function being executed.
    pub func: FuncId,
    /// The block currently executing.
    pub block: BlockId,
    /// Index of the next instruction to execute within the block; equal to
    /// the block length when the terminator is next.
    pub instr_idx: usize,
    /// The register file.
    pub regs: Vec<Value>,
    /// Where the caller wants the return value, if anywhere.
    pub return_to: Option<RegId>,
}

impl Frame {
    /// Creates a frame positioned at the entry of `func`.
    pub fn new(func: FuncId, entry: BlockId, num_regs: usize, return_to: Option<RegId>) -> Frame {
        Frame {
            func,
            block: entry,
            instr_idx: 0,
            regs: vec![Value::concrete(0, c9_expr::Width::W64); num_regs],
            return_to,
        }
    }
}

/// Scheduling status of a thread.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ThreadStatus {
    /// Ready to run.
    Runnable,
    /// Sleeping on a wait list.
    Sleeping(WaitListId),
    /// Finished (either returned from its start function or terminated).
    Terminated,
}

/// A symbolic thread: a call stack scheduled cooperatively by the engine.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Thread {
    /// Identifier of the thread.
    pub tid: ThreadId,
    /// The process this thread belongs to.
    pub pid: ProcessId,
    /// The call stack; the last frame is the active one.
    pub frames: Vec<Frame>,
    /// Scheduling status.
    pub status: ThreadStatus,
    /// Set when the syscall that put this thread to sleep must be re-executed
    /// when the thread wakes up (blocking-syscall restart semantics).
    pub restart_syscall: bool,
}

impl Thread {
    /// Whether the thread can be scheduled.
    pub fn is_runnable(&self) -> bool {
        self.status == ThreadStatus::Runnable
    }

    /// The active frame.
    pub fn top_frame(&self) -> Option<&Frame> {
        self.frames.last()
    }

    /// The active frame, mutably.
    pub fn top_frame_mut(&mut self) -> Option<&mut Frame> {
        self.frames.last_mut()
    }
}

/// A process: an address space plus bookkeeping.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Process {
    /// Identifier of the process.
    pub pid: ProcessId,
    /// Parent process, if any.
    pub parent: Option<ProcessId>,
    /// The address space of this process.
    pub space: AddressSpaceId,
    /// Whether the process has terminated.
    pub terminated: bool,
    /// Exit code, once terminated.
    pub exit_code: i64,
}

/// Wait lists: queues of sleeping threads, plus the id allocator.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WaitLists {
    next: u32,
    queues: BTreeMap<WaitListId, Vec<ThreadId>>,
}

impl WaitLists {
    /// Allocates a fresh wait list.
    pub fn create(&mut self) -> WaitListId {
        let id = WaitListId(self.next);
        self.next += 1;
        self.queues.insert(id, Vec::new());
        id
    }

    /// Enqueues a thread on a wait list (creating the list if needed, which
    /// lets the environment model use arbitrary identifiers).
    pub fn enqueue(&mut self, wlist: WaitListId, tid: ThreadId) {
        self.next = self.next.max(wlist.0 + 1);
        self.queues.entry(wlist).or_default().push(tid);
    }

    /// Dequeues one thread (FIFO), or all threads, from a wait list.
    pub fn dequeue(&mut self, wlist: WaitListId, all: bool) -> Vec<ThreadId> {
        match self.queues.get_mut(&wlist) {
            Some(queue) if !queue.is_empty() => {
                if all {
                    std::mem::take(queue)
                } else {
                    vec![queue.remove(0)]
                }
            }
            _ => Vec::new(),
        }
    }

    /// Number of threads currently waiting on `wlist`.
    pub fn waiting_on(&self, wlist: WaitListId) -> usize {
        self.queues.get(&wlist).map(|q| q.len()).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wait_list_fifo_order() {
        let mut wl = WaitLists::default();
        let q = wl.create();
        wl.enqueue(q, ThreadId(1));
        wl.enqueue(q, ThreadId(2));
        wl.enqueue(q, ThreadId(3));
        assert_eq!(wl.waiting_on(q), 3);
        assert_eq!(wl.dequeue(q, false), vec![ThreadId(1)]);
        assert_eq!(wl.dequeue(q, true), vec![ThreadId(2), ThreadId(3)]);
        assert_eq!(wl.dequeue(q, false), vec![]);
    }

    #[test]
    fn wait_list_ids_are_unique() {
        let mut wl = WaitLists::default();
        let a = wl.create();
        let b = wl.create();
        assert_ne!(a, b);
    }

    #[test]
    fn enqueue_on_foreign_id_does_not_collide() {
        let mut wl = WaitLists::default();
        wl.enqueue(WaitListId(10), ThreadId(0));
        let next = wl.create();
        assert!(next.0 > 10);
    }
}
