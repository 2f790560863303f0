//! Stream buffers and block buffers.
//!
//! §4.3 of the paper: "The two most important data structures are stream
//! buffers and block buffers, analogous to character and block device types
//! in UNIX." Stream buffers model half-duplex byte channels with event
//! notification (used for sockets and pipes); block buffers are fixed-size
//! random-access buffers (used for symbolic files).

use c9_vm::{ByteValue, WaitListId};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Default capacity of a stream buffer, in bytes.
pub const DEFAULT_STREAM_CAPACITY: usize = 64 * 1024;

/// A producer–consumer byte queue with waiters on both ends.
#[derive(Clone, Debug)]
pub struct StreamBuffer {
    data: VecDeque<ByteValue>,
    capacity: usize,
    /// Set when the write end has been closed: readers see EOF after
    /// draining.
    pub writer_closed: bool,
    /// Set when the read end has been closed: writers get an error.
    pub reader_closed: bool,
    /// Wait list for threads blocked reading from an empty buffer.
    pub read_waiters: Option<WaitListId>,
    /// Wait list for threads blocked writing to a full buffer.
    pub write_waiters: Option<WaitListId>,
}

impl StreamBuffer {
    /// Creates an empty stream buffer with the default capacity.
    pub fn new() -> StreamBuffer {
        StreamBuffer::with_capacity(DEFAULT_STREAM_CAPACITY)
    }

    /// Creates an empty stream buffer with an explicit capacity.
    pub fn with_capacity(capacity: usize) -> StreamBuffer {
        StreamBuffer {
            data: VecDeque::new(),
            capacity,
            writer_closed: false,
            reader_closed: false,
            read_waiters: None,
            write_waiters: None,
        }
    }

    /// Number of bytes currently buffered.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the buffer holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Free space remaining before the capacity is reached.
    pub fn free_space(&self) -> usize {
        self.capacity.saturating_sub(self.data.len())
    }

    /// Appends bytes, up to the remaining capacity; returns how many were
    /// accepted.
    pub fn push(&mut self, bytes: &[ByteValue]) -> usize {
        let n = bytes.len().min(self.free_space());
        for b in &bytes[..n] {
            self.data.push_back(b.clone());
        }
        n
    }

    /// Returns up to `max` bytes from the front, leaving them in place.
    pub fn peek(&self, max: usize) -> Vec<ByteValue> {
        self.data.iter().take(max).cloned().collect()
    }

    /// Removes and returns up to `max` bytes from the front.
    pub fn pop(&mut self, max: usize) -> Vec<ByteValue> {
        let n = max.min(self.data.len());
        self.data.drain(..n).collect()
    }

    /// Whether a reader would see EOF (no data and the writer is gone).
    pub fn at_eof(&self) -> bool {
        self.data.is_empty() && self.writer_closed
    }

    /// Whether a read of at least one byte can complete without blocking.
    pub fn readable(&self) -> bool {
        !self.data.is_empty() || self.writer_closed
    }

    /// Whether a write of at least one byte can complete without blocking.
    pub fn writable(&self) -> bool {
        self.free_space() > 0 || self.reader_closed
    }
}

impl Default for StreamBuffer {
    fn default() -> Self {
        StreamBuffer::new()
    }
}

/// A fixed-size random-access buffer used to back symbolic files.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BlockBuffer {
    data: Vec<ByteValue>,
}

impl BlockBuffer {
    /// Creates a zero-filled block buffer of `size` bytes.
    pub fn zeroed(size: usize) -> BlockBuffer {
        BlockBuffer {
            data: vec![ByteValue::Concrete(0); size],
        }
    }

    /// Creates a block buffer from concrete contents.
    pub fn from_bytes(data: &[u8]) -> BlockBuffer {
        BlockBuffer {
            data: data.iter().map(|b| ByteValue::Concrete(*b)).collect(),
        }
    }

    /// Creates a block buffer from already-symbolic contents.
    pub fn from_values(data: Vec<ByteValue>) -> BlockBuffer {
        BlockBuffer { data }
    }

    /// Size of the buffer in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the buffer has zero size.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Reads up to `len` bytes starting at `offset` (clamped to the size).
    pub fn read(&self, offset: usize, len: usize) -> Vec<ByteValue> {
        if offset >= self.data.len() {
            return Vec::new();
        }
        let end = (offset + len).min(self.data.len());
        self.data[offset..end].to_vec()
    }

    /// Writes bytes starting at `offset`, growing the buffer if needed.
    pub fn write(&mut self, offset: usize, bytes: &[ByteValue]) {
        let needed = offset + bytes.len();
        if needed > self.data.len() {
            self.data.resize(needed, ByteValue::Concrete(0));
        }
        self.data[offset..needed].clone_from_slice(bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn concrete(data: &[u8]) -> Vec<ByteValue> {
        data.iter().map(|b| ByteValue::Concrete(*b)).collect()
    }

    #[test]
    fn stream_buffer_fifo() {
        let mut sb = StreamBuffer::with_capacity(8);
        assert_eq!(sb.push(&concrete(b"hello")), 5);
        assert_eq!(sb.push(&concrete(b"world")), 3); // capacity 8
        assert_eq!(sb.len(), 8);
        let out = sb.pop(6);
        let bytes: Vec<u8> = out.iter().map(|b| b.as_concrete().unwrap()).collect();
        assert_eq!(&bytes, b"hellow");
        assert_eq!(sb.len(), 2);
    }

    #[test]
    fn stream_buffer_eof_semantics() {
        let mut sb = StreamBuffer::new();
        assert!(!sb.readable());
        sb.push(&concrete(b"x"));
        assert!(sb.readable());
        assert!(!sb.at_eof());
        sb.pop(1);
        sb.writer_closed = true;
        assert!(sb.at_eof());
        assert!(sb.readable());
    }

    #[test]
    fn block_buffer_read_write_and_growth() {
        let mut bb = BlockBuffer::from_bytes(b"abcdef");
        assert_eq!(bb.len(), 6);
        let part = bb.read(2, 3);
        assert_eq!(part.len(), 3);
        assert_eq!(part[0].as_concrete(), Some(b'c'));
        // Read past the end is clamped.
        assert_eq!(bb.read(5, 10).len(), 1);
        assert_eq!(bb.read(10, 4).len(), 0);
        // Writing past the end grows the buffer.
        bb.write(8, &concrete(b"zz"));
        assert_eq!(bb.len(), 10);
        assert_eq!(bb.read(8, 2)[0].as_concrete(), Some(b'z'));
    }
}
