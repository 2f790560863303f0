//! What a decode of a hostile length prefix allocates, counted instead of
//! timed: a frame may claim as many elements as it has bytes, and each
//! element may be far larger than a byte, so the claim alone must not size
//! an allocation.
//!
//! A test binary of its own because it replaces the global allocator with a
//! counting one. The counter is per thread, so the tests may run in
//! parallel.

use serde::{from_bytes, write_varint, DecodeError, Deserialize, MAX_PREALLOC_BYTES};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::{HashMap, HashSet};

thread_local! {
    /// Bytes this thread has requested, growths counted at their new size.
    static REQUESTED: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count(bytes: usize) {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = REQUESTED.try_with(|cell| cell.set(cell.get() + bytes as u64));
}

// SAFETY: every request is forwarded unchanged to `System`; the counting
// touches only a `const`-initialized, destructor-free thread-local `Cell`
// and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Elements claimed by the hostile frame: 4 Mi, which the frame backs with
/// as many bytes, so the length check against the input passes.
const CLAIMED: usize = 4 << 20;

/// A frame claiming `CLAIMED` elements whose first element is already
/// malformed: an unterminated varint of `0xff` bytes.
fn hostile_frame() -> Vec<u8> {
    let mut frame = Vec::new();
    write_varint(&mut frame, CLAIMED as u64);
    frame.resize(frame.len() + CLAIMED, 0xff);
    frame
}

/// Decodes `frame` as a `T` and returns the error with the bytes the
/// decode requested.
fn decode<T: Deserialize>(frame: &[u8]) -> (DecodeError, u64) {
    let before = REQUESTED.with(Cell::get);
    let result = from_bytes::<T>(frame);
    let requested = REQUESTED.with(Cell::get) - before;
    match result {
        Ok(_) => panic!("a malformed first element must fail the decode"),
        Err(err) => (err, requested),
    }
}

/// A vector of 32-byte elements would reserve 128 MiB for the claim;
/// reserving is capped at `MAX_PREALLOC_BYTES`.
#[test]
fn a_hostile_vec_length_reserves_at_most_the_cap() {
    let frame = hostile_frame();
    let (err, requested) = decode::<Vec<(u64, u64, u64, u64)>>(&frame);
    assert_eq!(err.message, "varint overflow");
    let bound = (MAX_PREALLOC_BYTES + frame.len()) as u64;
    assert!(
        requested <= bound,
        "{requested} bytes requested, bound {bound}"
    );
}

/// The same for hash tables. A table of capacity `c` holds up to twice `c`
/// buckets (a 7/8 load factor rounded up to a power of two), each an entry
/// and a control byte, so the cap's worth of entries costs at most four
/// times the cap.
#[test]
fn a_hostile_hash_table_length_reserves_at_most_the_cap() {
    let frame = hostile_frame();
    let bound = (4 * MAX_PREALLOC_BYTES + frame.len()) as u64;
    let (_, map) = decode::<HashMap<u64, u64>>(&frame);
    assert!(map <= bound, "map: {map} bytes requested, bound {bound}");
    let (_, set) = decode::<HashSet<(u64, u64)>>(&frame);
    assert!(set <= bound, "set: {set} bytes requested, bound {bound}");
}

/// Honest sequences still decode whole, past the cap.
#[test]
fn sequences_longer_than_the_cap_round_trip() {
    let long: Vec<u64> = (0..(MAX_PREALLOC_BYTES as u64 / 4)).collect();
    let decoded: Vec<u64> = from_bytes(&serde::to_bytes(&long)).expect("valid frame");
    assert_eq!(decoded, long);
}
