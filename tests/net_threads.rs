//! The reactor keeps the network layer at O(1) threads: one event-loop
//! thread multiplexes every listener and connection over `poll(2)`, so a
//! coordinator serving 256 peers costs the same thread budget as one
//! serving 4. This test pins that property by watching the kernel's own
//! thread count while piling raw connections onto a listening endpoint —
//! if anyone reintroduces thread-per-connection accept loops, the count
//! grows and the test fails.

#![cfg(target_os = "linux")]

use cloud9::net::TcpCoordinatorEndpoint;
use std::net::TcpStream;
use std::time::Duration;

/// The process's live thread count, straight from the kernel.
fn thread_count() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .expect("Threads: line in /proc/self/status")
        .trim()
        .parse()
        .expect("thread count is a number")
}

#[test]
fn coordinator_thread_count_does_not_grow_with_connections() {
    let endpoint = TcpCoordinatorEndpoint::listen("127.0.0.1:0").expect("bind listener");
    let addr = endpoint.local_addr();

    // Baseline at a small connection count, after the reactor has had time
    // to accept everything.
    let few: Vec<TcpStream> = (0..4)
        .map(|_| TcpStream::connect(addr).expect("connect"))
        .collect();
    std::thread::sleep(Duration::from_millis(200));
    let baseline = thread_count();

    // 252 more live connections, 256 peers in all: two orders of magnitude
    // beyond the baseline. The reactor accepts and registers them all on its
    // single thread (about 512 descriptors for both ends, and no thread).
    let many: Vec<TcpStream> = (0..252)
        .map(|_| TcpStream::connect(addr).expect("connect"))
        .collect();
    std::thread::sleep(Duration::from_millis(300));
    let loaded = thread_count();

    assert_eq!(
        loaded, baseline,
        "thread count grew with connections: {baseline} threads at 4 \
         connections, {loaded} at 256 — the net layer must stay O(1) threads"
    );
    // Sanity: the absolute budget is the test harness plus one reactor
    // thread, nowhere near one-per-connection.
    assert!(
        baseline <= 16,
        "suspiciously many threads at 4 connections: {baseline}"
    );

    drop(few);
    drop(many);
    drop(endpoint);
}
