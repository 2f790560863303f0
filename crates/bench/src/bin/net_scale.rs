//! Reactor scaling: coordinator-side frame throughput as the peer count
//! grows from 4 to 256.
//!
//! The flat-fleet scaling wall this measures around: a thread-per-
//! connection coordinator pays per-peer scheduling cost, so its drain rate
//! collapses as the fleet grows. The reactor multiplexes every connection
//! onto one `poll(2)` loop; its aggregate frame throughput should be
//! roughly flat in the number of peers — the acceptance bar is the
//! 256-peer rate staying within 2x of the 4-peer rate.
//!
//! The harness is pure transport, no symbolic execution: one
//! `TcpCoordinatorEndpoint` admits N raw TCP peers through the real join
//! handshake, then a fixed pool of sender threads (fixed, so the client
//! cost does not grow with N) pushes the *same total number* of
//! pre-encoded `Status` frames through the N sockets while the main
//! thread drains `recv_status`; the metric is the drain rate over the
//! whole burst. Holding the total constant is what makes the comparison
//! fair on a small machine: only the connection fan-out varies between
//! runs, so the ratio isolates the per-connection multiplexing cost.
//! Results are printed as a table and written to `BENCH_net_scale.json`.

use c9_net::frame::{encode_frame, read_frame, write_frame};
use c9_net::{
    CoordinatorEndpoint, RunId, StatusReport, TcpCoordinatorEndpoint, WireMessage, WorkerId,
    WorkerStats, WIRE_VERSION,
};
use c9_vm::CoverageSet;
use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Client threads driving the sockets: constant regardless of peer count,
/// so measured differences are the coordinator's, not the load generator's.
const SENDER_THREADS: usize = 4;

struct Row {
    peers: usize,
    frames: u64,
    secs: f64,
}

impl Row {
    fn frames_per_sec(&self) -> f64 {
        self.frames as f64 / self.secs.max(1e-9)
    }
}

/// One pre-encoded status frame for `worker`: realistic small-report shape
/// (no frontier — the steady-state cadence frame).
fn status_frame(worker: WorkerId) -> Vec<u8> {
    let report = StatusReport {
        run: RunId(1),
        worker,
        epoch: 1,
        queue_length: 64,
        coverage: CoverageSet::default(),
        stats: WorkerStats::default(),
        idle: false,
        frontier: None,
        new_bugs: Vec::new(),
        transfers: Vec::new(),
        test_cases: Vec::new(),
    };
    encode_frame(&WireMessage::Status(report)).expect("encode status frame")
}

/// Joins `peers` raw TCP clients through the real handshake, pushes
/// `total_frames` status frames through them, and measures the
/// coordinator's drain rate over the whole burst.
fn run_scale(peers: usize, total_frames: u64) -> Row {
    let mut endpoint = TcpCoordinatorEndpoint::listen("127.0.0.1:0").expect("bind coordinator");
    let addr = endpoint.local_addr().expect("bound address");

    // Handshake every peer sequentially: connect, send the join frame,
    // admit it on the coordinator, read the ack back on the client.
    let mut sockets = Vec::with_capacity(peers);
    for i in 0..peers {
        let mut stream = TcpStream::connect(addr).expect("connect peer");
        stream.set_nodelay(true).ok();
        write_frame(
            &mut stream,
            &WireMessage::Join {
                version: WIRE_VERSION,
                listen_addr: format!("127.0.0.1:{}", 20000 + i),
                previous: None,
            },
        )
        .expect("send join");
        let deadline = Instant::now() + Duration::from_secs(10);
        let request = loop {
            if let Some(request) = endpoint.try_recv_join() {
                break request;
            }
            assert!(Instant::now() < deadline, "join {i} never surfaced");
            std::thread::sleep(Duration::from_millis(1));
        };
        endpoint
            .admit(request.token, WorkerId(i as u32), 1, Vec::new())
            .expect("admit peer");
        let ack: WireMessage = read_frame(&mut stream).expect("read join ack");
        assert!(matches!(ack, WireMessage::JoinAck { .. }));
        sockets.push(stream);
    }

    // A fixed sender pool owns the sockets in chunks and writes each
    // socket's pre-encoded frame round-robin until its share of the burst
    // is sent. The total is identical for every peer count.
    let chunk = peers.div_ceil(SENDER_THREADS);
    let mut handles = Vec::new();
    let mut next_id = 0u32;
    let mut budgeted = 0u64;
    let senders = sockets.len().div_ceil(chunk) as u64;
    while !sockets.is_empty() {
        let take = chunk.min(sockets.len());
        let mut mine: Vec<(Vec<u8>, TcpStream)> = sockets
            .drain(..take)
            .map(|s| {
                let frame = status_frame(WorkerId(next_id));
                next_id += 1;
                (frame, s)
            })
            .collect();
        let budget = if sockets.is_empty() {
            total_frames - budgeted // the last sender absorbs the remainder
        } else {
            total_frames / senders
        };
        budgeted += budget;
        handles.push(std::thread::spawn(move || {
            let mut sent = 0u64;
            'outer: while sent < budget {
                for (frame, socket) in &mut mine {
                    if socket.write_all(frame).is_err() {
                        break 'outer;
                    }
                    sent += 1;
                    if sent >= budget {
                        break;
                    }
                }
            }
        }));
    }

    // Drain the entire burst, timing it end to end. Senders backpressure
    // on full socket buffers, so start-to-last-frame covers the real work.
    let start = Instant::now();
    let mut frames = 0u64;
    let deadline = start + Duration::from_secs(120);
    while frames < total_frames {
        if endpoint.recv_status(Duration::from_millis(1)).is_some() {
            frames += 1;
        }
        assert!(
            Instant::now() < deadline,
            "drained only {frames}/{total_frames} frames at {peers} peers"
        );
    }
    let secs = start.elapsed().as_secs_f64();
    for handle in handles {
        handle.join().expect("join sender");
    }

    Row {
        peers,
        frames,
        secs,
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let total_frames: u64 = if quick { 100_000 } else { 400_000 };

    let mut rows = Vec::new();
    for peers in [4usize, 64, 256] {
        // Best of two: the first burst also pays one-time costs (thread
        // spawn, page faults), which would otherwise swamp the short runs.
        let row = [
            run_scale(peers, total_frames),
            run_scale(peers, total_frames),
        ]
        .into_iter()
        .max_by(|a, b| a.frames_per_sec().total_cmp(&b.frames_per_sec()))
        .expect("two runs");
        eprintln!(
            "net_scale {} peers: {} frames in {:.2}s = {:.0} frames/sec",
            row.peers,
            row.frames,
            row.secs,
            row.frames_per_sec()
        );
        rows.push(row);
    }

    println!("\n== reactor frame throughput vs peer count ==");
    println!("peers\t| frames/sec\t| vs 4-peer");
    let base = rows[0].frames_per_sec();
    for row in &rows {
        println!(
            "{}\t| {:.0}\t| {:.2}x",
            row.peers,
            row.frames_per_sec(),
            row.frames_per_sec() / base.max(1e-9)
        );
    }

    let json_rows: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"peers\": {}, \"frames\": {}, \"secs\": {:.4}, \"frames_per_sec\": {:.1}}}",
                r.peers,
                r.frames,
                r.secs,
                r.frames_per_sec()
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"net_scale\",\n  \"quick\": {},\n  \"sender_threads\": {},\n  \"rows\": [\n{}\n  ]\n}}\n",
        quick,
        SENDER_THREADS,
        json_rows.join(",\n"),
    );
    if let Err(e) = std::fs::write("BENCH_net_scale.json", &json) {
        eprintln!("net_scale: cannot write BENCH_net_scale.json: {e}");
    }

    // The acceptance bar: aggregate drain rate at 256 peers within 2x of
    // the 4-peer rate. A thread-per-connection coordinator fails this.
    let wide = rows.last().expect("rows").frames_per_sec();
    assert!(
        wide * 2.0 >= base,
        "256-peer throughput {wide:.0} frames/sec fell more than 2x below \
         the 4-peer rate {base:.0} frames/sec"
    );
}
