//! Criterion benchmark comparing job-batch transfer throughput over the
//! in-process channel transport vs. loopback TCP, at batch sizes 1 / 64 /
//! 1024 — the cost of crossing a real network stack per §3.2 job transfer.
//!
//! Each iteration ships one encoded job batch from worker 0 to worker 1 and
//! decodes it on arrival (send + frame + receive + trie expansion), which is
//! exactly the per-transfer work of a cluster run.

use c9_core::{Job, JobTree};
use c9_net::{InProcTransport, JobBatch, RunId, TcpTransport, Transport, WorkerEndpoint, WorkerId};
use c9_vm::PathChoice;
use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Instant;

/// Builds a realistic batch: deep paths sharing a long common prefix.
fn sample_jobs(count: usize) -> Vec<Job> {
    let prefix: Vec<PathChoice> = (0..40).map(|i| PathChoice::Branch(i % 3 == 0)).collect();
    (0..count)
        .map(|j| {
            let mut path = prefix.clone();
            for i in 0..12 {
                path.push(PathChoice::Branch((j >> (i % 8)) & 1 == 1));
            }
            path.push(PathChoice::Alt {
                chosen: j as u32 % 7,
                total: 7,
            });
            Job::new(path)
        })
        .collect()
}

/// One transfer: encode on the sender, ship, poll the receiver, expand.
fn transfer<W: WorkerEndpoint>(sender: &mut W, receiver: &mut W, jobs: &[Job]) -> usize {
    let batch = JobBatch {
        source: WorkerId(0),
        run: RunId(1),
        source_epoch: 0,
        seq: 0,
        encoded: JobTree::from_jobs(jobs).encode(),
    };
    sender.send_jobs(WorkerId(1), batch).expect("send");
    loop {
        if let Some(received) = receiver.try_recv_jobs() {
            let tree = JobTree::decode(&received.encoded).expect("decode");
            return tree.to_jobs().len();
        }
        std::hint::spin_loop();
    }
}

/// Prints jobs/sec for the CHANGES.md record.
fn report_throughput<W: WorkerEndpoint>(
    name: &str,
    batch_size: usize,
    tx: &mut W,
    rx: &mut W,
    jobs: &[Job],
) {
    let rounds = if batch_size >= 1024 { 200 } else { 2_000 };
    let start = Instant::now();
    let mut moved = 0usize;
    for _ in 0..rounds {
        moved += transfer(tx, rx, jobs);
    }
    let elapsed = start.elapsed().as_secs_f64();
    println!(
        "throughput {name:>6} batch {batch_size:>5}: {:>12.0} jobs/sec ({rounds} transfers)",
        moved as f64 / elapsed
    );
}

fn bench_transport(c: &mut Criterion) {
    let mut group = c.benchmark_group("transport");
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_secs(2));

    for batch_size in [1usize, 64, 1024] {
        let jobs = sample_jobs(batch_size);

        let endpoints = InProcTransport.establish(2).expect("in-proc establish");
        let mut workers = endpoints.workers;
        let (left, right) = workers.split_at_mut(1);
        let (tx, rx) = (&mut left[0], &mut right[0]);
        group.bench_function(format!("inproc_batch{batch_size}"), |b| {
            b.iter(|| transfer(tx, rx, &jobs));
        });
        report_throughput("inproc", batch_size, tx, rx, &jobs);

        let endpoints = TcpTransport::loopback()
            .establish(2)
            .expect("tcp establish");
        let mut workers = endpoints.workers;
        let (left, right) = workers.split_at_mut(1);
        let (tx, rx) = (&mut left[0], &mut right[0]);
        group.bench_function(format!("tcp_batch{batch_size}"), |b| {
            b.iter(|| transfer(tx, rx, &jobs));
        });
        report_throughput("tcp", batch_size, tx, rx, &jobs);
    }
    group.finish();
}

criterion_group!(benches, bench_transport);
criterion_main!(benches);
