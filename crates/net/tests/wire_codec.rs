//! Property tests for the wire codec: random jobs and wire messages must
//! round-trip bit-exactly through the job-tree encoding, the flat encoding,
//! and the length-prefixed bincode frame encoder.

use c9_net::frame::{decode_frame, encode_frame, read_frame, write_frame};
use c9_net::{
    decode_jobs_flat, encode_jobs_flat, Control, EnvSpec, Job, JobBatch, JobTree, RunId,
    RunSpecBuilder, StatusReport, WireMessage, WorkerId, WorkerStats, WIRE_VERSION,
};
use c9_vm::{CoverageSet, PathChoice};
use proptest::prelude::*;

fn arb_choice() -> impl Strategy<Value = PathChoice> {
    prop_oneof![
        Just(PathChoice::Branch(false)),
        Just(PathChoice::Branch(true)),
        (0u32..2000, 1u32..2000).prop_map(|(a, b)| {
            let total = a.max(b).max(1);
            PathChoice::Alt {
                chosen: a.min(b) % total,
                total,
            }
        }),
    ]
}

fn arb_job() -> impl Strategy<Value = Job> {
    proptest::collection::vec(arb_choice(), 0..40).prop_map(Job::new)
}

fn arb_jobs() -> impl Strategy<Value = Vec<Job>> {
    proptest::collection::vec(arb_job(), 0..24)
}

fn sorted_dedup(mut jobs: Vec<Job>) -> Vec<Job> {
    jobs.sort_by(|a, b| a.path.cmp(&b.path));
    jobs.dedup();
    jobs
}

proptest! {
    /// JobTree::encode/decode round-trips arbitrary job batches; the set of
    /// jobs (paths) survives the trie aggregation.
    #[test]
    fn job_tree_roundtrip(jobs in arb_jobs()) {
        let tree = JobTree::from_jobs(&jobs);
        let bytes = tree.encode();
        let decoded = JobTree::decode(&bytes).expect("decode must succeed");
        prop_assert_eq!(&decoded, &tree);
        prop_assert_eq!(decoded.to_jobs(), sorted_dedup(jobs));
    }

    /// The flat encoding round-trips arbitrary job batches exactly
    /// (preserving order and duplicates).
    #[test]
    fn flat_encoding_roundtrip(jobs in arb_jobs()) {
        let bytes = encode_jobs_flat(&jobs);
        let decoded = decode_jobs_flat(&bytes).expect("decode must succeed");
        prop_assert_eq!(decoded, jobs);
    }

    /// Jobs survive the full wire path: trie aggregation, tree encoding,
    /// JobBatch message, bincode, length-prefixed frame, and back.
    #[test]
    fn jobs_roundtrip_through_frame_encoder(
        jobs in arb_jobs(),
        source in 0u32..64,
        seq in 0u64..1_000_000,
    ) {
        let batch = JobBatch {
            source: WorkerId(source),
            run: RunId(u64::from(source) * 31 + 1),
            source_epoch: u64::from(source) + 1,
            seq,
            encoded: JobTree::from_jobs(&jobs).encode(),
        };
        let frame = encode_frame(&WireMessage::Jobs(batch.clone())).expect("encode frame");
        let (decoded, used): (WireMessage, usize) = decode_frame(&frame).expect("decode frame");
        prop_assert_eq!(used, frame.len());
        let WireMessage::Jobs(decoded_batch) = decoded else {
            panic!("wrong message variant");
        };
        prop_assert_eq!(&decoded_batch, &batch);
        let tree = JobTree::decode(&decoded_batch.encoded).expect("decode job tree");
        prop_assert_eq!(tree.to_jobs(), sorted_dedup(jobs));
    }

    /// Control messages round-trip through the frame encoder.
    #[test]
    fn control_roundtrips_through_frame_encoder(
        dst in 0u32..512,
        count in 0u64..1_000_000,
        covered in proptest::collection::vec(0u32..256, 0..32),
    ) {
        let mut coverage = CoverageSet::new(256);
        for line in &covered {
            coverage.cover(c9_ir::LineId(*line));
        }
        for msg in [
            Control::Balance { destination: WorkerId(dst), count },
            Control::GlobalCoverage(coverage),
            Control::Inject { seq: count, encoded: vec![0, 0] },
            Control::Membership(vec![c9_net::PeerInfo {
                worker: WorkerId(dst),
                addr: "127.0.0.1:9101".into(),
                epoch: count,
                alive: count % 2 == 0,
            }]),
            Control::Stop,
        ] {
            let run = RunId(u64::from(dst) + 1);
            let frame =
                encode_frame(&WireMessage::Control { run, msg: msg.clone() }).expect("encode");
            let (decoded, _): (WireMessage, usize) = decode_frame(&frame).expect("decode");
            let WireMessage::Control { run: decoded_run, msg: decoded_msg } = decoded else {
                panic!("wrong message variant");
            };
            prop_assert_eq!(decoded_run, run);
            prop_assert_eq!(decoded_msg, msg);
        }
    }

    /// Status reports round-trip through the streaming frame reader/writer.
    #[test]
    fn status_roundtrips_through_frame_stream(
        worker in 0u32..64,
        queue_length in 0u64..10_000,
        idle: bool,
        useful in 0u64..u64::MAX / 2,
        paths in 0u64..1_000_000,
    ) {
        let report = StatusReport {
            run: RunId(u64::from(worker) * 13 + 1),
            worker: WorkerId(worker),
            epoch: u64::from(worker) + 7,
            queue_length,
            coverage: CoverageSet::new(100),
            stats: WorkerStats {
                useful_instructions: useful,
                paths_completed: paths,
                ..WorkerStats::default()
            },
            idle,
            frontier: idle.then(|| JobTree::from_jobs(&[]).encode()),
            new_bugs: Vec::new(),
            transfers: vec![
                c9_net::TransferEvent::Exported {
                    destination: WorkerId(worker + 1),
                    seq: paths,
                    encoded: JobTree::from_jobs(&[]).encode(),
                },
                c9_net::TransferEvent::Sent { destination: WorkerId(worker + 1), seq: paths },
                c9_net::TransferEvent::Requeued { destination: WorkerId(worker + 1), seq: paths },
                c9_net::TransferEvent::Imported {
                    source: c9_net::COORDINATOR,
                    seq: useful,
                    encoded: JobTree::from_jobs(&[]).encode(),
                },
            ],
            test_cases: Vec::new(),
        };
        let mut buf = Vec::new();
        write_frame(&mut buf, &WireMessage::Status(report.clone())).expect("write");
        let mut cursor = std::io::Cursor::new(buf);
        let decoded: WireMessage = read_frame(&mut cursor).expect("read");
        let WireMessage::Status(decoded_report) = decoded else {
            panic!("wrong message variant");
        };
        prop_assert_eq!(decoded_report.run, report.run);
        prop_assert_eq!(decoded_report.worker, report.worker);
        prop_assert_eq!(decoded_report.epoch, report.epoch);
        prop_assert_eq!(decoded_report.queue_length, report.queue_length);
        prop_assert_eq!(decoded_report.idle, report.idle);
        prop_assert_eq!(decoded_report.frontier, report.frontier);
        prop_assert_eq!(decoded_report.transfers, report.transfers);
        prop_assert_eq!(
            decoded_report.stats.useful_instructions,
            report.stats.useful_instructions
        );
        prop_assert_eq!(decoded_report.stats.paths_completed, report.stats.paths_completed);
    }

    /// The membership handshake frames round-trip through the frame encoder.
    #[test]
    fn membership_frames_roundtrip_through_frame_encoder(
        worker in 0u32..64,
        epoch in 0u64..1_000_000,
        rejoin: bool,
    ) {
        let frames = [
            WireMessage::Join {
                version: WIRE_VERSION,
                listen_addr: "127.0.0.1:9101".into(),
                previous: rejoin.then_some((WorkerId(worker), epoch)),
            },
            WireMessage::JoinAck {
                worker: WorkerId(worker),
                epoch,
                peers: vec![c9_net::PeerInfo {
                    worker: WorkerId(worker),
                    addr: "127.0.0.1:9101".into(),
                    epoch,
                    alive: true,
                }],
            },
            WireMessage::Heartbeat { worker: WorkerId(worker), epoch },
            WireMessage::Leave { worker: WorkerId(worker), epoch },
        ];
        for msg in frames {
            let frame = encode_frame(&msg).expect("encode");
            let (decoded, used): (WireMessage, usize) = decode_frame(&frame).expect("decode");
            prop_assert_eq!(used, frame.len());
            match (msg, decoded) {
                (
                    WireMessage::Join { version: v1, listen_addr: a, previous: p },
                    WireMessage::Join { version: v2, listen_addr: b, previous: q },
                ) => {
                    prop_assert_eq!(v1, v2);
                    prop_assert_eq!(a, b);
                    prop_assert_eq!(p, q);
                }
                (
                    WireMessage::JoinAck { worker: w1, epoch: e1, peers: p1 },
                    WireMessage::JoinAck { worker: w2, epoch: e2, peers: p2 },
                ) => {
                    prop_assert_eq!(w1, w2);
                    prop_assert_eq!(e1, e2);
                    prop_assert_eq!(p1, p2);
                }
                (
                    WireMessage::Heartbeat { worker: w1, epoch: e1 },
                    WireMessage::Heartbeat { worker: w2, epoch: e2 },
                )
                | (
                    WireMessage::Leave { worker: w1, epoch: e1 },
                    WireMessage::Leave { worker: w2, epoch: e2 },
                ) => {
                    prop_assert_eq!(w1, w2);
                    prop_assert_eq!(e1, e2);
                }
                _ => panic!("variant changed across the wire"),
            }
        }
    }

    /// A run spec round-trips through the frame encoder: every field the
    /// worker reads arrives as sent, and re-encoding the decoded spec gives
    /// the same bytes, so no field is dropped or reordered on the way.
    #[test]
    fn run_spec_roundtrips_through_frame_encoder(
        seed in any::<u64>(),
        threads in 1usize..8,
        quantum in 1u64..100_000,
        snapshot_every in 0u32..16,
        generate_test_cases: bool,
        seed_root: bool,
    ) {
        let mut pb = c9_ir::ProgramBuilder::new();
        pb.set_name("trivial");
        let mut f = pb.function("main", 0, Some(c9_ir::Width::W32));
        f.ret(Some(c9_ir::Operand::word(0)));
        let main = f.finish();
        pb.set_entry(main);
        let spec = RunSpecBuilder::new()
            .program(pb.finish())
            .env(EnvSpec::Posix)
            .seed(seed)
            .strategy(c9_vm::StrategyKind::Cupa)
            .generate_test_cases(generate_test_cases)
            .threads(threads)
            .quantum(quantum)
            .status_interval(std::time::Duration::from_millis(7))
            .seed_root(seed_root)
            .run(RunId(42))
            .worker_epoch(3)
            .heartbeat_interval(std::time::Duration::from_millis(20))
            .snapshot_every(snapshot_every)
            .build()
            .expect("valid spec");
        let frame = encode_frame(&WireMessage::Start(Box::new(spec.clone()))).expect("encode");
        let (decoded, used): (WireMessage, usize) = decode_frame(&frame).expect("decode");
        prop_assert_eq!(used, frame.len());
        let WireMessage::Start(got) = decoded else {
            panic!("variant changed across the wire");
        };
        prop_assert_eq!(got.program.name.as_str(), "trivial");
        prop_assert_eq!(got.seed, spec.seed);
        prop_assert_eq!(got.strategy, spec.strategy);
        prop_assert_eq!(got.generate_test_cases, spec.generate_test_cases);
        prop_assert_eq!(got.threads, spec.threads);
        prop_assert_eq!(got.quantum, spec.quantum);
        prop_assert_eq!(got.status_interval, spec.status_interval);
        prop_assert_eq!(got.seed_root, spec.seed_root);
        prop_assert_eq!(got.run, spec.run);
        prop_assert_eq!(got.worker_epoch, spec.worker_epoch);
        prop_assert_eq!(got.heartbeat_interval, spec.heartbeat_interval);
        prop_assert_eq!(got.snapshot_every, spec.snapshot_every);
        let again = encode_frame(&WireMessage::Start(got)).expect("re-encode");
        prop_assert_eq!(again, frame);
    }

    /// Corrupting any single byte of an encoded job tree never panics the
    /// decoder: it either fails cleanly or yields some valid tree.
    #[test]
    fn corrupted_tree_bytes_never_panic(jobs in arb_jobs(), flip in 0usize..4096, xor in 1u8..=255) {
        let mut bytes = JobTree::from_jobs(&jobs).encode();
        if !bytes.is_empty() {
            let idx = flip % bytes.len();
            bytes[idx] ^= xor;
            let _ = JobTree::decode(&bytes); // must not panic
        }
    }
}

/// Golden-byte tests pinning the version-8 frame layout, so an accidental
/// field reorder or type change shows up as a decode-compat failure rather
/// than as silent cross-version corruption.
mod decode_compat {
    use super::*;

    #[test]
    fn wire_version_is_eight() {
        assert_eq!(WIRE_VERSION, 8);
    }

    /// The hello preamble's bincode layout: varint enum tag, version,
    /// worker id, worker count, peer list — behind the 4-byte LE frame
    /// length prefix. These exact bytes are what a v8 peer must accept.
    #[test]
    fn hello_preamble_golden_bytes() {
        let frame = encode_frame(&WireMessage::CoordinatorHello {
            version: WIRE_VERSION,
            worker: WorkerId(3),
            num_workers: 7,
            peers: Vec::new(),
        })
        .expect("encode");
        let body = [
            0, // variant CoordinatorHello
            WIRE_VERSION as u8,
            3, // worker
            7, // num_workers
            0, // empty peer list
        ];
        let mut expected = (body.len() as u32).to_le_bytes().to_vec();
        expected.extend_from_slice(&body);
        assert_eq!(frame, expected);
    }

    /// A v1 hello (no version field) decodes under the current schema into a
    /// nonsense version value — exactly why the receiver checks the version
    /// before trusting anything else in the frame.
    #[test]
    fn v1_hello_is_rejected_by_version_check() {
        // A v1 CoordinatorHello { worker: 3, num_workers: 7, peers: [] }:
        // variant tag, worker, num_workers, empty peer list (varints).
        let v1_body = [0u8, 3, 7, 0];
        let mut frame = (v1_body.len() as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(&v1_body);
        match decode_frame::<WireMessage>(&frame) {
            Ok((WireMessage::CoordinatorHello { version, .. }, _)) => {
                // Decoded, but the first field (worker=3) lands in the
                // version slot; the handshake check catches it.
                assert_ne!(version, WIRE_VERSION);
            }
            Ok(_) => panic!("v1 hello decoded as a different variant"),
            Err(_) => {} // failing to decode is an equally safe rejection
        }
    }

    /// Run-scoped control envelope: the run id precedes the payload (since
    /// v2).
    #[test]
    fn control_envelope_golden_bytes() {
        let frame = encode_frame(&WireMessage::Control {
            run: RunId(9),
            msg: Control::Stop,
        })
        .expect("encode");
        let body = [
            2, // variant Control
            9, // run id
            4, // Control::Stop tag
        ];
        let mut expected = (body.len() as u32).to_le_bytes().to_vec();
        expected.extend_from_slice(&body);
        assert_eq!(frame, expected);
    }
}
