//! Property tests for the wire codec: random jobs and wire messages must
//! round-trip bit-exactly through the job-tree encoding and the
//! length-prefixed bincode frame encoder; hostile test-case
//! encodings must fail with a typed error, without a panic and without an
//! allocation sized by what they claim.
//!
//! The binary replaces the global allocator with a counting one (per
//! thread, so the tests may run in parallel).

use c9_expr::{Expr, ExprRef, Width};
use c9_net::frame::{decode_frame, encode_frame, read_frame, write_frame};
use c9_net::{
    Control, EnvSpec, Job, JobBatch, JobTree, RunSpec, StatusReport, WireMessage, WorkerId,
    WorkerStats, WIRE_VERSION,
};
use c9_solver::Solver;
use c9_vm::{
    BugKind, CoverageSet, Environment, ExecutionState, NullEnvironment, PathChoice, StateId,
    TerminationReason, TestCase,
};
use proptest::prelude::*;
use serde::{write_varint, DecodeError};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

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
            let frame = encode_frame(&WireMessage::Control(msg.clone())).expect("encode");
            let (decoded, _): (WireMessage, usize) = decode_frame(&frame).expect("decode");
            let WireMessage::Control(decoded_msg) = decoded else {
                panic!("wrong message variant");
            };
            prop_assert_eq!(decoded_msg, msg);
        }
    }

    /// Status reports round-trip through the streaming frame reader/writer.
    #[test]
    fn status_roundtrips_through_frame_stream(
        worker in 0u32..64,
        queue_length in 0u64..10_000,
        idle: bool,
        last: bool,
        useful in 0u64..u64::MAX / 2,
        paths in 0u64..1_000_000,
    ) {
        let report = StatusReport {
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
            last,
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
        prop_assert_eq!(decoded_report.worker, report.worker);
        prop_assert_eq!(decoded_report.epoch, report.epoch);
        prop_assert_eq!(decoded_report.queue_length, report.queue_length);
        prop_assert_eq!(decoded_report.idle, report.idle);
        prop_assert_eq!(decoded_report.last, report.last);
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
        max_instructions_per_path in any::<u64>(),
        generate_test_cases: bool,
        seed_root: bool,
    ) {
        let mut pb = c9_ir::ProgramBuilder::new();
        pb.set_name("trivial");
        let mut f = pb.function("main", 0, Some(c9_ir::Width::W32));
        f.ret(Some(c9_ir::Operand::word(0)));
        let main = f.finish();
        pb.set_entry(main);
        let spec = RunSpec {
            program: pb.finish(),
            env: EnvSpec::Posix,
            executor: c9_vm::ExecutorConfig { max_instructions_per_path },
            seed,
            strategy: c9_vm::StrategyKind::Cupa,
            generate_test_cases,
            threads,
            quantum,
            status_interval: std::time::Duration::from_millis(7),
            seed_root,
            worker_epoch: 3,
        };
        prop_assert_eq!(spec.validate(), Ok(()));
        let frame = encode_frame(&WireMessage::Start(Box::new(spec.clone()))).expect("encode");
        let (decoded, used): (WireMessage, usize) = decode_frame(&frame).expect("decode");
        prop_assert_eq!(used, frame.len());
        let WireMessage::Start(got) = decoded else {
            panic!("variant changed across the wire");
        };
        prop_assert_eq!(got.program.name.as_str(), "trivial");
        prop_assert_eq!(got.executor, spec.executor);
        prop_assert_eq!(got.seed, spec.seed);
        prop_assert_eq!(got.strategy, spec.strategy);
        prop_assert_eq!(got.generate_test_cases, spec.generate_test_cases);
        prop_assert_eq!(got.threads, spec.threads);
        prop_assert_eq!(got.quantum, spec.quantum);
        prop_assert_eq!(got.status_interval, spec.status_interval);
        prop_assert_eq!(got.seed_root, spec.seed_root);
        prop_assert_eq!(got.worker_epoch, spec.worker_epoch);
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

/// One `fresh` / `fresh_bytes` call of a generated path: indexed or not,
/// the batch length or the width, and the values its symbols are pinned to.
type ArbBatch = (bool, usize, Vec<u64>);

fn arb_batches() -> impl Strategy<Value = Vec<ArbBatch>> {
    proptest::collection::vec(
        (
            any::<bool>(),
            1usize..64,
            proptest::collection::vec(any::<u64>(), 0..6),
        ),
        0..8,
    )
}

fn arb_termination() -> impl Strategy<Value = TerminationReason> {
    prop_oneof![
        (0u8..=255).prop_map(|code| TerminationReason::Exit(i64::from(code))),
        Just(TerminationReason::MaxInstructions),
        (0u64..1 << 40)
            .prop_map(|addr| TerminationReason::Bug(BugKind::OutOfBounds { addr, size: 4 })),
    ]
}

fn trivial_program() -> c9_ir::Program {
    let mut pb = c9_ir::ProgramBuilder::new();
    let mut f = pb.function("main", 0, Some(c9_ir::Width::W32));
    f.ret(Some(c9_ir::Operand::word(0)));
    let main = f.finish();
    pb.set_entry(main);
    pb.finish()
}

/// The test case of a path that read `batches` and pinned some of their
/// symbols to values, solved as the engine solves it.
fn generated_case(
    batches: &[ArbBatch],
    path: Vec<PathChoice>,
    termination: TerminationReason,
) -> TestCase {
    const NAMES: [&str; 3] = ["packet0", "", "arg[1]"];
    let mut state = ExecutionState::initial(
        StateId(0),
        &trivial_program(),
        NullEnvironment.create_state(),
    );
    for (i, (indexed, size, values)) in batches.iter().enumerate() {
        let name = NAMES[i % NAMES.len()];
        let symbols: Vec<ExprRef> = if *indexed {
            state.fresh_symbolic_bytes(name, *size)
        } else {
            vec![state.fresh_symbolic(name, Width::new(*size as u32))]
        };
        for (sym, value) in symbols.iter().zip(values) {
            let width = sym.width();
            state.add_constraint(Expr::eq(
                sym.clone(),
                Expr::const_(value & width.mask(), width),
            ));
        }
    }
    for choice in path {
        state.record_choice(choice);
    }
    state.terminate(termination);
    TestCase::from_state(&state, &Solver::new()).expect("pinned symbols are satisfiable")
}

proptest! {
    /// A test case survives the wire whole: alone, and inside the frame of
    /// a worker's last report. Re-encoding the decoded case gives the same bytes,
    /// so the decoder rebuilt the batch table it was sent.
    #[test]
    fn test_cases_roundtrip_through_the_wire(
        batches in arb_batches(),
        path in proptest::collection::vec(arb_choice(), 0..20),
        termination in arb_termination(),
    ) {
        let case = generated_case(&batches, path, termination);
        let bytes = serde::to_bytes(&case);
        let decoded: TestCase = serde::from_bytes(&bytes).expect("decodes");
        prop_assert_eq!(&decoded, &case);
        prop_assert_eq!(decoded.values(), case.values());
        prop_assert_eq!(serde::to_bytes(&decoded), bytes);

        let report = StatusReport {
            worker: WorkerId(0),
            epoch: 1,
            queue_length: 0,
            coverage: CoverageSet::new(8),
            stats: WorkerStats::default(),
            idle: true,
            last: true,
            frontier: Some(JobTree::from_jobs(&[]).encode()),
            new_bugs: vec![case.clone()],
            transfers: Vec::new(),
            test_cases: vec![case.clone(), case.clone()],
        };
        let frame = encode_frame(&WireMessage::Status(report)).expect("encode");
        let (decoded, used): (WireMessage, usize) = decode_frame(&frame).expect("decode");
        prop_assert_eq!(used, frame.len());
        let WireMessage::Status(decoded) = decoded else {
            panic!("wrong message variant");
        };
        prop_assert!(decoded.last);
        prop_assert_eq!(&decoded.test_cases, &vec![case.clone(), case.clone()]);
        prop_assert_eq!(&decoded.new_bugs, &vec![case]);
    }
}

/// Hostile encodings of a test case, written byte by byte: the symbol
/// batch table, then the values, then a path, a termination and an
/// instruction count that are always well formed.
mod hostile_test_cases {
    use super::*;

    /// One batch record: base name, width, indexed, count.
    fn batch(out: &mut Vec<u8>, name: &str, width_bits: u8, indexed: bool, count: u64) {
        write_varint(out, name.len() as u64);
        out.extend_from_slice(name.as_bytes());
        out.push(width_bits);
        out.push(u8::from(indexed));
        write_varint(out, count);
    }

    /// A test case whose table is `batches` and that claims `values`
    /// values, of which it carries `carried`.
    fn frame(batches: &[(&str, u8, bool, u64)], values: u64, carried: u64) -> Vec<u8> {
        let mut out = Vec::new();
        write_varint(&mut out, batches.len() as u64);
        for &(name, width_bits, indexed, count) in batches {
            batch(&mut out, name, width_bits, indexed, count);
        }
        write_varint(&mut out, values);
        for value in 0..carried {
            write_varint(&mut out, value);
        }
        write_varint(&mut out, 1); // path: one choice,
        out.extend_from_slice(&[0, 1]); // `Branch(true)`
        out.extend_from_slice(&[0, 0]); // termination `Exit(0)`
        write_varint(&mut out, 7); // instructions
        out
    }

    /// Decodes `bytes` as a test case and returns the outcome with the
    /// bytes the decode requested from the allocator.
    fn decode(bytes: &[u8]) -> (Result<TestCase, DecodeError>, u64) {
        let before = REQUESTED.with(Cell::get);
        let result = serde::from_bytes::<TestCase>(bytes);
        (result, REQUESTED.with(Cell::get) - before)
    }

    /// Decodes `bytes`, expects the error `message`, and bounds what the
    /// attempt allocated by a small multiple of the input.
    fn rejected(bytes: &[u8], message: &str) {
        let (result, requested) = decode(bytes);
        match result {
            Err(err) => assert_eq!(err.message, message),
            Ok(case) => panic!("decoded {case:?}, expected {message:?}"),
        }
        let bound = 1024 + 8 * bytes.len() as u64;
        assert!(
            requested <= bound,
            "{requested} bytes requested decoding {} bytes",
            bytes.len()
        );
    }

    #[test]
    fn the_well_formed_frame_decodes() {
        let (case, _) = decode(&frame(&[("pkt", 8, true, 3), ("len", 16, false, 1)], 4, 4));
        let case = case.expect("well formed");
        let names: Vec<String> = case.inputs().map(|input| input.name).collect();
        assert_eq!(names, ["pkt[0]", "pkt[1]", "pkt[2]", "len"]);
        assert_eq!(case.values(), [0, 1, 2, 3]);
        assert_eq!(case.instructions, 7);
    }

    #[test]
    fn values_that_do_not_match_the_symbols_are_rejected() {
        let message = "test-case values do not match its symbols";
        rejected(&frame(&[("pkt", 8, true, 3)], 2, 2), message);
        rejected(&frame(&[("pkt", 8, true, 3)], 4, 4), message);
        rejected(&frame(&[], 1, 1), message);
    }

    #[test]
    fn an_empty_batch_is_rejected() {
        rejected(&frame(&[("pkt", 8, true, 0)], 0, 0), "empty symbol batch");
    }

    #[test]
    fn a_plain_name_for_several_symbols_is_rejected() {
        let message = "a plain symbol name names one symbol";
        rejected(&frame(&[("len", 32, false, 2)], 2, 2), message);
        rejected(&frame(&[("len", 32, false, 0)], 0, 0), "empty symbol batch");
    }

    #[test]
    fn a_width_out_of_range_is_rejected() {
        let message = "symbol width out of range";
        rejected(&frame(&[("x", 0, false, 1)], 1, 1), message);
        rejected(&frame(&[("x", 65, false, 1)], 1, 1), message);
    }

    /// Counts are claims: a table of four billion symbols is one record
    /// per batch, and it fails on the counts' sum or on the values it does
    /// not carry — never by allocating for the symbols it names.
    #[test]
    fn claimed_counts_size_no_allocation() {
        let max = u64::from(u32::MAX);
        rejected(
            &frame(&[("a", 8, true, max), ("b", 8, true, 1)], 0, 0),
            "symbol ids exceed 32 bits",
        );
        rejected(
            &frame(&[("a", 8, true, max - 1), ("b", 8, true, 2)], 0, 0),
            "symbol ids exceed 32 bits",
        );
        rejected(
            &frame(&[("a", 8, true, max)], max, 3),
            "sequence length exceeds input",
        );
        rejected(
            &frame(&[("a", 8, true, 1 << 20)], 1 << 20, 3),
            "sequence length exceeds input",
        );
        rejected(
            &frame(&[("a", 8, true, max + 1)], 0, 0),
            "integer out of range",
        );
    }

    /// Every proper prefix of a real test case's encoding is a typed error.
    #[test]
    fn truncation_at_every_byte_is_rejected() {
        let case = generated_case(
            &[
                (true, 5, vec![1, 2, 300]),
                (false, 32, vec![70_000]),
                (true, 2, vec![]),
            ],
            vec![
                PathChoice::Branch(true),
                PathChoice::Alt {
                    chosen: 2,
                    total: 3,
                },
            ],
            TerminationReason::Bug(BugKind::OutOfBounds {
                addr: 4096,
                size: 4,
            }),
        );
        let bytes = serde::to_bytes(&case);
        for cut in 0..bytes.len() {
            let (result, requested) = decode(&bytes[..cut]);
            assert!(result.is_err(), "a {cut}-byte prefix decoded");
            assert!(requested <= 1024 + 8 * bytes.len() as u64, "cut at {cut}");
        }
        assert_eq!(decode(&bytes).0.expect("whole"), case);
    }
}

/// Golden-byte tests pinning the version-13 frame layout, so an accidental
/// field reorder or type change shows up as a decode-compat failure rather
/// than as silent cross-version corruption.
mod decode_compat {
    use super::*;
    use c9_net::{Inbound, TcpCoordinatorEndpoint};
    use std::io::Read;
    use std::net::TcpStream;
    use std::time::{Duration, Instant};

    #[test]
    fn wire_version_is_thirteen() {
        assert_eq!(WIRE_VERSION, 13);
    }

    /// The session preamble — every worker's `Join` — in its bincode
    /// layout: varint enum tag, version, listen address, previous
    /// incarnation — behind the 4-byte LE frame length prefix. These exact
    /// bytes are what a v13 coordinator must accept.
    #[test]
    fn hello_preamble_golden_bytes() {
        let frame = encode_frame(&WireMessage::Join {
            version: WIRE_VERSION,
            listen_addr: "h:1".into(),
            previous: Some((WorkerId(3), 7)),
        })
        .expect("encode");
        let body = [
            4, // variant Join
            WIRE_VERSION as u8,
            3, // listen address length
            b'h',
            b':',
            b'1',
            1, // Some(previous)
            3, // previous worker
            7, // previous epoch
        ];
        let mut expected = (body.len() as u32).to_le_bytes().to_vec();
        expected.extend_from_slice(&body);
        assert_eq!(frame, expected);
    }

    /// A join from a peer speaking another protocol version (here v1) is
    /// dropped at the handshake: it never surfaces as a join request, and
    /// its socket is closed, while a current-version join surfaces.
    #[test]
    fn v1_hello_is_rejected_by_version_check() {
        let mut coordinator = TcpCoordinatorEndpoint::listen("127.0.0.1:0").expect("listen");
        let join = |version: u32, listen_addr: &str| {
            let mut stream = TcpStream::connect(coordinator.local_addr()).expect("dial");
            let preamble = WireMessage::Join {
                version,
                listen_addr: listen_addr.into(),
                previous: None,
            };
            write_frame(&mut stream, &preamble).expect("send the join");
            stream
        };
        let mut stale = join(1, "127.0.0.1:1");
        let _current = join(WIRE_VERSION, "127.0.0.1:2");
        let deadline = Instant::now() + Duration::from_secs(10);
        let request = loop {
            if let Some(Inbound::Join(request)) = coordinator.recv(Duration::from_millis(5)) {
                break request;
            }
            assert!(Instant::now() < deadline, "the current join never surfaced");
        };
        assert_eq!(request.listen_addr, "127.0.0.1:2");
        assert!(
            coordinator.recv(Duration::ZERO).is_none(),
            "a v1 join surfaced"
        );
        stale
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        let mut byte = [0u8; 1];
        assert_eq!(
            stale
                .read(&mut byte)
                .expect("the coordinator closes the socket"),
            0
        );
    }

    /// The control envelope carries its payload alone (since v12).
    #[test]
    fn control_envelope_golden_bytes() {
        let frame = encode_frame(&WireMessage::Control(Control::Stop)).expect("encode");
        let body = [
            1, // variant Control
            4, // Control::Stop tag
        ];
        let mut expected = (body.len() as u32).to_le_bytes().to_vec();
        expected.extend_from_slice(&body);
        assert_eq!(frame, expected);
    }
}
