//! Sans-IO tests of [`CoordinatorCore`]: no threads, no sleeps, no
//! transport. Time is a hand-advanced `Instant`; every test asserts on the
//! commands the core emits.

use super::*;
use crate::tests::branching_program;
use c9_net::{Job, TransferEvent};
use c9_vm::{PathChoice, TerminationReason};
use std::sync::Arc;

/// The status interval the bench runs with; a balance round's mark on its
/// destination expires after two of them.
const INTERVAL: Duration = Duration::from_millis(10);
const FAILURE: Duration = Duration::from_millis(500);
const FINALS: Duration = Duration::from_secs(30);
const W0: WorkerId = WorkerId(0);
const W1: WorkerId = WorkerId(1);

/// A hand-advanced clock plus the core under test, started over two joined
/// members (epochs 1 and 2) whose specs would be shipped.
struct Bench {
    core: CoordinatorCore,
    now: Instant,
}

impl Bench {
    fn started() -> Bench {
        let config = ClusterConfig {
            status_interval: INTERVAL,
            failure_timeout: Some(FAILURE),
            ..ClusterConfig::default()
        };
        let (bench, out) = Bench::start(config);
        assert!(matches!(out[0], Command::Start(W0, _)));
        assert!(matches!(out[1], Command::Start(W1, _)));
        assert_eq!(out.len(), 4, "two specs, then the peer table to both");
        bench
    }

    /// Admits two joiners, starts a run of `config` over them, and returns
    /// what the start emitted.
    fn start(config: ClusterConfig) -> (Bench, Vec<Command>) {
        let mut bench = Bench {
            core: CoordinatorCore::new(&config),
            now: Instant::now(),
        };
        for (token, addr) in [(1, "a:1"), (2, "a:2")] {
            let out = bench.feed(Event::Join(JoinRequest {
                token,
                listen_addr: addr.into(),
                previous: None,
            }));
            assert!(
                matches!(out[..], [Command::Admit { token: t, epoch, .. }] if t == token && epoch == token),
                "a join before the start is only admitted"
            );
        }
        let program = Arc::new(branching_program(1));
        let plan = RunPlan {
            target: "test".into(),
            num_lines: program.loc(),
            config,
            final_timeout: FINALS,
            spec_for: Box::new(move |config, worker, epoch| {
                config.run_spec(&program, c9_net::EnvSpec::Null, worker, epoch)
            }),
        };
        let out = bench.feed(Event::Start(Box::new(plan)));
        (bench, out)
    }

    fn advance(&mut self, by: Duration) {
        self.now += by;
    }

    fn feed(&mut self, event: Event) -> Vec<Command> {
        let mut out = Vec::new();
        self.core.handle(event, self.now, &mut out);
        out
    }

    fn tick(&mut self) -> (Option<Outcome>, Vec<Command>) {
        let mut out = Vec::new();
        let verdict = self.core.handle(Event::Tick, self.now, &mut out);
        (verdict, out)
    }

    fn summary(&self) -> &ClusterSummary {
        &self.core.summary
    }
}

fn job(bits: &[bool]) -> Job {
    Job::new(bits.iter().map(|b| PathChoice::Branch(*b)).collect())
}

fn status(worker: WorkerId, epoch: u64, queue_length: u64) -> StatusReport {
    StatusReport {
        worker,
        epoch,
        queue_length,
        coverage: CoverageSet::new(8),
        stats: WorkerStats::default(),
        idle: queue_length == 0,
        last: false,
        frontier: None,
        new_bugs: Vec::new(),
        transfers: Vec::new(),
        test_cases: Vec::new(),
    }
}

/// A member's last report: idle, with an (empty) frontier snapshot.
fn last_report(worker: WorkerId, epoch: u64) -> StatusReport {
    StatusReport {
        last: true,
        frontier: Some(JobTree::from_jobs(&[]).encode()),
        ..status(worker, epoch, 0)
    }
}

fn bug() -> TestCase {
    TestCase::new(
        Vec::new(),
        vec![PathChoice::Branch(true)],
        TerminationReason::Killed("test bug".into()),
        1,
    )
}

/// Test case `id`: its path spells `id` in binary, so ids stay distinct.
fn case(id: u64) -> TestCase {
    TestCase::new(
        Vec::new(),
        (0..16)
            .map(|b| PathChoice::Branch((id >> b) & 1 == 1))
            .collect(),
        TerminationReason::Exit(0),
        id,
    )
}

/// A status report streaming the cases `ids`; with `snapshot` it carries a
/// (empty) frontier snapshot, which confirms them.
fn streaming(worker: WorkerId, epoch: u64, snapshot: bool, ids: &[u64]) -> StatusReport {
    let mut report = status(worker, epoch, 0);
    report.frontier = snapshot.then(|| JobTree::from_jobs(&[]).encode());
    report.test_cases = ids.iter().copied().map(case).collect();
    report
}

/// The ids of the result's test cases, sorted (duplicates kept).
fn case_ids(result: &ClusterRunResult) -> Vec<u64> {
    let mut ids: Vec<u64> = result.test_cases.iter().map(|t| t.instructions).collect();
    ids.sort();
    ids
}

fn count<F: Fn(&Control) -> bool>(out: &[Command], pred: F) -> usize {
    out.iter()
        .filter(|c| matches!(c, Command::Control(_, msg) if pred(msg)))
        .count()
}

fn injects(out: &[Command]) -> Vec<(WorkerId, u64, Vec<Job>)> {
    out.iter()
        .filter_map(|c| match c {
            Command::Control(worker, Control::Inject { seq, encoded }) => {
                let jobs = JobTree::decode(encoded).expect("valid tree").to_jobs();
                Some((*worker, *seq, jobs))
            }
            _ => None,
        })
        .collect()
}

/// The `Balance` requests among `out`, as (source, destination, count).
fn balances(out: &[Command]) -> Vec<(WorkerId, WorkerId, u64)> {
    out.iter()
        .filter_map(|c| match c {
            Command::Control(source, Control::Balance { destination, count }) => {
                Some((*source, *destination, *count))
            }
            _ => None,
        })
        .collect()
}

#[test]
fn an_idle_member_is_fed_on_the_tick_after_its_report() {
    let mut bench = Bench::started();
    let replies = bench.feed(Event::Status(status(W0, 1, 40)));
    assert!(matches!(
        replies[..],
        [Command::Control(W0, Control::GlobalCoverage(_))]
    ));
    let (_, out) = bench.tick();
    assert!(balances(&out).is_empty(), "nobody has run dry yet");

    // No time passes: the idle report alone triggers the round.
    bench.feed(Event::Status(status(W1, 2, 0)));
    let (verdict, out) = bench.tick();
    assert_eq!(verdict, None);
    assert_eq!(balances(&out), vec![(W0, W1, 20)]);
}

#[test]
fn a_member_awaiting_its_batch_is_not_fed_again() {
    let mut bench = Bench::started();
    bench.feed(Event::Status(status(W0, 1, 40)));
    bench.feed(Event::Status(status(W1, 2, 0)));
    assert_eq!(balances(&bench.tick().1).len(), 1);

    // Worker 1 reports idle again before the batch arrives, and worker 0
    // still shows a long queue: the mark holds back a second request.
    for _ in 0..3 {
        bench.advance(INTERVAL / 2);
        bench.feed(Event::Status(status(W0, 1, 40)));
        bench.feed(Event::Status(status(W1, 2, 0)));
        assert!(balances(&bench.tick().1).is_empty());
    }

    // Its next report of work ends the wait: once dry again, it is fed at
    // once.
    bench.feed(Event::Status(status(W1, 2, 20)));
    assert!(
        balances(&bench.tick().1).is_empty(),
        "a busy member is not fed"
    );
    bench.feed(Event::Status(status(W1, 2, 0)));
    assert_eq!(balances(&bench.tick().1), vec![(W0, W1, 20)]);
}

#[test]
fn the_acknowledgement_of_a_batch_ends_the_wait() {
    let mut bench = Bench::started();
    bench.feed(Event::Status(status(W0, 1, 40)));
    bench.feed(Event::Status(status(W1, 2, 0)));
    assert_eq!(balances(&bench.tick().1).len(), 1);
    // Worker 1 finished the batch within the quantum that took it in: its
    // report is idle, but acknowledges the import.
    let mut report = status(W1, 2, 0);
    report.transfers = vec![TransferEvent::Imported {
        source: W0,
        seq: 1,
        encoded: JobTree::from_jobs(&[job(&[true])]).encode(),
    }];
    bench.feed(Event::Status(report));
    bench.feed(Event::Status(status(W0, 1, 40)));
    assert_eq!(balances(&bench.tick().1), vec![(W0, W1, 20)]);
}

#[test]
fn a_mark_expires_after_two_intervals_when_the_source_exported_nothing() {
    let mut bench = Bench::started();
    bench.feed(Event::Status(status(W0, 1, 40)));
    bench.feed(Event::Status(status(W1, 2, 0)));
    assert_eq!(balances(&bench.tick().1).len(), 1);

    // Worker 0 drained its queue below the request and sent nothing; it
    // keeps reporting work, worker 1 stays dry.
    bench.advance(2 * INTERVAL - Duration::from_millis(1));
    bench.feed(Event::Status(status(W0, 1, 6)));
    bench.feed(Event::Status(status(W1, 2, 0)));
    assert!(balances(&bench.tick().1).is_empty(), "still marked");
    bench.advance(Duration::from_millis(1));
    assert_eq!(balances(&bench.tick().1), vec![(W0, W1, 3)]);
}

#[test]
fn busy_members_with_unequal_queues_trigger_no_round() {
    let mut bench = Bench::started();
    for _ in 0..10 {
        bench.feed(Event::Status(status(W0, 1, 40)));
        bench.feed(Event::Status(status(W1, 2, 2)));
        assert!(balances(&bench.tick().1).is_empty());
        bench.advance(INTERVAL);
    }
}

#[test]
fn the_ablations_still_suppress_rounds() {
    // Static partitioning: once every member had work, never again.
    let config = ClusterConfig {
        static_partition: true,
        ..ClusterConfig::default()
    };
    let (mut bench, _) = Bench::start(config);
    bench.feed(Event::Status(status(W0, 1, 40)));
    bench.feed(Event::Status(status(W1, 2, 0)));
    assert_eq!(balances(&bench.tick().1).len(), 1, "the initial split");
    bench.feed(Event::Status(status(W1, 2, 20)));
    bench.feed(Event::Status(status(W1, 2, 0)));
    bench.advance(2 * INTERVAL);
    assert!(balances(&bench.tick().1).is_empty());

    // Balancing switched off after a time: a dry member stays dry.
    let config = ClusterConfig {
        disable_lb_after: Some(INTERVAL),
        ..ClusterConfig::default()
    };
    let (mut bench, _) = Bench::start(config);
    bench.advance(INTERVAL);
    bench.feed(Event::Status(status(W0, 1, 40)));
    bench.feed(Event::Status(status(W1, 2, 0)));
    assert!(balances(&bench.tick().1).is_empty());
}

#[test]
fn silent_member_is_failed_and_its_ledger_reinjected_exactly_once() {
    let mut bench = Bench::started();
    let ledger = [job(&[true]), job(&[false, true])];
    let mut report = status(W0, 1, 2);
    report.frontier = Some(JobTree::from_jobs(&ledger).encode());
    bench.feed(Event::Status(report));

    // Worker 1 keeps heart-beating past the timeout; worker 0 is silent.
    bench.advance(FAILURE + Duration::from_millis(1));
    bench.feed(Event::Heartbeat {
        worker: W1,
        epoch: 2,
    });
    let mut all = Vec::new();
    for _ in 0..4 {
        all.extend(bench.tick().1);
        bench.advance(Duration::from_millis(2));
    }
    assert_eq!(bench.summary().workers_failed, 1);
    let injected = injects(&all);
    assert_eq!(
        injected.len(),
        1,
        "one inject, however often the tick repeats"
    );
    let (destination, _, mut jobs) = injected.into_iter().next().expect("one inject");
    jobs.sort();
    let mut expected = ledger.to_vec();
    expected.sort();
    assert_eq!((destination, jobs), (W1, expected));
    assert_eq!(bench.summary().jobs_reclaimed, 2);
    assert!(!bench.core.membership().member(W0).expect("w0").is_alive());
}

#[test]
fn a_fenced_epoch_changes_nothing() {
    let mut bench = Bench::started();
    assert!(bench.feed(Event::Status(status(W0, 5, 9))).is_empty());
    let member = bench.core.membership().member(W0).expect("w0");
    assert_eq!((member.queue_length, member.contacted), (0, false));

    bench.feed(Event::Stop(Outcome::TimeLimit));
    let mut stale = last_report(W0, 5);
    stale.new_bugs = vec![bug()];
    bench.feed(Event::Status(stale));
    let member = bench.core.membership().member(W0).expect("w0");
    assert!(!member.closed && member.bugs.is_empty());
}

#[test]
fn missing_final_finishes_at_the_deadline_with_snapshot_stats_and_bugs() {
    let mut bench = Bench::started();
    let mut report = status(W1, 2, 1);
    report.frontier = Some(JobTree::from_jobs(&[job(&[true])]).encode());
    report.stats.paths_completed = 5;
    report.new_bugs = vec![bug()];
    bench.feed(Event::Status(report));

    let stops = bench.feed(Event::Stop(Outcome::TimeLimit));
    assert_eq!(count(&stops, |m| matches!(m, Control::Stop)), 2);
    let mut done = last_report(W0, 1);
    done.stats.paths_completed = 3;
    bench.feed(Event::Status(done));

    // Worker 1 never reports; it keeps heart-beating, so only the deadline
    // can end the collection.
    bench.advance(FINALS - Duration::from_millis(1));
    bench.feed(Event::Heartbeat {
        worker: W1,
        epoch: 2,
    });
    let (_, out) = bench.tick();
    assert!(out.is_empty(), "still inside the final timeout");
    bench.advance(Duration::from_millis(1));
    let (_, out) = bench.tick();
    assert!(matches!(out[..], [Command::Finished]));
    assert!(bench.tick().1.is_empty(), "finished only once");

    let result = bench.core.take_result();
    assert_eq!(result.summary.paths_completed(), 8);
    assert_eq!(result.summary.bugs_found, 1);
    assert_eq!(result.bugs.len(), 1);
    assert!(!result.summary.goal_reached);
}

#[test]
fn failed_inject_returns_to_the_pool_and_is_reinjected() {
    let mut bench = Bench::started();
    // Worker 0 exports a batch towards worker 1 and then leaves: the
    // announced batch is reclaimed once its grace period passed.
    let batch = [job(&[true, true])];
    let mut report = status(W0, 1, 0);
    report.transfers = vec![TransferEvent::Exported {
        destination: W1,
        seq: 1,
        encoded: JobTree::from_jobs(&batch).encode(),
    }];
    bench.feed(Event::Status(report));
    bench.feed(Event::Leave {
        worker: W0,
        epoch: 1,
    });
    bench.advance(Duration::from_millis(200));
    bench.tick();
    let (_, out) = bench.tick();
    let first = injects(&out);
    assert_eq!(first.len(), 1);
    let (destination, seq, jobs) = first.into_iter().next().expect("one inject");
    assert_eq!((destination, jobs), (W1, batch.to_vec()));

    bench.feed(Event::SendFailed {
        worker: W1,
        what: Delivery::Inject(seq),
    });
    assert!(
        !bench.core.membership().settled(),
        "jobs are back in the pool"
    );
    let (_, out) = bench.tick();
    let second = injects(&out);
    assert_eq!(second.len(), 1);
    assert_eq!(second[0].2, batch.to_vec());
    assert_ne!(second[0].1, seq, "a fresh sequence number");
    assert!(injects(&bench.tick().1).is_empty());
}

#[test]
fn join_during_the_run_admits_starts_then_announces() {
    let mut bench = Bench::started();
    let out = bench.feed(Event::Join(JoinRequest {
        token: 42,
        listen_addr: "a:3".into(),
        previous: None,
    }));
    let joiner = WorkerId(2);
    assert!(matches!(
        &out[0],
        Command::Admit { token: 42, worker, epoch: 3, peers, .. }
            if *worker == joiner && peers.len() == 3
    ));
    assert!(matches!(&out[1], Command::Start(worker, spec)
        if *worker == joiner && spec.worker_epoch == 3));
    let announced: Vec<WorkerId> = out[2..]
        .iter()
        .map(|c| match c {
            Command::Control(worker, Control::Membership(peers)) if peers.len() == 3 => *worker,
            _ => panic!("only peer-table announcements may follow the start"),
        })
        .collect();
    assert_eq!(announced, vec![W0, W1]);
    assert_eq!(bench.summary().workers_joined, 1);

    // A failed handshake takes the joiner out again.
    bench.feed(Event::SendFailed {
        worker: joiner,
        what: Delivery::Handshake,
    });
    assert!(!bench
        .core
        .membership()
        .member(joiner)
        .expect("joiner")
        .is_alive());
}

#[test]
fn every_member_runs_the_run_strategy_under_its_own_seed() {
    let mut config = ClusterConfig::default();
    config.worker.strategy = c9_vm::StrategyKind::Cupa;
    config.worker.seed = 5;
    let (mut bench, mut out) = Bench::start(config);
    out.extend(bench.feed(Event::Join(JoinRequest {
        token: 1,
        listen_addr: "a:3".into(),
        previous: None,
    })));
    let specs: Vec<(WorkerId, u64, u64)> = out
        .iter()
        .filter_map(|c| match c {
            Command::Start(worker, spec) => {
                assert_eq!(spec.strategy, c9_vm::StrategyKind::Cupa, "{worker}");
                Some((*worker, spec.worker_epoch, spec.seed))
            }
            _ => None,
        })
        .collect();
    assert_eq!(specs.len(), 3, "two members and the late joiner");
    for (worker, epoch, seed) in specs {
        assert_eq!(
            seed,
            crate::worker::derive_seed(5, worker, epoch),
            "{worker}"
        );
    }
}

#[test]
fn exhaustion_ignores_the_balancers_phantom_credit() {
    let mut bench = Bench::started();
    bench.feed(Event::Status(status(W0, 1, 40)));
    bench.feed(Event::Status(status(W1, 2, 0)));
    bench.advance(2 * INTERVAL);
    let (verdict, out) = bench.tick();
    assert_eq!(verdict, None);
    // The round credits worker 1 with 20 jobs it will never receive:
    // worker 0 drained its queue before it read the request.
    assert_eq!(count(&out, |m| matches!(m, Control::Balance { .. })), 1);
    bench.feed(Event::Status(status(W0, 1, 0)));
    assert!(
        bench.core.quiescent(),
        "both latest reports idle, nothing in flight"
    );
    bench.advance(Duration::from_millis(1));
    let (verdict, _) = bench.tick();
    assert_eq!(verdict, Some(Outcome::Exhausted));
}

#[test]
fn an_export_in_flight_holds_off_exhaustion_until_acknowledged() {
    let mut bench = Bench::started();
    let batch = [job(&[true])];
    let encoded = JobTree::from_jobs(&batch).encode();
    let mut export = status(W0, 1, 0);
    export.transfers = vec![
        TransferEvent::Exported {
            destination: W1,
            seq: 1,
            encoded: encoded.clone(),
        },
        TransferEvent::Sent {
            destination: W1,
            seq: 1,
        },
    ];
    bench.feed(Event::Status(export));
    bench.feed(Event::Status(status(W1, 2, 0)));
    assert_eq!(bench.tick().0, None, "the batch is still on the wire");
    let mut ack = status(W1, 2, 0);
    ack.transfers = vec![TransferEvent::Imported {
        source: W0,
        seq: 1,
        encoded,
    }];
    bench.feed(Event::Status(ack));
    assert_eq!(bench.tick().0, Some(Outcome::Exhausted));
}

#[test]
fn a_dead_member_contributes_exactly_its_confirmed_test_cases() {
    let mut bench = Bench::started();
    // Worker 1 streams k = 3 cases; its snapshot confirms j = 2 of them.
    bench.feed(Event::Status(streaming(W1, 2, false, &[1])));
    bench.feed(Event::Status(streaming(W1, 2, true, &[2])));
    bench.feed(Event::Status(streaming(W1, 2, false, &[3])));
    bench.feed(Event::Status(streaming(W0, 1, false, &[10])));
    // Then it goes silent and is failed; worker 0 heartbeats on.
    bench.advance(FAILURE + Duration::from_millis(1));
    bench.feed(Event::Heartbeat {
        worker: W0,
        epoch: 1,
    });
    bench.tick();
    assert_eq!(bench.summary().workers_failed, 1);
    bench.feed(Event::Stop(Outcome::TimeLimit));
    let mut done = last_report(W0, 1);
    done.test_cases = vec![case(11)];
    bench.feed(Event::Status(done));
    let (_, out) = bench.tick();
    assert!(matches!(out[..], [Command::Finished]));
    assert_eq!(case_ids(&bench.core.take_result()), vec![1, 2, 10, 11]);
}

#[test]
fn every_streamed_test_case_is_counted_exactly_once() {
    let mut bench = Bench::started();
    let mut sent = Vec::new();
    for round in 0..6u64 {
        for (worker, epoch) in [(W0, 1), (W1, 2)] {
            let ids = [
                100 * u64::from(worker.0) + 2 * round,
                100 * u64::from(worker.0) + 2 * round + 1,
            ];
            sent.extend(ids);
            bench.feed(Event::Status(streaming(
                worker,
                epoch,
                round % 2 == 0,
                &ids,
            )));
        }
        bench.advance(Duration::from_millis(5));
        bench.tick();
    }
    bench.feed(Event::Stop(Outcome::Goal));
    for (worker, epoch) in [(W0, 1), (W1, 2)] {
        let mut done = last_report(worker, epoch);
        let id = 100 * u64::from(worker.0) + 50;
        done.test_cases = vec![case(id)];
        sent.push(id);
        bench.feed(Event::Status(done));
    }
    let (_, out) = bench.tick();
    assert!(matches!(out[..], [Command::Finished]));
    sent.sort();
    assert_eq!(case_ids(&bench.core.take_result()), sent);
}
