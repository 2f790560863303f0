//! Sans-IO tests of [`CoordinatorCore`]: no threads, no sleeps, no
//! transport. Time is a hand-advanced `Instant`; every test asserts on the
//! commands the core emits.

use super::*;
use crate::tests::branching_program;
use c9_net::{Job, TransferEvent};
use c9_vm::{PathChoice, TerminationReason};
use std::sync::Arc;

const RUN: RunId = RunId(7);
const BALANCE: Duration = Duration::from_millis(20);
const FAILURE: Duration = Duration::from_millis(500);
const FINALS: Duration = Duration::from_secs(30);
const W0: WorkerId = WorkerId(0);
const W1: WorkerId = WorkerId(1);

/// A hand-advanced clock plus the core under test, started over two static
/// members (epochs 1 and 2) whose specs would be shipped.
struct Bench {
    core: CoordinatorCore,
    now: Instant,
}

impl Bench {
    fn started() -> Bench {
        let config = ClusterConfig {
            balance_interval: BALANCE,
            failure_timeout: Some(FAILURE),
            ..ClusterConfig::default()
        };
        let now = Instant::now();
        let mut core = CoordinatorCore::new(&config);
        core.add_static("a:1".into(), now);
        core.add_static("a:2".into(), now);
        let program = Arc::new(branching_program(1));
        let plan = RunPlan {
            run: RUN,
            target: "test".into(),
            num_lines: program.loc(),
            config,
            final_timeout: FINALS,
            spec_for: Some(Box::new(move |config, worker, epoch, strategy| {
                config.run_spec(
                    &program,
                    c9_net::EnvSpec::Null,
                    worker,
                    RUN,
                    epoch,
                    strategy,
                )
            })),
        };
        let mut bench = Bench { core, now };
        let out = bench.feed(Event::Start(Box::new(plan)));
        assert!(matches!(out[0], Command::Start(W0, _)));
        assert!(matches!(out[1], Command::Start(W1, _)));
        assert_eq!(out.len(), 4, "two specs, then the peer table to both");
        bench
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
        self.core.summary()
    }
}

fn job(bits: &[bool]) -> Job {
    Job::new(bits.iter().map(|b| PathChoice::Branch(*b)).collect())
}

fn status(worker: WorkerId, epoch: u64, queue_length: u64) -> StatusReport {
    StatusReport {
        run: RUN,
        worker,
        epoch,
        queue_length,
        coverage: CoverageSet::new(8),
        stats: WorkerStats::default(),
        idle: queue_length == 0,
        strategy: StrategyKind::default(),
        frontier: None,
        new_bugs: Vec::new(),
        transfers: Vec::new(),
        gossip: None,
    }
}

fn final_report(worker: WorkerId, epoch: u64) -> FinalReport {
    FinalReport {
        run: RUN,
        worker,
        epoch,
        stats: WorkerStats::default(),
        coverage: CoverageSet::new(8),
        test_cases: Vec::new(),
        bugs: Vec::new(),
        frontier: JobTree::from_jobs(&[]).encode(),
        transfers: Vec::new(),
    }
}

fn bug() -> TestCase {
    TestCase {
        inputs: Vec::new(),
        path: vec![PathChoice::Branch(true)],
        termination: TerminationReason::Killed("test bug".into()),
        instructions: 1,
    }
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

#[test]
fn imbalance_yields_one_balance_request_per_interval() {
    let mut bench = Bench::started();
    let replies = bench.feed(Event::Status(status(W0, 1, 40)));
    assert!(matches!(
        replies[..],
        [Command::Control(W0, Control::GlobalCoverage(_))]
    ));
    bench.feed(Event::Status(status(W1, 2, 0)));

    bench.advance(BALANCE / 2);
    let (verdict, out) = bench.tick();
    assert_eq!(verdict, None);
    assert_eq!(count(&out, |m| matches!(m, Control::Balance { .. })), 0);

    bench.advance(BALANCE / 2);
    let (_, out) = bench.tick();
    let balances: Vec<_> = out
        .iter()
        .filter_map(|c| match c {
            Command::Control(source, Control::Balance { destination, count }) => {
                Some((*source, *destination, *count))
            }
            _ => None,
        })
        .collect();
    assert_eq!(balances, vec![(W0, W1, 20)]);

    // The cadence stamp moved: nothing more until the next interval.
    let (_, out) = bench.tick();
    assert_eq!(count(&out, |m| matches!(m, Control::Balance { .. })), 0);
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
    bench.feed(Event::Member(MemberEvent::Heartbeat {
        worker: W1,
        epoch: 2,
    }));
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
fn fenced_epoch_and_foreign_run_change_nothing() {
    let mut bench = Bench::started();
    let mut foreign = status(W0, 1, 9);
    foreign.run = RunId(8);
    assert!(bench.feed(Event::Status(foreign)).is_empty());
    assert!(bench.feed(Event::Status(status(W0, 5, 9))).is_empty());
    let member = bench.core.membership().member(W0).expect("w0");
    assert_eq!((member.queue_length, member.contacted), (0, false));

    bench.feed(Event::Stop(Outcome::Cancelled));
    let mut stale = final_report(W0, 5);
    stale.bugs = vec![bug()];
    bench.feed(Event::Final(stale));
    let mut foreign = final_report(W0, 1);
    foreign.run = RunId(8);
    bench.feed(Event::Final(foreign));
    assert!(!bench.core.membership().member(W0).expect("w0").got_final);
    assert_eq!(bench.summary().bugs_found, 0);
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
    let mut done = final_report(W0, 1);
    done.stats.paths_completed = 3;
    bench.feed(Event::Final(done));

    // Worker 1 never reports; it keeps heart-beating, so only the deadline
    // can end the collection.
    bench.advance(FINALS - Duration::from_millis(1));
    bench.feed(Event::Member(MemberEvent::Heartbeat {
        worker: W1,
        epoch: 2,
    }));
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
    bench.feed(Event::Member(MemberEvent::Leave {
        worker: W0,
        epoch: 1,
    }));
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
        if *worker == joiner && spec.worker_epoch == 3 && spec.run == RUN));
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
fn leave_overtaking_the_final_during_shutdown_does_not_fence_it_off() {
    let mut bench = Bench::started();
    bench.feed(Event::Stop(Outcome::Goal));
    for (worker, epoch) in [(W0, 1), (W1, 2)] {
        bench.feed(Event::Member(MemberEvent::Leave { worker, epoch }));
        let mut done = final_report(worker, epoch);
        done.stats.paths_completed = 4;
        done.frontier = JobTree::from_jobs(&[job(&[worker == W0])]).encode();
        bench.feed(Event::Final(done));
    }
    let (_, out) = bench.tick();
    assert!(matches!(out[..], [Command::Finished]));
    assert_eq!(bench.core.membership().frontier_jobs().len(), 2);
    assert_eq!(bench.core.take_result().summary.paths_completed(), 8);
}
