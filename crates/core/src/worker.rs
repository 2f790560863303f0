//! A Cloud9 worker: an independent symbolic execution engine over a
//! frontier of candidates that it can hand out for dynamic work
//! partitioning. The frontier is all a worker keeps of the execution tree:
//! boxed states (materialized candidates) and queued jobs (virtual ones).
//!
//! # Intra-worker parallelism
//!
//! A worker steps `threads` disjoint subtrees concurrently over one shared
//! frontier and one shared (thread-safe) solver. [`Worker::run_quantum`] is
//! a scoped-thread dispatch loop of rounds:
//!
//! * **lease** — up to `threads` disjoint states are taken from the
//!   [`Scheduler`] (materializing virtual jobs as needed) on the dispatch
//!   thread;
//! * **step** — each slot (slot 0 inline on the dispatch thread, the rest
//!   on executor threads) runs the subtree under its leased state for one
//!   slice: fork siblings stay on the slot's own LIFO stack, and when the
//!   state being stepped terminates the slot moves on to the top of that
//!   stack, until the slice's instructions are spent or the stack is
//!   empty (slot 0, which owns the scheduler, then leases again). A path
//!   that terminates is retired on the slot that finished it (coverage
//!   taken, test case solved, state dropped), and every path end is logged
//!   in order. Slots share nothing mutable except the solver, whose caches
//!   are lock-striped and whose answers are interleaving-independent;
//! * **merge** — the dispatch thread applies the round's outcomes in slot
//!   order, in two passes: first every slot's path ends into the
//!   statistics, coverage and test cases, then every slot's unfinished
//!   siblings into the scheduler as new states and its leased state back
//!   as sticky if it is still active. Neither pass reads what the other
//!   writes, so the scheduler sees the calls of a one-pass merge, in the
//!   same order.
//!
//! With `threads == 1` the loop is exactly the classic sequential quantum:
//! a slot hands its fork siblings back to the searcher and ends its slice
//! at the first termination, so the selection sequence, state ids, path
//! end order and test cases of every single-thread run are unchanged.

use crate::replay_cache::AnchorCache;
use c9_ir::Program;
use c9_net::{Job, JobTree, JobTreeVisitor, WorkerId, WorkerStats};
use c9_solver::Solver;
use c9_trace::{Registry, Span, SpanKind};
use c9_vm::{
    build_searcher, Candidate, CoverageSet, Environment, ExecutionState, Executor, ExecutorConfig,
    PathChoice, ReplayEngine, ReplayProgress, Scheduler, StateId, StateIdGen, StateMeta,
    StepResult, StrategyKind, TestCase,
};
use crossbeam::channel::{unbounded, Receiver, Sender};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Instructions per execution slice: how long one state runs on one thread
/// before the round is merged (and, in the classic single-threaded loop,
/// between searcher re-registrations).
const SLICE_INSTRUCTIONS: u64 = 512;

/// Default executor-thread count: the `C9_THREADS` environment variable
/// when set (this is what lets the CI matrix run every suite at
/// `C9_THREADS=4` unmodified), else 1.
pub fn default_threads() -> usize {
    use std::sync::OnceLock;
    static CACHE: OnceLock<usize> = OnceLock::new();
    *CACHE.get_or_init(|| {
        std::env::var("C9_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or(1)
            .min(256)
    })
}

/// Derives the deterministic searcher seed of one worker incarnation:
/// the run's base seed mixed with the worker id and its fencing epoch
/// through a SplitMix64 finalizer. Distinct (worker, epoch) pairs get
/// decorrelated streams; the same pair always gets the same stream.
pub fn derive_seed(base: u64, worker: WorkerId, epoch: u64) -> u64 {
    let mut x = base
        ^ u64::from(worker.0).wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ epoch.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Configuration of one worker.
#[derive(Clone, Copy, Debug)]
pub struct WorkerConfig {
    /// Per-path executor limits.
    pub executor: ExecutorConfig,
    /// Random seed (combined with the worker id).
    pub seed: u64,
    /// Exploration strategy.
    pub strategy: StrategyKind,
    /// Whether to solve for a concrete test case for every completed path
    /// (bug paths always get one).
    pub generate_test_cases: bool,
    /// Executor threads stepping states concurrently inside this worker
    /// (defaults to `C9_THREADS` or 1; 1 is the classic sequential loop).
    pub threads: usize,
}

impl Default for WorkerConfig {
    fn default() -> WorkerConfig {
        WorkerConfig {
            executor: ExecutorConfig::default(),
            seed: 1,
            strategy: StrategyKind::KleeDefault,
            generate_test_cases: false,
            threads: default_threads(),
        }
    }
}

/// A worker node: explores a disjoint portion of the execution tree and
/// exchanges jobs with its peers under load-balancer coordination.
pub struct Worker {
    /// Identifier of this worker within the cluster.
    pub id: WorkerId,
    executor: Executor,
    solver: Arc<Solver>,
    config: WorkerConfig,
    /// Candidates with a state id: boxed states that have run, and fork
    /// siblings still pending (a snapshot shared with the rest of their
    /// fork plus their decision), materialized when leased.
    states: BTreeMap<StateId, Candidate>,
    /// Virtual candidates: imported jobs not materialized yet.
    virtual_jobs: VecDeque<Job>,
    /// Prefix trie over the paths of all pending virtual jobs: the index
    /// that tells the materializer which replay prefixes are shared (and
    /// therefore worth anchoring).
    pending: JobTree,
    /// Prefix-anchor replay cache: cloned states keyed by path prefix,
    /// persisted across quanta so later-arriving jobs replay only their
    /// suffix below the deepest cached anchor.
    anchors: AnchorCache,
    scheduler: Scheduler,
    ids: StateIdGen,
    /// Cumulative statistics.
    pub stats: WorkerStats,
    /// Local line coverage (paths explored here plus the global vector
    /// received from the load balancer).
    pub coverage: CoverageSet,
    /// Test cases generated for completed paths (when enabled).
    pub test_cases: Vec<TestCase>,
    /// Test cases that expose bugs.
    pub bugs: Vec<TestCase>,
    /// Local metrics (quantum duration, job-batch size, replay-trunk
    /// length, transfer bytes); snapshotted into every status report.
    /// Write-only from the engine's point of view — never read by any
    /// scheduling or exploration decision, which is what keeps
    /// instrumentation determinism-neutral.
    pub(crate) metrics: Registry,
}

impl Worker {
    /// Creates a worker for `program` with the given environment model.
    pub fn new(
        id: WorkerId,
        program: Arc<Program>,
        env: Arc<dyn Environment>,
        config: WorkerConfig,
    ) -> Worker {
        // One thread-safe solver shared by every executor thread of this
        // worker: all threads hit (and warm) the same lock-striped caches.
        let solver = Arc::new(Solver::new());
        let lines = program.loc();
        let executor = Executor::new(program, solver.clone(), env, config.executor);
        let seed = derive_seed(config.seed, id, 0);
        let scheduler = Scheduler::new(build_searcher(config.strategy, seed));
        Worker {
            id,
            executor,
            solver,
            config,
            states: BTreeMap::new(),
            virtual_jobs: VecDeque::new(),
            pending: JobTree::new(),
            anchors: AnchorCache::default(),
            scheduler,
            ids: StateIdGen::new(),
            stats: WorkerStats {
                threads: config.threads.max(1) as u64,
                ..WorkerStats::default()
            },
            coverage: CoverageSet::new(lines),
            test_cases: Vec::new(),
            bugs: Vec::new(),
            metrics: Registry::new(),
        }
    }

    /// Number of executor threads this worker steps states with.
    pub fn threads(&self) -> usize {
        self.config.threads.max(1)
    }

    /// Seeds this worker with the root job (the entire execution tree); done
    /// for the first worker that joins the cluster.
    pub fn seed_root(&mut self) {
        let id = self.ids.fresh();
        let state = self.executor.initial_state(id);
        self.scheduler.add(StateMeta::of(&state));
        self.states.insert(id, Candidate::Live(Box::new(state)));
    }

    /// Number of pending exploration jobs (materialized candidates plus
    /// virtual jobs); this is the queue length reported to the load balancer.
    pub fn queue_length(&self) -> u64 {
        (self.states.len() + self.virtual_jobs.len()) as u64
    }

    /// Whether the worker has anything to explore.
    pub fn has_work(&self) -> bool {
        self.queue_length() > 0
    }

    /// Adds one virtual job to the frontier: an entry in the pending-prefix
    /// trie and a queue slot.
    fn enqueue_virtual(&mut self, job: Job) {
        self.pending.insert(&job.path);
        self.virtual_jobs.push_back(job);
    }

    /// Imports jobs received from another worker: they become virtual
    /// candidate nodes, materialized lazily when the strategy selects them.
    pub fn import_jobs(&mut self, jobs: Vec<Job>) {
        self.metrics
            .histogram("batch_jobs")
            .record(jobs.len() as u64);
        for job in jobs {
            self.enqueue_virtual(job);
            self.stats.jobs_received += 1;
        }
    }

    /// Imports an encoded job batch without flattening it first: the batch
    /// trie is folded into the pending-prefix index with one union walk,
    /// and a second DFS walk registers every job (in the same
    /// lexicographic order [`JobTree::to_jobs`] would produce) — shared
    /// prefixes are traversed once, not once per job.
    pub fn import_job_tree(&mut self, tree: &JobTree) {
        let before = self.stats.jobs_received;
        self.pending.merge(tree);
        struct Importer<'w> {
            worker: &'w mut Worker,
            prefix: Vec<PathChoice>,
        }
        impl Importer<'_> {
            fn import(&mut self, job: Job) {
                self.worker.virtual_jobs.push_back(job);
                self.worker.stats.jobs_received += 1;
            }
        }
        impl JobTreeVisitor for Importer<'_> {
            fn enter_edge(&mut self, choice: PathChoice, terminal: bool) {
                self.prefix.push(choice);
                if terminal {
                    let job = Job::new(self.prefix.clone());
                    self.import(job);
                }
            }
            fn leave_edge(&mut self) {
                self.prefix.pop();
            }
        }
        let mut importer = Importer {
            worker: self,
            prefix: Vec::with_capacity(tree.depth()),
        };
        if tree.is_terminal() {
            importer.import(Job::new(Vec::new()));
        }
        tree.walk(&mut importer);
        self.metrics
            .histogram("batch_jobs")
            .record(self.stats.jobs_received - before);
    }

    /// Exports up to `count` jobs for transfer to another worker. Virtual
    /// (never-materialized) jobs are forwarded first: this worker has paid
    /// no replay for them, and the receiver would have had to replay them
    /// anyway, so shipping them costs the cluster nothing extra. Only then
    /// are materialized candidates converted back to path jobs —
    /// shallowest first, because their (already paid, now re-paid by the
    /// receiver) replay cost grows with depth. An exported job leaves no
    /// trace here: the coordinator's job ledger tracks it until the receiver
    /// reports the import (the paper's fence node).
    pub fn export_jobs(&mut self, count: u64) -> Vec<Job> {
        let mut out = Vec::new();
        while (out.len() as u64) < count {
            let Some(job) = self.virtual_jobs.pop_back() else {
                break;
            };
            self.pending.remove(&job.path);
            out.push(job);
        }
        if (out.len() as u64) < count {
            // Candidate selection: shallowest states first. A pending
            // sibling leaves as its path; its fork's snapshot goes with the
            // last sibling that leaves.
            let mut ids: Vec<(usize, StateId)> =
                self.states.values().map(|s| (s.depth(), s.id())).collect();
            ids.sort();
            // Never give away the very last piece of local work: the sender
            // keeps at least one candidate so both sides stay busy.
            let exportable = ids.len().saturating_sub(1);
            for (_, id) in ids.into_iter().take(exportable) {
                if (out.len() as u64) >= count {
                    break;
                }
                if let Some(candidate) = self.states.remove(&id) {
                    self.scheduler.remove(id);
                    out.push(Job::new(candidate.into_path()));
                }
            }
        }
        self.stats.jobs_sent += out.len() as u64;
        out
    }

    /// Takes back jobs whose export failed (the destination is unreachable):
    /// they rejoin the local frontier as virtual candidates, and the export
    /// accounting is rolled back so the transfer never counts as sent.
    pub fn requeue_jobs(&mut self, jobs: Vec<Job>) {
        self.stats.jobs_sent = self.stats.jobs_sent.saturating_sub(jobs.len() as u64);
        for job in jobs {
            self.enqueue_virtual(job);
        }
    }

    /// A consistent snapshot of the pending frontier: every virtual job plus
    /// every materialized candidate, as replayable path-prefix jobs. Taken
    /// between quanta, so together with `stats` at the same instant it
    /// partitions this worker's subtree exactly into completed paths and
    /// pending work — which is what makes coordinator-side crash recovery
    /// and checkpointing exact.
    pub fn frontier_snapshot(&self) -> Vec<Job> {
        let mut jobs: Vec<Job> = self.virtual_jobs.iter().cloned().collect();
        jobs.extend(self.states.values().map(|s| Job::new(s.path())));
        jobs
    }

    /// Merges the global coverage vector received from the load balancer into
    /// the local one (§3.3).
    pub fn merge_global_coverage(&mut self, global: &CoverageSet) {
        self.coverage.merge(global);
    }

    /// The cumulative statistics as reported to the coordinator: the
    /// worker-loop counters plus a fresh snapshot of the shared solver's
    /// query/cache/independence counters.
    pub fn report_stats(&self) -> WorkerStats {
        let mut stats = self.stats.clone();
        stats.threads = self.config.threads.max(1) as u64;
        stats.solver = self.solver.stats();
        stats.metrics = self.metrics.snapshot();
        let (probe, search) = self.solver.latency_split_snapshot();
        let mut query = probe.clone();
        query.merge(&search);
        for (name, snapshot) in [
            ("solver_query_us", query),
            ("solver_probe_us", probe),
            ("solver_search_us", search),
        ] {
            stats.metrics.histograms.insert(name.into(), snapshot);
        }
        stats
    }

    /// Records the encoded size of one outgoing job batch (called by the
    /// cluster runtime, which is where the wire bytes are known).
    pub fn record_transfer_bytes(&self, bytes: u64) {
        self.metrics.histogram("transfer_bytes").record(bytes);
    }

    /// Runs up to `max_instructions` instructions of exploration across
    /// `threads` executor threads and returns how many were executed
    /// (useful + replay, summed over all threads).
    pub fn run_quantum(&mut self, max_instructions: u64) -> u64 {
        let started = Instant::now();
        let mut span = Span::enter(SpanKind::Quantum);
        let threads = self.config.threads.max(1);
        let mut parts = EngineParts {
            executor: &self.executor,
            solver: &self.solver,
            metrics: &self.metrics,
            generate_test_cases: self.config.generate_test_cases,
            states: &mut self.states,
            virtual_jobs: &mut self.virtual_jobs,
            pending: &mut self.pending,
            anchors: &mut self.anchors,
            scheduler: &mut self.scheduler,
            ids: &mut self.ids,
            stats: &mut self.stats,
            coverage: &mut self.coverage,
            test_cases: &mut self.test_cases,
            bugs: &mut self.bugs,
            schedule: Duration::ZERO,
            frontier_sum: 0,
            rounds: 0,
            forks: 0,
            retire: Duration::ZERO,
        };
        let executed = if threads == 1 {
            dispatch_quantum(&mut parts, max_instructions, &[])
        } else {
            let executor = parts.executor;
            std::thread::scope(|scope| {
                let lanes: Vec<Lane> = (1..threads).map(|_| Lane::spawn(scope, executor)).collect();
                dispatch_quantum(&mut parts, max_instructions, &lanes)
            })
        };
        span.detail(executed);
        let elapsed = started.elapsed().as_micros() as u64;
        self.metrics.histogram("quantum_us").record(elapsed);
        // The scheduler's share of the quantum, and the mean number of
        // states it chose among per round.
        self.metrics
            .histogram("schedule_us")
            .record(parts.schedule.as_micros() as u64);
        if let Some(mean) = parts.frontier_sum.checked_div(parts.rounds) {
            self.metrics.histogram("frontier_len").record(mean);
        }
        // Lease rounds: each one is a handoff to the lanes and back.
        self.metrics
            .histogram("quantum_rounds")
            .record(parts.rounds);
        // The fork / retire bucket: sibling states created, and the time
        // spent accounting and freeing completed paths. With the traced
        // per-fork cost this is what a fork costs a run.
        self.metrics.histogram("forks").record(parts.forks);
        self.metrics
            .histogram("retire_us")
            .record(parts.retire.as_micros() as u64);
        self.metrics
            .histogram("quantum_instructions")
            .record(executed);
        executed
    }

    /// Snapshot of the local coverage.
    pub fn coverage_snapshot(&self) -> CoverageSet {
        self.coverage.clone()
    }

    /// The solver shared by this worker's executor threads (exposed for
    /// statistics).
    pub fn solver(&self) -> &Arc<Solver> {
        &self.solver
    }
}

/// Disjoint borrows of the worker fields the dispatch loop needs: the
/// executor is shared with the lane threads while everything else stays
/// exclusive to the dispatch thread.
struct EngineParts<'a> {
    executor: &'a Executor,
    solver: &'a Arc<Solver>,
    metrics: &'a Registry,
    generate_test_cases: bool,
    states: &'a mut BTreeMap<StateId, Candidate>,
    virtual_jobs: &'a mut VecDeque<Job>,
    pending: &'a mut JobTree,
    anchors: &'a mut AnchorCache,
    scheduler: &'a mut Scheduler,
    ids: &'a mut StateIdGen,
    stats: &'a mut WorkerStats,
    coverage: &'a mut CoverageSet,
    test_cases: &'a mut Vec<TestCase>,
    bugs: &'a mut Vec<TestCase>,
    /// Time spent in the scheduler and the frontier map during this
    /// quantum: each lease phase but its replays, each merge's scheduler
    /// pass, and slot 0's leases inside its slices. A phase is timed as a
    /// whole, not per call.
    schedule: Duration,
    /// Sum over the quantum's rounds of the scheduler's length at the start
    /// of the round, and the number of rounds.
    frontier_sum: u64,
    rounds: u64,
    /// Sibling states created by forks during this quantum.
    forks: u64,
    /// Time spent retiring completed paths, summed over slots: the slots'
    /// own retirements (the drop of each state included) plus the merges'
    /// path-end passes.
    retire: Duration,
}

/// One leased state shipped to a slot for one slice.
struct SliceTask {
    state: Box<ExecutionState>,
    ids: StateIdGen,
    budget: u64,
    /// Whether the slot runs the subtree under `state` (a worker of more
    /// than one thread): fork siblings stay on the slot's stack and a
    /// termination moves on to the next of them. Otherwise (the classic
    /// loop) siblings go back to the searcher and a termination ends the
    /// slice.
    subtree: bool,
    /// Whether every completed path gets a test case (bugs always do).
    generate_test_cases: bool,
}

/// How a state of a slice ended, in the order the states ended.
enum PathEnd {
    /// A classic-loop path (the stepped state, or a sibling born dead); the
    /// merge retires it, on the one slot's thread, as the classic loop
    /// always has.
    Terminated(Box<ExecutionState>),
    /// A subtree-slice path (the stepped state, or a sibling born dead),
    /// already retired on the slot.
    Retired(Retired),
    /// A state whose materialization ran out of budget and continued
    /// replaying in normal slices hit a divergence: the recorded job path
    /// does not match the program. Counted and dropped — never a
    /// completed path (mirrors `ReplayProgress::Diverged`).
    Diverged,
}

/// The result of one slice on one slot.
struct SliceOutcome {
    /// The state the slot leased last, if it is still active at slice end.
    leased: Option<Box<ExecutionState>>,
    /// Unfinished siblings in the order the scheduler gets them: a classic
    /// slice's in fork order, a subtree slice's bottom of the stack first.
    /// They move into the frontier map as they are: pending siblings stay
    /// pending, a state that has run stays boxed.
    stack: Vec<Candidate>,
    ended: Vec<PathEnd>,
    executed: u64,
    useful: u64,
    replay: u64,
    /// Siblings the slice's forks created (pending or born terminated).
    forks: u64,
    /// Time the slot spent retiring paths.
    retire: Duration,
    /// Where this slot's id lane stopped allocating.
    ids_next: u64,
}

impl SliceOutcome {
    /// Retires a subtree slice's completed path on the slot.
    fn retire_on_slot(
        &mut self,
        state: ExecutionState,
        solver: &Solver,
        generate_test_cases: bool,
    ) {
        let started = Instant::now();
        let retired = retire(state, solver, generate_test_cases);
        self.retire += started.elapsed();
        self.ended.push(PathEnd::Retired(retired));
    }
}

/// A persistent executor thread of one quantum: receives slice tasks,
/// steps them, ships outcomes back. Lanes live for the duration of one
/// `run_quantum` scope, so the per-thread spawn cost is amortized over all
/// rounds of the quantum.
struct Lane<'scope> {
    tx: Sender<SliceTask>,
    rx: Receiver<SliceOutcome>,
    _handle: std::thread::ScopedJoinHandle<'scope, ()>,
}

impl<'scope> Lane<'scope> {
    fn spawn<'env: 'scope>(
        scope: &'scope std::thread::Scope<'scope, 'env>,
        executor: &'env Executor,
    ) -> Lane<'scope> {
        let (task_tx, task_rx) = unbounded::<SliceTask>();
        let (out_tx, out_rx) = unbounded::<SliceOutcome>();
        let handle = scope.spawn(move || {
            while let Ok(task) = task_rx.recv() {
                if out_tx.send(run_slice(executor, task, || None)).is_err() {
                    break;
                }
            }
        });
        Lane {
            tx: task_tx,
            rx: out_rx,
            _handle: handle,
        }
    }
}

/// Steps the leased state for up to `budget` instructions (and, in a
/// subtree slice, the siblings it forks), counting forks, logging path
/// ends and retiring completed paths. Runs on an executor thread (or
/// inline on the dispatch thread for slot 0); touches nothing but its
/// states, its id lane, and the thread-safe solver behind the executor.
///
/// When a subtree slice runs out of states with budget left, `lease` may
/// hand the slot another one. Only slot 0 gets one that does: it runs on
/// the thread that owns the scheduler, so its leases happen at points of
/// its own deterministic execution; lanes never touch the scheduler.
fn run_slice(
    executor: &Executor,
    task: SliceTask,
    mut lease: impl FnMut() -> Option<Box<ExecutionState>>,
) -> SliceOutcome {
    let SliceTask {
        state,
        mut ids,
        budget,
        subtree,
        generate_test_cases,
    } = task;
    let mut leased = state.id;
    let mut out = SliceOutcome {
        leased: None,
        stack: Vec::new(),
        ended: Vec::new(),
        executed: 0,
        useful: 0,
        replay: 0,
        forks: 0,
        retire: Duration::ZERO,
        ids_next: 0,
    };
    let mut slot = Some(state);
    while out.executed < budget {
        let Some(s) = slot.as_mut() else { break };
        let replaying = s.is_replaying();
        let result = executor.step(s, &mut ids);
        out.executed += 1;
        if replaying {
            out.replay += 1;
        } else {
            out.useful += 1;
        }
        match result {
            StepResult::Continue => {}
            // A fork crossed while still replaying an imported job (the
            // materialization ran out of budget): its siblings are
            // duplicates the exporting worker already accounted. Drop them,
            // exactly as the replay engine does during materialization.
            StepResult::Forked(_) | StepResult::BugForked(_) if replaying => {}
            StepResult::Forked(siblings) => {
                out.forks += siblings.len() as u64;
                out.stack
                    .extend(siblings.into_iter().map(Candidate::Pending));
            }
            StepResult::BugForked(bug) => {
                out.forks += 1;
                if subtree {
                    out.retire_on_slot(*bug, executor.solver(), generate_test_cases);
                } else {
                    out.ended.push(PathEnd::Terminated(bug));
                }
            }
            StepResult::Terminated(_) => {
                let terminated = slot.take().expect("state present at termination");
                // Divergence (a mismatch the executor reported, or the
                // program ending with recorded decisions left over) must
                // be dropped and counted, never accounted as a completed
                // path — mirror `ReplayEngine::run`'s classification.
                let diverged = matches!(
                    terminated.termination,
                    Some(c9_vm::TerminationReason::ReplayDivergence { .. })
                ) || terminated.is_replaying();
                if diverged {
                    out.ended.push(PathEnd::Diverged);
                } else if subtree {
                    out.retire_on_slot(*terminated, executor.solver(), generate_test_cases);
                } else {
                    out.ended.push(PathEnd::Terminated(terminated));
                }
                if subtree {
                    slot = out.stack.pop().map(Candidate::into_state).or_else(|| {
                        let next = lease()?;
                        leased = next.id;
                        Some(next)
                    });
                }
            }
        }
    }
    match slot {
        Some(state) if state.id == leased => out.leased = Some(state),
        Some(sibling) => out.stack.push(Candidate::Live(sibling)),
        None => {}
    }
    out.ids_next = ids.next_unused();
    out
}

/// The dispatch loop: lease up to `lanes.len() + 1` disjoint states, run a
/// slice under each (slot 0 inline, the rest on the lanes), then merge all
/// outcomes in slot order. With no lanes this is exactly the classic
/// sequential quantum loop.
fn dispatch_quantum(parts: &mut EngineParts<'_>, max_instructions: u64, lanes: &[Lane]) -> u64 {
    let width = lanes.len() + 1;
    let subtree = width > 1;
    let mut executed = 0u64;
    while executed < max_instructions {
        // Lease phase: fill the round with disjoint states. Virtual jobs
        // are materialized (single-threadedly, counting replay work toward
        // the quantum) once the scheduler runs dry; their replay is not
        // scheduling time.
        parts.frontier_sum += parts.scheduler.len() as u64;
        parts.rounds += 1;
        let mut batch: Vec<Box<ExecutionState>> = Vec::with_capacity(width);
        let mut started = Instant::now();
        while batch.len() < width {
            if let Some(id) = parts.scheduler.lease() {
                if let Some(candidate) = parts.states.remove(&id) {
                    batch.push(candidate.into_state());
                }
                continue;
            }
            // Materialization executes replay instructions, so it only
            // starts while quantum budget remains (as the classic loop
            // gated it); already-leased states still get their slice.
            if executed >= max_instructions {
                break;
            }
            let Some(job) = parts.virtual_jobs.pop_front() else {
                break;
            };
            parts.schedule += started.elapsed();
            let materialized = materialize(parts, job, &mut executed, max_instructions);
            started = Instant::now();
            if let Some(state) = materialized {
                parts.scheduler.add(StateMeta::of(&state));
                parts.scheduler.lease_specific(state.id);
                batch.push(state);
            }
        }
        parts.schedule += started.elapsed();
        if batch.is_empty() {
            break;
        }

        // Step phase: one slice per leased state, each on its own id lane.
        let slice = SLICE_INSTRUCTIONS.min(max_instructions.saturating_sub(executed));
        let stride = batch.len() as u64;
        let base = parts.ids.next_unused();
        let lanes_used = batch.len() - 1;
        let task = |state, slot: usize| SliceTask {
            state,
            ids: StateIdGen::strided(base + slot as u64, stride),
            budget: slice,
            subtree,
            generate_test_cases: parts.generate_test_cases,
        };
        let mut drain = batch.into_iter();
        let first = drain.next().expect("batch not empty");
        for (k, state) in drain.enumerate() {
            assert!(
                lanes[k].tx.send(task(state, k + 1)).is_ok(),
                "lane thread alive"
            );
        }
        let mut outcomes = Vec::with_capacity(lanes_used + 1);
        let first = task(first, 0);
        let executor = parts.executor;
        outcomes.push(run_slice(executor, first, || {
            let started = Instant::now();
            let state = parts
                .scheduler
                .lease()
                .and_then(|id| parts.states.remove(&id))
                .map(Candidate::into_state);
            parts.schedule += started.elapsed();
            state
        }));
        for lane in lanes.iter().take(lanes_used) {
            outcomes.push(lane.rx.recv().expect("lane thread alive"));
        }

        // Merge phase, in slot order. The first pass takes the counters and
        // the path ends, the second hands the surviving states back to the
        // scheduler. Neither reads what the other writes, so the scheduler
        // gets the add and release calls of a one-pass merge in the same
        // order, and the path ends keep theirs.
        let mut ids_high = parts.ids.next_unused();
        let mut started = Instant::now();
        let mut ended = false;
        for outcome in &mut outcomes {
            executed += outcome.executed;
            parts.stats.useful_instructions += outcome.useful;
            parts.stats.replay_instructions += outcome.replay;
            parts.forks += outcome.forks;
            parts.retire += outcome.retire;
            ids_high = ids_high.max(outcome.ids_next);
            for end in outcome.ended.drain(..) {
                ended = true;
                match end {
                    PathEnd::Terminated(state) => finish_path(parts, *state),
                    PathEnd::Retired(retired) => account(parts, retired),
                    PathEnd::Diverged => parts.stats.replay_divergences += 1,
                }
            }
        }
        if ended {
            let now = Instant::now();
            parts.retire += now - started;
            started = now;
        }
        for outcome in outcomes {
            for sibling in outcome.stack {
                parts.scheduler.add(sibling.meta());
                parts.states.insert(sibling.id(), sibling);
            }
            if let Some(active) = outcome.leased {
                parts.scheduler.release(StateMeta::of(&active));
                parts.states.insert(active.id, Candidate::Live(active));
            }
        }
        parts.ids.advance_to(ids_high);
        parts.schedule += started.elapsed();
    }
    executed
}

/// Materializes a virtual job through the replay engine, backed by the
/// prefix-anchor cache: the job replays only its suffix below the deepest
/// cached anchor (from the root on a cache miss), and prefixes shared with
/// other pending jobs are snapshotted along the way so the rest of the
/// batch skips the trunk this replay just executed. Only the instructions
/// actually executed count as replay (non-useful) work; the skipped trunk
/// is recorded in `replay_saved_instructions`. Returns the state when it
/// joins the frontier; a job that diverges or ends its path at its own
/// node leaves none.
fn materialize(
    parts: &mut EngineParts<'_>,
    job: Job,
    executed: &mut u64,
    max_instructions: u64,
) -> Option<Box<ExecutionState>> {
    let mut span = Span::enter(SpanKind::Materialize);
    span.detail(job.path.len() as u64);
    parts
        .metrics
        .histogram("replay_trunk_len")
        .record(job.path.len() as u64);
    parts.pending.remove(&job.path);
    // Anchor points along this path: every depth where a remaining
    // pending job shares the prefix (branches off, or ends exactly
    // there). One incremental descent of the pending trie, computed up
    // front so the per-decision hook below stays O(1).
    let mut shared_depths = Vec::new();
    let mut cursor = Some(&*parts.pending);
    for (i, choice) in job.path.iter().enumerate() {
        cursor = cursor.and_then(|n| n.child(choice));
        let Some(shared) = cursor else { break };
        if shared.branch_count() >= 2 || shared.is_terminal() {
            shared_depths.push(i + 1);
        }
    }
    let id = parts.ids.fresh();
    let engine = ReplayEngine::new(parts.executor);
    let mut state = match parts.anchors.lookup(&job.path) {
        Some(anchor) => {
            // The anchor's per-state replay counter is canonical (what a
            // from-root replay would have executed to reach it), so it is
            // exactly the work this materialization skips.
            parts.stats.anchor_hits += 1;
            parts.stats.replay_saved_instructions += anchor.stats.replay_instructions;
            let suffix = job.path[anchor.path.len()..].to_vec();
            engine.resume(anchor, id, suffix)
        }
        None => {
            parts.stats.anchor_misses += 1;
            engine.start(id, job.path)
        }
    };
    parts.stats.materializations += 1;
    // Replay to the end of the recorded path (allow a generous overrun of
    // the quantum so a materialization always completes once started).
    let hard_limit = max_instructions.saturating_mul(4).max(1_000_000);
    let budget = hard_limit.saturating_sub(*executed);
    let anchors = &mut *parts.anchors;
    let run = engine.run(&mut state, parts.ids, budget, |s| {
        // Snapshot an anchor at every shared prefix, plus a sparse ladder
        // of every 4th decision, which serves batches that arrive in
        // later quanta and branch off mid-trunk. (All on the dispatch
        // thread; `threads == 1` determinism is untouched.)
        let depth = s.depth();
        if depth % 4 == 0 || shared_depths.binary_search(&depth).is_ok() {
            anchors.insert(s);
        }
    });
    *executed += run.executed;
    parts.stats.replay_instructions += run.executed;
    match run.progress {
        ReplayProgress::Diverged => {
            // The recorded path no longer matches the program's branches: a
            // corrupted or stale job. Report it and drop the state — never
            // explore past the divergence, never count it as a completed
            // path (the exporting worker still owns that subtree's
            // accounting).
            parts.stats.replay_divergences += 1;
            None
        }
        ReplayProgress::Completed => {
            // The job designates a path that terminates exactly at its
            // node (a replayed bug or exit): account it like any other
            // completed path.
            let started = Instant::now();
            finish_path(parts, state);
            parts.retire += started.elapsed();
            None
        }
        ReplayProgress::Ready | ReplayProgress::OutOfBudget => {
            if !state.is_replaying() {
                // Anchor the job's own node before the state starts
                // mutating: batches shipped by later balancing rounds come
                // from the same frontier regions, so their paths routinely
                // run through nodes imported earlier — this is what makes
                // the cache pay across quanta, not just within one batch.
                parts.anchors.insert(&state);
            }
            // Ready, or out of budget mid-replay: either way the state
            // joins the frontier (a still-replaying state keeps following
            // its cursor in normal execution slices).
            Some(Box::new(state))
        }
    }
}

/// A completed path once its state is gone: what the merge accounts.
struct Retired {
    coverage: CoverageSet,
    is_bug: bool,
    test_case: Option<TestCase>,
}

/// The half of retiring a completed path that needs its state; runs on the
/// slot that finished it. Takes the coverage, classifies the path, solves
/// its test case (when enabled, or when the path exposes a bug) through
/// the shared solver, and drops the state.
fn retire(mut state: ExecutionState, solver: &Solver, generate_test_cases: bool) -> Retired {
    let is_bug = state
        .termination
        .as_ref()
        .map(|t| t.is_bug())
        .unwrap_or(false);
    let test_case = if generate_test_cases || is_bug {
        TestCase::from_state(&state, solver)
    } else {
        None
    };
    let coverage = std::mem::take(&mut state.coverage);
    drop(state);
    Retired {
        coverage,
        is_bug,
        test_case,
    }
}

/// The other half, on the dispatch thread in slot order: statistics,
/// coverage, and the test case.
fn account(parts: &mut EngineParts<'_>, retired: Retired) {
    parts.stats.paths_completed += 1;
    parts.coverage.merge(&retired.coverage);
    if retired.is_bug {
        parts.stats.bugs_found += 1;
    }
    if let Some(tc) = retired.test_case {
        match (retired.is_bug, parts.generate_test_cases) {
            (true, true) => {
                parts.bugs.push(tc.clone());
                parts.test_cases.push(tc);
            }
            (true, false) => parts.bugs.push(tc),
            (false, _) => parts.test_cases.push(tc),
        }
    }
}

/// Retires a completed path on the dispatch thread: both halves at once.
/// The caller times it.
fn finish_path(parts: &mut EngineParts<'_>, state: ExecutionState) {
    let retired = retire(state, parts.solver, parts.generate_test_cases);
    account(parts, retired);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_seeds_are_deterministic_and_distinct() {
        let a = derive_seed(1, WorkerId(0), 1);
        let b = derive_seed(1, WorkerId(0), 1);
        assert_eq!(a, b);
        assert_ne!(a, derive_seed(1, WorkerId(1), 1), "workers must differ");
        assert_ne!(a, derive_seed(1, WorkerId(0), 2), "epochs must differ");
        assert_ne!(a, derive_seed(2, WorkerId(0), 1), "base seeds must differ");
    }
}
