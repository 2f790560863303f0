//! A Cloud9 worker: an independent symbolic execution engine plus the
//! execution-tree bookkeeping needed for dynamic work partitioning.
//!
//! # Intra-worker parallelism
//!
//! A worker steps `threads` states concurrently over one shared frontier
//! and one shared (thread-safe) solver. [`Worker::run_quantum`] is a
//! scoped-thread dispatch loop:
//!
//! * **lease** — up to `threads` disjoint states are taken from the
//!   [`Scheduler`] (materializing virtual jobs as needed) on the dispatch
//!   thread;
//! * **step** — each leased state runs a bounded slice of instructions on
//!   its own executor thread (slot 0 runs inline on the dispatch thread),
//!   recording forks and terminations as an ordered event log; states
//!   share nothing mutable except the solver, whose caches are
//!   lock-striped and whose answers are interleaving-independent;
//! * **merge** — the dispatch thread applies every slot's events in slot
//!   order: fork records into the worker tree, terminated paths into the
//!   statistics/coverage/test cases, surviving states back into the
//!   scheduler, and the per-thread state-id lanes back into the master
//!   generator.
//!
//! With `threads == 1` the loop degenerates to exactly the classic
//! sequential quantum (same selection sequence, same state ids, same
//! event order), which keeps all single-thread runs bit-compatible.

use crate::portfolio::derive_seed;
use crate::replay_cache::AnchorCache;
use crate::tree::{NodeId, WorkerTree};
use c9_ir::Program;
use c9_net::{ExportOrder, Job, JobTree, JobTreeVisitor, WorkerId, WorkerStats};
use c9_solver::{CacheSlice, Solver, SolverBackendKind, SolverConfig};
use c9_trace::{Registry, Span, SpanKind};
use c9_vm::{
    build_searcher, CoverageSet, Environment, ExecutionState, Executor, ExecutorConfig, PathChoice,
    ReplayCacheConfig, ReplayEngine, ReplayProgress, Scheduler, StateId, StateIdGen, StateMeta,
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
    /// Which materialized candidates to export first when asked to shed
    /// load. Shallowest by default: virtual (never-materialized) jobs go
    /// first, then the *shallowest* materialized candidates — the states
    /// whose replay (already paid here, re-paid by the receiver) costs the
    /// least.
    pub export_order: ExportOrder,
    /// Budget of the prefix-anchor replay cache backing job
    /// materialization (`--replay-cache`); a zero capacity disables it
    /// (naive per-job root replay).
    pub replay_cache: ReplayCacheConfig,
    /// Executor threads stepping states concurrently inside this worker
    /// (defaults to `C9_THREADS` or 1; 1 is the classic sequential loop).
    pub threads: usize,
    /// Solver query-cache capacity override (`--solver-cache`); `None`
    /// keeps the solver's built-in default, 0 disables the cache.
    pub solver_cache: Option<usize>,
    /// Which solver backend strategy feasibility queries use (canonical
    /// backtracking, bit-blasting with canonical fallback, or a race).
    pub solver_backend: SolverBackendKind,
    /// Whether this worker participates in constraint-cache gossip
    /// (slices piggybacked on job batches, status reports, and the
    /// coordinator's rebroadcast hot set).
    pub cache_gossip: bool,
}

impl Default for WorkerConfig {
    fn default() -> WorkerConfig {
        WorkerConfig {
            executor: ExecutorConfig::default(),
            seed: 1,
            strategy: StrategyKind::KleeDefault,
            generate_test_cases: false,
            export_order: ExportOrder::Shallowest,
            replay_cache: ReplayCacheConfig::default(),
            threads: default_threads(),
            solver_cache: None,
            solver_backend: SolverBackendKind::Canonical,
            cache_gossip: true,
        }
    }
}

/// An imported job that has not been materialized yet, together with the
/// worker-tree node tracking it.
#[derive(Clone, Debug)]
struct VirtualJob {
    job: Job,
    node: NodeId,
}

/// A worker node: explores a disjoint portion of the execution tree and
/// exchanges jobs with its peers under load-balancer coordination.
pub struct Worker {
    /// Identifier of this worker within the cluster.
    pub id: WorkerId,
    executor: Executor,
    solver: Arc<Solver>,
    config: WorkerConfig,
    /// The exploration strategy currently driving the scheduler (starts as
    /// `config.strategy`, changed by portfolio reassignments).
    strategy: StrategyKind,
    states: BTreeMap<StateId, ExecutionState>,
    virtual_jobs: VecDeque<VirtualJob>,
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
    /// The worker-local execution tree (candidate/fence/dead bookkeeping).
    pub tree: WorkerTree,
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
    /// The solver cache generation at the last status-gossip export; an
    /// unchanged generation suppresses the next export (nothing new to
    /// say), which is what keeps steady-state gossip traffic at zero.
    gossip_exported_gen: u64,
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
        let mut solver_config = SolverConfig::default();
        if let Some(capacity) = config.solver_cache {
            solver_config.query_cache_capacity = capacity;
            solver_config.enable_query_cache = capacity > 0;
        }
        solver_config.backend = config.solver_backend;
        let solver = Arc::new(Solver::with_config(solver_config));
        let lines = program.loc();
        let executor = Executor::new(program, solver.clone(), env, config.executor);
        let seed = derive_seed(config.seed, id, 0);
        let scheduler = Scheduler::new(build_searcher(config.strategy, seed));
        Worker {
            id,
            executor,
            solver,
            strategy: config.strategy,
            config,
            states: BTreeMap::new(),
            virtual_jobs: VecDeque::new(),
            pending: JobTree::new(),
            anchors: AnchorCache::new(config.replay_cache),
            scheduler,
            ids: StateIdGen::new(),
            tree: WorkerTree::new(),
            stats: WorkerStats {
                threads: config.threads.max(1) as u64,
                ..WorkerStats::default()
            },
            coverage: CoverageSet::new(lines),
            test_cases: Vec::new(),
            bugs: Vec::new(),
            metrics: Registry::new(),
            gossip_exported_gen: 0,
        }
    }

    /// The exploration strategy currently in effect.
    pub fn strategy(&self) -> StrategyKind {
        self.strategy
    }

    /// Number of executor threads this worker steps states with.
    pub fn threads(&self) -> usize {
        self.config.threads.max(1)
    }

    /// Switches the exploration strategy in place (a portfolio
    /// reassignment): builds the replacement searcher with `seed` and
    /// re-registers every active state, so exploration continues without
    /// losing or duplicating frontier entries.
    pub fn set_strategy(&mut self, strategy: StrategyKind, seed: u64) {
        if strategy == self.strategy {
            return;
        }
        self.scheduler
            .replace_searcher(build_searcher(strategy, seed));
        for state in self.states.values() {
            self.scheduler.add(StateMeta::of(state));
        }
        self.strategy = strategy;
        self.stats.strategy_switches += 1;
    }

    /// Seeds this worker with the root job (the entire execution tree); done
    /// for the first worker that joins the cluster.
    pub fn seed_root(&mut self) {
        let id = self.ids.fresh();
        let state = self.executor.initial_state(id);
        self.tree.set_root(id);
        self.scheduler.add(StateMeta::of(&state));
        self.states.insert(id, state);
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

    /// Adds one virtual job to the frontier: a worker-tree node, an entry
    /// in the pending-prefix trie, and a queue slot.
    fn enqueue_virtual(&mut self, job: Job) {
        let node = self.tree.record_import();
        self.pending.insert(&job.path);
        self.virtual_jobs.push_back(VirtualJob { job, node });
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
                let node = self.worker.tree.record_import();
                self.worker.virtual_jobs.push_back(VirtualJob { job, node });
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
    /// shallowest first by default, because their (already paid, now
    /// re-paid by the receiver) replay cost grows with depth; their local
    /// nodes become fence nodes.
    pub fn export_jobs(&mut self, count: u64) -> Vec<Job> {
        let mut out = Vec::new();
        while (out.len() as u64) < count {
            let Some(vjob) = self.virtual_jobs.pop_back() else {
                break;
            };
            self.pending.remove(&vjob.job.path);
            self.tree.record_virtual_export(vjob.node);
            out.push(vjob.job);
        }
        if (out.len() as u64) < count {
            // Candidate selection: shallowest (or deepest) states first.
            let mut ids: Vec<(usize, StateId)> =
                self.states.values().map(|s| (s.depth(), s.id)).collect();
            ids.sort();
            if self.config.export_order == ExportOrder::Deepest {
                ids.reverse();
            }
            // Never give away the very last piece of local work: the sender
            // keeps at least one candidate so both sides stay busy.
            let exportable = ids.len().saturating_sub(1);
            for (_, id) in ids.into_iter().take(exportable) {
                if (out.len() as u64) >= count {
                    break;
                }
                if let Some(state) = self.states.remove(&id) {
                    self.scheduler.remove(id);
                    self.tree.record_export(id);
                    out.push(Job::new(state.path));
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
        let mut jobs: Vec<Job> = self.virtual_jobs.iter().map(|v| v.job.clone()).collect();
        jobs.extend(self.states.values().map(|s| Job::new(s.path.clone())));
        jobs
    }

    /// The prefix-anchor replay cache (exposed for benchmarks and tests).
    pub fn anchor_cache(&self) -> &AnchorCache {
        &self.anchors
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

    /// Exports this worker's hottest constraint-cache entries as a gossip
    /// slice. `None` when gossip is disabled for the run or the cache has
    /// nothing worth shipping; the encoded size of an exported slice is
    /// charged to `gossip_bytes_sent`.
    pub fn export_cache_slice(&mut self, max: usize) -> Option<CacheSlice> {
        if !self.config.cache_gossip {
            return None;
        }
        let slice = self.solver.export_slice(max);
        if slice.is_empty() {
            return None;
        }
        self.stats.gossip_bytes_sent += serde::to_bytes(&slice).len() as u64;
        Some(slice)
    }

    /// [`Worker::export_cache_slice`] for the status-report gossip path:
    /// exports only when local solving has inserted new cache entries
    /// since the last gossip export. Transfer piggybacks bypass this gate
    /// (the receiver of a job batch is about to replay exactly these
    /// constraints); gossip is background traffic and must go quiet when
    /// there is nothing new to share.
    pub fn export_gossip_slice(&mut self, max: usize) -> Option<CacheSlice> {
        if !self.config.cache_gossip {
            return None;
        }
        let generation = self.solver.cache_generation();
        if generation == self.gossip_exported_gen {
            return None;
        }
        let slice = self.export_cache_slice(max)?;
        self.gossip_exported_gen = generation;
        Some(slice)
    }

    /// Merges a gossiped constraint-cache slice into the shared solver.
    /// Imports never evict resident entries (see
    /// `ShardedQueryCache::merge_slice`), so a slice warms the cache
    /// without disturbing what this worker already learned.
    pub fn import_cache_slice(&mut self, slice: &CacheSlice) {
        if !self.config.cache_gossip || slice.is_empty() {
            return;
        }
        self.stats.gossip_bytes_received += serde::to_bytes(slice).len() as u64;
        self.solver.import_slice(slice);
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
            tree: &mut self.tree,
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
    states: &'a mut BTreeMap<StateId, ExecutionState>,
    virtual_jobs: &'a mut VecDeque<VirtualJob>,
    pending: &'a mut JobTree,
    anchors: &'a mut AnchorCache,
    scheduler: &'a mut Scheduler,
    ids: &'a mut StateIdGen,
    tree: &'a mut WorkerTree,
    stats: &'a mut WorkerStats,
    coverage: &'a mut CoverageSet,
    test_cases: &'a mut Vec<TestCase>,
    bugs: &'a mut Vec<TestCase>,
    /// Time spent inside the scheduler during this quantum.
    schedule: Duration,
    /// Sum over the quantum's rounds of the scheduler's length at the start
    /// of the round, and the number of rounds.
    frontier_sum: u64,
    rounds: u64,
    /// Sibling states created by forks during this quantum.
    forks: u64,
    /// Time spent in `finish_path`, the drop of the finished state included.
    retire: Duration,
}

impl EngineParts<'_> {
    /// Makes one scheduler call, charging its time to `schedule`.
    fn scheduled<R>(&mut self, call: impl FnOnce(&mut Scheduler) -> R) -> R {
        let started = Instant::now();
        let result = call(self.scheduler);
        self.schedule += started.elapsed();
        result
    }
}

/// One leased state shipped to an executor thread for one slice.
struct SliceTask {
    state: ExecutionState,
    ids: StateIdGen,
    budget: u64,
}

/// What happened during one slice, in event order.
enum SliceEvent {
    /// The stepped state forked (and continues under its own id);
    /// `siblings` are the new states.
    Fork {
        parent: StateId,
        siblings: Vec<ExecutionState>,
    },
    /// A state terminated (the stepped state, or a sibling born dead).
    /// Boxed: terminated states are rare relative to plain steps, and an
    /// `ExecutionState` is large compared to a fork record.
    Finished(Box<ExecutionState>),
    /// A state whose materialization ran out of budget and continued
    /// replaying in normal slices hit a divergence: the recorded job path
    /// does not match the program. Counted and dropped — never a
    /// completed path (mirrors `ReplayProgress::Diverged`).
    Diverged(StateId),
}

/// The result of one slice on one executor thread.
struct SliceOutcome {
    /// The stepped state if it is still active at slice end.
    state: Option<ExecutionState>,
    events: Vec<SliceEvent>,
    executed: u64,
    useful: u64,
    replay: u64,
    /// Where this thread's id lane stopped allocating.
    ids_next: u64,
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
                if out_tx.send(run_slice(executor, task)).is_err() {
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

/// Steps one state for up to `budget` instructions, collecting fork and
/// termination events. Runs on an executor thread (or inline on the
/// dispatch thread for slot 0); touches nothing but the state, its id
/// lane, and the thread-safe solver behind the executor.
fn run_slice(executor: &Executor, task: SliceTask) -> SliceOutcome {
    let SliceTask {
        state,
        mut ids,
        budget,
    } = task;
    let parent = state.id;
    let mut events = Vec::new();
    let (mut executed, mut useful, mut replay) = (0u64, 0u64, 0u64);
    let mut slot = Some(state);
    while executed < budget {
        let s = slot.as_mut().expect("state present while stepping");
        let replaying = s.is_replaying();
        match executor.step(s, &mut ids) {
            StepResult::Continue => {
                executed += 1;
                if replaying {
                    replay += 1;
                } else {
                    useful += 1;
                }
            }
            StepResult::Forked(siblings) => {
                executed += 1;
                if replaying {
                    // A fork crossed while still replaying an imported job
                    // (the materialization ran out of budget): the
                    // siblings are terminated duplicates the exporting
                    // worker already accounted. Drop them, exactly as the
                    // replay engine does during materialization.
                    replay += 1;
                    drop(siblings);
                    continue;
                }
                useful += 1;
                events.push(SliceEvent::Fork { parent, siblings });
            }
            StepResult::Terminated(_) => {
                executed += 1;
                if replaying {
                    replay += 1;
                } else {
                    useful += 1;
                }
                let terminated = slot.take().expect("state present at termination");
                // Divergence (a mismatch the executor reported, or the
                // program ending with recorded decisions left over) must
                // be dropped and counted, never accounted as a completed
                // path — mirror `ReplayEngine::run`'s classification.
                let diverged = matches!(
                    terminated.termination,
                    Some(c9_vm::TerminationReason::ReplayDivergence { .. })
                ) || terminated.is_replaying();
                events.push(if diverged {
                    SliceEvent::Diverged(terminated.id)
                } else {
                    SliceEvent::Finished(Box::new(terminated))
                });
                break;
            }
        }
    }
    SliceOutcome {
        state: slot,
        events,
        executed,
        useful,
        replay,
        ids_next: ids.next_unused(),
    }
}

/// The dispatch loop: lease up to `lanes.len() + 1` disjoint states, step
/// each for a slice (slot 0 inline, the rest on the lanes), then merge all
/// outcomes in slot order. With no lanes this is exactly the classic
/// sequential quantum loop.
fn dispatch_quantum(parts: &mut EngineParts<'_>, max_instructions: u64, lanes: &[Lane]) -> u64 {
    let width = lanes.len() + 1;
    let mut executed = 0u64;
    while executed < max_instructions {
        // Lease phase: fill the round with disjoint states. Virtual jobs
        // are materialized (single-threadedly, counting replay work toward
        // the quantum) once the scheduler runs dry.
        parts.frontier_sum += parts.scheduler.len() as u64;
        parts.rounds += 1;
        let mut batch: Vec<ExecutionState> = Vec::with_capacity(width);
        while batch.len() < width {
            if let Some(id) = parts.scheduled(Scheduler::lease) {
                if let Some(state) = parts.states.remove(&id) {
                    batch.push(state);
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
            if let Some(id) = materialize(parts, job, &mut executed, max_instructions) {
                parts.scheduled(|s| s.lease_specific(id));
                if let Some(state) = parts.states.remove(&id) {
                    batch.push(state);
                }
            }
        }
        if batch.is_empty() {
            break;
        }

        // Step phase: one slice per state, each on its own id lane.
        let slice = SLICE_INSTRUCTIONS.min(max_instructions.saturating_sub(executed));
        let stride = batch.len() as u64;
        let base = parts.ids.next_unused();
        let lanes_used = batch.len() - 1;
        let mut drain = batch.into_iter();
        let first = drain.next().expect("batch not empty");
        for (k, state) in drain.enumerate() {
            let task = SliceTask {
                state,
                ids: StateIdGen::strided(base + 1 + k as u64, stride),
                budget: slice,
            };
            assert!(lanes[k].tx.send(task).is_ok(), "lane thread alive");
        }
        let mut outcomes = Vec::with_capacity(lanes_used + 1);
        outcomes.push(run_slice(
            parts.executor,
            SliceTask {
                state: first,
                ids: StateIdGen::strided(base, stride),
                budget: slice,
            },
        ));
        for lane in lanes.iter().take(lanes_used) {
            outcomes.push(lane.rx.recv().expect("lane thread alive"));
        }

        // Merge phase, in slot order: counters, tree records, forked
        // siblings, completed paths, surviving states, id lanes.
        let mut ids_high = parts.ids.next_unused();
        for outcome in outcomes {
            executed += outcome.executed;
            parts.stats.useful_instructions += outcome.useful;
            parts.stats.replay_instructions += outcome.replay;
            ids_high = ids_high.max(outcome.ids_next);
            for event in outcome.events {
                match event {
                    SliceEvent::Fork { parent, siblings } => {
                        parts
                            .tree
                            .record_fork(parent, siblings.iter().map(|sibling| sibling.id));
                        parts.forks += siblings.len() as u64;
                        for sibling in siblings {
                            if sibling.is_terminated() {
                                finish_path(parts, sibling);
                            } else {
                                let meta = StateMeta::of(&sibling);
                                parts.scheduled(|s| s.add(meta));
                                parts.states.insert(sibling.id, sibling);
                            }
                        }
                    }
                    SliceEvent::Finished(state) => finish_path(parts, *state),
                    SliceEvent::Diverged(id) => {
                        parts.stats.replay_divergences += 1;
                        // Kills the node without the completed-path
                        // accounting finish_path would apply.
                        parts.tree.record_termination(id);
                    }
                }
            }
            if let Some(active) = outcome.state {
                let meta = StateMeta::of(&active);
                parts.scheduled(|s| s.release(meta));
                parts.states.insert(active.id, active);
            }
        }
        parts.ids.advance_to(ids_high);
    }
    executed
}

/// Materializes a virtual job through the replay engine, backed by the
/// prefix-anchor cache: the job replays only its suffix below the deepest
/// cached anchor (from the root on a cache miss), and prefixes shared with
/// other pending jobs are snapshotted along the way so the rest of the
/// batch skips the trunk this replay just executed. Only the instructions
/// actually executed count as replay (non-useful) work; the skipped trunk
/// is recorded in `replay_saved_instructions`.
fn materialize(
    parts: &mut EngineParts<'_>,
    vjob: VirtualJob,
    executed: &mut u64,
    max_instructions: u64,
) -> Option<StateId> {
    let VirtualJob { job, node } = vjob;
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
            parts.tree.record_abandoned(node);
            None
        }
        ReplayProgress::Completed => {
            // The job designates a path that terminates exactly at its
            // node (a replayed bug or exit): account it like any other
            // completed path.
            parts.tree.record_materialization(node, id);
            finish_path(parts, state);
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
            parts.tree.record_materialization(node, id);
            let meta = StateMeta::of(&state);
            parts.scheduled(|s| s.add(meta));
            parts.states.insert(id, state);
            Some(id)
        }
    }
}

/// Accounts a completed path: statistics, coverage, tree bookkeeping, and
/// (when enabled, or when the path exposes a bug) a concrete test case.
fn finish_path(parts: &mut EngineParts<'_>, state: ExecutionState) {
    let started = Instant::now();
    parts.stats.paths_completed += 1;
    parts.coverage.merge(&state.coverage);
    parts.tree.record_termination(state.id);
    let is_bug = state
        .termination
        .as_ref()
        .map(|t| t.is_bug())
        .unwrap_or(false);
    if is_bug {
        parts.stats.bugs_found += 1;
    }
    if parts.generate_test_cases || is_bug {
        if let Some(tc) = TestCase::from_state(&state, parts.solver) {
            match (is_bug, parts.generate_test_cases) {
                (true, true) => {
                    parts.bugs.push(tc.clone());
                    parts.test_cases.push(tc);
                }
                (true, false) => parts.bugs.push(tc),
                (false, _) => parts.test_cases.push(tc),
            }
        }
    }
    drop(state);
    parts.retire += started.elapsed();
}
