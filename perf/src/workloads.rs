//! The five workloads, and how one repetition of each is set up, run and
//! counted.

use crate::procfs::cpu_seconds;
use crate::trace::Tracer;
use c9_core::{Cluster, ClusterConfig, TcpTransport, Worker, WorkerConfig, WorkerId, WorkerStats};
use c9_ir::Program;
use c9_posix::PosixEnvironment;
use c9_targets::memcached::MemcachedConfig;
use c9_targets::{curl, lighttpd, memcached, LighttpdVersion};
use c9_vm::Environment;
use std::sync::Arc;
use std::time::Instant;

/// The program under test.
#[derive(Clone, Copy, Debug)]
pub enum Target {
    /// `curl::program(url_len)`: URL globbing over a symbolic URL.
    Curl { url_len: u32 },
    /// `lighttpd::program(V1_4_12)`: fragmented request parsing.
    Lighttpd,
    /// memcached binary protocol, `packets` symbolic packets of 5 bytes.
    Memcached { packets: u32 },
}

/// What explores the program.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// One worker driven quantum by quantum from the benchmark's thread.
    Solo { threads: usize },
    /// A `Cluster` of two single-thread workers over loopback TCP.
    Cluster2,
}

/// The path and test-case counts every repetition must reproduce.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Reference {
    pub paths: u64,
    pub tests: u64,
}

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists (one line; mirrored in `BENCHMARK.json`).
    pub why: &'static str,
    pub target: Target,
    pub shape: Shape,
    /// Whether a concrete test case is solved for every completed path.
    pub tests: bool,
    /// Instructions per `run_quantum` call (solo shapes).
    pub quantum: u64,
    /// Stop after exactly this many instructions; `None` runs until the
    /// execution tree is exhausted.
    pub budget: Option<u64>,
    /// Whether this is the `--smoke` size of the workload.
    pub toy: bool,
    /// Counts pinned for seed 1. Exhaustive counts hold for every seed; a
    /// budgeted run explores a seed-dependent part of the tree, so for
    /// other seeds its repetitions are checked against each other.
    pub reference: Option<Reference>,
}

/// The benchmark's workloads at their measured sizes. The references were
/// measured on the commit that added the benchmark.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "curl-8.solo",
        why: "solver-search-bound exploration on one thread: a quarter of queries miss the cache and the solver is about half of wall; no transfer, replay or wire work",
        target: Target::Curl { url_len: 8 },
        shape: Shape::Solo { threads: 1 },
        tests: false,
        quantum: 100_000,
        budget: None,
        toy: false,
        reference: Some(Reference { paths: 35_153, tests: 0 }),
    },
    Workload {
        name: "lighttpd.budget",
        why: "the opposite corner: 98 % cache hits, solver under 1 % of wall; time and memory go to interpretation, state forking, the searcher and the POSIX model over a 57k-state frontier",
        target: Target::Lighttpd,
        shape: Shape::Solo { threads: 1 },
        tests: false,
        quantum: 10_000,
        budget: Some(350_000),
        toy: false,
        reference: Some(Reference { paths: 8_563, tests: 0 }),
    },
    Workload {
        name: "memcached-4x5.tests.solo",
        why: "the solver used for model generation beside feasibility (a test case per path, solver about 80 % of wall); also the one-worker baseline of the cluster workload",
        target: Target::Memcached { packets: 4 },
        shape: Shape::Solo { threads: 1 },
        tests: true,
        quantum: 100_000,
        budget: None,
        toy: false,
        reference: Some(Reference { paths: 11_644, tests: 11_644 }),
    },
    Workload {
        name: "memcached-4x5.tests.cluster2",
        why: "the paper's Fig. 7 and Fig. 9 leg at the size this box hosts: the only workload with balancing, job export and import, replay, cache gossip and TCP framing on the path",
        target: Target::Memcached { packets: 4 },
        shape: Shape::Cluster2,
        tests: true,
        quantum: 100_000,
        budget: None,
        toy: false,
        reference: Some(Reference { paths: 11_644, tests: 11_644 }),
    },
    Workload {
        name: "curl-8.threads2",
        why: "the work of curl-8.solo through the shared solver, sharded query cache and state queue under two executor threads: contention instead of messages",
        target: Target::Curl { url_len: 8 },
        shape: Shape::Solo { threads: 2 },
        tests: false,
        quantum: 100_000,
        budget: None,
        toy: false,
        reference: Some(Reference { paths: 35_153, tests: 0 }),
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The same wiring at a size that finishes in about a second, for
    /// `--smoke`; nothing is pinned at this size.
    pub fn toy(&self) -> Workload {
        Workload {
            target: match self.target {
                Target::Curl { .. } => Target::Curl { url_len: 6 },
                Target::Lighttpd => Target::Lighttpd,
                Target::Memcached { .. } => Target::Memcached { packets: 2 },
            },
            budget: self.budget.map(|_| 20_000),
            toy: true,
            reference: None,
            ..*self
        }
    }

    /// A solo, single-thread copy: what the per-layer probes run, so that
    /// their numbers compare across workloads of different shapes.
    pub fn solo(&self) -> Workload {
        Workload {
            shape: Shape::Solo { threads: 1 },
            ..*self
        }
    }

    pub fn program(&self) -> Arc<Program> {
        Arc::new(match self.target {
            Target::Curl { url_len } => curl::program(url_len),
            Target::Lighttpd => lighttpd::program(LighttpdVersion::V1_4_12),
            Target::Memcached { packets } => memcached::program(&MemcachedConfig {
                packets,
                packet_size: 5,
                ..MemcachedConfig::default()
            }),
        })
    }

    /// Every field that matters is set here: `WorkerConfig::default()`
    /// would read `C9_THREADS` from the environment.
    fn worker_config(&self, seed: u64, threads: usize) -> WorkerConfig {
        WorkerConfig {
            seed,
            threads,
            generate_test_cases: self.tests,
            ..WorkerConfig::default()
        }
    }

    /// Set-up of a solo shape: program, environment model, worker, root job.
    pub fn solo_worker(&self, id: u32, seed: u64, threads: usize, seed_root: bool) -> Worker {
        let env: Arc<dyn Environment> = Arc::new(PosixEnvironment::new());
        let config = self.worker_config(seed, threads);
        let mut worker = Worker::new(WorkerId(id), self.program(), env, config);
        if seed_root {
            worker.seed_root();
        }
        worker
    }

    fn cluster(&self, seed: u64) -> Cluster {
        let env: Arc<dyn Environment> = Arc::new(PosixEnvironment::new());
        let config = ClusterConfig {
            num_workers: 2,
            worker: self.worker_config(seed, 1),
            ..ClusterConfig::default()
        };
        Cluster::new(self.program(), env, config)
    }

    /// Everything a repetition does before its timed interval, thrown away:
    /// what a `setup_s` sample times.
    pub fn set_up(&self, seed: u64) {
        match self.shape {
            Shape::Solo { threads } => drop(self.solo_worker(0, seed, threads, true)),
            Shape::Cluster2 => drop(self.cluster(seed)),
        }
    }

    /// One repetition: set up, then the timed interval, from the first
    /// `run_quantum` (or the `Cluster::run_with_transport` call) until the
    /// tree is exhausted or the instruction budget is used up.
    pub fn run(&self, seed: u64, tracer: &mut Tracer) -> Rep {
        let rep_span = tracer.enter("rep");
        let setup_span = tracer.enter("setup");
        let rep = match self.shape {
            Shape::Solo { threads } => {
                let mut worker = self.solo_worker(0, seed, threads, true);
                tracer.exit(setup_span);
                let clock = Clock::start();
                self.drive(&mut worker, self.budget, tracer);
                let (wall_s, cpu_s) = clock.stop();
                Rep {
                    wall_s,
                    cpu_s,
                    tests: worker.test_cases.len() as u64,
                    work_left: self.budget.is_none() && worker.has_work(),
                    queue_len_end: worker.queue_length(),
                    workers: vec![worker.report_stats()],
                }
            }
            Shape::Cluster2 => {
                let cluster = self.cluster(seed);
                tracer.exit(setup_span);
                let clock = Clock::start();
                let span = tracer.enter("core.cluster_run");
                let result = cluster.run_with_transport(TcpTransport::loopback());
                tracer.exit(span);
                let (wall_s, cpu_s) = clock.stop();
                Rep {
                    wall_s,
                    cpu_s,
                    tests: result.test_cases.len() as u64,
                    work_left: !result.summary.exhausted,
                    queue_len_end: 0,
                    workers: result.summary.worker_stats,
                }
            }
        };
        tracer.exit(rep_span);
        rep
    }

    /// Runs `worker` in quanta until it has no work or has executed
    /// `budget` instructions; returns the instructions executed.
    pub fn drive(&self, worker: &mut Worker, budget: Option<u64>, tracer: &mut Tracer) -> u64 {
        let mut executed = 0;
        while worker.has_work() {
            let quantum = match budget {
                Some(budget) if executed >= budget => break,
                Some(budget) => self.quantum.min(budget - executed),
                None => self.quantum,
            };
            let span = tracer.enter("core.run_quantum");
            executed += worker.run_quantum(quantum);
            tracer.exit(span);
        }
        executed
    }
}

/// Wall and process-CPU time over one interval.
struct Clock {
    wall: Instant,
    cpu_s: f64,
}

impl Clock {
    fn start() -> Clock {
        Clock {
            cpu_s: cpu_seconds(),
            wall: Instant::now(),
        }
    }

    fn stop(self) -> (f64, f64) {
        let wall_s = self.wall.elapsed().as_secs_f64();
        (wall_s, cpu_seconds() - self.cpu_s)
    }
}

/// What one repetition measured and counted.
pub struct Rep {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub tests: u64,
    /// An exhaustive run that ended with jobs still queued.
    pub work_left: bool,
    pub queue_len_end: u64,
    /// The final statistics of every worker that took part.
    pub workers: Vec<WorkerStats>,
}

impl Rep {
    pub fn total(&self, field: impl Fn(&WorkerStats) -> u64) -> u64 {
        self.workers.iter().map(field).sum()
    }

    pub fn paths(&self) -> u64 {
        self.total(|w| w.paths_completed)
    }

    /// Sum in seconds, and number of observations, of a microsecond
    /// histogram every worker reports (`quantum_us`, `solver_query_us`).
    pub fn histogram(&self, name: &str) -> (f64, u64) {
        let reported = self
            .workers
            .iter()
            .filter_map(|w| w.metrics.histograms.get(name));
        let (micros, count) = reported.fold((0, 0), |(sum, n), h| (sum + h.sum, n + h.count));
        (micros as f64 / 1e6, count)
    }
}
