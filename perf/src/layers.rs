//! Per-layer metrics: what a traced repetition's spans and public counters
//! say about each crate, and the probes that time single operations of a
//! layer (state fork, job hand-off, solver re-resolution) from outside.

use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::{Rep, Shape, Workload};
use c9_core::JobTree;
use c9_posix::PosixEnvironment;
use c9_solver::{ConstraintSet, Solver};
use c9_vm::{Executor, ExecutorConfig, ReplayEngine, ReplayProgress, StateIdGen};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Every per-layer metric a traced run reports: name, unit, and which way is
/// better. `BENCHMARK.json` lists the same rows in the same order.
pub const LAYER_METRICS: [(&str, &str, &str); 29] = [
    ("core.quantum_s", "s", "lower"),
    ("core.quanta", "count", "lower"),
    ("solver.busy_s", "s", "lower"),
    ("solver.queries", "count", "lower"),
    ("solver.searches", "count", "lower"),
    ("solver.cache_hit_rate", "ratio", "higher"),
    ("solver.unknowns", "count", "lower"),
    ("solver.resolve_cold_us", "us", "lower"),
    ("solver.resolve_warm_us", "us", "lower"),
    ("solver.resolve_n", "count", "lower"),
    ("vm.interp_s", "s", "lower"),
    ("vm.instr_per_s", "1/s", "higher"),
    ("vm.queue_len_end", "count", "lower"),
    ("vm.fork_us", "us", "lower"),
    ("net.encode_us_per_job", "us", "lower"),
    ("net.decode_us_per_job", "us", "lower"),
    ("net.bytes_per_job", "B", "lower"),
    ("core.import_s", "s", "lower"),
    ("core.materialize_s", "s", "lower"),
    ("core.replay_ratio", "ratio", "lower"),
    ("core.anchor_hit_rate", "ratio", "higher"),
    ("cluster.busy_frac", "ratio", "higher"),
    ("cluster.jobs_transferred", "count", "lower"),
    ("cluster.job_bytes", "B", "lower"),
    ("cluster.replay_ratio", "ratio", "lower"),
    ("cluster.gossip_bytes", "B", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.solver_share", "ratio", "lower"),
    ("trace.overhead", "ratio", "lower"),
];

/// Named metric values, in the order they were measured.
pub type Metrics = Vec<(&'static str, f64)>;

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// The layer view of one traced repetition. `first_span` is the tracer's
/// span count when the repetition began.
///
/// `core.quantum_s` is the time inside `Worker::run_quantum`: the sum of the
/// benchmark's spans for a solo shape, and for the cluster — whose quanta
/// run on threads the benchmark does not own — the workers' own
/// quantum-duration histograms. `solver.busy_s` is summed over every thread
/// that queried a solver, so with more than one thread (or worker) it may
/// exceed the wall time, and `vm.interp_s` is only the remainder.
pub fn rep_metrics(w: &Workload, rep: &Rep, tracer: &Tracer, first_span: usize) -> Metrics {
    let (quantum_s, quanta) = match w.shape {
        Shape::Solo { .. } => {
            let (seconds, count) = tracer.total("core.run_quantum", first_span);
            (seconds, count as f64)
        }
        Shape::Cluster2 => {
            let (seconds, count) = rep.histogram("quantum_us");
            (seconds, count as f64)
        }
    };
    let (busy_s, _) = rep.histogram("solver_query_us");
    let interp_s = quantum_s - busy_s;
    let queries = rep.total(|s| s.solver.queries) as f64;
    let cache_hits = rep.total(|s| s.solver.query_cache_hits + s.solver.model_cache_hits) as f64;
    let useful = rep.total(|s| s.useful_instructions) as f64;
    let replay = rep.total(|s| s.replay_instructions) as f64;
    vec![
        ("core.quantum_s", quantum_s),
        ("core.quanta", quanta),
        ("solver.busy_s", busy_s),
        ("solver.queries", queries),
        ("solver.searches", rep.total(|s| s.solver.searches) as f64),
        ("solver.cache_hit_rate", ratio(cache_hits, queries)),
        ("solver.unknowns", rep.total(|s| s.solver.unknowns) as f64),
        ("vm.interp_s", interp_s),
        ("vm.instr_per_s", ratio(useful + replay, interp_s)),
        ("vm.queue_len_end", rep.queue_len_end as f64),
        (
            "cluster.busy_frac",
            ratio(quantum_s, rep.workers.len() as f64 * rep.wall_s),
        ),
        (
            "cluster.jobs_transferred",
            rep.total(|s| s.jobs_sent) as f64,
        ),
        ("cluster.job_bytes", rep.total(|s| s.job_bytes_sent) as f64),
        ("cluster.replay_ratio", ratio(replay, useful)),
        (
            "cluster.gossip_bytes",
            rep.total(|s| s.gossip_bytes_sent) as f64,
        ),
        ("trace.wall_s", rep.wall_s),
        ("trace.solver_share", ratio(busy_s, rep.wall_s)),
    ]
}

/// Jobs handed from the probe worker to a fresh one.
const HANDOFF_JOBS: usize = 512;
/// Instructions per quantum of the receiving worker: small, so that the
/// materialization loop stops close to the quantum that finishes the batch.
const HANDOFF_QUANTUM: u64 = 2_000;
/// Encode and decode are timed this many times; the median is reported.
const CODEC_ROUNDS: usize = 15;
/// `ExecutionState::fork` calls timed on the deepest frontier state.
const FORKS: usize = 1_000;

/// What the probes found wrong (they add to the run's failure tally).
#[derive(Default)]
pub struct ProbeFailures {
    pub divergences: u64,
    pub unknowns: u64,
}

/// Times single operations of each layer on a solo, single-thread worker
/// running the workload's program: the worker explores half of
/// `instructions` (a whole repetition's count), its frontier is snapshotted
/// (non-destructively) for the fork and hand-off probes, it then finishes
/// the repetition, and the query cache it ends with feeds the solver probe.
pub fn probe(
    w: &Workload,
    seed: u64,
    instructions: u64,
    tracer: &mut Tracer,
) -> (Metrics, ProbeFailures) {
    let solo = w.solo();
    let mut failures = ProbeFailures::default();
    let probe_span = tracer.enter("probe");
    let mut worker = solo.solo_worker(0, seed, 1, true);
    let half = instructions / 2;
    solo.drive(&mut worker, Some(half), tracer);
    let frontier = worker.frontier_snapshot();
    let mut metrics = Metrics::new();

    // vm: fork cost of the deepest live state, rebuilt through the public
    // replay engine.
    let fork_us = frontier
        .iter()
        .max_by_key(|job| job.path.len())
        .map(|deepest| {
            let executor = Executor::new(
                solo.program(),
                Arc::new(Solver::new()),
                Arc::new(PosixEnvironment::new()),
                ExecutorConfig::default(),
            );
            let engine = ReplayEngine::new(&executor);
            let mut ids = StateIdGen::new();
            let mut state = engine.start(ids.fresh(), deepest.path.clone());
            let run = engine.run(&mut state, &mut ids, u64::MAX, |_| {});
            if run.progress != ReplayProgress::Ready {
                failures.divergences += 1;
            }
            let span = tracer.enter("vm.fork");
            let started = Instant::now();
            let forks: Vec<_> = (0..FORKS)
                .map(|_| black_box(&state).fork(ids.fresh()))
                .collect();
            let micros = started.elapsed().as_secs_f64() * 1e6;
            tracer.exit(span);
            drop(black_box(forks));
            micros / FORKS as f64
        });
    metrics.push(("vm.fork_us", fork_us.unwrap_or(0.0)));

    // net + core: hand the first jobs of the frontier to a fresh worker.
    let jobs = &frontier[..frontier.len().min(HANDOFF_JOBS)];
    let per_job = |value: f64| ratio(value, jobs.len() as f64);
    let (mut encode_us, mut decode_us) = (Vec::new(), Vec::new());
    let mut encoded = Vec::new();
    let mut decoded = JobTree::new();
    for _ in 0..CODEC_ROUNDS {
        let span = tracer.enter("net.encode");
        let started = Instant::now();
        encoded = black_box(JobTree::from_jobs(black_box(jobs)).encode());
        encode_us.push(started.elapsed().as_secs_f64() * 1e6);
        tracer.exit(span);
        let span = tracer.enter("net.decode");
        let started = Instant::now();
        decoded = black_box(JobTree::decode(black_box(&encoded)).expect("own encoding decodes"));
        decode_us.push(started.elapsed().as_secs_f64() * 1e6);
        tracer.exit(span);
    }
    metrics.push(("net.encode_us_per_job", per_job(median(&encode_us))));
    metrics.push(("net.decode_us_per_job", per_job(median(&decode_us))));
    metrics.push(("net.bytes_per_job", per_job(encoded.len() as f64)));

    let mut receiver = solo.solo_worker(1, seed, 1, false);
    let span = tracer.enter("core.import");
    let started = Instant::now();
    receiver.import_job_tree(&decoded);
    metrics.push(("core.import_s", started.elapsed().as_secs_f64()));
    tracer.exit(span);

    // The receiver materializes a job only when it has no live state left,
    // so running until every job is materialized explores their subtrees
    // too; a budgeted workload's subtrees have no end, so the loop also
    // stops after a whole repetition's worth of instructions.
    let span = tracer.enter("core.materialize");
    let first_quantum = tracer.spans().len();
    let mut executed = 0;
    let mut received = receiver.report_stats();
    while receiver.has_work()
        && received.materializations < jobs.len() as u64
        && executed < instructions
    {
        let quantum = tracer.enter("core.run_quantum");
        executed += receiver.run_quantum(HANDOFF_QUANTUM);
        tracer.exit(quantum);
        received = receiver.report_stats();
    }
    tracer.exit(span);
    metrics.push((
        "core.materialize_s",
        tracer.total("core.run_quantum", first_quantum).0,
    ));
    metrics.push((
        "core.replay_ratio",
        ratio(
            received.replay_instructions as f64,
            received.useful_instructions as f64,
        ),
    ));
    metrics.push(("core.anchor_hit_rate", received.anchor_hit_rate()));
    failures.divergences += received.replay_divergences;
    failures.unknowns += received.solver.unknowns;
    drop(receiver);

    // solver: finish the repetition, then re-ask a fresh solver every query
    // the cache still holds — cold (a search per unique query), then again
    // warm (a cache probe per query).
    solo.drive(&mut worker, solo.budget.map(|budget| budget - half), tracer);
    let slice = worker.solver().export_slice(usize::MAX);
    drop(worker);
    let queries: Vec<_> = slice
        .entries
        .iter()
        .map(|entry| {
            let constraints: ConstraintSet = entry.constraints.iter().cloned().collect();
            (constraints, entry.query.clone())
        })
        .collect();
    let fresh = Solver::new();
    for name in ["solver.resolve_cold_us", "solver.resolve_warm_us"] {
        let span = tracer.enter(name);
        let started = Instant::now();
        for (constraints, query) in &queries {
            black_box(fresh.check_sat_with(constraints, query.clone()));
        }
        let micros = started.elapsed().as_secs_f64() * 1e6;
        tracer.exit(span);
        metrics.push((name, ratio(micros, queries.len() as f64)));
    }
    metrics.push(("solver.resolve_n", queries.len() as f64));
    failures.unknowns += fresh.stats().unknowns;
    tracer.exit(probe_span);
    (metrics, failures)
}

/// Orders `measured` as [`LAYER_METRICS`] lists them; a metric measured
/// several times (one value per traced repetition) is reported as its
/// median. Panics if a listed metric was never measured.
pub fn in_table_order(measured: &Metrics) -> Metrics {
    LAYER_METRICS
        .iter()
        .map(|&(name, _, _)| {
            let values: Vec<f64> = measured
                .iter()
                .filter(|(n, _)| *n == name)
                .map(|&(_, v)| v)
                .collect();
            assert!(
                !values.is_empty(),
                "per-layer metric {name} was not measured"
            );
            (name, median(&values))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_order_takes_the_median_of_repeated_metrics() {
        let mut measured: Metrics = LAYER_METRICS.iter().map(|&(n, _, _)| (n, 1.0)).collect();
        measured.push(("trace.wall_s", 5.0));
        measured.push(("trace.wall_s", 3.0));
        let ordered = in_table_order(&measured);
        assert_eq!(ordered.len(), LAYER_METRICS.len());
        assert!(ordered
            .iter()
            .zip(LAYER_METRICS)
            .all(|(m, row)| m.0 == row.0));
        let wall = ordered.iter().find(|m| m.0 == "trace.wall_s").unwrap();
        assert_eq!(wall.1, 3.0);
    }

    #[test]
    #[should_panic(expected = "was not measured")]
    fn a_missing_metric_is_a_bug() {
        in_table_order(&vec![("core.quantum_s", 1.0)]);
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
