//! Drift guards for `WorkerStats::merge` (and `SolverStats::merge`).
//!
//! The hazard: someone adds a counter to the struct but forgets to fold it
//! in `merge`, and cluster totals silently under-report from then on. Two
//! complementary guards catch that at CI time:
//!
//! 1. The derive-reflected field list (`serde::Reflect::FIELD_NAMES`) must
//!    equal the field list these tests were written against. Adding a field
//!    fails the assertion until the test — and therefore `merge` — is
//!    revisited.
//! 2. A value-level probe: a stats value with *every* field set to a
//!    distinct nonzero value, merged into a default, must encode to exactly
//!    the probe's bytes (all fields summed-from-zero except `threads`,
//!    which is a max). A field skipped by `merge` stays zero and flips the
//!    encoding.

use c9_net::WorkerStats;
use c9_solver::SolverStats;
use c9_trace::MetricsSnapshot;
use serde::Reflect;

/// Fields `WorkerStats::merge` folds. Update together with `merge` itself.
const WORKER_STATS_FIELDS: &[&str] = &[
    "threads",
    "solver",
    "useful_instructions",
    "replay_instructions",
    "paths_completed",
    "bugs_found",
    "jobs_sent",
    "jobs_received",
    "job_bytes_sent",
    "materializations",
    "replay_saved_instructions",
    "anchor_hits",
    "anchor_misses",
    "replay_divergences",
    "gossip_bytes_sent",
    "metrics",
];

/// Fields `SolverStats::merge` folds. Update together with `merge` itself.
const SOLVER_STATS_FIELDS: &[&str] = &[
    "queries",
    "query_cache_hits",
    "model_cache_hits",
    "searches",
    "search_nodes",
    "unknowns",
    "unsat",
    "sat",
    "independence_slices",
];

#[test]
fn worker_stats_field_list_matches_merge() {
    assert_eq!(
        <WorkerStats as Reflect>::FIELD_NAMES,
        WORKER_STATS_FIELDS,
        "WorkerStats gained or lost a field: update WorkerStats::merge \
         (crates/net/src/stats.rs) and then this list"
    );
}

#[test]
fn solver_stats_field_list_matches_merge() {
    assert_eq!(
        <SolverStats as Reflect>::FIELD_NAMES,
        SOLVER_STATS_FIELDS,
        "SolverStats gained or lost a field: update SolverStats::merge \
         (crates/solver/src/stats.rs) and then this list"
    );
}

fn solver_probe(scale: u64) -> SolverStats {
    // Exhaustive literal on purpose — no `..Default::default()` — so a new
    // field is a compile error here, forcing this test to be revisited.
    SolverStats {
        queries: 101 * scale,
        query_cache_hits: 102 * scale,
        model_cache_hits: 103 * scale,
        searches: 104 * scale,
        search_nodes: 109 * scale,
        unknowns: 105 * scale,
        unsat: 106 * scale,
        sat: 107 * scale,
        independence_slices: 108 * scale,
    }
}

fn worker_probe(scale: u64) -> WorkerStats {
    let mut metrics = MetricsSnapshot::default();
    metrics.counters.insert("probe".into(), 301 * scale);
    WorkerStats {
        threads: 4,
        solver: solver_probe(scale),
        useful_instructions: 201 * scale,
        replay_instructions: 202 * scale,
        paths_completed: 203 * scale,
        bugs_found: 204 * scale,
        jobs_sent: 205 * scale,
        jobs_received: 206 * scale,
        job_bytes_sent: 207 * scale,
        materializations: 208 * scale,
        replay_saved_instructions: 209 * scale,
        anchor_hits: 210 * scale,
        anchor_misses: 211 * scale,
        replay_divergences: 212 * scale,
        gossip_bytes_sent: 214 * scale,
        metrics,
    }
}

#[test]
fn worker_stats_merge_touches_every_field() {
    // default + probe must reproduce the probe bit-for-bit: any field
    // `merge` forgets stays at its default and changes the encoding.
    let mut merged = WorkerStats::default();
    merged.merge(&worker_probe(1));
    assert_eq!(
        serde::to_bytes(&merged),
        serde::to_bytes(&worker_probe(1)),
        "WorkerStats::merge left some field at its default"
    );

    // probe(1) + probe(2) must sum every additive field (threads is a max).
    let mut summed = worker_probe(1);
    summed.merge(&worker_probe(2));
    let mut expected = worker_probe(3);
    expected.threads = 4;
    assert_eq!(
        serde::to_bytes(&summed),
        serde::to_bytes(&expected),
        "WorkerStats::merge does not sum every additive field"
    );
}

#[test]
fn solver_stats_merge_touches_every_field() {
    let mut merged = SolverStats::default();
    merged.merge(&solver_probe(1));
    assert_eq!(merged, solver_probe(1));

    let mut summed = solver_probe(1);
    summed.merge(&solver_probe(2));
    assert_eq!(summed, solver_probe(3));
}
