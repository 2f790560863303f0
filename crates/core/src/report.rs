//! Machine-readable run reports.
//!
//! [`run_report`] renders a finished run — totals (the
//! [`testcase_digest`] of its test cases among them), derived metrics,
//! per-worker statistics with their piggybacked histogram snapshots, and
//! the [`IntervalSample`] timeline — as one JSON document, so the paper's
//! time-series figures (Figs. 12–13) and useful-work breakdowns (§7.2) are
//! regenerable from a single `run_report.json` instead of scraped from
//! stderr.

use crate::cluster::ClusterRunResult;
use crate::stats::IntervalSample;
use c9_net::WorkerStats;
use c9_trace::json::Json;
use c9_trace::MetricsSnapshot;
use c9_vm::{testcase_digest, TestCase};
use std::io::Write as _;
use std::path::Path;

/// Report format version, bumped on layout changes. Version 5 adds
/// `totals.testcase_digest`, version 6 `solver.search_nodes`.
pub const RUN_REPORT_VERSION: u64 = 6;

/// The [`testcase_digest`] of `cases` as the run report and the
/// coordinator's summary print it: 16 hex digits (a JSON number would round
/// it to 53 bits).
pub fn digest_hex(cases: &[TestCase]) -> String {
    format!("{:016x}", testcase_digest(cases))
}

fn duration_secs(d: std::time::Duration) -> Json {
    Json::Num(d.as_secs_f64())
}

fn solver_json(s: &c9_solver::SolverStats) -> Json {
    Json::Obj(vec![
        ("queries".into(), Json::from_u64(s.queries)),
        (
            "query_cache_hits".into(),
            Json::from_u64(s.query_cache_hits),
        ),
        ("searches".into(), Json::from_u64(s.searches)),
        ("search_nodes".into(), Json::from_u64(s.search_nodes)),
        ("unknowns".into(), Json::from_u64(s.unknowns)),
        ("unsat".into(), Json::from_u64(s.unsat)),
        ("sat".into(), Json::from_u64(s.sat)),
        (
            "independence_slices".into(),
            Json::from_u64(s.independence_slices),
        ),
        ("cache_hit_rate".into(), Json::Num(s.cache_hit_rate())),
    ])
}

fn worker_json(index: usize, w: &WorkerStats) -> Json {
    Json::Obj(vec![
        ("index".into(), Json::from_u64(index as u64)),
        ("threads".into(), Json::from_u64(w.threads)),
        (
            "useful_instructions".into(),
            Json::from_u64(w.useful_instructions),
        ),
        (
            "replay_instructions".into(),
            Json::from_u64(w.replay_instructions),
        ),
        ("paths_completed".into(), Json::from_u64(w.paths_completed)),
        ("bugs_found".into(), Json::from_u64(w.bugs_found)),
        ("jobs_sent".into(), Json::from_u64(w.jobs_sent)),
        ("jobs_received".into(), Json::from_u64(w.jobs_received)),
        ("job_bytes_sent".into(), Json::from_u64(w.job_bytes_sent)),
        (
            "materializations".into(),
            Json::from_u64(w.materializations),
        ),
        (
            "replay_saved_instructions".into(),
            Json::from_u64(w.replay_saved_instructions),
        ),
        ("anchor_hits".into(), Json::from_u64(w.anchor_hits)),
        ("anchor_misses".into(), Json::from_u64(w.anchor_misses)),
        ("anchor_hit_rate".into(), Json::Num(w.anchor_hit_rate())),
        (
            "replay_divergences".into(),
            Json::from_u64(w.replay_divergences),
        ),
        ("solver".into(), solver_json(&w.solver)),
        ("metrics".into(), w.metrics.to_json()),
    ])
}

fn sample_json(s: &IntervalSample) -> Json {
    Json::Obj(vec![
        ("elapsed_secs".into(), duration_secs(s.elapsed)),
        (
            "states_transferred".into(),
            Json::from_u64(s.states_transferred),
        ),
        ("total_states".into(), Json::from_u64(s.total_states)),
        (
            "useful_instructions".into(),
            Json::from_u64(s.useful_instructions),
        ),
        ("coverage".into(), Json::Num(s.coverage)),
    ])
}

/// Builds the `run_report.json` document for a finished run.
///
/// Layout (stable under [`RUN_REPORT_VERSION`]):
/// `version`, `run` (a non-zero label the caller picks for the run),
/// `elapsed_secs`,
/// `num_workers`, `goal_reached`, `exhausted`,
/// `totals` (path/bug/instruction/transfer counters, and the
/// [`testcase_digest`] of the run's test cases, see [`digest_hex`]), `derived`
/// (print-only rates like `anchor_hit_rate`, now first-class), `solver`
/// (aggregated), `metrics` (all workers' registry snapshots merged —
/// cluster-wide histograms), `workers` (per-worker stats, each with its
/// own histogram snapshots), and `timeline` ([`IntervalSample`] series).
pub fn run_report(run: u64, result: &ClusterRunResult) -> Json {
    let summary = &result.summary;
    let mut merged = MetricsSnapshot::default();
    for w in &summary.worker_stats {
        merged.merge(&w.metrics);
    }
    let solver = summary.solver_stats();
    Json::Obj(vec![
        ("version".into(), Json::from_u64(RUN_REPORT_VERSION)),
        ("run".into(), Json::from_u64(run)),
        ("elapsed_secs".into(), duration_secs(summary.elapsed)),
        (
            "num_workers".into(),
            Json::from_u64(summary.num_workers as u64),
        ),
        ("goal_reached".into(), Json::Bool(summary.goal_reached)),
        ("exhausted".into(), Json::Bool(summary.exhausted)),
        (
            "totals".into(),
            Json::Obj(vec![
                (
                    "paths_completed".into(),
                    Json::from_u64(summary.paths_completed()),
                ),
                ("bugs_found".into(), Json::from_u64(summary.bugs_found)),
                (
                    "useful_instructions".into(),
                    Json::from_u64(summary.useful_instructions()),
                ),
                (
                    "replay_instructions".into(),
                    Json::from_u64(summary.replay_instructions()),
                ),
                (
                    "replay_saved_instructions".into(),
                    Json::from_u64(summary.replay_saved_instructions()),
                ),
                (
                    "replay_divergences".into(),
                    Json::from_u64(summary.replay_divergences()),
                ),
                (
                    "jobs_transferred".into(),
                    Json::from_u64(summary.jobs_transferred()),
                ),
                (
                    "jobs_reclaimed".into(),
                    Json::from_u64(summary.jobs_reclaimed),
                ),
                (
                    "workers_failed".into(),
                    Json::from_u64(summary.workers_failed),
                ),
                (
                    "workers_joined".into(),
                    Json::from_u64(summary.workers_joined),
                ),
                (
                    "testcase_digest".into(),
                    Json::Str(digest_hex(&result.test_cases)),
                ),
            ]),
        ),
        (
            "derived".into(),
            Json::Obj(vec![
                ("coverage_ratio".into(), Json::Num(summary.coverage_ratio())),
                (
                    "anchor_hit_rate".into(),
                    Json::Num(summary.anchor_hit_rate()),
                ),
                (
                    "useful_instructions_per_worker".into(),
                    Json::Num(summary.useful_instructions_per_worker()),
                ),
                (
                    "query_cache_hit_rate".into(),
                    Json::Num(solver.cache_hit_rate()),
                ),
            ]),
        ),
        ("solver".into(), solver_json(&solver)),
        ("metrics".into(), merged.to_json()),
        (
            "workers".into(),
            Json::Arr(
                summary
                    .worker_stats
                    .iter()
                    .enumerate()
                    .map(|(i, w)| worker_json(i, w))
                    .collect(),
            ),
        ),
        (
            "timeline".into(),
            Json::Arr(summary.timeline.iter().map(sample_json).collect()),
        ),
    ])
}

/// Writes [`run_report`] to `path` as one JSON document.
pub fn write_run_report(path: &Path, run: u64, result: &ClusterRunResult) -> std::io::Result<()> {
    let mut file = std::fs::File::create(path)?;
    file.write_all(run_report(run, result).render().as_bytes())?;
    file.write_all(b"\n")
}
