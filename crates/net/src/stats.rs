//! Per-worker statistics, reported over the wire to the load balancer.

use c9_solver::SolverStats;
use c9_trace::MetricsSnapshot;
use serde::{Deserialize, Serialize};

/// Statistics one worker reports to the load balancer and to the experiment
/// harness.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct WorkerStats {
    /// Number of executor threads the worker runs (`--threads`).
    pub threads: u64,
    /// Snapshot of the worker's shared-solver counters (queries, cache
    /// hits, independence slices); all executor threads feed one solver,
    /// so this is a per-worker total, not a per-thread one.
    pub solver: SolverStats,
    /// Instructions executed exploring new work ("useful work" in §7.2).
    pub useful_instructions: u64,
    /// Instructions spent replaying transferred job paths.
    pub replay_instructions: u64,
    /// Paths completed (terminated states).
    pub paths_completed: u64,
    /// Bugs found.
    pub bugs_found: u64,
    /// Candidate states (jobs) sent to other workers.
    pub jobs_sent: u64,
    /// Jobs received from other workers.
    pub jobs_received: u64,
    /// Bytes of encoded job trees sent.
    pub job_bytes_sent: u64,
    /// Number of materializations (virtual → materialized replays).
    pub materializations: u64,
    /// Replay instructions *not* executed because the materialization
    /// resumed from a cached prefix anchor instead of replaying the whole
    /// trunk from the root (the saving of the prefix-anchor cache).
    pub replay_saved_instructions: u64,
    /// Materializations that resumed from a cached prefix anchor. The
    /// anchor cache is always on, so this and `anchor_misses` no longer
    /// compare two configurations; they are kept because `perf_suite` reads
    /// them as `core.anchor_hit_rate`.
    pub anchor_hits: u64,
    /// Materializations that replayed from the root (no anchor covered any
    /// prefix of the job path).
    pub anchor_misses: u64,
    /// Replays that diverged (the recorded job path no longer matches the
    /// program's branches — a corrupted or stale job). The state is
    /// discarded, never explored; should stay zero thanks to the
    /// deterministic engine.
    pub replay_divergences: u64,
    /// Kept for perf_suite, always 0: workers share no solver cache, only
    /// jobs, so no worker sends cache bytes. `perf_suite` still reads it
    /// as `cluster.gossip_bytes`.
    pub gossip_bytes_sent: u64,
    /// Registry snapshot piggybacked on the report: counters, gauges, and
    /// histograms (solver-query latency, quantum duration, job-batch size,
    /// replay-trunk length, transfer bytes). New metrics ride this map, so
    /// adding one never needs wire-struct surgery again.
    pub metrics: MetricsSnapshot,
}

impl WorkerStats {
    /// Merges another snapshot into this one.
    pub fn merge(&mut self, other: &WorkerStats) {
        // Thread count is a configuration datum, not a counter: merging
        // reports of one worker keeps its (identical) value, merging
        // across workers keeps the largest.
        self.threads = self.threads.max(other.threads);
        self.solver.merge(&other.solver);
        self.useful_instructions += other.useful_instructions;
        self.replay_instructions += other.replay_instructions;
        self.paths_completed += other.paths_completed;
        self.bugs_found += other.bugs_found;
        self.jobs_sent += other.jobs_sent;
        self.jobs_received += other.jobs_received;
        self.job_bytes_sent += other.job_bytes_sent;
        self.materializations += other.materializations;
        self.replay_saved_instructions += other.replay_saved_instructions;
        self.anchor_hits += other.anchor_hits;
        self.anchor_misses += other.anchor_misses;
        self.replay_divergences += other.replay_divergences;
        self.gossip_bytes_sent += other.gossip_bytes_sent;
        self.metrics.merge(&other.metrics);
    }

    /// Total instructions (useful + replay).
    pub fn total_instructions(&self) -> u64 {
        self.useful_instructions + self.replay_instructions
    }

    /// Fraction of materializations that resumed from a cached prefix
    /// anchor (zero when nothing was materialized).
    pub fn anchor_hit_rate(&self) -> f64 {
        let total = self.anchor_hits + self.anchor_misses;
        if total == 0 {
            0.0
        } else {
            self.anchor_hits as f64 / total as f64
        }
    }
}
