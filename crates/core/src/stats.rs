//! Worker- and cluster-level statistics.

use c9_net::WorkerStats;
use c9_vm::CoverageSet;
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// One periodic sample recorded by the load balancer, used to regenerate the
/// time-series figures (Fig. 12 and Fig. 13).
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct IntervalSample {
    /// Time since the start of the run, at the end of this interval.
    pub elapsed: Duration,
    /// Candidate states transferred between workers during this interval.
    pub states_transferred: u64,
    /// Total candidate states across all workers at the end of the interval.
    pub total_states: u64,
    /// Total useful instructions executed so far (cumulative).
    pub useful_instructions: u64,
    /// Global line coverage at the end of the interval, in `[0, 1]`.
    pub coverage: f64,
}

/// The aggregated outcome of a cluster run.
#[derive(Clone, Debug, Default)]
pub struct ClusterSummary {
    /// Number of workers that participated.
    pub num_workers: usize,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Whether the exploration goal was reached (exhaustion or coverage
    /// target) rather than the time limit expiring.
    pub goal_reached: bool,
    /// Whether every path was explored.
    pub exhausted: bool,
    /// Per-worker statistics.
    pub worker_stats: Vec<WorkerStats>,
    /// Global line coverage.
    pub coverage: CoverageSet,
    /// Periodic samples for time-series figures.
    pub timeline: Vec<IntervalSample>,
    /// Total number of distinct bugs found (by termination reason + path).
    pub bugs_found: u64,
    /// Workers declared dead by the failure detector during the run.
    pub workers_failed: u64,
    /// Workers that joined the running cluster (elastic membership).
    pub workers_joined: u64,
    /// Jobs reclaimed from dead workers (or a resumed checkpoint) and
    /// re-injected into the survivors.
    pub jobs_reclaimed: u64,
}

impl ClusterSummary {
    /// Total useful (non-replay) instructions across all workers.
    pub fn useful_instructions(&self) -> u64 {
        self.worker_stats
            .iter()
            .map(|w| w.useful_instructions)
            .sum()
    }

    /// Total replay instructions across all workers.
    pub fn replay_instructions(&self) -> u64 {
        self.worker_stats
            .iter()
            .map(|w| w.replay_instructions)
            .sum()
    }

    /// Total completed paths across all workers.
    pub fn paths_completed(&self) -> u64 {
        self.worker_stats.iter().map(|w| w.paths_completed).sum()
    }

    /// Total replay instructions skipped by resuming materializations from
    /// cached prefix anchors instead of the root.
    pub fn replay_saved_instructions(&self) -> u64 {
        self.worker_stats
            .iter()
            .map(|w| w.replay_saved_instructions)
            .sum()
    }

    /// Fraction of materializations (across all workers) that resumed from
    /// a cached prefix anchor.
    pub fn anchor_hit_rate(&self) -> f64 {
        let hits: u64 = self.worker_stats.iter().map(|w| w.anchor_hits).sum();
        let misses: u64 = self.worker_stats.iter().map(|w| w.anchor_misses).sum();
        if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        }
    }

    /// Total replay divergences (corrupted or stale jobs dropped during
    /// materialization) across all workers; zero on a healthy run.
    pub fn replay_divergences(&self) -> u64 {
        self.worker_stats.iter().map(|w| w.replay_divergences).sum()
    }

    /// Total jobs transferred between workers.
    pub fn jobs_transferred(&self) -> u64 {
        self.worker_stats.iter().map(|w| w.jobs_sent).sum()
    }

    /// Useful work per worker (the normalized metric of Fig. 9, bottom).
    pub fn useful_instructions_per_worker(&self) -> f64 {
        if self.num_workers == 0 {
            return 0.0;
        }
        self.useful_instructions() as f64 / self.num_workers as f64
    }

    /// Global line-coverage ratio.
    pub fn coverage_ratio(&self) -> f64 {
        self.coverage.ratio()
    }

    /// Aggregated solver counters across all workers (each worker reports
    /// the totals of the one solver its executor threads share).
    pub fn solver_stats(&self) -> c9_solver::SolverStats {
        let mut total = c9_solver::SolverStats::default();
        for w in &self.worker_stats {
            total.merge(&w.solver);
        }
        total
    }
}
