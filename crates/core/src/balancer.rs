//! The load balancer (§3.3).
//!
//! Workers periodically report the length of their job queues; the load
//! balancer classifies workers as underloaded or overloaded using a
//! mean ± δ·σ band, pairs underloaded with overloaded workers, and issues
//! transfer requests ⟨source, destination, number of jobs⟩. It also maintains
//! the global coverage bit vector that coordinates the distributed
//! coverage-optimized strategy.
//!
//! Liveness is not the balancer's: every round is handed the live workers
//! by the coordinator's membership, and only they give or receive jobs.

use c9_net::WorkerId;
use c9_vm::CoverageSet;
use serde::{Deserialize, Serialize};

/// A request issued by the load balancer: move `count` jobs from `source` to
/// `destination`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TransferRequest {
    /// The overloaded worker that gives up jobs.
    pub source: WorkerId,
    /// The underloaded worker that receives them.
    pub destination: WorkerId,
    /// Number of jobs to move.
    pub count: u64,
}

/// The δ factor of the classification band (mean ± δ·σ).
const DELTA: f64 = 0.5;

/// Minimum number of jobs a transfer must move to be worth issuing.
const MIN_TRANSFER: u64 = 1;

/// The load balancer.
#[derive(Debug)]
pub struct LoadBalancer {
    queue_lengths: Vec<u64>,
    global_coverage: CoverageSet,
    total_transferred: u64,
}

impl LoadBalancer {
    /// Creates a load balancer for `num_workers` workers and a program with
    /// `num_lines` coverage lines.
    pub fn new(num_workers: usize, num_lines: usize) -> LoadBalancer {
        LoadBalancer {
            queue_lengths: vec![0; num_workers],
            global_coverage: CoverageSet::new(num_lines),
            total_transferred: 0,
        }
    }

    /// Records a status update from a worker: its queue length and local
    /// coverage. Returns the updated global coverage, which the worker ORs
    /// into its own (§3.3).
    pub fn report(
        &mut self,
        worker: WorkerId,
        queue_length: u64,
        coverage: &CoverageSet,
    ) -> CoverageSet {
        self.grow_to(worker);
        self.queue_lengths[worker.index()] = queue_length;
        self.global_coverage.merge(coverage);
        self.global_coverage.clone()
    }

    /// The current global coverage.
    pub fn global_coverage(&self) -> &CoverageSet {
        &self.global_coverage
    }

    /// Merges externally recovered coverage (a resumed checkpoint) into the
    /// global vector.
    pub fn merge_coverage(&mut self, coverage: &CoverageSet) {
        self.global_coverage.merge(coverage);
    }

    /// Total jobs moved by transfer requests issued so far.
    pub fn total_transferred(&self) -> u64 {
        self.total_transferred
    }

    /// Total last reported (and credited) queue length of the `live`
    /// workers: a worker that died holds no queue.
    pub fn queued(&self, live: &[WorkerId]) -> u64 {
        live.iter()
            .filter_map(|w| self.queue_lengths.get(w.index()))
            .sum()
    }

    /// Grows the worker table so `worker` is a valid index; a worker that
    /// has not reported yet holds an empty queue.
    fn grow_to(&mut self, worker: WorkerId) {
        if worker.index() >= self.queue_lengths.len() {
            self.queue_lengths.resize(worker.index() + 1, 0);
        }
    }

    /// Runs one round of the balancing algorithm of §3.3 over the `live`
    /// workers (in id order) and returns the transfer requests to issue.
    /// Any other worker neither gives nor receives; a live one that has not
    /// reported yet (a late joiner) counts as idle.
    ///
    /// Live workers are classified as underloaded (`l < max(mean − δ·σ, 0)`)
    /// or overloaded (`l > mean + δ·σ`); the two lists are matched pairwise
    /// from the most underloaded and most overloaded ends, and each pair
    /// ⟨Wi, Wj⟩ with `li < lj` receives a request to move `(lj − li)/2` jobs.
    pub fn balance(&mut self, live: &[WorkerId]) -> Vec<TransferRequest> {
        if let Some(last) = live.iter().max() {
            self.grow_to(*last);
        }
        let live: Vec<(usize, u64)> = live
            .iter()
            .map(|w| (w.index(), self.queue_lengths[w.index()]))
            .collect();
        let n = live.len();
        if n < 2 {
            return Vec::new();
        }
        let mean = live.iter().map(|(_, l)| *l).sum::<u64>() as f64 / n as f64;
        let variance = live
            .iter()
            .map(|(_, l)| {
                let d = *l as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / n as f64;
        let sigma = variance.sqrt();
        let low = (mean - DELTA * sigma).max(0.0);
        let high = mean + DELTA * sigma;

        let mut underloaded: Vec<(u64, WorkerId)> = Vec::new();
        let mut overloaded: Vec<(u64, WorkerId)> = Vec::new();
        for (i, l) in &live {
            let lf = *l as f64;
            if lf < low {
                underloaded.push((*l, WorkerId(*i as u32)));
            } else if lf > high {
                overloaded.push((*l, WorkerId(*i as u32)));
            }
        }
        // Special case: with small clusters and very skewed loads the band
        // can be too wide; make sure an idle worker is always fed when some
        // other worker has more than one job.
        if underloaded.is_empty() {
            for (i, l) in &live {
                if *l == 0 {
                    underloaded.push((0, WorkerId(*i as u32)));
                }
            }
        }
        if overloaded.is_empty() {
            if let Some((i, l)) = live.iter().max_by_key(|(_, l)| *l) {
                if *l > 1 {
                    overloaded.push((*l, WorkerId(*i as u32)));
                }
            }
        }
        underloaded.sort();
        overloaded.sort();

        let mut requests = Vec::new();
        let mut over_iter = overloaded.into_iter().rev();
        for (under_len, under_id) in underloaded {
            let Some((over_len, over_id)) = over_iter.next() else {
                break;
            };
            if over_id == under_id || over_len <= under_len {
                continue;
            }
            let count = (over_len - under_len) / 2;
            if count >= MIN_TRANSFER {
                self.total_transferred += count;
                requests.push(TransferRequest {
                    source: over_id,
                    destination: under_id,
                    count,
                });
                // Optimistically update the book-keeping so repeated calls in
                // the same reporting interval do not over-transfer.
                self.queue_lengths[over_id.index()] -= count;
                self.queue_lengths[under_id.index()] += count;
            }
        }
        requests
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lb(lengths: &[u64]) -> LoadBalancer {
        let mut lb = LoadBalancer::new(lengths.len(), 100);
        for (i, l) in lengths.iter().enumerate() {
            lb.report(WorkerId(i as u32), *l, &CoverageSet::new(100));
        }
        lb
    }

    fn ids(ids: &[u32]) -> Vec<WorkerId> {
        ids.iter().copied().map(WorkerId).collect()
    }

    #[test]
    fn balanced_cluster_needs_no_transfers() {
        let mut b = lb(&[10, 10, 10, 10]);
        assert!(b.balance(&ids(&[0, 1, 2, 3])).is_empty());
    }

    #[test]
    fn idle_worker_gets_fed_from_loaded_worker() {
        let mut b = lb(&[100, 0]);
        let reqs = b.balance(&ids(&[0, 1]));
        assert_eq!(reqs.len(), 1);
        assert_eq!(reqs[0].source, WorkerId(0));
        assert_eq!(reqs[0].destination, WorkerId(1));
        assert_eq!(reqs[0].count, 50);
    }

    #[test]
    fn multiple_pairs_are_matched() {
        let mut b = lb(&[100, 0, 90, 1]);
        let reqs = b.balance(&ids(&[0, 1, 2, 3]));
        assert!(reqs.len() >= 2);
        // Each request moves roughly half the difference.
        for r in &reqs {
            assert!(r.count >= 40);
        }
    }

    #[test]
    fn coverage_is_accumulated_and_returned() {
        let mut b = LoadBalancer::new(2, 64);
        let mut c0 = CoverageSet::new(64);
        c0.cover(c9_ir::LineId(1));
        let global = b.report(WorkerId(0), 5, &c0);
        assert!(global.is_covered(c9_ir::LineId(1)));
        assert_eq!(global.count(), 1);
        let mut c1 = CoverageSet::new(64);
        c1.cover(c9_ir::LineId(2));
        let global = b.report(WorkerId(1), 5, &c1);
        assert!(global.is_covered(c9_ir::LineId(1)));
        assert!(global.is_covered(c9_ir::LineId(2)));
        assert_eq!(global.count(), 2);
        // A repeated report adds nothing.
        let global = b.report(WorkerId(1), 5, &c1);
        assert_eq!(global.count(), 2);
        assert_eq!(b.global_coverage().count(), 2);
    }

    #[test]
    fn all_idle_detection() {
        let live = ids(&[0, 1, 2]);
        let mut b = lb(&[0, 0, 0]);
        assert_eq!(b.queued(&live), 0);
        b.report(WorkerId(1), 3, &CoverageSet::new(100));
        assert_eq!(b.queued(&live), 3);
    }

    #[test]
    fn single_worker_cluster_never_balances() {
        let mut b = lb(&[42]);
        assert!(b.balance(&ids(&[0])).is_empty());
    }

    #[test]
    fn dead_worker_is_excluded_from_transfer_planning() {
        // Worker 1 is starving and worker 2 dies mid-round: the reclaimed
        // round must pair 1 with 0 only, never touching the dead worker.
        let mut b = lb(&[100, 0, 80]);
        let reqs = b.balance(&ids(&[0, 1]));
        assert!(!reqs.is_empty());
        for r in &reqs {
            assert_ne!(r.source, WorkerId(2), "dead worker used as source");
            assert_ne!(
                r.destination,
                WorkerId(2),
                "dead worker used as destination"
            );
        }
        assert_eq!(reqs[0].source, WorkerId(0));
        assert_eq!(reqs[0].destination, WorkerId(1));
    }

    #[test]
    fn dead_worker_queue_is_discarded_and_idle_check_ignores_it() {
        let mut b = lb(&[0, 7]);
        assert_eq!(b.queued(&ids(&[0, 1])), 7);
        // Worker 1 died: its queue neither counts nor feeds worker 0.
        assert_eq!(
            b.queued(&ids(&[0])),
            0,
            "a dead worker must not block exhaustion"
        );
        assert!(b.balance(&ids(&[0])).is_empty());
    }

    #[test]
    fn only_one_live_worker_left_means_no_transfers() {
        let mut b = lb(&[100, 0, 0]);
        assert!(b.balance(&ids(&[0])).is_empty());
    }

    #[test]
    fn late_joiner_enters_the_next_balancing_round() {
        // Worker 1 joined but has not reported yet: it counts as idle.
        let mut b = lb(&[100]);
        let reqs = b.balance(&ids(&[0, 1]));
        assert_eq!(reqs.len(), 1);
        assert_eq!(reqs[0].destination, WorkerId(1));
        assert_eq!(reqs[0].count, 50);
        assert_eq!(b.queued(&ids(&[0, 1])), 100, "credit moves, never mints");
    }

    #[test]
    fn revived_worker_rejoins_planning() {
        let mut b = lb(&[100, 0]);
        assert!(b.balance(&ids(&[0])).is_empty());
        assert_eq!(b.balance(&ids(&[0, 1])).len(), 1);
    }
}
