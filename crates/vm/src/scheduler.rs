//! The scheduler facade: a [`Searcher`] wrapped for multi-threaded workers.
//!
//! A Cloud9 worker running `--threads N` steps up to `N` *disjoint* states
//! concurrently, one round (time slice) at a time. The round protocol is
//! single-threaded at the edges and parallel in the middle:
//!
//! 1. **Lease** — the dispatch thread asks the scheduler for up to `N`
//!    distinct states. Leasing removes the state from the underlying
//!    searcher, so no strategy can hand the same state to two threads.
//!    States still held from the previous round (the *sticky* set) are
//!    re-leased first: a state keeps running until it terminates, which
//!    preserves the classic one-state-per-quantum behaviour exactly when
//!    `N == 1`.
//! 2. **Step** — each leased state runs a slice on its own thread. The
//!    scheduler is not touched during this phase.
//! 3. **Merge** — the dispatch thread absorbs the round's outcomes:
//!    [`Scheduler::add`] for every forked sibling, [`Scheduler::release`]
//!    for leased states that are still active (they re-enter the searcher
//!    *and* the sticky set), and nothing for terminated states (a lease
//!    already detached them).
//!
//! Because every searcher call happens on the dispatch thread in a fixed
//! (slot-ordered) sequence, each strategy — DFS, random-path,
//! coverage-optimized, CUPA — remains deterministic per selection under a
//! fixed seed, regardless of how the slices interleaved in wall-clock time.

use crate::searcher::{Searcher, StateMeta};
use crate::state::StateId;
use std::collections::VecDeque;

/// Hands out disjoint states to executor threads round by round, and
/// absorbs forks and terminations back into the wrapped [`Searcher`].
pub struct Scheduler {
    searcher: Box<dyn Searcher>,
    /// States leased in a previous round and still active, in lease order;
    /// they are in the searcher between rounds and are re-leased first.
    sticky: VecDeque<StateId>,
}

impl Scheduler {
    /// Wraps a searcher.
    pub fn new(searcher: Box<dyn Searcher>) -> Scheduler {
        Scheduler {
            searcher,
            sticky: VecDeque::new(),
        }
    }

    /// Name of the wrapped strategy (for reports).
    pub fn strategy_name(&self) -> &'static str {
        self.searcher.name()
    }

    /// Registers a new runnable state (initial state, fork sibling, or
    /// materialized import). Callable from the merge phase only.
    pub fn add(&mut self, meta: StateMeta) {
        self.searcher.add(meta);
    }

    /// Unregisters a state that left the frontier outside the round
    /// protocol (exported to another worker); also forgets any stickiness.
    pub fn remove(&mut self, id: StateId) {
        self.searcher.remove(id);
        self.sticky.retain(|s| *s != id);
    }

    /// Leases the next state: sticky states first (in lease order), then
    /// whatever the strategy selects. The leased state is removed from the
    /// searcher, so consecutive leases within a round are always disjoint.
    /// Returns `None` when no registered state remains.
    pub fn lease(&mut self) -> Option<StateId> {
        if let Some(id) = self.sticky.pop_front() {
            self.searcher.remove(id);
            return Some(id);
        }
        let id = self.searcher.select()?;
        self.searcher.remove(id);
        Some(id)
    }

    /// Leases a specific state that was just registered (a freshly
    /// materialized job the dispatch loop wants to run immediately):
    /// detaching it from searcher and sticky set is exactly a removal.
    pub fn lease_specific(&mut self, id: StateId) {
        self.remove(id);
    }

    /// Returns a leased state that is still active at the end of its
    /// round: it re-enters the searcher and becomes sticky, so the next
    /// round continues it.
    pub fn release(&mut self, meta: StateMeta) {
        self.searcher.add(meta);
        self.sticky.push_back(meta.id);
    }

    /// Swaps the underlying searcher (a portfolio strategy reassignment),
    /// keeping the sticky set so in-flight continuations survive the swap.
    /// The caller re-registers every active state with [`Scheduler::add`]
    /// before the next round.
    pub fn replace_searcher(&mut self, searcher: Box<dyn Searcher>) {
        self.searcher = searcher;
    }

    /// Number of states currently registered in the searcher.
    pub fn len(&self) -> usize {
        self.searcher.len()
    }

    /// Whether no states are registered.
    pub fn is_empty(&self) -> bool {
        self.searcher.is_empty()
    }
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("strategy", &self.searcher.name())
            .field("registered", &self.searcher.len())
            .field("sticky", &self.sticky)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::searcher::{build_searcher, StrategyKind};

    fn meta(id: u64, depth: usize) -> StateMeta {
        StateMeta {
            id: StateId(id),
            depth,
            new_coverage: 0,
            call_site: 0,
            query_cost: 0,
        }
    }

    #[test]
    fn leases_are_disjoint_for_every_strategy() {
        for kind in StrategyKind::ALL {
            let mut s = Scheduler::new(build_searcher(kind, 7));
            for id in 0..8 {
                s.add(meta(id, id as usize));
            }
            let mut leased = std::collections::BTreeSet::new();
            while let Some(id) = s.lease() {
                assert!(leased.insert(id), "{kind} leased {id:?} twice");
            }
            assert_eq!(leased.len(), 8, "{kind} lost states");
            assert!(s.is_empty());
        }
    }

    #[test]
    fn sticky_states_are_re_leased_first() {
        let mut s = Scheduler::new(build_searcher(StrategyKind::Dfs, 1));
        s.add(meta(1, 0));
        s.add(meta(2, 1));
        let first = s.lease().expect("state available");
        // Round ends, the state is still active.
        s.release(meta(first.0, 0));
        // The next round must continue the same state before consulting
        // the strategy.
        assert_eq!(s.lease(), Some(first));
    }

    #[test]
    fn removed_states_lose_stickiness() {
        let mut s = Scheduler::new(build_searcher(StrategyKind::Bfs, 1));
        s.add(meta(1, 0));
        s.add(meta(2, 0));
        let first = s.lease().expect("state available");
        s.release(meta(first.0, 0));
        s.remove(first); // exported to another worker
        let next = s.lease().expect("second state remains");
        assert_ne!(next, first);
        assert_eq!(s.lease(), None);
    }

    #[test]
    fn releasing_a_registered_state_replaces_it() {
        // A release of a state the searcher still holds is a duplicate
        // `add`: the state stays registered once, under the new metadata.
        for kind in StrategyKind::ALL {
            let mut s = Scheduler::new(build_searcher(kind, 7));
            s.add(meta(1, 0));
            s.release(meta(1, 5));
            assert_eq!(s.len(), 1, "{kind}");
            assert_eq!(s.lease(), Some(StateId(1)), "{kind}");
            assert!(s.is_empty(), "{kind}");
            assert_eq!(s.lease(), None, "{kind} leased a state twice");
        }
    }

    #[test]
    fn replace_searcher_keeps_sticky_continuations() {
        let mut s = Scheduler::new(build_searcher(StrategyKind::Dfs, 1));
        s.add(meta(1, 0));
        s.add(meta(2, 0));
        let leased = s.lease().expect("state available");
        s.release(meta(leased.0, 0));
        // Portfolio reassignment mid-run: rebuild with a different
        // strategy and re-register the active states.
        s.replace_searcher(build_searcher(StrategyKind::Random, 99));
        s.add(meta(1, 0));
        s.add(meta(2, 0));
        assert_eq!(s.lease(), Some(leased), "sticky continuation lost");
    }
}
