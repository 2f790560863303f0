//! The linear-scan searchers the [`WeightedList`](crate::weighted) policies
//! replaced, kept as the reference the new ones are compared against:
//! every `select` must return what these return, step for step, because
//! the benchmark pins path counts that depend on the selection sequence.
//!
//! One intended difference is kept out of the scripts: adding an id that is
//! already registered made these hold it twice.

use crate::searcher::{InterleavedSearcher, Searcher, StateMeta, StrategyKind};
use crate::state::StateId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// The reference for `kind` (the flat strategies and their interleaving),
/// seeded as [`build_searcher`](crate::build_searcher) seeds the real one.
fn build_reference(kind: StrategyKind, seed: u64) -> Box<dyn Searcher> {
    match kind {
        StrategyKind::KleeDefault => Box::new(InterleavedSearcher::new(vec![
            Box::new(LinearRandomPath::new(seed)),
            Box::new(LinearCoverageOptimized::new(seed.wrapping_add(1))),
        ])),
        StrategyKind::Dfs => Box::new(LinearDfs::new()),
        StrategyKind::Bfs => Box::new(LinearBfs::new()),
        StrategyKind::Random => Box::new(LinearRandom::new(seed)),
        StrategyKind::RandomPath => Box::new(LinearRandomPath::new(seed)),
        StrategyKind::CovOpt => Box::new(LinearCoverageOptimized::new(seed)),
        StrategyKind::Cupa => unreachable!("CUPA is not a flat strategy"),
    }
}

/// Depth-first search: always runs the most recently added state.
#[derive(Debug, Default)]
struct LinearDfs {
    stack: Vec<StateId>,
}

impl LinearDfs {
    /// Creates an empty DFS searcher.
    fn new() -> LinearDfs {
        LinearDfs::default()
    }
}

impl Searcher for LinearDfs {
    fn add(&mut self, meta: StateMeta) {
        self.stack.push(meta.id);
    }
    fn remove(&mut self, id: StateId) {
        self.stack.retain(|s| *s != id);
    }
    fn select(&mut self) -> Option<StateId> {
        self.stack.last().copied()
    }
    fn len(&self) -> usize {
        self.stack.len()
    }
    fn name(&self) -> &'static str {
        "dfs"
    }
}

/// Breadth-first search: runs states in the order they were created.
#[derive(Debug, Default)]
struct LinearBfs {
    queue: VecDeque<StateId>,
}

impl LinearBfs {
    /// Creates an empty BFS searcher.
    fn new() -> LinearBfs {
        LinearBfs::default()
    }
}

impl Searcher for LinearBfs {
    fn add(&mut self, meta: StateMeta) {
        self.queue.push_back(meta.id);
    }
    fn remove(&mut self, id: StateId) {
        self.queue.retain(|s| *s != id);
    }
    fn select(&mut self) -> Option<StateId> {
        // Rotate so repeated selections cycle through states fairly.
        if let Some(front) = self.queue.pop_front() {
            self.queue.push_back(front);
            Some(front)
        } else {
            None
        }
    }
    fn len(&self) -> usize {
        self.queue.len()
    }
    fn name(&self) -> &'static str {
        "bfs"
    }
}

/// Uniformly random selection among active states.
#[derive(Debug)]
struct LinearRandom {
    states: Vec<StateId>,
    rng: StdRng,
}

impl LinearRandom {
    /// Creates a random searcher with a fixed seed (deterministic runs).
    fn new(seed: u64) -> LinearRandom {
        LinearRandom {
            states: Vec::new(),
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl Searcher for LinearRandom {
    fn add(&mut self, meta: StateMeta) {
        self.states.push(meta.id);
    }
    fn remove(&mut self, id: StateId) {
        self.states.retain(|s| *s != id);
    }
    fn select(&mut self) -> Option<StateId> {
        if self.states.is_empty() {
            return None;
        }
        let idx = self.rng.gen_range(0..self.states.len());
        Some(self.states[idx])
    }
    fn len(&self) -> usize {
        self.states.len()
    }
    fn name(&self) -> &'static str {
        "random-state"
    }
}

/// Weighted random selection approximating KLEE's random-path strategy:
/// shallower states get exponentially larger weight, which is equivalent to
/// walking a balanced execution tree from the root.
#[derive(Debug)]
struct LinearRandomPath {
    states: Vec<(StateId, usize)>,
    rng: StdRng,
}

impl LinearRandomPath {
    /// Creates a random-path searcher with a fixed seed.
    fn new(seed: u64) -> LinearRandomPath {
        LinearRandomPath {
            states: Vec::new(),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    fn weight(depth: usize) -> f64 {
        // 2^-min(depth, 60) without underflow.
        let d = depth.min(60) as i32;
        2f64.powi(-d)
    }
}

impl Searcher for LinearRandomPath {
    fn add(&mut self, meta: StateMeta) {
        self.states.push((meta.id, meta.depth));
    }
    fn remove(&mut self, id: StateId) {
        self.states.retain(|(s, _)| *s != id);
    }
    fn select(&mut self) -> Option<StateId> {
        if self.states.is_empty() {
            return None;
        }
        let total: f64 = self.states.iter().map(|(_, d)| Self::weight(*d)).sum();
        let mut pick = self.rng.gen::<f64>() * total;
        for (id, depth) in &self.states {
            pick -= Self::weight(*depth);
            if pick <= 0.0 {
                return Some(*id);
            }
        }
        self.states.last().map(|(id, _)| *id)
    }
    fn len(&self) -> usize {
        self.states.len()
    }
    fn name(&self) -> &'static str {
        "random-path"
    }
}

/// Coverage-optimized search: states whose last step discovered new coverage
/// are strongly preferred, the rest are weighted uniformly.
#[derive(Debug)]
struct LinearCoverageOptimized {
    states: Vec<(StateId, usize)>,
    rng: StdRng,
}

impl LinearCoverageOptimized {
    /// Creates a coverage-optimized searcher with a fixed seed.
    fn new(seed: u64) -> LinearCoverageOptimized {
        LinearCoverageOptimized {
            states: Vec::new(),
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl Searcher for LinearCoverageOptimized {
    fn add(&mut self, meta: StateMeta) {
        self.states.push((meta.id, meta.new_coverage));
    }
    fn remove(&mut self, id: StateId) {
        self.states.retain(|(s, _)| *s != id);
    }
    fn select(&mut self) -> Option<StateId> {
        if self.states.is_empty() {
            return None;
        }
        let total: f64 = self
            .states
            .iter()
            .map(|(_, c)| 1.0 + 10.0 * *c as f64)
            .sum();
        let mut pick = self.rng.gen::<f64>() * total;
        for (id, c) in &self.states {
            pick -= 1.0 + 10.0 * *c as f64;
            if pick <= 0.0 {
                return Some(*id);
            }
        }
        self.states.last().map(|(id, _)| *id)
    }
    fn len(&self) -> usize {
        self.states.len()
    }
    fn name(&self) -> &'static str {
        "coverage-optimized"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::searcher::build_searcher;
    use crate::{Engine, EngineConfig, NullEnvironment};
    use proptest::prelude::*;
    use std::collections::BTreeSet;
    use std::sync::Arc;

    const FLAT: [StrategyKind; 6] = [
        StrategyKind::KleeDefault,
        StrategyKind::Dfs,
        StrategyKind::Bfs,
        StrategyKind::Random,
        StrategyKind::RandomPath,
        StrategyKind::CovOpt,
    ];

    /// Depths of one script stay within this many levels of each other, and
    /// a script registers fewer than 2^10 states: 2^10 * 2^40 < 2^53, so the
    /// float sums of the reference are exact and the two must agree.
    const DEPTH_WINDOW: usize = 40;

    /// One step of a script: what to do, which state, its depth above the
    /// script's base, the coverage of its last step.
    type Op = (u8, u64, (usize, usize));

    fn scripts() -> impl Strategy<Value = Vec<Op>> {
        proptest::collection::vec(
            (0u8..10, any::<u64>(), (0..=DEPTH_WINDOW, 0usize..4)),
            1..400,
        )
    }

    /// Runs `script` on the searcher of `kind` and on its reference, and
    /// compares every `select` and every `len`.
    fn run_script(kind: StrategyKind, seed: u64, base: usize, script: &[Op]) {
        let mut new = build_searcher(kind, seed);
        let mut old = build_reference(kind, seed);
        let mut registered = BTreeSet::new();
        let mut next_id = 0u64;
        for (step, &(op, pick, (depth, new_coverage))) in script.iter().enumerate() {
            let meta = |id| StateMeta {
                id,
                depth: base + depth,
                new_coverage,
                call_site: 0,
                query_cost: 0,
            };
            match op {
                // Add a fresh state, or one that was removed earlier.
                0..=3 => {
                    let mut id = StateId(pick % (next_id + 1));
                    if registered.contains(&id) {
                        id = StateId(next_id);
                    }
                    next_id = next_id.max(id.0 + 1);
                    registered.insert(id);
                    new.add(meta(id));
                    old.add(meta(id));
                }
                // Remove any state, registered or not.
                4 | 5 => {
                    let id = StateId(pick % (next_id + 1));
                    registered.remove(&id);
                    new.remove(id);
                    old.remove(id);
                }
                6 | 7 => {
                    assert_eq!(new.select(), old.select(), "{kind} select, step {step}");
                }
                // What a lease and a release do: select, remove, add again.
                _ => {
                    let id = new.select();
                    assert_eq!(id, old.select(), "{kind} lease, step {step}");
                    if let Some(id) = id {
                        new.remove(id);
                        old.remove(id);
                        new.add(meta(id));
                        old.add(meta(id));
                    }
                }
            }
            assert_eq!(new.len(), old.len(), "{kind} len, step {step}");
            assert_eq!(new.len(), registered.len());
        }
        // Drain: removals down to nothing cross every compaction size.
        while let Some(id) = new.select() {
            assert_eq!(Some(id), old.select(), "{kind} drain");
            new.remove(id);
            old.remove(id);
        }
        assert_eq!(old.select(), None);
        assert_eq!((new.len(), old.len()), (0, 0));
    }

    proptest! {
        #[test]
        fn prop_flat_searchers_select_what_the_linear_scans_select(
            script in scripts(),
            seed: u64,
            base in 0usize..=30,
        ) {
            for kind in FLAT {
                run_script(kind, seed, base, &script);
            }
        }
    }

    #[test]
    fn a_large_frontier_crosses_compactions_in_step_with_the_reference() {
        // The benchmark's shape: a frontier of thousands, one lease and one
        // release per round, now and then a fork or a finished path.
        for kind in FLAT {
            let mut script: Vec<Op> = (0..3000u64)
                .map(|i| (0, i, ((i % 23) as usize, 0)))
                .collect();
            script.extend((0..9000u64).map(|i| match i % 7 {
                0 => (0, u64::MAX, ((i % 31) as usize, (i % 3) as usize)),
                3 => (4, i * 7919, (0, 0)),
                _ => (8, 0, ((i % 29) as usize, (i % 5 / 4) as usize)),
            }));
            run_script(kind, 1, 3, &script);
        }
    }

    #[test]
    fn engine_completes_the_same_paths_in_the_same_order() {
        let program = Arc::new(crate::tests::branching_program(10));
        let run = |searcher: Box<dyn Searcher>| {
            let config = EngineConfig {
                max_instructions: 20_000,
                ..EngineConfig::default()
            };
            let mut engine =
                Engine::new(program.clone(), Arc::new(NullEnvironment), searcher, config);
            engine.run()
        };
        for kind in FLAT {
            let new = run(build_searcher(kind, 1));
            let old = run(build_reference(kind, 1));
            assert!(new.paths_completed > 50, "{kind}: {}", new.paths_completed);
            assert!(!new.exhausted, "{kind}: the budget must cut the run short");
            assert_eq!(new.test_cases, old.test_cases, "{kind}");
            assert_eq!(new.states_remaining, old.states_remaining, "{kind}");
        }
    }
}
