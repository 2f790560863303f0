//! Exploration strategies (searchers).
//!
//! A searcher decides which active state to step next. The interface mirrors
//! KLEE's: the engine informs the searcher when states are added (initial
//! state, forks) and removed (termination), and asks it to `select` the next
//! state to run.
//!
//! The searchers provided here are the building blocks of the strategies the
//! paper uses in its evaluation (§7): an interleaving of random-path and
//! coverage-optimized search. The true random-path strategy walks the
//! execution tree from the root; nothing here keeps a global tree, so it is
//! approximated by weighting states by 2^-depth, which is the walk's
//! distribution on a balanced tree.
//!
//! The flat strategies (DFS, BFS, random, random-path, coverage-optimized)
//! are policies over one [`WeightedList`]: an insertion-ordered list with
//! integer weights and prefix sums, so `add`, `remove` and `select` cost
//! O(log n) in the number of registered states. The weighted strategies
//! draw one `f64` per selection and take the first state whose prefix sum
//! reaches `draw * total`; with integer weights that is exact, and it is
//! what a front-to-back scan subtracting `f64` weights computes whenever
//! those float sums are exact (see "Searchers" in `docs/ARCHITECTURE.md`).

use crate::state::{ExecutionState, StateId};
use crate::weighted::WeightedList;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Exploration strategy selector, shippable over the wire to remote workers.
///
/// The cluster layer maps each kind to the corresponding searcher
/// construction (see [`build_searcher`]); the enum lives here so both the
/// in-process worker configuration and the `c9-net` run spec can share it.
/// Each kind has a stable command-line name with a [`std::fmt::Display`] /
/// [`std::str::FromStr`] round-trip, used by the coordinator's
/// `--portfolio` flag.
#[derive(
    Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub enum StrategyKind {
    /// Interleaved random-path and coverage-optimized search (the paper's
    /// evaluation configuration).
    #[default]
    KleeDefault,
    /// Depth-first search.
    Dfs,
    /// Breadth-first search.
    Bfs,
    /// Uniform random state selection.
    Random,
    /// Random tree-path selection alone (shallow states weighted up).
    RandomPath,
    /// Coverage-optimized selection alone (recent new coverage weighted up).
    CovOpt,
    /// Class-uniform path analysis: states are bucketed into classes by
    /// coverage recency, call site, and query-cost tier, and selection is
    /// uniform across classes (see [`CupaSearcher`]).
    Cupa,
}

impl StrategyKind {
    /// Every strategy, in the order listed by error messages and docs.
    pub const ALL: [StrategyKind; 7] = [
        StrategyKind::KleeDefault,
        StrategyKind::Dfs,
        StrategyKind::Bfs,
        StrategyKind::Random,
        StrategyKind::RandomPath,
        StrategyKind::CovOpt,
        StrategyKind::Cupa,
    ];

    /// The stable command-line name of this strategy.
    pub fn name(self) -> &'static str {
        match self {
            StrategyKind::KleeDefault => "klee-default",
            StrategyKind::Dfs => "dfs",
            StrategyKind::Bfs => "bfs",
            StrategyKind::Random => "random",
            StrategyKind::RandomPath => "random-path",
            StrategyKind::CovOpt => "cov-opt",
            StrategyKind::Cupa => "cupa",
        }
    }
}

impl std::fmt::Display for StrategyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Error returned when parsing an unknown strategy name; its display lists
/// every valid name.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseStrategyError {
    /// The name that failed to parse.
    pub unknown: String,
}

impl std::fmt::Display for ParseStrategyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let valid: Vec<&str> = StrategyKind::ALL.iter().map(|k| k.name()).collect();
        write!(
            f,
            "unknown strategy {:?}; valid strategies: {}",
            self.unknown,
            valid.join(", ")
        )
    }
}

impl std::error::Error for ParseStrategyError {}

impl std::str::FromStr for StrategyKind {
    type Err = ParseStrategyError;

    fn from_str(s: &str) -> Result<StrategyKind, ParseStrategyError> {
        let normalized = s.trim();
        StrategyKind::ALL
            .iter()
            .copied()
            .find(|k| k.name() == normalized)
            .ok_or_else(|| ParseStrategyError {
                unknown: normalized.to_string(),
            })
    }
}

/// Constructs the searcher implementing `kind`, seeded deterministically.
pub fn build_searcher(kind: StrategyKind, seed: u64) -> Box<dyn Searcher> {
    match kind {
        StrategyKind::KleeDefault => Box::new(InterleavedSearcher::klee_default(seed)),
        StrategyKind::Dfs => Box::new(DfsSearcher::new()),
        StrategyKind::Bfs => Box::new(BfsSearcher::new()),
        StrategyKind::Random => Box::new(RandomSearcher::new(seed)),
        StrategyKind::RandomPath => Box::new(RandomPathSearcher::new(seed)),
        StrategyKind::CovOpt => Box::new(CoverageOptimizedSearcher::new(seed)),
        StrategyKind::Cupa => Box::new(CupaSearcher::new(seed)),
    }
}

/// Metadata about a state that searchers may use for prioritization.
#[derive(Clone, Copy, Debug)]
pub struct StateMeta {
    /// Identifier of the state.
    pub id: StateId,
    /// Depth in the execution tree.
    pub depth: usize,
    /// Number of lines newly covered by the state's most recent step.
    pub new_coverage: usize,
    /// The function the state is currently executing (its call site, used
    /// by [`CupaSearcher`] classes); 0 when the state has no live frame.
    pub call_site: u32,
    /// Number of path constraints accumulated so far — a proxy for how
    /// expensive the state's solver queries are.
    pub query_cost: usize,
}

impl StateMeta {
    /// Extracts metadata from a state.
    pub fn of(state: &ExecutionState) -> StateMeta {
        StateMeta {
            id: state.id,
            depth: state.depth(),
            new_coverage: state.last_new_coverage,
            call_site: state.thread().top_frame().map(|f| f.func.0).unwrap_or(0),
            query_cost: state.constraints.len(),
        }
    }
}

/// A strategy for choosing the next state to execute.
///
/// The engine calls [`Searcher::add`] when a state becomes runnable
/// (initial state, forks, imported jobs), [`Searcher::remove`] when it
/// terminates or is transferred away, and [`Searcher::select`] to pick the
/// next state to run.
///
/// A state is registered at most once. Adding an id that is already
/// registered replaces it: the searcher behaves as if the state had been
/// removed and then added with the new metadata.
///
/// # Examples
///
/// ```
/// use c9_vm::{DfsSearcher, Searcher, StateId, StateMeta};
///
/// let mut searcher = DfsSearcher::new();
/// assert!(searcher.is_empty());
/// searcher.add(StateMeta {
///     id: StateId(1),
///     depth: 0,
///     new_coverage: 0,
///     call_site: 0,
///     query_cost: 0,
/// });
/// assert_eq!(searcher.select(), Some(StateId(1)));
/// searcher.remove(StateId(1));
/// assert_eq!(searcher.select(), None);
/// ```
pub trait Searcher: Send {
    /// Registers a new active state, replacing any registration of the
    /// same id.
    fn add(&mut self, meta: StateMeta);
    /// Unregisters a state (terminated or transferred away).
    fn remove(&mut self, id: StateId);
    /// Chooses the next state to execute, or `None` if no states remain.
    fn select(&mut self) -> Option<StateId>;
    /// Number of states currently registered.
    fn len(&self) -> usize;
    /// Whether no states are registered.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Name of the strategy (for reports).
    fn name(&self) -> &'static str;
}

/// Depth-first search: always runs the most recently added state.
#[derive(Debug, Default)]
pub struct DfsSearcher {
    states: WeightedList,
}

impl DfsSearcher {
    /// Creates an empty DFS searcher.
    pub fn new() -> DfsSearcher {
        DfsSearcher::default()
    }
}

impl Searcher for DfsSearcher {
    fn add(&mut self, meta: StateMeta) {
        self.states.push(meta.id, 1);
    }
    fn remove(&mut self, id: StateId) {
        self.states.remove(id);
    }
    fn select(&mut self) -> Option<StateId> {
        self.states.last()
    }
    fn len(&self) -> usize {
        self.states.len()
    }
    fn name(&self) -> &'static str {
        "dfs"
    }
}

/// Breadth-first search: runs states in the order they were created.
#[derive(Debug, Default)]
pub struct BfsSearcher {
    states: WeightedList,
}

impl BfsSearcher {
    /// Creates an empty BFS searcher.
    pub fn new() -> BfsSearcher {
        BfsSearcher::default()
    }
}

impl Searcher for BfsSearcher {
    fn add(&mut self, meta: StateMeta) {
        self.states.push(meta.id, 1);
    }
    fn remove(&mut self, id: StateId) {
        self.states.remove(id);
    }
    fn select(&mut self) -> Option<StateId> {
        // Rotate so repeated selections cycle through states fairly.
        let front = self.states.first()?;
        self.states.push(front, 1);
        Some(front)
    }
    fn len(&self) -> usize {
        self.states.len()
    }
    fn name(&self) -> &'static str {
        "bfs"
    }
}

/// Uniformly random selection among active states.
#[derive(Debug)]
pub struct RandomSearcher {
    states: WeightedList,
    rng: StdRng,
}

impl RandomSearcher {
    /// Creates a random searcher with a fixed seed (deterministic runs).
    pub fn new(seed: u64) -> RandomSearcher {
        RandomSearcher {
            states: WeightedList::default(),
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl Searcher for RandomSearcher {
    fn add(&mut self, meta: StateMeta) {
        self.states.push(meta.id, 1);
    }
    fn remove(&mut self, id: StateId) {
        self.states.remove(id);
    }
    fn select(&mut self) -> Option<StateId> {
        if self.states.is_empty() {
            return None;
        }
        let idx = self.rng.gen_range(0..self.states.len());
        self.states.find(idx as u128 + 1)
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
pub struct RandomPathSearcher {
    states: WeightedList,
    rng: StdRng,
}

impl RandomPathSearcher {
    /// Creates a random-path searcher with a fixed seed.
    pub fn new(seed: u64) -> RandomPathSearcher {
        RandomPathSearcher {
            states: WeightedList::default(),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// 2^-min(depth, 60), scaled by 2^60 to an integer.
    fn weight(depth: usize) -> u64 {
        1 << (60 - depth.min(60))
    }
}

impl Searcher for RandomPathSearcher {
    fn add(&mut self, meta: StateMeta) {
        self.states.push(meta.id, Self::weight(meta.depth));
    }
    fn remove(&mut self, id: StateId) {
        self.states.remove(id);
    }
    fn select(&mut self) -> Option<StateId> {
        // An empty searcher must not consume a draw: the scheduler asks it
        // whenever every state is leased, and the sequence has to survive.
        if self.states.is_empty() {
            return None;
        }
        self.states.sample(self.rng.gen::<f64>())
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
pub struct CoverageOptimizedSearcher {
    states: WeightedList,
    rng: StdRng,
}

impl CoverageOptimizedSearcher {
    /// Creates a coverage-optimized searcher with a fixed seed.
    pub fn new(seed: u64) -> CoverageOptimizedSearcher {
        CoverageOptimizedSearcher {
            states: WeightedList::default(),
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl Searcher for CoverageOptimizedSearcher {
    fn add(&mut self, meta: StateMeta) {
        self.states.push(meta.id, 1 + 10 * meta.new_coverage as u64);
    }
    fn remove(&mut self, id: StateId) {
        self.states.remove(id);
    }
    fn select(&mut self) -> Option<StateId> {
        if self.states.is_empty() {
            return None;
        }
        self.states.sample(self.rng.gen::<f64>())
    }
    fn len(&self) -> usize {
        self.states.len()
    }
    fn name(&self) -> &'static str {
        "coverage-optimized"
    }
}

/// The class key of [`CupaSearcher`]: coverage-recency tier, call site,
/// query-cost tier.
type CupaClass = (u8, u32, u8);

/// Class-uniform path analysis (CUPA): states are partitioned into classes
/// and selection effort is spread *uniformly across classes* rather than
/// across states, so a huge cluster of sibling states (a loop fanning out,
/// a hot parser function) cannot starve the rest of the frontier.
///
/// Classes are keyed by three features:
///
/// * **coverage recency** — whether the state's most recent step discovered
///   new lines (covering states form their own classes, so fresh progress
///   keeps getting scheduled),
/// * **call site** — the function the state is currently executing, and
/// * **query-cost tier** — the accumulated path-constraint count bucketed
///   into powers-of-eight tiers, so solver-cheap states are not drowned out
///   by expensive ones.
///
/// Selection walks a rotation: each round visits every currently non-empty
/// class exactly once, in an order drawn uniformly at random, then picks a
/// uniformly random state within the visited class. This gives the
/// class-uniform guarantee deterministically: with `k` non-empty classes,
/// every class is selected at least once in any `k` consecutive picks.
#[derive(Debug)]
pub struct CupaSearcher {
    /// States of each class; a class is removed when it empties.
    classes: BTreeMap<CupaClass, Vec<StateId>>,
    /// Which class every registered state belongs to.
    index: BTreeMap<StateId, CupaClass>,
    /// Classes not yet visited in the current rotation (may contain stale
    /// keys of classes that emptied mid-rotation; `select` skips them).
    rotation: Vec<CupaClass>,
    rng: StdRng,
}

impl CupaSearcher {
    /// Creates a CUPA searcher with a fixed seed (deterministic runs).
    pub fn new(seed: u64) -> CupaSearcher {
        CupaSearcher {
            classes: BTreeMap::new(),
            index: BTreeMap::new(),
            rotation: Vec::new(),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Buckets a state into its class.
    fn classify(meta: &StateMeta) -> CupaClass {
        let recency = u8::from(meta.new_coverage == 0);
        let cost_tier = match meta.query_cost {
            0..=7 => 0u8,
            8..=63 => 1,
            64..=511 => 2,
            _ => 3,
        };
        (recency, meta.call_site, cost_tier)
    }

    /// Number of currently non-empty classes.
    pub fn num_classes(&self) -> usize {
        self.classes.len()
    }
}

impl Searcher for CupaSearcher {
    fn add(&mut self, meta: StateMeta) {
        self.remove(meta.id);
        let class = Self::classify(&meta);
        self.index.insert(meta.id, class);
        let states = self.classes.entry(class).or_default();
        if states.is_empty() && !self.rotation.contains(&class) {
            // A class that becomes non-empty mid-rotation joins it, keeping
            // the every-class-within-k-picks guarantee for newcomers too.
            // The containment check matters: the engine removes and re-adds
            // the running state around every execution slice, and a
            // sole-member class must not enqueue a duplicate rotation entry
            // each time (the rotation would grow without bound and the hot
            // class would be drawn many times per round, starving the rest).
            self.rotation.push(class);
        }
        states.push(meta.id);
    }

    fn remove(&mut self, id: StateId) {
        if let Some(class) = self.index.remove(&id) {
            if let Some(states) = self.classes.get_mut(&class) {
                states.retain(|s| *s != id);
                if states.is_empty() {
                    self.classes.remove(&class);
                }
            }
        }
    }

    fn select(&mut self) -> Option<StateId> {
        loop {
            if self.rotation.is_empty() {
                if self.classes.is_empty() {
                    return None;
                }
                self.rotation.extend(self.classes.keys().copied());
            }
            // Visit a uniformly random not-yet-visited class this rotation.
            let idx = if self.rotation.len() == 1 {
                0
            } else {
                self.rng.gen_range(0..self.rotation.len())
            };
            let class = self.rotation.swap_remove(idx);
            let Some(states) = self.classes.get(&class) else {
                continue; // emptied mid-rotation; skip its stale key
            };
            let pick = if states.len() == 1 {
                0
            } else {
                self.rng.gen_range(0..states.len())
            };
            return Some(states[pick]);
        }
    }

    fn len(&self) -> usize {
        self.index.len()
    }

    fn name(&self) -> &'static str {
        "cupa"
    }
}

/// Interleaves several searchers round-robin — the configuration used in the
/// paper's evaluation is an interleaving of random-path and
/// coverage-optimized search.
pub struct InterleavedSearcher {
    searchers: Vec<Box<dyn Searcher>>,
    next: usize,
}

impl InterleavedSearcher {
    /// Creates an interleaving of the given searchers.
    pub fn new(searchers: Vec<Box<dyn Searcher>>) -> InterleavedSearcher {
        assert!(!searchers.is_empty());
        InterleavedSearcher { searchers, next: 0 }
    }

    /// The default strategy of the paper's evaluation: random-path
    /// interleaved with coverage-optimized search.
    pub fn klee_default(seed: u64) -> InterleavedSearcher {
        InterleavedSearcher::new(vec![
            Box::new(RandomPathSearcher::new(seed)),
            Box::new(CoverageOptimizedSearcher::new(seed.wrapping_add(1))),
        ])
    }
}

impl Searcher for InterleavedSearcher {
    fn add(&mut self, meta: StateMeta) {
        for s in &mut self.searchers {
            s.add(meta);
        }
    }
    fn remove(&mut self, id: StateId) {
        for s in &mut self.searchers {
            s.remove(id);
        }
    }
    fn select(&mut self) -> Option<StateId> {
        let n = self.searchers.len();
        for i in 0..n {
            let idx = (self.next + i) % n;
            if let Some(id) = self.searchers[idx].select() {
                self.next = (idx + 1) % n;
                return Some(id);
            }
        }
        None
    }
    fn len(&self) -> usize {
        self.searchers[0].len()
    }
    fn name(&self) -> &'static str {
        "interleaved"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(id: u64, depth: usize, cov: usize) -> StateMeta {
        StateMeta {
            id: StateId(id),
            depth,
            new_coverage: cov,
            call_site: 0,
            query_cost: 0,
        }
    }

    fn meta_in(id: u64, cov: usize, call_site: u32, query_cost: usize) -> StateMeta {
        StateMeta {
            id: StateId(id),
            depth: 0,
            new_coverage: cov,
            call_site,
            query_cost,
        }
    }

    #[test]
    fn dfs_runs_newest_first() {
        let mut s = DfsSearcher::new();
        s.add(meta(1, 0, 0));
        s.add(meta(2, 1, 0));
        assert_eq!(s.select(), Some(StateId(2)));
        s.remove(StateId(2));
        assert_eq!(s.select(), Some(StateId(1)));
        s.remove(StateId(1));
        assert_eq!(s.select(), None);
    }

    #[test]
    fn bfs_cycles_fairly() {
        let mut s = BfsSearcher::new();
        s.add(meta(1, 0, 0));
        s.add(meta(2, 0, 0));
        let first = s.select().unwrap();
        let second = s.select().unwrap();
        assert_ne!(first, second);
    }

    #[test]
    fn random_searchers_are_deterministic_per_seed() {
        let mut a = RandomSearcher::new(7);
        let mut b = RandomSearcher::new(7);
        for i in 0..10 {
            a.add(meta(i, 0, 0));
            b.add(meta(i, 0, 0));
        }
        for _ in 0..20 {
            assert_eq!(a.select(), b.select());
        }
    }

    #[test]
    fn random_path_prefers_shallow_states() {
        let mut s = RandomPathSearcher::new(3);
        s.add(meta(1, 0, 0));
        s.add(meta(2, 30, 0));
        let mut shallow = 0;
        for _ in 0..200 {
            if s.select() == Some(StateId(1)) {
                shallow += 1;
            }
        }
        assert!(shallow > 150, "shallow state selected only {shallow}/200");
    }

    #[test]
    fn coverage_optimized_prefers_new_coverage() {
        let mut s = CoverageOptimizedSearcher::new(3);
        s.add(meta(1, 0, 0));
        s.add(meta(2, 0, 5));
        let mut covered = 0;
        for _ in 0..200 {
            if s.select() == Some(StateId(2)) {
                covered += 1;
            }
        }
        assert!(covered > 120, "covering state selected only {covered}/200");
    }

    #[test]
    fn strategy_names_round_trip() {
        for kind in StrategyKind::ALL {
            let parsed: StrategyKind = kind.name().parse().expect("round trip");
            assert_eq!(parsed, kind);
            assert_eq!(kind.to_string(), kind.name());
        }
    }

    #[test]
    fn unknown_strategy_error_lists_valid_names() {
        let err = "simulated-annealing"
            .parse::<StrategyKind>()
            .expect_err("unknown name must be rejected");
        let msg = err.to_string();
        assert!(msg.contains("simulated-annealing"), "message: {msg}");
        for kind in StrategyKind::ALL {
            assert!(msg.contains(kind.name()), "message misses {kind}: {msg}");
        }
    }

    #[test]
    fn build_searcher_covers_every_kind() {
        for kind in StrategyKind::ALL {
            let mut s = build_searcher(kind, 11);
            s.add(meta(1, 0, 0));
            assert_eq!(s.select(), Some(StateId(1)), "{kind} lost its state");
            assert_eq!(s.len(), 1);
        }
    }

    #[test]
    fn interleaved_is_fair_across_sub_searchers() {
        // Two sub-searchers with deterministic favourites: DFS favours the
        // newest state, BFS cycles. Round-robin interleaving must consult
        // them in strict alternation, so over 2k picks each sub-searcher
        // decides exactly k times.
        let mut s = InterleavedSearcher::new(vec![
            Box::new(DfsSearcher::new()),
            Box::new(BfsSearcher::new()),
        ]);
        s.add(meta(1, 0, 0));
        s.add(meta(2, 1, 0));
        // DFS always answers 2; BFS alternates 1, 2, 1, 2...
        let picks: Vec<StateId> = (0..4).map(|_| s.select().unwrap()).collect();
        assert_eq!(
            picks,
            vec![StateId(2), StateId(1), StateId(2), StateId(2)],
            "round-robin order violated"
        );
        // Removing the states empties both sub-searchers consistently.
        s.remove(StateId(1));
        s.remove(StateId(2));
        assert_eq!(s.select(), None);
    }

    #[test]
    fn cupa_selects_every_nonempty_class_within_one_rotation() {
        let mut s = CupaSearcher::new(5);
        // Three classes: covering, plain call-site 1, expensive call-site 2.
        s.add(meta_in(1, 3, 1, 0));
        s.add(meta_in(2, 0, 1, 0));
        s.add(meta_in(3, 0, 2, 1000));
        assert_eq!(s.num_classes(), 3);
        // A giant sibling cluster in one more class must not starve others.
        for id in 10..60 {
            s.add(meta_in(id, 0, 7, 0));
        }
        assert_eq!(s.num_classes(), 4);
        let k = s.num_classes();
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..k {
            let picked = s.select().expect("states available");
            seen.insert(CupaSearcher::classify(&match picked {
                StateId(1) => meta_in(1, 3, 1, 0),
                StateId(2) => meta_in(2, 0, 1, 0),
                StateId(3) => meta_in(3, 0, 2, 1000),
                StateId(id) => meta_in(id, 0, 7, 0),
            }));
        }
        assert_eq!(seen.len(), k, "a class was starved within one rotation");
    }

    #[test]
    fn cupa_skips_emptied_classes_and_empties_cleanly() {
        let mut s = CupaSearcher::new(9);
        s.add(meta_in(1, 0, 1, 0));
        s.add(meta_in(2, 0, 2, 0));
        // Empty a class mid-rotation: its stale rotation entry must be
        // skipped, never selected.
        s.remove(StateId(1));
        for _ in 0..10 {
            assert_eq!(s.select(), Some(StateId(2)));
        }
        s.remove(StateId(2));
        assert_eq!(s.select(), None);
        assert_eq!(s.len(), 0);
        assert_eq!(s.num_classes(), 0);
    }

    #[test]
    fn cupa_is_deterministic_under_a_fixed_seed() {
        let build = || {
            let mut s = CupaSearcher::new(42);
            for id in 0..20 {
                s.add(meta_in(
                    id,
                    (id % 3) as usize,
                    (id % 4) as u32,
                    id as usize * 7,
                ));
            }
            s
        };
        let (mut a, mut b) = (build(), build());
        for _ in 0..100 {
            assert_eq!(a.select(), b.select());
        }
    }

    #[test]
    fn cupa_remove_readd_cycles_do_not_starve_other_classes() {
        // The engine removes and re-adds the running state around every
        // execution slice. A sole-member class cycled this way must not
        // accumulate rotation entries: afterwards, one rotation's worth of
        // picks still visits every class.
        let mut s = CupaSearcher::new(17);
        s.add(meta_in(1, 0, 1, 0)); // the hot, constantly-cycled state
        s.add(meta_in(2, 0, 2, 0));
        s.add(meta_in(3, 0, 3, 0));
        for _ in 0..1000 {
            s.remove(StateId(1));
            s.add(meta_in(1, 0, 1, 0));
        }
        let k = s.num_classes();
        assert_eq!(k, 3);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..k {
            seen.insert(s.select().expect("states available"));
        }
        assert_eq!(
            seen.len(),
            k,
            "remove/re-add cycling let one class crowd out the rotation"
        );
    }

    #[test]
    fn cupa_reclassifies_a_readded_state() {
        let mut s = CupaSearcher::new(3);
        s.add(meta_in(1, 0, 1, 0));
        assert_eq!(s.num_classes(), 1);
        // The same state comes back (after a quantum) having covered new
        // lines: it must move to the covering class, not duplicate.
        s.add(meta_in(1, 5, 1, 0));
        assert_eq!(s.len(), 1);
        assert_eq!(s.num_classes(), 1);
        assert_eq!(s.select(), Some(StateId(1)));
    }

    #[test]
    fn a_second_add_replaces_the_first_in_every_searcher() {
        for kind in StrategyKind::ALL {
            let mut s = build_searcher(kind, 5);
            s.add(meta(1, 0, 0));
            s.add(meta(2, 0, 0));
            s.add(meta(1, 7, 3));
            assert_eq!(s.len(), 2, "{kind} holds a state twice");
            s.remove(StateId(1));
            assert_eq!(s.len(), 1, "{kind}");
            for _ in 0..20 {
                assert_eq!(s.select(), Some(StateId(2)), "{kind} kept a stale entry");
            }
            s.remove(StateId(2));
            assert_eq!(s.select(), None, "{kind}");
        }
    }

    #[test]
    fn a_second_add_takes_the_new_metadata_and_the_last_place() {
        // Random-path: the re-added state is now 40 levels deeper than its
        // neighbour, so it is (all but) never drawn.
        let mut s = InterleavedSearcher::new(vec![Box::new(RandomPathSearcher::new(3))]);
        s.add(meta(1, 0, 0));
        s.add(meta(2, 0, 0));
        s.add(meta(1, 40, 0));
        assert_eq!(s.len(), 2);
        assert!((0..200).all(|_| s.select() == Some(StateId(2))));
        // DFS and BFS see it as the newest state.
        let mut dfs = DfsSearcher::new();
        let mut bfs = BfsSearcher::new();
        for id in [1, 2, 1] {
            dfs.add(meta(id, 0, 0));
            bfs.add(meta(id, 0, 0));
        }
        assert_eq!(dfs.select(), Some(StateId(1)));
        assert_eq!(bfs.select(), Some(StateId(2)));
    }

    #[test]
    fn interleaved_alternates_and_stays_consistent() {
        let mut s = InterleavedSearcher::klee_default(1);
        assert!(s.is_empty());
        s.add(meta(1, 0, 0));
        s.add(meta(2, 3, 2));
        assert_eq!(s.len(), 2);
        assert!(s.select().is_some());
        s.remove(StateId(1));
        s.remove(StateId(2));
        assert_eq!(s.select(), None);
    }
}
