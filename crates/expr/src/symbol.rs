//! Symbolic variables and their registry.
//!
//! The registry is persistent: a [`SymbolManager`] is a pointer to the
//! newest of a parent-linked chain of *batch* records, one per
//! [`SymbolManager::fresh`] / [`SymbolManager::fresh_bytes`] call. A forked
//! execution state shares the whole chain with its parent (a clone is one
//! reference-count increment), a state that allocates more symbols appends
//! a record to the shared spine, and the per-symbol names (`name` or
//! `name[i]`) are built only when somebody asks for them — which is when a
//! test case is emitted, not on the fork path.

use crate::Width;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// Identifier of a symbolic variable.
///
/// Symbol identifiers are allocated by a [`SymbolManager`]; the execution
/// state carries one manager per path so that symbol identifiers are
/// deterministic across job replays (see the "broken replays" discussion in
/// §6 of the paper).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct SymbolId(pub u32);

impl SymbolId {
    /// The raw index of this symbol.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for SymbolId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Metadata of one symbolic variable, as [`SymbolManager::info`] and
/// [`SymbolManager::iter`] materialize it.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SymbolInfo {
    /// Identifier of the symbol.
    pub id: SymbolId,
    /// Human-readable name, e.g. `"packet0[3]"`.
    pub name: String,
    /// Width of the symbol.
    pub width: Width,
}

/// The symbols of one `fresh` / `fresh_bytes` call: ids
/// `first .. first + count`, all of one width, named `name` (a single
/// symbol) or `name[0]`, `name[1]`, … (`indexed`).
struct Batch {
    parent: Option<Arc<Batch>>,
    first: u32,
    count: u32,
    name: Box<str>,
    width: Width,
    indexed: bool,
}

impl Batch {
    /// One past the last id of this batch: the number of symbols on the
    /// chain up to and including it.
    fn end(&self) -> u32 {
        self.first + self.count
    }

    /// Materializes the `offset`-th symbol of the batch. The name is built
    /// in one exactly-sized allocation, byte for byte what
    /// `format!("{name}[{offset}]")` yields.
    fn info(&self, offset: u32) -> SymbolInfo {
        let name = if self.indexed {
            let mut digits = [0u8; 10];
            let mut at = digits.len();
            let mut rest = offset;
            loop {
                at -= 1;
                digits[at] = b'0' + (rest % 10) as u8;
                rest /= 10;
                if rest == 0 {
                    break;
                }
            }
            let digits = std::str::from_utf8(&digits[at..]).expect("ascii digits");
            let mut name = String::with_capacity(self.name.len() + digits.len() + 2);
            name.push_str(&self.name);
            name.push('[');
            name.push_str(digits);
            name.push(']');
            name
        } else {
            String::from(&*self.name)
        };
        SymbolInfo {
            id: SymbolId(self.first + offset),
            name,
            width: self.width,
        }
    }
}

impl Drop for Batch {
    /// Unlinks the uniquely owned part of the spine in a loop: the derived
    /// drop would recurse once per ancestor and overflow the stack on a
    /// long chain.
    fn drop(&mut self) {
        let mut next = self.parent.take();
        while let Some(mut batch) = next.and_then(Arc::into_inner) {
            next = batch.parent.take();
        }
    }
}

/// Allocator and registry of symbolic variables.
///
/// Each execution state owns its own manager so that the n-th symbol created
/// along a path always receives the same identifier, which is required for
/// deterministic job replay on a different worker. Identifiers are the dense
/// allocation sequence `0, 1, 2, …` along the chain.
///
/// Cloning allocates nothing and copies no name: clones share every record
/// allocated before the clone and never observe each other's later symbols.
/// An empty manager holds no heap memory at all.
#[derive(Clone, Default)]
pub struct SymbolManager {
    /// The newest batch; `None` until the first symbol is allocated.
    head: Option<Arc<Batch>>,
}

impl SymbolManager {
    /// Creates an empty manager.
    pub fn new() -> SymbolManager {
        SymbolManager::default()
    }

    fn push_batch(&mut self, name: &str, count: usize, width: Width, indexed: bool) -> u32 {
        let first = self.len() as u32;
        let end = u32::try_from(self.len() + count).expect("symbol ids exceed 32 bits");
        self.head = Some(Arc::new(Batch {
            parent: self.head.take(),
            first,
            count: end - first,
            name: name.into(),
            width,
            indexed,
        }));
        first
    }

    /// Allocates a fresh symbol with the given name and width.
    pub fn fresh(&mut self, name: &str, width: Width) -> SymbolId {
        SymbolId(self.push_batch(name, 1, width, false))
    }

    /// Allocates `count` fresh byte-wide symbols named `name[0..count]`, as
    /// one record whatever `count` is.
    pub fn fresh_bytes(&mut self, name: &str, count: usize) -> Vec<SymbolId> {
        if count == 0 {
            return Vec::new();
        }
        let first = self.push_batch(name, count, Width::W8, true);
        (first..first + count as u32).map(SymbolId).collect()
    }

    /// The chain, newest batch first.
    fn batches(&self) -> impl Iterator<Item = &Batch> {
        std::iter::successors(self.head.as_deref(), |batch| batch.parent.as_deref())
    }

    /// Looks up the metadata of a symbol (a walk down the chain: meant for
    /// reports and tests, not for the interpreter's hot path).
    pub fn info(&self, id: SymbolId) -> Option<SymbolInfo> {
        if id.index() >= self.len() {
            return None;
        }
        let batch = self.batches().find(|batch| batch.first <= id.0)?;
        Some(batch.info(id.0 - batch.first))
    }

    /// Number of symbols allocated so far.
    pub fn len(&self) -> usize {
        self.head.as_ref().map_or(0, |batch| batch.end() as usize)
    }

    /// Whether no symbols have been allocated.
    pub fn is_empty(&self) -> bool {
        self.head.is_none()
    }

    /// Iterates over all allocated symbols in allocation order, building
    /// each name as it goes.
    pub fn iter(&self) -> impl Iterator<Item = SymbolInfo> + '_ {
        let mut batches: Vec<&Batch> = self.batches().collect();
        batches.reverse();
        batches
            .into_iter()
            .flat_map(|batch| (0..batch.count).map(move |offset| batch.info(offset)))
    }
}

impl fmt::Debug for SymbolManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The table the chain replaced — one owned `SymbolInfo` per symbol,
    /// names formatted eagerly — kept as the oracle the chain is compared
    /// with.
    #[derive(Clone, Default)]
    struct TableReference {
        symbols: Vec<SymbolInfo>,
    }

    impl TableReference {
        fn fresh(&mut self, name: &str, width: Width) -> SymbolId {
            let id = SymbolId(self.symbols.len() as u32);
            self.symbols.push(SymbolInfo {
                id,
                name: name.to_string(),
                width,
            });
            id
        }

        fn fresh_bytes(&mut self, name: &str, count: usize) -> Vec<SymbolId> {
            (0..count)
                .map(|i| self.fresh(&format!("{name}[{i}]"), Width::W8))
                .collect()
        }
    }

    #[test]
    fn fresh_symbols_are_sequential() {
        let mut m = SymbolManager::new();
        let a = m.fresh("a", Width::W8);
        let b = m.fresh("b", Width::W32);
        assert_eq!(a, SymbolId(0));
        assert_eq!(b, SymbolId(1));
        assert_eq!(m.info(a).unwrap().name, "a");
        assert_eq!(m.info(b).unwrap().width, Width::W32);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn fresh_bytes_names() {
        let mut m = SymbolManager::new();
        let bytes = m.fresh_bytes("pkt", 3);
        assert_eq!(bytes.len(), 3);
        assert_eq!(m.info(bytes[2]).unwrap().name, "pkt[2]");
        assert_eq!(m.info(bytes[2]).unwrap().width, Width::W8);
        assert!(m.info(SymbolId(3)).is_none());
    }

    #[test]
    fn cloned_manager_is_deterministic() {
        let mut m = SymbolManager::new();
        m.fresh("a", Width::W8);
        let mut clone = m.clone();
        let x = m.fresh("x", Width::W8);
        let y = clone.fresh("x", Width::W8);
        // Two forked states allocating the next symbol get the same id.
        assert_eq!(x, y);
    }

    #[test]
    fn a_long_chain_drops_without_recursing() {
        let mut m = SymbolManager::new();
        for _ in 0..200_000 {
            m.fresh("s", Width::W8);
        }
        // A clone keeps the spine alive past the first drop; the second
        // drop then frees all 200 000 records.
        let clone = m.clone();
        drop(m);
        assert_eq!(clone.len(), 200_000);
        drop(clone);
    }

    /// One step of a script: an opcode, which live manager it acts on, and
    /// a size (batch length, name choice, width).
    type Op = (u8, usize, usize);

    fn scripts() -> impl Strategy<Value = Vec<Op>> {
        proptest::collection::vec((0u8..8, 0usize..64, 0usize..300), 1..50)
    }

    fn assert_same(chain: &SymbolManager, table: &TableReference, step: usize) {
        assert_eq!(chain.len(), table.symbols.len(), "len, step {step}");
        assert_eq!(chain.is_empty(), table.symbols.is_empty(), "step {step}");
        let listed: Vec<SymbolInfo> = chain.iter().collect();
        assert_eq!(listed, table.symbols, "iter, step {step}");
        for info in &table.symbols {
            assert_eq!(
                chain.info(info.id).as_ref(),
                Some(info),
                "info, step {step}"
            );
        }
        assert_eq!(chain.info(SymbolId(table.symbols.len() as u32)), None);
    }

    proptest! {
        /// Random scripts of `fresh` / `fresh_bytes` / clone-then-diverge
        /// over a family of managers: after every step every live chain
        /// lists exactly what its reference table holds — so a clone sees
        /// all of its parent's earlier symbols and none of anybody's later
        /// ones.
        #[test]
        fn prop_chain_matches_the_symbol_table(script in scripts()) {
            const NAMES: [&str; 4] = ["packet0", "sym12", "", "a[b]"];
            let mut live = vec![(SymbolManager::new(), TableReference::default())];
            for (step, &(op, pick, size)) in script.iter().enumerate() {
                let at = pick % live.len();
                let name = NAMES[size % NAMES.len()];
                match op {
                    0..=2 => {
                        let width = Width::new(1 + (size % 64) as u32);
                        let (chain, table) = &mut live[at];
                        prop_assert_eq!(chain.fresh(name, width), table.fresh(name, width));
                    }
                    3..=5 => {
                        let (chain, table) = &mut live[at];
                        prop_assert_eq!(
                            chain.fresh_bytes(name, size),
                            table.fresh_bytes(name, size)
                        );
                    }
                    6 => {
                        let fork = live[at].clone();
                        live.push(fork);
                    }
                    _ => {
                        if live.len() > 1 {
                            live.swap_remove(at);
                        }
                    }
                }
                // The manager acted on (or the new fork) in full, everybody
                // else by length: a symbol leaking into a sibling shows at
                // once, and the full comparison of all of them follows.
                let (chain, table) = live.get(at).unwrap_or(&live[0]);
                assert_same(chain, table, step);
                for (chain, table) in &live {
                    prop_assert_eq!(chain.len(), table.symbols.len(), "step {}", step);
                }
            }
            for (chain, table) in &live {
                assert_same(chain, table, script.len());
            }
        }
    }
}
