//! Traversals over expression DAGs: symbol collection, substitution, sizing.

use crate::expr::{Expr, ExprKind, ExprRef};
use crate::{Assignment, SymbolId};
use std::collections::{BTreeSet, HashMap, HashSet};

/// How many symbols a [`SymbolList`] holds without a heap allocation. The
/// branch conditions of the targets compare one to four input bytes.
const INLINE_SYMBOLS: usize = 8;

/// Nodes [`symbols_of`] visits as a plain tree walk before it starts over
/// with a visited set. A tree walk needs no memory, but visits a node shared
/// by `n` parents `n` times; the bound keeps heavily shared DAGs linear.
const TREE_WALK_BUDGET: usize = 256;

/// The symbols an expression mentions: sorted, each once.
///
/// Dereferences to `[SymbolId]`. Up to eight symbols live in the value
/// itself, so asking for the symbols of a typical branch condition allocates
/// nothing.
#[derive(Clone, Debug)]
pub struct SymbolList {
    /// Symbols in `inline`; unused once `spill` took over.
    len: usize,
    inline: [SymbolId; INLINE_SYMBOLS],
    /// Empty until a ninth symbol arrives, then holds all of them.
    spill: Vec<SymbolId>,
}

impl SymbolList {
    fn new() -> SymbolList {
        SymbolList {
            len: 0,
            inline: [SymbolId(0); INLINE_SYMBOLS],
            spill: Vec::new(),
        }
    }

    fn insert(&mut self, sym: SymbolId) {
        let Err(at) = self.binary_search(&sym) else {
            return;
        };
        if !self.spill.is_empty() {
            self.spill.insert(at, sym);
        } else if self.len < INLINE_SYMBOLS {
            self.inline.copy_within(at..self.len, at + 1);
            self.inline[at] = sym;
            self.len += 1;
        } else {
            self.spill.reserve(2 * INLINE_SYMBOLS);
            self.spill.extend_from_slice(&self.inline);
            self.spill.insert(at, sym);
        }
    }
}

impl std::ops::Deref for SymbolList {
    type Target = [SymbolId];

    fn deref(&self) -> &[SymbolId] {
        if self.spill.is_empty() {
            &self.inline[..self.len]
        } else {
            &self.spill
        }
    }
}

impl PartialEq for SymbolList {
    fn eq(&self, other: &SymbolList) -> bool {
        **self == **other
    }
}

impl Eq for SymbolList {}

fn children(e: &Expr) -> impl Iterator<Item = &ExprRef> {
    let slots = match e.kind() {
        ExprKind::Const(_) | ExprKind::Sym(_) => [None, None, None],
        ExprKind::Unary(_, a) | ExprKind::ZExt(a) | ExprKind::SExt(a) | ExprKind::Extract(a, _) => {
            [Some(a), None, None]
        }
        ExprKind::Binary(_, a, b) | ExprKind::Concat(a, b) => [Some(a), Some(b), None],
        ExprKind::Ite(c, t, f) => [Some(c), Some(t), Some(f)],
    };
    slots.into_iter().flatten()
}

/// Adds the symbols below `e` to `out`, visiting at most `budget` nodes;
/// `false` when the budget ran out first.
fn tree_walk(e: &Expr, out: &mut SymbolList, budget: &mut usize) -> bool {
    if *budget == 0 {
        return false;
    }
    *budget -= 1;
    if let ExprKind::Sym(id) = e.kind() {
        out.insert(*id);
    }
    children(e).all(|child| tree_walk(child, out, budget))
}

/// Adds the symbols of `expr` to `out`, visiting every shared node once.
fn visited_walk(expr: &ExprRef, out: &mut SymbolList) {
    let mut visited: HashSet<*const Expr> = HashSet::new();
    let mut stack: Vec<&ExprRef> = vec![expr];
    while let Some(e) = stack.pop() {
        if !visited.insert(std::sync::Arc::as_ptr(e)) {
            continue;
        }
        if let ExprKind::Sym(id) = e.kind() {
            out.insert(*id);
        }
        stack.extend(children(e));
    }
}

/// The symbols referenced by `expr`, as a sorted list.
pub fn symbols_of(expr: &ExprRef) -> SymbolList {
    let mut out = SymbolList::new();
    let mut budget = TREE_WALK_BUDGET;
    if !tree_walk(expr, &mut out, &mut budget) {
        // Inserting is idempotent, so what the cut-off walk found stays.
        visited_walk(expr, &mut out);
    }
    out
}

/// The symbols referenced by `expr`, as a set.
pub fn collect_symbols(expr: &ExprRef) -> BTreeSet<SymbolId> {
    symbols_of(expr).iter().copied().collect()
}

/// Number of nodes in the expression, counting shared nodes once.
pub fn expr_size(expr: &ExprRef) -> usize {
    let mut visited: HashSet<*const Expr> = HashSet::new();
    let mut stack: Vec<&ExprRef> = vec![expr];
    let mut count = 0;
    while let Some(e) = stack.pop() {
        if !visited.insert(std::sync::Arc::as_ptr(e)) {
            continue;
        }
        count += 1;
        stack.extend(children(e));
    }
    count
}

/// Depth of the expression tree (a single node has depth 1).
pub fn expr_depth(expr: &ExprRef) -> usize {
    fn go(e: &ExprRef, memo: &mut HashMap<*const Expr, usize>) -> usize {
        let key = std::sync::Arc::as_ptr(e);
        if let Some(&d) = memo.get(&key) {
            return d;
        }
        let d = 1 + match e.kind() {
            ExprKind::Const(_) | ExprKind::Sym(_) => 0,
            ExprKind::Unary(_, a)
            | ExprKind::ZExt(a)
            | ExprKind::SExt(a)
            | ExprKind::Extract(a, _) => go(a, memo),
            ExprKind::Binary(_, a, b) | ExprKind::Concat(a, b) => go(a, memo).max(go(b, memo)),
            ExprKind::Ite(c, t, f) => go(c, memo).max(go(t, memo)).max(go(f, memo)),
        };
        memo.insert(key, d);
        d
    }
    go(expr, &mut HashMap::new())
}

/// Substitutes the symbols bound in `assignment` with their concrete values,
/// re-simplifying along the way. Unbound symbols are left in place.
pub fn substitute(expr: &ExprRef, assignment: &Assignment) -> ExprRef {
    fn go(e: &ExprRef, asg: &Assignment, memo: &mut HashMap<*const Expr, ExprRef>) -> ExprRef {
        let key = std::sync::Arc::as_ptr(e);
        if let Some(cached) = memo.get(&key) {
            return cached.clone();
        }
        let result = match e.kind() {
            ExprKind::Const(_) => e.clone(),
            ExprKind::Sym(id) => match asg.get(*id) {
                Some(v) => Expr::const_(v, e.width()),
                None => e.clone(),
            },
            ExprKind::Unary(op, a) => Expr::unary(*op, go(a, asg, memo)),
            ExprKind::Binary(op, a, b) => Expr::binary(*op, go(a, asg, memo), go(b, asg, memo)),
            ExprKind::Ite(c, t, f) => {
                Expr::ite(go(c, asg, memo), go(t, asg, memo), go(f, asg, memo))
            }
            ExprKind::ZExt(a) => Expr::zext(go(a, asg, memo), e.width()),
            ExprKind::SExt(a) => Expr::sext(go(a, asg, memo), e.width()),
            ExprKind::Extract(a, offset) => Expr::extract(go(a, asg, memo), *offset, e.width()),
            ExprKind::Concat(hi, lo) => Expr::concat(go(hi, asg, memo), go(lo, asg, memo)),
        };
        memo.insert(key, result.clone());
        result
    }
    go(expr, assignment, &mut HashMap::new())
}
