//! Budgeted backtracking search for satisfying assignments.
//!
//! [`search`] refines a domain per symbol ([`refine_domains`]), orders the
//! symbols — smallest search size first, then the most mentioned, then by
//! id — and runs a depth-first search that tries each symbol's domain values
//! in domain order, rejecting a value as soon as some constraint is
//! definitely false under the values assigned so far. The first full
//! assignment that survives is the model.
//!
//! # The compiled kernel
//!
//! Before the depth-first search starts, the constraints are compiled once
//! into a flat arena of nodes:
//!
//! - nodes are de-duplicated by `Arc` pointer, so a sub-DAG shared by
//!   several constraints (or twice within one) is one node;
//! - each symbol becomes a dense *slot*, its position in the variable order;
//!   a symbol the width table does not know gets no slot and never has a
//!   value;
//! - a node's *level* is the deepest slot it reads. Nodes that read no slot
//!   are folded to their value at compile time; the rest are stored grouped
//!   by level, each level in post-order.
//!
//! Assigning slot `d` writes its raw value and recomputes only the level-`d`
//! nodes, in post-order, from the values the shallower levels already hold:
//! those slots did not change. It then checks the constraints whose deepest
//! slot is `d`. A constraint that mentions slot `d` but also a deeper one is
//! skipped when it contains no `Ite`: evaluating an expression with an
//! unassigned symbol and no `Ite` gives no value. One with an `Ite` goes
//! through [`Kernel::partial`], which mirrors [`c9_expr::Expr::eval`]'s
//! `None` propagation and `Ite` short-circuit.
//!
//! So every value is rejected by exactly the constraints that evaluating
//! each constraint mentioning the just-assigned symbol under the partial
//! assignment would reject it by, in the same variable and value order and
//! with the same node count: the kernel finds the same first model, runs
//! out of budget at the same node and reports the same `Unknown`s as the
//! tree-walking search it replaced, which the tests keep as their reference.

use crate::cache::FingerprintMap;
use crate::domain::{refine_domains, Domain};
use c9_expr::{
    collect_symbols, Assignment, BinaryOp, ConstValue, ExprKind, ExprRef, SymbolId, UnaryOp, Width,
};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Resource limits on a single search.
#[derive(Clone, Copy, Debug)]
pub struct SearchBudget {
    /// Maximum number of (symbol, value) assignments tried before giving up.
    pub max_nodes: u64,
}

impl Default for SearchBudget {
    fn default() -> SearchBudget {
        SearchBudget { max_nodes: 500_000 }
    }
}

/// Outcome of a backtracking search.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SearchOutcome {
    /// A satisfying assignment was found.
    Sat(Assignment),
    /// The constraints are unsatisfiable (proved by exhausting complete
    /// domains).
    Unsat,
    /// The search ran out of budget, or a domain could not be enumerated
    /// exhaustively; nothing was proved.
    Unknown,
}

/// What a search answered, and how many nodes it took.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Searched {
    /// The answer.
    pub outcome: SearchOutcome,
    /// (symbol, value) assignments tried, counted as
    /// [`SearchBudget::max_nodes`] counts them: a search that ran out of
    /// budget reports `max_nodes + 1`.
    pub nodes: u64,
}

/// Searches for an assignment satisfying all `constraints`.
///
/// `widths` maps every symbol mentioned by the constraints to its width.
pub fn search(
    constraints: &[ExprRef],
    widths: &BTreeMap<SymbolId, Width>,
    budget: SearchBudget,
) -> Searched {
    let answer = |outcome| Searched { outcome, nodes: 0 };
    // Trivial case: no constraints at all.
    if constraints.is_empty() {
        return answer(SearchOutcome::Sat(Assignment::new()));
    }

    let domains = refine_domains(constraints, widths);

    // Fast-path: any empty domain over an exhaustively-known interval proves
    // unsatisfiability outright.
    if domains.values().any(Domain::is_empty) {
        return answer(SearchOutcome::Unsat);
    }

    // Variable ordering: most constrained (smallest search size) first, then
    // by how many constraints mention the symbol.
    let constraint_syms: Vec<BTreeSet<SymbolId>> =
        constraints.iter().map(collect_symbols).collect();
    let mut mention_count: BTreeMap<SymbolId, usize> = BTreeMap::new();
    for syms in &constraint_syms {
        for s in syms {
            *mention_count.entry(*s).or_insert(0) += 1;
        }
    }
    let mut order: Vec<SymbolId> = widths.keys().copied().collect();
    order.sort_by_key(|s| {
        let size = domains.get(s).map(|d| d.search_size()).unwrap_or(u64::MAX);
        let mentions = mention_count.get(s).copied().unwrap_or(0);
        (size, usize::MAX - mentions, s.0)
    });
    let exhaustive_all = order
        .iter()
        .all(|s| domains.get(s).map(|d| d.exhaustive).unwrap_or(false));

    let mut values: Vec<Values<_>> = order
        .iter()
        .map(|s| Values {
            seen: Vec::new(),
            rest: domains[s].iter_values().fuse(),
        })
        .collect();
    let mut kernel = Kernel::compile(constraints, &constraint_syms, &order);
    let mut nodes: u64 = 0;
    let outcome = match kernel.dfs(0, &mut values, &mut nodes, budget.max_nodes) {
        Dfs::Found => SearchOutcome::Sat(order.iter().copied().zip(kernel.slots).collect()),
        Dfs::Exhausted if exhaustive_all => SearchOutcome::Unsat,
        Dfs::Exhausted | Dfs::BudgetExceeded => SearchOutcome::Unknown,
    };
    Searched { outcome, nodes }
}

enum Dfs {
    Found,
    Exhausted,
    BudgetExceeded,
}

/// One slot's domain values in [`Domain::iter_values`] order, drawn from
/// it once and replayed each time the search comes back to the slot.
struct Values<I> {
    seen: Vec<u64>,
    rest: I,
}

impl<I: Iterator<Item = u64>> Values<I> {
    /// The `k`-th value, if the domain has that many.
    fn get(&mut self, k: usize) -> Option<u64> {
        if k == self.seen.len() {
            let v = self.rest.next()?;
            self.seen.push(v);
        }
        Some(self.seen[k])
    }
}

/// One arena node's operation. Operands are arena indices, always of
/// nodes stored before this one.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// A constant; like every node that reads no slot, its value is set
    /// once at compile time.
    Const,
    /// A symbol with a slot.
    Slot(u32),
    /// A symbol without one: it never has a value.
    Unbound,
    Unary(UnaryOp, u32),
    Binary(BinaryOp, u32, u32),
    Ite(u32, u32, u32),
    ZExt(u32),
    SExt(u32),
    Extract(u32, u32),
    Concat(u32, u32),
}

impl Op {
    fn operands(self) -> impl Iterator<Item = u32> {
        let (ops, n) = match self {
            Op::Const | Op::Slot(_) | Op::Unbound => ([0; 3], 0),
            Op::Unary(_, a) | Op::ZExt(a) | Op::SExt(a) | Op::Extract(a, _) => ([a, 0, 0], 1),
            Op::Binary(_, a, b) | Op::Concat(a, b) => ([a, b, 0], 2),
            Op::Ite(c, t, e) => ([c, t, e], 3),
        };
        ops.into_iter().take(n)
    }
}

#[derive(Clone, Copy, Debug)]
struct Node {
    op: Op,
    /// The width of the node's value.
    width: Width,
    /// The width its operands are read at: the operand's for `Unary`,
    /// `Binary` (both have it), the extensions and `Extract`; the
    /// condition's for `Ite`; the low half's for `Concat`.
    arg: Width,
}

/// The constraints of one search, compiled: see the module documentation.
struct Kernel {
    /// The arena, in post-order: every operand precedes its users.
    nodes: Vec<Node>,
    /// Per node, its level plus one: 0 for a folded node, one past the
    /// deepest slot's for a node that reads an unbound symbol.
    rank: Vec<u32>,
    /// Whether the node's sub-DAG contains an `Ite`.
    has_ite: Vec<bool>,
    /// The nodes' current values; a node's is current once its level is
    /// assigned (at once, for a folded node).
    vals: Vec<u64>,
    /// The nodes sorted by rank, post-order within a rank; the nodes of
    /// level `d` are `by_level[level_start[d]..level_start[d + 1]]`.
    by_level: Vec<u32>,
    level_start: Vec<usize>,
    /// The raw value assigned to each slot.
    slots: Vec<u64>,
    /// Per slot, the constraints whose deepest slot it is.
    bound: Vec<Vec<u32>>,
    /// Per slot, the constraints with an `Ite` that mention it and a deeper
    /// or unbound symbol.
    partial: Vec<Vec<u32>>,
}

impl Kernel {
    fn compile(
        constraints: &[ExprRef],
        constraint_syms: &[BTreeSet<SymbolId>],
        order: &[SymbolId],
    ) -> Kernel {
        let slot_of: BTreeMap<SymbolId, u32> = order
            .iter()
            .enumerate()
            .map(|(d, s)| (*s, d as u32))
            .collect();
        let mut compiler = Compiler {
            slot_of: &slot_of,
            memo: FingerprintMap::default(),
            kernel: Kernel {
                nodes: Vec::new(),
                rank: Vec::new(),
                has_ite: Vec::new(),
                vals: Vec::new(),
                by_level: Vec::new(),
                level_start: Vec::new(),
                slots: vec![0; order.len()],
                bound: vec![Vec::new(); order.len()],
                partial: vec![Vec::new(); order.len()],
            },
        };
        let roots: Vec<u32> = constraints.iter().map(|c| compiler.node(c)).collect();
        let mut k = compiler.kernel;

        // A stable sort keeps post-order within a level.
        k.by_level = (0..k.nodes.len() as u32).collect();
        k.by_level.sort_by_key(|&i| k.rank[i as usize]);
        k.level_start = (1..=order.len() as u32 + 1)
            .map(|rank| k.by_level.partition_point(|&i| k.rank[i as usize] < rank))
            .collect();

        for (&root, syms) in roots.iter().zip(constraint_syms) {
            // A constraint that mentions no slot is checked at no depth.
            let rank = k.rank[root as usize] as usize;
            if (1..=order.len()).contains(&rank) {
                k.bound[rank - 1].push(root);
            }
            if k.has_ite[root as usize] {
                for d in syms.iter().filter_map(|s| slot_of.get(s)) {
                    if (*d as usize) + 1 < rank {
                        k.partial[*d as usize].push(root);
                    }
                }
            }
        }
        k
    }

    /// Tries every value of slot `depth` and, under each that no constraint
    /// refutes, the deeper slots.
    fn dfs<I: Iterator<Item = u64>>(
        &mut self,
        depth: usize,
        values: &mut [Values<I>],
        nodes: &mut u64,
        max_nodes: u64,
    ) -> Dfs {
        if depth == values.len() {
            // Every constraint that mentions a slot was checked at its
            // deepest one.
            return Dfs::Found;
        }
        let mut k = 0;
        while let Some(value) = values[depth].get(k) {
            k += 1;
            *nodes += 1;
            if *nodes > max_nodes {
                return Dfs::BudgetExceeded;
            }
            self.slots[depth] = value;
            for &i in &self.by_level[self.level_start[depth]..self.level_start[depth + 1]] {
                let i = i as usize;
                self.vals[i] = eval_node(self.nodes[i], &self.vals, &self.slots);
            }
            if !self.refuted(depth) {
                match self.dfs(depth + 1, values, nodes, max_nodes) {
                    Dfs::Exhausted => {}
                    other => return other,
                }
            }
        }
        Dfs::Exhausted
    }

    /// Whether some constraint is definitely false once slot `depth` holds
    /// its value.
    fn refuted(&mut self, depth: usize) -> bool {
        let holds =
            |nodes: &[Node], c: u32, v: u64| ConstValue::new(v, nodes[c as usize].width).is_true();
        if self.bound[depth]
            .iter()
            .any(|&c| !holds(&self.nodes, c, self.vals[c as usize]))
        {
            return true;
        }
        for k in 0..self.partial[depth].len() {
            let c = self.partial[depth][k];
            if let Some(v) = self.partial(c, depth as u32 + 1) {
                if !holds(&self.nodes, c, v) {
                    return true;
                }
            }
        }
        false
    }

    /// The value of node `i` when only the nodes of rank `known` or less
    /// hold current values, or `None` where [`c9_expr::Expr::eval`] gives
    /// none: an unassigned symbol is read on every path through an
    /// `Ite`-free node, and an `Ite` reads only its condition and the arm it
    /// selects. A value found is stored in `vals`: a node of a higher rank
    /// is recomputed before anything reads it as current.
    fn partial(&mut self, i: u32, known: u32) -> Option<u64> {
        let i = i as usize;
        if self.rank[i] <= known {
            return Some(self.vals[i]);
        }
        if !self.has_ite[i] {
            return None;
        }
        let node = self.nodes[i];
        let v = match node.op {
            Op::Ite(c, t, e) => {
                let cond = self.partial(c, known)?;
                let arm = if ConstValue::new(cond, node.arg).is_true() {
                    t
                } else {
                    e
                };
                self.partial(arm, known)?
            }
            op => {
                for a in op.operands() {
                    self.partial(a, known)?;
                }
                eval_node(node, &self.vals, &self.slots)
            }
        };
        self.vals[i] = v;
        Some(v)
    }
}

/// Builds a [`Kernel`]'s arena, one node per distinct `Arc`.
struct Compiler<'a> {
    slot_of: &'a BTreeMap<SymbolId, u32>,
    memo: FingerprintMap<u64, u32>,
    kernel: Kernel,
}

impl Compiler<'_> {
    fn node(&mut self, e: &ExprRef) -> u32 {
        let key = Arc::as_ptr(e) as usize as u64;
        if let Some(&i) = self.memo.get(&key) {
            return i;
        }
        let width = e.width();
        let (op, arg) = match e.kind() {
            ExprKind::Const(_) => (Op::Const, width),
            ExprKind::Sym(s) => match self.slot_of.get(s) {
                Some(&d) => (Op::Slot(d), width),
                None => (Op::Unbound, width),
            },
            ExprKind::Unary(op, a) => (Op::Unary(*op, self.node(a)), a.width()),
            ExprKind::Binary(op, a, b) => (Op::Binary(*op, self.node(a), self.node(b)), a.width()),
            ExprKind::Ite(c, t, f) => {
                (Op::Ite(self.node(c), self.node(t), self.node(f)), c.width())
            }
            ExprKind::ZExt(a) => (Op::ZExt(self.node(a)), a.width()),
            ExprKind::SExt(a) => (Op::SExt(self.node(a)), a.width()),
            ExprKind::Extract(a, offset) => (Op::Extract(self.node(a), *offset), a.width()),
            ExprKind::Concat(hi, lo) => (Op::Concat(self.node(hi), self.node(lo)), lo.width()),
        };
        let k = &mut self.kernel;
        let rank = match op {
            Op::Const => 0,
            Op::Slot(d) => d + 1,
            Op::Unbound => k.slots.len() as u32 + 1,
            _ => op.operands().map(|a| k.rank[a as usize]).max().unwrap_or(0),
        };
        let has_ite = matches!(op, Op::Ite(..)) || op.operands().any(|a| k.has_ite[a as usize]);
        let node = Node { op, width, arg };
        let val = match e.kind() {
            ExprKind::Const(v) => v.value(),
            // Folded: every operand is a folded node with its value set.
            _ if rank == 0 => eval_node(node, &k.vals, &[]),
            _ => 0,
        };
        let i = k.nodes.len() as u32;
        k.nodes.push(node);
        k.rank.push(rank);
        k.has_ite.push(has_ite);
        k.vals.push(val);
        self.memo.insert(key, i);
        i
    }
}

/// The value of `node` from the values its operands hold in `vals` and, for
/// a slot, the raw value in `slots`.
#[inline]
fn eval_node(node: Node, vals: &[u64], slots: &[u64]) -> u64 {
    let val = |a: u32| vals[a as usize];
    let arg = |a: u32| ConstValue::new(val(a), node.arg);
    match node.op {
        Op::Slot(d) => node.width.truncate(slots[d as usize]),
        Op::Unary(op, a) => op.apply(arg(a)).value(),
        Op::Binary(op, a, b) => op.apply(arg(a), arg(b)).value(),
        Op::Ite(c, t, e) => val(if arg(c).is_true() { t } else { e }),
        Op::ZExt(a) => arg(a).zext(node.width).value(),
        Op::SExt(a) => arg(a).sext(node.width).value(),
        Op::Extract(a, offset) => arg(a).extract(offset, node.width).value(),
        Op::Concat(hi, lo) => node.width.truncate((val(hi) << node.arg.bits()) | val(lo)),
        Op::Const | Op::Unbound => {
            unreachable!(
                "a constant is folded at compile time, an unbound symbol never has a value"
            )
        }
    }
}
